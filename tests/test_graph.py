import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphctrl.errors import ValidationError
from graphctrl.graph import (RATIO_TOL, BoundaryCondition as BC, Edge, MetricGraph, Topology,
                             check_length_set, load_problem)

from conftest import interval, star


def write_problem(tmp_path, doc, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


STAR3 = {
    "graph": {
        "edges": [{"id": "e1", "length": 1.0, "from": "v1", "to": "c"},
                  {"id": "e2", "length": 1.0, "from": "v2", "to": "c"},
                  {"id": "e3", "length": 1.0, "from": "v3", "to": "c"}],
        "vertices": [{"id": "v1", "bc": "D"}, {"id": "v2", "bc": "D"},
                     {"id": "v3", "bc": "D"}, {"id": "c", "bc": "NK"}],
    },
    "control": {"e1": [1.0, -2.0, 1.0]},
    "solver": {"num_modes": 30},
}


def test_load_star3(tmp_path):
    path = write_problem(tmp_path, STAR3)
    graph, control, settings = load_problem(path)
    assert graph.topology is Topology.STAR
    assert len(graph.edges) == 3
    assert graph.center == "c"
    assert graph.bc["c"] is BC.NEUMANN_KIRCHHOFF
    assert settings.num_modes == 30
    assert list(control.per_edge["e1"]) == [1.0, -2.0, 1.0]


def test_load_rejects_bad_center(tmp_path):
    doc = json.loads(json.dumps(STAR3))
    doc["graph"]["vertices"][3]["bc"] = "D"
    path = write_problem(tmp_path, doc)
    with pytest.raises(ValidationError, match="NK required"):
        load_problem(path)


@pytest.mark.parametrize("second_bc", ["D", "N"])
def test_load_rejects_duplicate_vertex_ids(tmp_path, second_bc):
    # a second entry for v1 would otherwise replace the first one's condition unseen
    doc = json.loads(json.dumps(STAR3))
    doc["graph"]["vertices"].append({"id": "v1", "bc": second_bc})
    with pytest.raises(ValidationError, match="duplicate vertex id 'v1'"):
        load_problem(write_problem(tmp_path, doc))


def test_load_interval(tmp_path):
    doc = {"graph": {"edges": [{"id": "e1", "length": 1.0, "from": "a", "to": "b"}],
                     "vertices": [{"id": "a", "bc": "D"}, {"id": "b", "bc": "D"}]}}
    graph, _, _ = load_problem(write_problem(tmp_path, doc))
    assert graph.topology is Topology.INTERVAL


def test_load_reorients_star_edges(tmp_path):
    doc = json.loads(json.dumps(STAR3))
    doc["graph"]["edges"][1] = {"id": "e2", "length": 1.0, "from": "c", "to": "v2"}
    graph, _, _ = load_problem(write_problem(tmp_path, doc))
    assert graph.edges[1].tail == "v2" and graph.edges[1].head == "c"


LOOP = {"graph": {"edges": [{"id": "e1", "length": 1.0, "from": "c", "to": "c"},
                            {"id": "e2", "length": 1.0, "from": "v2", "to": "c"},
                            {"id": "e3", "length": 1.0, "from": "v3", "to": "c"}],
                  "vertices": [{"id": "v2", "bc": "D"}, {"id": "v3", "bc": "D"},
                               {"id": "c", "bc": "NK"}]}}
TWO_CENTRES = {"graph": {"edges": [{"id": "e1", "length": 1.0, "from": "v1", "to": "c1"},
                                   {"id": "e2", "length": 1.0, "from": "c1", "to": "c2"},
                                   {"id": "e3", "length": 1.0, "from": "c2", "to": "v2"}],
                         "vertices": [{"id": "v1", "bc": "D"}, {"id": "c1", "bc": "NK"},
                                      {"id": "c2", "bc": "NK"}, {"id": "v2", "bc": "D"}]}}


@pytest.mark.parametrize("doc, topology, match", [
    (LOOP, None, "loop edges are not supported"),
    (TWO_CENTRES, None, "exactly one internal vertex"),
    (STAR3, "strar", "unknown topology 'strar'"),
    (STAR3, "star_with_loops", "unknown topology 'star_with_loops'"),
], ids=["loop", "two_centres", "strar", "star_with_loops"])
def test_load_rejects_graphs_no_solver_handles(tmp_path, doc, topology, match):
    # only intervals and stars are solved; anything else fails at load, not in a solver
    doc = json.loads(json.dumps(doc))
    if topology is not None:
        doc["graph"]["topology"] = topology
    with pytest.raises(ValidationError, match=match):
        load_problem(write_problem(tmp_path, doc))


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"graph": \n  nope}')
    with pytest.raises(ValidationError, match="line 2"):
        load_problem(p)


def test_invariants():
    with pytest.raises(ValidationError, match="positive"):
        star([1.0, -1.0])
    with pytest.raises(ValidationError, match="NK not allowed"):
        MetricGraph(edges=[Edge("e1", 1.0, "a", "b")],
                    bc={"a": BC.NEUMANN_KIRCHHOFF, "b": BC.DIRICHLET},
                    topology=Topology.INTERVAL)
    with pytest.raises(ValidationError, match="external -> center"):
        MetricGraph(edges=[Edge("e1", 1.0, "c", "v1"), Edge("e2", 1.0, "v2", "c")],
                    bc={"v1": BC.DIRICHLET, "v2": BC.DIRICHLET, "c": BC.NEUMANN_KIRCHHOFF},
                    topology=Topology.STAR)


def test_check_length_set_rational_pair():
    rep = check_length_set([1.0, 2.0])
    assert not rep.independence_flag
    assert (2, 1, 2, 1) in [h[:4] for h in rep.rational_hits]


def test_check_length_set_irrational_pair():
    rep = check_length_set([math.pi * math.sqrt(2), math.pi * math.sqrt(3)])
    assert rep.rational_hits == []
    assert rep.independence_flag


def test_check_length_set_equal_lengths():
    rep = check_length_set([1.0, 1.0])
    assert (2, 1, 1, 1) in [h[:4] for h in rep.rational_hits]


def test_check_length_set_does_not_depend_on_the_order():
    # from a seeded scan (default_rng(0), pairs uniform on [0.1, 10]): a scan of
    # L_k/L_j with q <= RATIO_Q_MAX and p unbounded flags this pair as (b, a) only
    a, b = 8.892371374525881, 2.3361073413315117
    (hit,) = check_length_set([a, b]).rational_hits
    (reverse,) = check_length_set([b, a]).rational_hits
    assert hit[:4] == (2, 1, 9028, 34365) and reverse[:4] == (2, 1, 34365, 9028)
    assert hit[4] == reverse[4] < RATIO_TOL
    assert abs(b / a - 9028 / 34365) < RATIO_TOL


@settings(max_examples=25)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=5),
       st.randoms(use_true_random=False))
def test_check_length_set_permutation_symmetric(lengths, rnd):
    perm = lengths[:]
    rnd.shuffle(perm)
    # a hit between the same two lengths may appear with inverted ratio p/q
    # after relabeling, so compare on (value pair, unordered {p, q})
    base = {(tuple(sorted((lengths[h[0] - 1], lengths[h[1] - 1]))), tuple(sorted((h[2], h[3]))))
            for h in check_length_set(lengths).rational_hits}
    shuf = {(tuple(sorted((perm[h[0] - 1], perm[h[1] - 1]))), tuple(sorted((h[2], h[3]))))
            for h in check_length_set(perm).rational_hits}
    assert base == shuf

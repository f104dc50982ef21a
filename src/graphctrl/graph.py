"""Metric-graph data model, problem-file ingestion and length-set checks.

A problem is a compact metric graph: finitely many edges of finite positive
length glued at vertices.  Degree-1 (external) vertices carry Dirichlet (D)
or Neumann (N) conditions, internal vertices carry Neumann-Kirchhoff (NK)
conditions (continuity plus vanishing sum of outgoing derivatives).

Star edges are always parametrized with coordinate 0 at the external vertex
and coordinate L at the center.  Intervals and stars are the only graphs
the solvers handle, so they are the only ones a problem may describe.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError

RATIO_Q_MAX = 10_000    # the largest denominator of the larger-to-smaller ratio in the scan
RATIO_TOL = 1e-9        # a larger-to-smaller ratio this close to some P/Q is reported as rational


class BoundaryCondition(enum.Enum):
    DIRICHLET = "D"
    NEUMANN = "N"
    NEUMANN_KIRCHHOFF = "NK"


class Topology(enum.Enum):
    INTERVAL = "interval"
    STAR = "star"


@dataclass(frozen=True)
class Edge:
    eid: str
    length: float
    tail: str  # coordinate 0
    head: str  # coordinate L


@dataclass
class MetricGraph:
    edges: list[Edge]
    bc: dict[str, BoundaryCondition]
    topology: Topology

    def __post_init__(self):
        self._validate()

    # -- derived quantities -------------------------------------------------

    @property
    def lengths(self) -> np.ndarray:
        return np.array([e.length for e in self.edges])

    @property
    def edge_ids(self) -> list[str]:
        return [e.eid for e in self.edges]

    def degree(self, vid: str) -> int:
        d = 0
        for e in self.edges:
            d += (e.tail == vid) + (e.head == vid)
        return d

    @property
    def external_vertices(self) -> list[str]:
        return [v for v in self.bc if self.degree(v) == 1]

    @property
    def internal_vertices(self) -> list[str]:
        return [v for v in self.bc if self.degree(v) >= 2]

    @property
    def center(self) -> str | None:
        internal = self.internal_vertices
        return internal[0] if len(internal) == 1 else None

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if not self.edges:
            raise ValidationError("graph has no edges")
        seen = set()
        for e in self.edges:
            if e.eid in seen:
                raise ValidationError(f"duplicate edge id {e.eid!r}")
            seen.add(e.eid)
            if not (math.isfinite(e.length) and e.length > 0):
                raise ValidationError(f"edge {e.eid!r}: length must be positive and finite")
            for v in (e.tail, e.head):
                if v not in self.bc:
                    raise ValidationError(f"edge {e.eid!r}: unknown vertex {v!r}")
        for vid, cond in self.bc.items():
            deg = self.degree(vid)
            if deg == 0:
                raise ValidationError(f"vertex {vid!r} is isolated")
            if deg == 1 and cond is BoundaryCondition.NEUMANN_KIRCHHOFF:
                raise ValidationError(f"vertex {vid!r}: NK not allowed on external (degree-1) vertex")
            if deg >= 2 and cond is not BoundaryCondition.NEUMANN_KIRCHHOFF:
                raise ValidationError(f"vertex {vid!r}: NK required on internal vertex")

        if self.topology is Topology.INTERVAL:
            if len(self.edges) != 1 or self.internal_vertices:
                raise ValidationError("interval topology requires a single edge with two external vertices")
        else:
            internal = self.internal_vertices
            if len(internal) != 1:
                raise ValidationError("star topology requires exactly one internal vertex")
            c = internal[0]
            for e in self.edges:
                if e.tail == e.head:
                    raise ValidationError(f"edge {e.eid!r}: loop edges are not supported")
                if e.head != c:
                    raise ValidationError(
                        f"edge {e.eid!r}: star edges run external -> center (coordinate 0 at the external vertex)")


def infer_topology(edges: list[Edge]) -> Topology:
    """An interval for one edge with two distinct ends, else a star (which MetricGraph checks)."""
    if len(edges) == 1 and edges[0].tail != edges[0].head:
        return Topology.INTERVAL
    return Topology.STAR


@dataclass
class LengthSetReport:
    """Outcome of the rational-ratio scan over a set of edge lengths.

    Genuine rational independence (or algebraic irrationality of ratios)
    cannot be decided from floating point data; the report only certifies
    that no ratio of a longer length to a shorter one is within RATIO_TOL of
    a rational with denominator <= RATIO_Q_MAX.
    """

    rational_hits: list[tuple[int, int, int, int, float]]  # (k, j, p, q, |r - P/Q|), 1-based
    independence_flag: bool


def check_length_set(lengths) -> LengthSetReport:
    """Scan all pairs k > j of lengths for a ratio near a low-denominator rational.

    Each pair's ratio of the larger length to the smaller one, r >= 1, is
    approximated by its best rational P/Q with Q <= RATIO_Q_MAX (the
    continued-fraction expansion, equivalent to an exhaustive scan over all
    such P/Q); the pair is a hit when |r - P/Q| < RATIO_TOL.  Deciding on
    r >= 1 makes the answer independent of the order of the lengths.  A hit
    is reported as (k, j, p, q, |r - P/Q|), oriented so that L_k/L_j ~ p/q.

    The scan reports closeness, not rationality: some P/Q with Q <= 10^4
    lies within about 1e-8 of any ratio, so at these constants about one
    random pair in sixteen is a hit (1 232 of 20 000 pairs drawn uniformly
    from [0.1, 10]^2).
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size == 0:
        raise ValidationError("lengths must be nonempty")
    if np.any(~np.isfinite(lengths)) or np.any(lengths <= 0):
        raise ValidationError("lengths must be positive and finite")

    hits = []
    for k in range(1, lengths.size):
        for j in range(k):
            longer = lengths[k] >= lengths[j]
            r = lengths[k] / lengths[j] if longer else lengths[j] / lengths[k]
            frac = Fraction(r).limit_denominator(RATIO_Q_MAX)
            residual = abs(r - frac.numerator / frac.denominator)
            if residual < RATIO_TOL:
                p, q = (frac.numerator, frac.denominator) if longer else (frac.denominator, frac.numerator)
                hits.append((k + 1, j + 1, p, q, residual))
    return LengthSetReport(rational_hits=hits, independence_flag=not hits)


@dataclass
class SolverSettings:
    num_modes: int = 50


def _require(mapping, key, context, kind=object):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{context} must be an object, got {mapping!r}")
    if key not in mapping:
        raise ValidationError(f"{context}: missing field {key!r}")
    if not isinstance(mapping[key], kind):
        raise ValidationError(f"{context}: {key!r} must be a {kind.__name__}, got {mapping[key]!r}")
    return mapping[key]


def _finite_number(value, context) -> float:
    """A JSON number that is finite; true/false and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{context} must be a finite number, got {value!r}")
    return float(value)


def load_problem(path):
    """Load a problem file: returns (MetricGraph, ControlOperator, SolverSettings).

    The file is JSON; only its top-level keys "graph", "control" and
    "solver" are read (see README for the schema).  Star edges given
    center -> external are reoriented so that coordinate 0 sits at the
    external vertex.
    """
    from .potentials import ControlOperator  # deferred: potentials imports this module

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"problem file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"problem file {path}: parse error at line {exc.lineno}: {exc.msg}")

    gdoc = _require(doc, "graph", "problem file")
    bc = {}
    for vdoc in _require(gdoc, "vertices", "graph", list):
        vid = str(_require(vdoc, "id", "vertex"))
        if vid in bc:
            raise ValidationError(f"duplicate vertex id {vid!r}")
        name = _require(vdoc, "bc", f"vertex {vid}")
        try:
            bc[vid] = BoundaryCondition(name)
        except ValueError:
            raise ValidationError(f"vertex {vid}: unknown boundary condition {name!r}")

    edges = []
    for edoc in _require(gdoc, "edges", "graph", list):
        eid = str(_require(edoc, "id", "edge"))
        length = _finite_number(_require(edoc, "length", f"edge {eid}"), f"edge {eid}: length")
        edges.append(Edge(eid, length, str(_require(edoc, "from", f"edge {eid}")),
                          str(_require(edoc, "to", f"edge {eid}"))))

    topo_name = gdoc.get("topology")
    try:
        topology = infer_topology(edges) if topo_name is None else Topology(topo_name)
    except ValueError:
        raise ValidationError(f"graph: unknown topology {topo_name!r} "
                              f"(supported: {', '.join(t.value for t in Topology)})")

    # Reorient star edges so the external vertex carries coordinate 0.
    if topology is Topology.STAR:
        deg: dict[str, int] = {}
        for e in edges:
            deg[e.tail] = deg.get(e.tail, 0) + 1
            deg[e.head] = deg.get(e.head, 0) + 1
        internal = [v for v, d in deg.items() if d >= 2]
        if len(internal) == 1:
            c = internal[0]
            edges = [Edge(e.eid, e.length, e.head, e.tail)
                     if (e.tail == c and e.head != c) else e
                     for e in edges]

    graph = MetricGraph(edges=edges, bc=bc, topology=topology)

    cdoc = doc.get("control", {})
    if not isinstance(cdoc, dict):
        raise ValidationError(f"control must map edge ids to coefficient lists, got {cdoc!r}")
    per_edge = {}
    for eid, coeffs in cdoc.items():
        if eid not in graph.edge_ids:
            raise ValidationError(f"control: unknown edge id {eid!r}")
        if not isinstance(coeffs, list):
            raise ValidationError(f"control: {eid} must be a list of coefficients, got {coeffs!r}")
        per_edge[eid] = np.array([_finite_number(c, f"control: {eid} coefficient {q}")
                                  for q, c in enumerate(coeffs)], dtype=float)
    control = ControlOperator(per_edge=per_edge)

    sdoc = doc.get("solver", {})
    if not isinstance(sdoc, dict):
        raise ValidationError(f"solver must be an object, got {sdoc!r}")
    for key in sdoc:
        # keys no solver reads are rejected rather than silently ignored
        if key != "num_modes":
            raise ValidationError(f"solver: {key!r} is not supported: no solver reads it")
    num_modes = sdoc.get("num_modes", SolverSettings.num_modes)
    if isinstance(num_modes, bool) or not isinstance(num_modes, int) or num_modes < 1:
        raise ValidationError(f"solver: 'num_modes' must be an integer >= 1, got {num_modes!r}")
    return graph, control, SolverSettings(num_modes=num_modes)

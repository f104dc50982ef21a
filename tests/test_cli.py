import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (closure_by_components, find_resonant_quadruples_reference, fmt_reference,
                      jsonable_reference, resonant_quadruple_records_reference,
                      trajectory_rows_reference, write_csv_reference, write_json_reference)
from graphctrl import dynamics, potentials, spectrum
from graphctrl.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, Records,
                           Runner, dispatch)
from graphctrl.errors import NumericalError
from graphctrl.graph import load_problem

SQRT2 = math.sqrt(2.0)
SAMPLES = Path(__file__).resolve().parents[1] / "sample_problems"

STAR2 = {
    "graph": {
        "edges": [{"id": "e1", "length": 1.0, "from": "v1", "to": "c"},
                  {"id": "e2", "length": SQRT2, "from": "v2", "to": "c"}],
        "vertices": [{"id": "v1", "bc": "D"}, {"id": "v2", "bc": "D"}, {"id": "c", "bc": "NK"}],
    },
    "control": {"e1": [1.0, -2.0, 1.0]},
    "solver": {"num_modes": 40},
}


@pytest.fixture
def problem(tmp_path):
    p = tmp_path / "star2.json"
    p.write_text(json.dumps(STAR2))
    return p


def read(path):
    return path.read_bytes()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def failure_manifest(out, code):
    """The strict-JSON manifest of a run that failed with exit code before writing any data file."""
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["exit_code"] == code and manifest["outputs"] == []
    return manifest


def test_spectrum_command(problem, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "spectrum", "--problem", str(problem),
                     "--modes", "25"]) == EXIT_OK
    rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 25
    lam1 = float(rows[0]["lambda"])
    assert abs(lam1 - (math.pi / (1 + SQRT2)) ** 2) < 1e-10
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"spectrum.csv", "spectrum_summary.json"}
    assert str(problem) in manifest["inputs"]


def test_outputs_byte_identical_across_runs(problem, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert dispatch(["--out-dir", str(out), "spectrum", "--problem", str(problem),
                         "--modes", "30"]) == EXIT_OK
    assert read(out1 / "spectrum.csv") == read(out2 / "spectrum.csv")
    assert read(out1 / "spectrum_summary.json") == read(out2 / "spectrum_summary.json")


def test_check_assumptions_command(problem, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "check-assumptions", "--problem", str(problem),
                     "--modes", "40"]) == EXIT_OK
    doc = json.loads((out / "assumptions.json").read_text())
    assert "decay_fit" in doc and "vertex_compatibility" in doc
    assert doc["vertex_compatibility"]["vanishing_order"] >= 2


def test_lowerbounds_command(problem, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "lowerbounds", "--problem", str(problem),
                     "--modes", "50"]) == EXIT_OK
    doc = json.loads((out / "lowerbounds_summary.json").read_text())
    assert doc["dtilde_fit"] == pytest.approx(0.0, abs=0.05)
    rows = read_rows(out / "derivative_bound.csv")
    assert len(rows) == 50
    assert float(rows[0]["abs_Gprime"]) == pytest.approx(1 + SQRT2, rel=1e-6)


@pytest.mark.parametrize("sample", ["interval_dirichlet", "star2_dirichlet", "star5_neumann"])
def test_lowerbounds_with_one_mode_reads_slope_zero(sample, tmp_path):
    # one mode fixes no slope; the summary keeps 0, the slope of the line through one point
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "lowerbounds", "--problem", str(SAMPLES / f"{sample}.json"),
                     "--modes", "1"]) == EXIT_OK
    doc = json.loads((out / "lowerbounds_summary.json").read_text())
    assert (doc["raw_slope"], doc["dtilde_fit"], doc["worst_k"]) == (0.0, 0.0, 1)
    rows = read_rows(out / "derivative_bound.csv")
    assert len(rows) == 1
    assert doc["constant"] == float(rows[0]["abs_Gprime"])


def test_moment_solve_command(tmp_path):
    freqs = tmp_path / "f.csv"
    with open(freqs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "lambda"])
        for k in range(1, 7):
            w.writerow([k, (k * math.pi) ** 2])
    target = tmp_path / "x.csv"
    with open(target, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re_x", "im_x"])
        for k in range(1, 7):
            w.writerow([k, 1.0 if k == 3 else 0.0, 0.0])
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", "1.0"]) == EXIT_OK
    diag = json.loads((out / "moment_diagnostics.json").read_text())
    assert diag["max_residual"] < 1e-8
    rows = read_rows(out / "control.csv")
    assert len(rows) == 1001


def test_simulate_command(problem, tmp_path):
    control = tmp_path / "u.json"
    control.write_text(json.dumps({"kind": "trig", "T": 0.5,
                                   "terms": [[3.0, "cos", 0.05]]}))
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "simulate", "--problem", str(problem),
                     "--modes", "6", "--control", str(control)]) == EXIT_OK
    doc = json.loads((out / "simulate_summary.json").read_text())
    assert doc["norm_drift"] < 1e-10
    assert sum(doc["final_populations"]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("control, message", [
    ({"kind": "trig", "T": 0.5, "terms": [[3.0, "tan", 0.05]]}, "term kind"),
    ({"kind": "trig", "T": 0.0, "terms": [[3.0, "cos", 0.05]]}, "horizon"),
    ({"kind": "trig", "T": -0.5, "terms": [[3.0, "cos", 0.05]]}, "horizon"),
    ({"kind": "trig", "T": float("nan"), "terms": [[3.0, "cos", 0.05]]}, "horizon"),
    ({"kind": "trig", "T": 0.5, "terms": [[3.0, "cos", float("inf")]]}, "coefficient"),
    ({"kind": "trig", "T": 0.5, "terms": [[3.0, "cos"]]}, "malformed"),
    ({"kind": "resonant", "amplitude": 0.01, "frequency": 3.0, "T": -1.0}, "horizon"),
    ({"kind": "samples", "samples": [], "dt": 0.1}, "non-empty"),
    ({"kind": "samples", "samples": [0.1, float("nan")], "dt": 0.1}, "finite"),
    ({"kind": "samples", "samples": [0.1, 0.2], "dt": 0.0}, "dt"),
    ([0.1, 0.2], "JSON object"),
], ids=["kind_tan", "T0", "Tneg", "Tnan", "coeff_inf", "term_short", "pulse_Tneg",
        "samples_empty", "sample_nan", "dt0", "not_object"])
def test_simulate_bad_control_exit_code(problem, tmp_path, capsys, control, message):
    # "tan" ran as "sin" with exit 0; T <= 0 exited 3, T = NaN and empty samples exited 1
    path = tmp_path / "u.json"
    path.write_text(json.dumps(control))
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "simulate", "--problem", str(problem),
                     "--modes", "6", "--control", str(path)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert message in failure_manifest(out, EXIT_VALIDATION)["error"]


@pytest.mark.parametrize("command", ["spectrum", "check-assumptions", "lowerbounds", "simulate",
                                     "liealg", "report"])
@pytest.mark.parametrize("modes", ["0", "-3"])
def test_modes_below_one_exit_code(problem, tmp_path, capsys, command, modes):
    # --modes 0 was read as "not given" and ran with the file's num_modes
    args = ["--out-dir", str(tmp_path / "o"), command, "--problem", str(problem), "--modes", modes]
    if command == "simulate":
        control = tmp_path / "u.json"
        control.write_text(json.dumps({"kind": "trig", "T": 0.5, "terms": [[3.0, "cos", 0.05]]}))
        args += ["--control", str(control)]
    assert dispatch(args) == EXIT_VALIDATION
    assert "--modes must be >= 1" in capsys.readouterr().err
    assert failure_manifest(tmp_path / "o", EXIT_VALIDATION)["settings"]["modes"] == int(modes)


def test_simulate_error_estimate_bounds_true_error(tmp_path):
    problem = Path(__file__).resolve().parents[1] / "sample_problems" / "interval_dirichlet.json"
    terms = [[3.3 * math.pi**2, "cos", 0.04], [7.1 * math.pi**2, "sin", 0.02]]
    control = tmp_path / "u.json"
    control.write_text(json.dumps({"kind": "trig", "T": 1.0, "terms": terms}))
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "simulate", "--problem", str(problem),
                     "--control", str(control)]) == EXIT_OK
    doc = json.loads((out / "simulate_summary.json").read_text())
    last = read_rows(out / "trajectory.csv")[-1]
    K = len(doc["final_populations"])
    final = np.array([float(last[f"re_{k}"]) + 1j * float(last[f"im_{k}"]) for k in range(1, K + 1)])

    graph, op, _ = load_problem(problem)
    basis = spectrum.solve_spectrum(graph, K)
    system = dynamics.GalerkinSystem(lam=basis.eigenvalues, B=potentials.build_matrix(op, basis))
    u = dynamics.TrigControl(horizon=1.0, terms=[tuple(t) for t in terms])
    psi0 = np.zeros(K, dtype=complex)
    psi0[0] = 1.0
    ref = dynamics.propagate(system, psi0, u, n_steps=16 * doc["steps"])
    true_error = float(np.max(np.abs(final - ref.final)))
    assert true_error <= doc["error_estimate"] <= 2 * true_error


def test_liealg_command(problem, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "liealg", "--problem", str(problem),
                     "--modes", "4"]) == EXIT_OK
    doc = json.loads((out / "lie_closure.json").read_text())
    assert doc["target_dimension"] == 15
    assert doc["reached_dimension"] <= 15


@pytest.mark.parametrize("sample", ["interval_dirichlet", "star2_dirichlet", "star5_neumann"])
def test_liealg_at_each_sample_num_modes(sample, tmp_path):
    """No truncation cap: the closure at the problem's own num_modes (up to 126)."""
    out = tmp_path / "out"
    path = SAMPLES / f"{sample}.json"
    assert dispatch(["--out-dir", str(out), "liealg", "--problem", str(path)]) == EXIT_OK
    doc = json.loads((out / "lie_closure.json").read_text())
    assert doc["dimension"] == load_problem(path)[2].num_modes
    pairs = [tuple(p) for p in doc["admissible_pairs"]]
    assert doc["reached_dimension"] == closure_by_components(doc["dimension"], pairs)


def test_report_command(problem, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "report", "--problem", str(problem),
                     "--modes", "30"]) == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert doc["spectrum"]["simple"] is True
    assert "derivative_bound" in doc
    assert "transfer_demo" in doc


def test_report_records_a_refused_transfer_demo(tmp_path):
    # P = (x - 1/2)^2 is even about the middle of (0, 1), so B_12 = 0 by parity:
    # the demo is refused and the report still writes, with the reason
    problem = tmp_path / "parity.json"
    problem.write_text(json.dumps({
        "graph": {"topology": "interval",
                  "edges": [{"id": "e1", "length": 1.0, "from": "a", "to": "b"}],
                  "vertices": [{"id": "a", "bc": "D"}, {"id": "b", "bc": "D"}]},
        "control": {"e1": [0.25, -1.0, 1.0]},
        "solver": {"num_modes": 20},
    }))
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "report", "--problem", str(problem)]) == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert doc["spectrum"]["simple"] is True
    assert "modes 1 and 2 are uncoupled" in doc["transfer_demo"]["error"]


def test_failed_run_manifest_lists_the_files_written_before_the_failure(problem, tmp_path,
                                                                        monkeypatch):
    # spectrum writes spectrum.csv before the length scan, here made to fail
    def fail(lengths):
        raise NumericalError("length scan failed")
    monkeypatch.setattr("graphctrl.cli.check_length_set", fail)
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "spectrum", "--problem", str(problem),
                     "--modes", "6"]) == EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"]) == (EXIT_NUMERICAL, "length scan failed")
    assert manifest["outputs"] == ["spectrum.csv"] == [p.name for p in out.glob("*.csv")]
    assert manifest["command"] == "spectrum" and manifest["settings"]["modes"] == 6


@pytest.mark.parametrize("command, flag", [("liealg", "--resonance-tol"),
                                           ("check-assumptions", "--tol-res"),
                                           ("check-assumptions", "--floor"),
                                           ("report", "--eps")])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tolerance_or_amplitude_exit_code(problem, tmp_path, capsys, command, flag, value):
    # each was accepted with exit 0 and a silently different report; --floor
    # nan or inf wrote assumptions.json and then exited 3 on the manifest.  The
    # manifest of the failed run echoes a non-finite value as its text
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), command, "--problem", str(problem),
                     "--modes", "8", flag, value]) == EXIT_VALIDATION
    assert "must be finite" in capsys.readouterr().err
    manifest = failure_manifest(out, EXIT_VALIDATION)
    assert "must be finite" in manifest["error"]
    assert str(manifest["settings"][flag[2:].replace("-", "_")]) == repr(float(value))


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
@pytest.mark.parametrize("T", ["nan", "inf", "0", "-1"])
def test_moment_solve_bad_horizon_exit_code(tmp_path, capsys, mode, T):
    freqs, target = write_moment_inputs(tmp_path, [(k * math.pi) ** 2 for k in range(1, 7)],
                                        [1.0, 0, 0, 0, 0, 0])
    assert dispatch(["--out-dir", str(tmp_path / "o"), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", T, "--mode", mode]) == EXIT_VALIDATION
    assert "horizon T must be finite" in capsys.readouterr().err


def test_report_all_flag_removed(problem, tmp_path):
    # --all selected nothing: report always writes every section
    assert dispatch(["--out-dir", str(tmp_path / "o"), "report", "--problem", str(problem),
                     "--modes", "30", "--all"]) == EXIT_USAGE


def test_unknown_command_usage_exit():
    assert dispatch(["frobnicate"]) == EXIT_USAGE
    assert dispatch([]) == EXIT_USAGE


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads(json.dumps(STAR2))
    doc["graph"]["vertices"][2]["bc"] = "D"
    bad.write_text(json.dumps(doc))
    assert dispatch(["--out-dir", str(tmp_path / "o"), "spectrum",
                     "--problem", str(bad)]) == EXIT_VALIDATION


def test_duplicate_vertex_id_exits_2(tmp_path, capsys):
    # v1 listed as "D" and again as "N" solved as Neumann and exited 0
    doc = json.loads(SAMPLES.joinpath("star2_dirichlet.json").read_text())
    doc["graph"]["vertices"].append({"id": "v1", "bc": "N"})
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc))
    assert dispatch(["--out-dir", str(tmp_path / "o"), "spectrum",
                     "--problem", str(bad)]) == EXIT_VALIDATION
    assert "duplicate vertex id 'v1'" in capsys.readouterr().err


def test_threads_flag_removed(problem, tmp_path):
    # a BLAS thread cap only works when set in the environment before numpy loads
    assert dispatch(["--threads", "2", "--out-dir", str(tmp_path / "o"), "spectrum",
                     "--problem", str(problem)]) == EXIT_USAGE


def test_scan_resolution_rejected_at_load(tmp_path, capsys):
    doc = json.loads(json.dumps(STAR2))
    doc["solver"]["scan_resolution"] = 0.05
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(doc))
    assert dispatch(["--out-dir", str(tmp_path / "o"), "spectrum",
                     "--problem", str(bad)]) == EXIT_VALIDATION
    assert "scan_resolution" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("T", 5.0), ("root_rel_tol", 1e-13),
                                        ("cluster_rel_tol", 1e-9), ("resonance_rel_tol", 1e-10)])
def test_unused_solver_settings_rejected_at_load(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(STAR2))
    doc["solver"][key] = value
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(doc))
    assert dispatch(["--out-dir", str(tmp_path / "o"), "spectrum",
                     "--problem", str(bad)]) == EXIT_VALIDATION
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, field", [
    ("solver", "num_modes", "abc", "'num_modes'"),
    ("solver", "num_modes", 12.7, "'num_modes'"),
    ("solver", "num_modes", True, "'num_modes'"),
    ("solver", "num_modes", 0, "'num_modes'"),
    ("control", "e1", [1.0, "x", 1.0], "e1 coefficient 1"),
    ("control", "e1", [1.0, float("nan"), 1.0], "e1 coefficient 1"),
    ("control", "e1", [True, -2.0, 1.0], "e1 coefficient 0"),
    ("graph", "edges", [1], "edge must be an object"),
    ("graph", "vertices", 5, "'vertices' must be a list"),
], ids=["modes_str", "modes_float", "modes_bool", "modes_zero",
        "coeff_str", "coeff_nan", "coeff_bool", "edge_not_object", "vertices_not_list"])
def test_bad_value_types_rejected_at_load(tmp_path, capsys, section, key, value, field):
    # each escaped as an uncaught ValueError or TypeError, or was silently cut, cast or accepted
    doc = json.loads(SAMPLES.joinpath("star2_dirichlet.json").read_text())
    doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert dispatch(["--out-dir", str(tmp_path / "o"), "spectrum", "--problem", str(bad),
                     "--modes", "5"]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err


def test_numerical_exit_code(tmp_path):
    freqs = tmp_path / "f.csv"
    with open(freqs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "lambda"])
        for k, lam in enumerate([0.0, 1e-4, 2e-4, 1.0], start=1):
            w.writerow([k, lam])
    target = tmp_path / "x.csv"
    with open(target, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re_x", "im_x"])
        for k in range(1, 5):
            w.writerow([k, 0.0, 0.0])
    assert dispatch(["--out-dir", str(tmp_path / "o"), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", "2.0"]) == EXIT_NUMERICAL


def write_moment_inputs(tmp_path, lambdas, targets):
    freqs, target = tmp_path / "f.csv", tmp_path / "x.csv"
    with open(freqs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "lambda"])
        w.writerows([k, lam] for k, lam in enumerate(lambdas, start=1))
    with open(target, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re_x", "im_x"])
        w.writerows([k, x.real, x.imag] for k, x in enumerate(targets, start=1))
    return freqs, target


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_moment_solve_residual_gate_exit_code(tmp_path, capsys, mode):
    # pairs 2 pi {n, n + 1e-5}: both Gram conditions pass the limit, neither
    # residual meets 1e-8, so the command fails instead of writing a control
    values = [0.0] + [n + 1e-5 * (m % 2) for n in range(1, 33) for m in range(2)]
    lambdas = [2 * math.pi * v for v in values[:64]]
    rng = np.random.default_rng(3)
    targets = rng.normal(size=64) + 1j * rng.normal(size=64)
    targets[0] = targets[0].real
    freqs, target = write_moment_inputs(tmp_path, lambdas, targets)
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", "4.0", "--mode", mode]) == EXIT_NUMERICAL
    assert "moment residual" in capsys.readouterr().err
    assert "moment residual" in failure_manifest(out, EXIT_NUMERICAL)["error"]


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_moment_solve_above_512_frequencies(tmp_path, mode):
    # 600 interval frequencies (k pi)^2: sizes above 512 used to exit 2
    lambdas = [(k * math.pi) ** 2 for k in range(1, 601)]
    rng = np.random.default_rng(6)
    targets = rng.normal(size=600) + 1j * rng.normal(size=600)
    targets[0] = targets[0].real
    freqs, target = write_moment_inputs(tmp_path, lambdas, targets)
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", "1.0", "--mode", mode,
                     "--samples", "11"]) == EXIT_OK
    diag = json.loads((out / "moment_diagnostics.json").read_text())
    assert diag["max_residual"] <= 1e-8
    assert len(diag["residuals"]) == 600


# -- the column writer and the JSON hook against the old writers -------------------

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                  2.2250738585072014e-308, 0.1, 1 / 3]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    header, columns = [], []
    for _ in range(draw(st.integers(1, 6))):
        header.append(draw(st.one_of(st.sampled_from(["k", "amp_a,b", 'q"t', "re 1"]),
                                     st.text(max_size=6))))
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.int64))
        else:
            values = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                                   min_size=n, max_size=n))
            columns.append(np.array(values, dtype=float))
    return header, columns


def bytes_by_both_writers(write_new, write_old):
    with tempfile.TemporaryDirectory() as d:
        runner = Runner("test", Path(d), [], {})
        write_new(runner, "new")
        write_old(Path(d) / "old")
        return (Path(d) / "new").read_bytes(), (Path(d) / "old").read_bytes()


@settings(max_examples=200)
@given(tables())
@example((["k", "amp_a,b", "x"], [np.array([1, -2, 3]), np.array([math.nan, -0.0, 5e-324]),
                                  np.array([math.inf, -math.inf, 1e308])]))
def test_column_writer_matches_reference_rows(table):
    header, columns = table
    rows = [[int(v) if c.dtype.kind == "i" else fmt_reference(v) for v, c in zip(row, columns)]
            for row in zip(*columns)]
    new, old = bytes_by_both_writers(lambda r, name: r.write_csv(name, header, columns),
                                     lambda path: write_csv_reference(path, header, rows))
    assert new == old


@pytest.mark.parametrize("column", [np.array([1 + 2j]), np.array([True]), np.array(["1.0"]),
                                    np.array([1.0], dtype=object)],
                         ids=["complex", "bool", "str", "object"])
def test_column_writer_rejects_other_dtypes(tmp_path, column):
    with pytest.raises(TypeError, match="integer or float"):
        Runner("test", tmp_path, [], {}).write_csv("t.csv", ["a", "b"], [np.array([1.0]), column])


def test_column_writer_rejects_unequal_lengths(tmp_path):
    with pytest.raises(ValueError):
        Runner("test", tmp_path, [], {}).write_csv("t.csv", ["a", "b"],
                                                   [np.array([1.0, 2.0]), np.array([1, 2, 3])])


def test_trajectory_columns_match_per_element_expressions(problem, tmp_path, monkeypatch):
    # magnitudes 1e-300 ... 1e3 (squares underflow, subnormal and large), exact zeros,
    # purely real and purely imaginary entries
    rng = np.random.default_rng(17)
    K, rows = 8, 400
    states = 10.0 ** rng.uniform(-300, 3, (rows, K)) * np.exp(2j * np.pi * rng.random((rows, K)))
    states[::7, 0] = 0.0
    states[1::5, 1] = states[1::5, 1].real
    states[2::5, 2] = 1j * states[2::5, 2].imag
    times = np.sort(rng.random(rows))
    traj = dynamics.Trajectory(times=times, states=states, steps=rows - 1)
    monkeypatch.setattr(dynamics, "propagate", lambda *a, **k: traj)
    monkeypatch.setattr(dynamics, "step_doubling_error", lambda *a, **k: 0.0)
    control = tmp_path / "u.json"
    control.write_text(json.dumps({"kind": "trig", "T": 0.5, "terms": [[3.0, "cos", 0.05]]}))
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "simulate", "--problem", str(problem),
                     "--modes", str(K), "--control", str(control)]) == EXIT_OK
    header = (["t"] + [f"re_{k}" for k in range(1, K + 1)] + [f"im_{k}" for k in range(1, K + 1)]
              + ["norm"] + [f"pop_{k}" for k in range(1, K + 1)])
    write_csv_reference(tmp_path / "ref.csv", header, trajectory_rows_reference(times, states))
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_INT64 = st.integers(-2**63, 2**63 - 1)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32), _INT64.map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.booleans().map(np.bool_),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.lists(st.complex_numbers(), max_size=3),
    st.lists(st.floats(), max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.complex_numbers(), max_size=3).map(lambda v: np.array(v, dtype=complex)),
    st.lists(_INT64, max_size=4).map(lambda v: np.array(v, dtype=np.int64).reshape(-1, 1)),
    st.lists(st.booleans(), max_size=3).map(np.array))
_JSON_PAYLOADS = st.dictionaries(st.text(max_size=4), st.recursive(
    _JSON_LEAVES, lambda inner: st.one_of(st.lists(inner, max_size=3), st.tuples(inner, inner),
                                          st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12), max_size=4)


@settings(max_examples=200)
@given(_JSON_PAYLOADS)
@example({"flag": np.bool_(True), "n": np.int64(7), "pairs": [(np.int64(1), 2)],
          "residuals": [1 + 2j, np.complex128(-0.0 - 1j), complex(math.nan, math.inf)],
          "grid": np.array([[1.5, math.nan], [-0.0, 5e-324]]), "mixed": np.array([1j, 2]),
          "scalars": (np.float64(-0.0), np.float32(0.1), np.int32(-3))})
@example({"flag": np.bool_(True), "n": np.int64(7), "pairs": [(np.int64(1), 2)],
          "residuals": [1 + 2j, np.complex128(-0.0 - 1j)],
          "grid": np.array([[1.5, 1e308], [-0.0, 5e-324]]), "mixed": np.array([1j, 2]),
          "scalars": (np.float64(-0.0), np.float32(0.1), np.int32(-3))})
def test_json_hook_matches_reference_copy(payload):
    # the data files are strict JSON: a payload holding NaN or an infinity is refused
    try:
        json.dumps(jsonable_reference(payload), allow_nan=False)
    except ValueError:
        with tempfile.TemporaryDirectory() as d:
            with pytest.raises(NumericalError, match="^new: non-finite value"):
                Runner("test", Path(d), [], {}).write_json("new", payload)
            assert not (Path(d) / "new").exists()
        return
    new, old = bytes_by_both_writers(lambda r, name: r.write_json(name, payload),
                                     lambda path: write_json_reference(path, payload))
    assert new == old


@st.composite
def record_columns(draw):
    """Equal-length int64 and float columns by field name, 1-D or n x w (w = 1..3); now and
    then one float cell is made NaN or infinite."""
    n = draw(st.integers(0, 5))
    columns = {}
    for name in draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True)):
        width = draw(st.sampled_from([None, 1, 2, 3]))
        shape = (n,) if width is None else (n, width)
        size = math.prod(shape)
        if draw(st.booleans()):
            values = draw(st.lists(_INT64, min_size=size, max_size=size))
            columns[name] = np.array(values, dtype=np.int64).reshape(shape)
        else:
            values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=size, max_size=size))
            columns[name] = np.array(values, dtype=float).reshape(shape)
    floats = [c for c in columns.values() if c.dtype.kind == "f" and c.size]
    bad = draw(st.sampled_from([None, None, None, math.nan, math.inf, -math.inf]))
    if bad is not None and floats:
        col = draw(st.sampled_from(floats))
        col.flat[draw(st.integers(0, col.size - 1))] = bad
    return columns


@settings(max_examples=200)
@given(record_columns())
@example({"pair1": np.array([[1, 2], [3, 4]]), "frequency_defect": np.array([-0.0, 5e-324]),
          "diagonal_combination": np.array([1e308, 0.1])})
@example({"pair1": np.zeros((0, 2), dtype=np.int64), "frequency_defect": np.zeros(0)})
@example({"a%d": np.array([1, -2]), "b%%": np.array([[0.5, 1e-300], [1.0, 2.0]])})
@example({"a": np.array([1, -2]), "b": np.array([[0.5, math.nan], [1.0, 2.0]])})
@example({"x": np.array([-math.inf])})
def test_record_writer_matches_reference_dicts(columns):
    # Records columns are written as the reference writes the equivalent list of dicts, and a
    # NaN or infinity anywhere leaves no file at all
    n = len(next(iter(columns.values())))
    records = [{name: col[i].tolist() for name, col in columns.items()} for i in range(n)]
    payload = {"a": 1, "records": Records(columns), "z": [0.5, {"y": None}]}
    if not all(np.isfinite(c).all() for c in columns.values()):
        with tempfile.TemporaryDirectory() as d:
            with pytest.raises(NumericalError, match="^new: non-finite value$"):
                Runner("test", Path(d), [], {}).write_json("new", payload)
            assert not (Path(d) / "new").exists()
        return
    new, old = bytes_by_both_writers(
        lambda r, name: r.write_json(name, payload),
        lambda path: write_json_reference(path, {**payload, "records": records}))
    assert new == old


def test_check_assumptions_at_scale_matches_reference(tmp_path):
    # 5 307 resonant quadruples at K = 120, more than one chunk of streamed records
    problem = SAMPLES / "star2_dirichlet.json"
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "check-assumptions", "--problem", str(problem),
                     "--modes", "120"]) == EXIT_OK
    written = (out / "assumptions.json").read_bytes()
    graph, control, _ = load_problem(problem)
    basis = spectrum.solve_spectrum(graph, 120)
    mu = basis.eigenvalues
    diag = potentials.build_matrix(control, basis).diagonal()
    doc = json.loads(written)
    doc["resonant_quadruples"] = resonant_quadruple_records_reference(
        mu, diag, 1e-10 * float(np.abs(mu).max()))
    assert len(doc["resonant_quadruples"]) == 5307
    write_json_reference(tmp_path / "ref.json", doc)
    assert written == (tmp_path / "ref.json").read_bytes()


def test_report_counts_the_resonant_quadruples(tmp_path):
    problem = SAMPLES / "star2_dirichlet.json"
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "report", "--problem", str(problem),
                     "--modes", "60"]) == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    mu = spectrum.solve_spectrum(load_problem(problem)[0], 60).eigenvalues
    reference = find_resonant_quadruples_reference(mu, 1e-10 * float(np.abs(mu).max()))
    assert doc["coupling"]["num_resonant_quadruples"] == len(reference) == 985


# -- input checks -------------------------------------------------------------------

@pytest.mark.parametrize("initial", ["0", "9", "-1"])
def test_simulate_initial_out_of_range_exit_code(problem, tmp_path, capsys, initial):
    # --initial 0 started from the last mode with exit 0; 9 ended in an IndexError
    control = tmp_path / "u.json"
    control.write_text(json.dumps({"kind": "trig", "T": 0.5, "terms": [[3.0, "cos", 0.05]]}))
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "simulate", "--problem", str(problem), "--modes", "8",
                     "--control", str(control), "--initial", initial]) == EXIT_VALIDATION
    assert "--initial must be a mode in 1..8" in capsys.readouterr().err
    failure_manifest(out, EXIT_VALIDATION)


@pytest.mark.parametrize("which, extra_row", [
    ("freqs", None), ("target", None), ("freqs", "no lambda column"), ("freqs", "7,abc"),
    ("target", "7,abc,0.0"), ("target", "7,0.5")],
    ids=["freqs_missing", "target_missing", "no_lambda_column", "lambda_not_number",
         "target_not_number", "target_short_row"])
def test_moment_solve_bad_input_file_exit_code(tmp_path, capsys, which, extra_row):
    # each ended in a FileNotFoundError, KeyError or ValueError traceback with exit 1
    files = dict(zip(["freqs", "target"], write_moment_inputs(
        tmp_path, [(k * math.pi) ** 2 for k in range(1, 7)], [1.0, 0, 0, 0, 0, 0])))
    bad = files[which]
    if extra_row is None:
        bad.unlink()
    elif extra_row == "no lambda column":
        bad.write_text(bad.read_text().replace("lambda", "lam"))
    else:
        bad.write_text(bad.read_text() + extra_row + "\n")
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "moment-solve", "--freqs", str(files["freqs"]),
                     "--target", str(files["target"]), "--T", "1.0"]) == EXIT_VALIDATION
    assert f"{which} file {bad}" in capsys.readouterr().err
    # a missing input has no digest
    inputs = failure_manifest(out, EXIT_VALIDATION)["inputs"]
    assert (inputs[str(bad)] is None) == (extra_row is None)


@pytest.mark.parametrize("which, value, message", [
    ("freqs", "nan", "lambdas[2] = nan"), ("freqs", "inf", "lambdas[2] = inf"),
    ("target", "nan", "x[2] = (nan+0j)"), ("target", "-inf", "x[2] = (-inf+0j)")])
def test_moment_solve_non_finite_input_exit_code(tmp_path, capsys, which, value, message):
    # float() accepts nan and inf: a nan frequency ended in a LinAlgError traceback, a nan
    # target in exit 3 blaming nearly equal frequencies
    lambdas = [(k * math.pi) ** 2 for k in range(1, 7)]
    targets = [1.0, 0, 0, 0, 0, 0]
    (lambdas if which == "freqs" else targets)[2] = float(value)
    freqs, target = write_moment_inputs(tmp_path, lambdas, targets)
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", "1.0"]) == EXIT_VALIDATION
    assert f"{message} is not finite" in capsys.readouterr().err
    failure_manifest(out, EXIT_VALIDATION)


def test_dispatch_in_one_process_matches_fresh_processes(problem, tmp_path, capfd, monkeypatch):
    # the parser is built once per process: repeated and failed parses must leave no trace
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage lines to the terminal width
    freqs, target = write_moment_inputs(tmp_path, [(k * math.pi) ** 2 for k in range(1, 7)],
                                        [1.0, 0.5j, 0, 0, 0.25, 0])
    runs = [["spectrum", "--problem", str(problem), "--modes", "6"],
            ["moment-solve", "--freqs", str(freqs), "--target", str(target), "--T", "1.0",
             "--samples", "11", "--mode", "dd_preconditioned"],
            ["spectrum", "--problem", str(problem), "--modes", "abc"],
            ["spectrum", "--problem", str(problem), "--modes", "5"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    codes = []
    for i, args in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        code = dispatch(["--out-dir", str(here)] + args)
        err = capfd.readouterr().err
        proc = subprocess.run([sys.executable, "-c", "from graphctrl.cli import main; main()",
                               "--out-dir", str(fresh)] + args,
                              capture_output=True, text=True, env=env)
        assert (code, err) == (proc.returncode, proc.stderr)
        codes.append(code)
        assert sorted(p.name for p in here.glob("*")) == sorted(p.name for p in fresh.glob("*"))
        for path in here.glob("*"):
            if path.name == "manifest.json":
                mine, theirs = (json.loads(p.read_text()) for p in (path, fresh / path.name))
                del mine["wall_time_s"], theirs["wall_time_s"]
                assert mine == theirs
            else:
                assert read(path) == read(fresh / path.name)
    assert codes == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]


@pytest.mark.parametrize("samples", ["0", "1", "-5"])
def test_moment_solve_samples_below_two_exit_code(tmp_path, capsys, samples):
    # 0 wrote a header-only control.csv with exit 0; -5 raised a ValueError
    freqs, target = write_moment_inputs(tmp_path, [(k * math.pi) ** 2 for k in range(1, 7)],
                                        [1.0, 0, 0, 0, 0, 0])
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "moment-solve", "--freqs", str(freqs),
                     "--target", str(target), "--T", "1.0", "--samples", samples]) == EXIT_VALIDATION
    assert "--samples must be >= 2" in capsys.readouterr().err
    failure_manifest(out, EXIT_VALIDATION)


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not_json"])
def test_simulate_unreadable_control_file_exit_code(problem, tmp_path, capsys, content):
    control = tmp_path / "u.json"
    if content is not None:
        control.write_text(content)
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "simulate", "--problem", str(problem), "--modes", "6",
                     "--control", str(control)]) == EXIT_VALIDATION
    assert f"control file {control}" in capsys.readouterr().err
    failure_manifest(out, EXIT_VALIDATION)

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from graphctrl import dynamics, potentials, spectrum
from graphctrl.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, dispatch
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
    assert not (out / "manifest.json").exists()


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
    assert not (tmp_path / "o" / "manifest.json").exists()


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


def test_report_command(problem, tmp_path):
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), "report", "--problem", str(problem),
                     "--modes", "30"]) == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert doc["spectrum"]["simple"] is True
    assert "derivative_bound" in doc
    assert "transfer_demo" in doc


@pytest.mark.parametrize("command, flag", [("liealg", "--resonance-tol"),
                                           ("check-assumptions", "--tol-res"),
                                           ("report", "--eps")])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tolerance_or_amplitude_exit_code(problem, tmp_path, capsys, command, flag, value):
    # each was accepted with exit 0 and a silently different report
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out), command, "--problem", str(problem),
                     "--modes", "8", flag, value]) == EXIT_VALIDATION
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


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
    assert not (out / "control.csv").exists()

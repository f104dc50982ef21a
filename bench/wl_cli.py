"""cli: all seven commands in-process through graphctrl.cli.dispatch.

Why: the only workload that runs the cli layer itself (argument parsing,
17-digit formatting, hashing, file writes).  It also uses the other layers
differently: many small-K spectra, the coupling column only, and the periodic
propagation path inside resonant_transfer, so a gain for one use that costs
another shows here.
"""

from __future__ import annotations

import csv
import json
import math
import shutil

import numpy as np

from harness import Op, Workload
from oracles import closure_dimension, interlacing_mismatch
from wl_checkers import moment_targets
from wl_dynamics import two_tone_terms

PROBLEMS = ("interval_dirichlet", "star2_dirichlet", "star5_neumann")
MODES = {  # command -> --modes per problem
    "spectrum": {"interval_dirichlet": 30, "star2_dirichlet": 60, "star5_neumann": 60},
    "check-assumptions": {"interval_dirichlet": 30, "star2_dirichlet": 60, "star5_neumann": 60},
    "lowerbounds": {"interval_dirichlet": 30, "star2_dirichlet": 60, "star5_neumann": 60},
    "simulate": {p: 30 for p in PROBLEMS},
    "liealg": {p: 8 for p in PROBLEMS},
    "report": {"interval_dirichlet": 30, "star2_dirichlet": 30, "star5_neumann": 60},
}
MOMENT_K = 40


class Cli(Workload):
    name = "cli"
    min_passes = 2      # the data files are compared across repetitions

    def build(self, seed):
        rng = np.random.default_rng([seed, 4])
        self.inputs = self.work_dir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        control = {"kind": "trig", "T": 1.0, "const": 0.0,
                   "terms": [list(t) for t in two_tone_terms(rng)]}
        (self.inputs / "control.json").write_text(json.dumps(control))
        L = float(rng.uniform(0.8, 1.2))
        with open(self.inputs / "freqs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "lambda"])
            for k in range(1, MOMENT_K + 1):
                w.writerow([k, repr((k * math.pi / L) ** 2)])
        self.moment_T = L * L
        x = moment_targets(rng, MOMENT_K)
        with open(self.inputs / "targets.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "re_x", "im_x"])
            for k, v in enumerate(x, start=1):
                w.writerow([k, repr(float(v.real)), repr(float(v.imag))])
        self.problems = {p: self.root / "sample_problems" / f"{p}.json" for p in PROBLEMS}
        self.reference: dict[str, dict[str, bytes]] = {}
        self.pass_dir = self.work_dir / "pass"

    def start_pass(self):
        if self.pass_dir.exists():
            shutil.rmtree(self.pass_dir)

    def operations(self):
        ops = []
        for problem in PROBLEMS:
            for command, modes in MODES.items():
                args = [command, "--problem", str(self.problems[problem]),
                        "--modes", str(modes[problem])]
                if command == "simulate":
                    args += ["--control", str(self.inputs / "control.json")]
                ops.append(self._dispatch_op(f"{command} {problem}", args, problem))
        for mode in ("direct", "dd_preconditioned"):
            args = ["moment-solve", "--freqs", str(self.inputs / "freqs.csv"),
                    "--target", str(self.inputs / "targets.csv"),
                    "--T", repr(self.moment_T), "--mode", mode]
            ops.append(self._dispatch_op(f"moment-solve {mode}", args, None))
        return ops

    def _dispatch_op(self, label, args, problem):
        from graphctrl import cli

        key = label.replace(" ", "_")

        def call():
            out = self.pass_dir / key
            code = cli.dispatch(["--out-dir", str(out)] + args)
            return code, out

        def check(result):
            code, out = result
            if code != 0:
                return f"exit code {code}"
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            self.bytes_written += sum(len(b) for b in files.values())
            data = {n: b for n, b in files.items() if n != "manifest.json"}
            ref = self.reference.setdefault(key, data)
            if ref != data:
                changed = sorted(n for n in set(ref) | set(data) if ref.get(n) != data.get(n))
                return f"data files differ from the first repetition: {changed}"
            return _check_content(args[0], self.problems.get(problem), data)

        return Op(f"dispatch {label}", call, check)


def _edge_data(problem_path):
    """(topology, lengths, Dirichlet flag of each edge's external end) from a problem file."""
    doc = json.loads(problem_path.read_text())
    bc = {v["id"]: v["bc"] for v in doc["graph"]["vertices"]}
    lengths, dirichlet = [], []
    for e in doc["graph"]["edges"]:
        ext = e["from"] if bc[e["from"]] != "NK" else e["to"]
        lengths.append(float(e["length"]))
        dirichlet.append(bc[ext] == "D")
    return doc["graph"]["topology"], lengths, dirichlet


def _check_content(command, problem_path, data):
    """Command-specific gates on the data files."""
    if command == "spectrum":
        rows = list(csv.DictReader(data["spectrum.csv"].decode().splitlines()))
        omegas = np.array([float(r["omega"]) for r in rows])
        topology, lengths, dirichlet = _edge_data(problem_path)
        if topology == "star":
            return interlacing_mismatch(lengths, dirichlet, omegas, omegas.size)
        exact = np.arange(1, omegas.size + 1) * math.pi / lengths[0]   # Dirichlet interval
        err = float(np.max(np.abs(omegas - exact) / exact))
        return None if err <= 1e-12 else f"interval roots off by {err:.3g}"
    if command == "moment-solve":
        doc = json.loads(data["moment_diagnostics.json"])
        if not doc["max_residual"] <= 1e-8:
            return f"moment residual {doc['max_residual']:.3g} > 1e-8"
        if not doc["imag_moment_defect"] <= 1e-10:
            return f"imaginary-moment defect {doc['imag_moment_defect']:.3g} > 1e-10"
    if command == "simulate":
        doc = json.loads(data["simulate_summary.json"])
        if not doc["norm_drift"] <= 1e-10:
            return f"norm drift {doc['norm_drift']:.3g} > 1e-10"
    if command == "liealg":
        doc = json.loads(data["lie_closure.json"])
        exact = closure_dimension(doc["dimension"], [tuple(p) for p in doc["admissible_pairs"]])
        if doc["reached_dimension"] != exact:
            return f"closure dimension {doc['reached_dimension']}, exact count {exact}"
    if command == "report":
        # The seed code runs the transfer demo on all three sample problems,
        # so a missing demo (simplicity check false) or an error is a failure.
        demo = json.loads(data["report.json"]).get("transfer_demo")
        if demo is None:
            return "report has no transfer_demo"
        if "fidelity" not in demo:
            return f"transfer demo failed: {demo.get('error', demo)}"
        if not demo["fidelity"] >= 0.98:
            return f"transfer fidelity {demo['fidelity']:.6f} < 0.98"
        if not demo["norm_drift"] <= 1e-10:
            return f"norm drift {demo['norm_drift']:.3g} > 1e-10"
    return None


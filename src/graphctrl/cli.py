"""Command-line front end: spectra, checker reports, moment solves, dynamics.

Every command writes its data files plus a manifest.json recording the
command, input digests, settings and produced files.  A run that fails with
exit 2 or 3 still writes the manifest, with its exit code, the error message
and the data files written before the failure.  CSV rows are streamed
from whole columns with floats as %.17g, so every double round-trips.  JSON
has the json module's indent=2, sort_keys=True layout, written by one writer
that formats each scalar with the C-level string, float and int encoders; a
long list of records (the resonant quadruples) is streamed from its columns
in chunks.  JSON is strict: a NaN or infinity exits 3 naming the file, and the
file is not created.  Apart from the manifest's wall time, outputs are
deterministic.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dynamics, lowerbounds, moment, potentials, spectrum
from .errors import NumericalError, ValidationError, require_range
from .graph import check_length_set, load_problem

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
_CSV_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}   # by dtype kind
_JSON_FORMATS = {"i": "%d", "u": "%d", "f": "%r"}
_RECORD_CHUNK = 4096     # records formatted per write of a streamed Records list


def _sha256(path) -> str | None:
    """The file's digest; None when it cannot be read (a failed run names it in its error)."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError:
        return None
    return h.hexdigest()


class Runner:
    def __init__(self, command: str, out_dir: Path, inputs: list[str], settings: dict):
        self.command = command
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = inputs
        self.settings = settings
        self.outputs: list[str] = []
        self.t0 = time.monotonic()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out_dir / name

    def write_json(self, name: str, payload: dict):
        """payload in the json module's indent=2, sort_keys=True layout, plus a newline.

        Numpy scalars and arrays are written as their tolist(), complex
        numbers as {"im": ..., "re": ...}, Records as a list of dicts.  The
        payload is checked and encoded before the file is opened; only the
        records are formatted later, in chunks, as they are written.
        """
        pieces: list = []
        try:
            _encode(payload, "\n", pieces)
        except ValueError:         # a NaN or infinity: no file is created
            raise NumericalError(f"{name}: non-finite value") from None
        pieces.append("\n")
        text = []
        with open(self.path(name), "w") as fh:
            for piece in pieces:
                if isinstance(piece, str):
                    text.append(piece)
                else:
                    fh.write("".join(text))
                    text.clear()
                    fh.writelines(piece)
            fh.write("".join(text))

    def write_csv(self, name: str, header: list[str], columns):
        """A CSV table from equal-length 1-D integer or float arrays, streamed as one
        %-template line per row ending in CRLF; csv.writer writes (and quotes) the header."""
        if not {c.dtype.kind for c in columns} <= set(_CSV_FORMATS):
            raise TypeError(f"{name}: columns must be integer or float arrays")
        template = ",".join(_CSV_FORMATS[c.dtype.kind] for c in columns) + "\r\n"
        with open(self.path(name), "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.writelines(template % r for r in zip(*(c.tolist() for c in columns), strict=True))

    def finish(self, failure: tuple[int, str] | None):
        """Write manifest.json; failure is (exit code, message) of a failed run, else None.

        A non-finite setting, which its command rejected, is echoed as its
        text, since JSON has no NaN or infinity.
        """
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "settings": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                         for k, v in self.settings.items()},
            "outputs": sorted(self.outputs),
            "wall_time_s": round(time.monotonic() - self.t0, 6),
        }
        if failure is not None:
            manifest["exit_code"], manifest["error"] = failure
        self.write_json("manifest.json", manifest)


class Records:
    """A JSON list of flat records, given as equal-length columns by field name.

    A 1-D integer or float column gives one number per record, a 2-D column
    (n x w, w >= 1) a list of w numbers.  Runner.write_json writes the list as
    the json module writes the equivalent list of dicts, one %-template per record.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns


def _float_text(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r}")
    return float.__repr__(x)


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {str: _quote, int: int.__repr__, float: _float_text, np.float64: _float_text,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _encode(x, nl: str, out: list):
    """Append to out the JSON text of x, whose lines start with nl (a newline and the indent).

    Scalars are one string each; a Records list is one iterator of strings.
    """
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        out.append(scalar(x))
        return
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        kinds = set(map(type, x))
        if len(kinds) == 1 and (scalar := _SCALARS.get(kinds.pop())) is not None:
            out.append("[" + inner + ("," + inner).join(map(scalar, x)) + nl + "]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _encode(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in sorted(x.items()):
            out.append(sep + _quote(k) + ": ")
            _encode(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, Records):
        out.append(_record_chunks(x.columns, nl))
    elif isinstance(x, complex):
        _encode({"im": float(x.imag), "re": float(x.real)}, nl, out)
    elif isinstance(x, (np.generic, np.ndarray)):
        _encode(x.tolist(), nl, out)
    else:
        raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _record_chunks(columns: dict[str, np.ndarray], nl: str):
    """The text of Records(columns) at line prefix nl, checked now and formatted in chunks later."""
    keys = sorted(columns)
    cols = [np.asarray(columns[k]) for k in keys]
    if not all(c.dtype.kind in _JSON_FORMATS and (c.ndim == 1 or c.ndim == 2 and c.shape[1])
               for c in cols):
        raise TypeError("record columns must be integer or float arrays, 1-D or n x w, w >= 1")
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise TypeError("record columns must have equal lengths")
    if not all(np.isfinite(c).all() for c in cols if c.dtype.kind == "f"):
        raise ValueError("non-finite value in a record column")
    item, field, value = nl + "  ", nl + "    ", nl + "      "
    fields = []
    for key, c in zip(keys, cols):
        slot = _JSON_FORMATS[c.dtype.kind]
        if c.ndim == 2:
            slot = "[" + value + ("," + value).join([slot] * c.shape[1]) + field + "]"
        fields.append(_quote(key).replace("%", "%%") + ": " + slot)
    template = "{" + field + ("," + field).join(fields) + item + "}"
    flat = [v for c in cols for v in (c.T if c.ndim == 2 else [c])]

    def chunks():
        if not n:
            yield "[]"
            return
        sep = "[" + item
        for start in range(0, n, _RECORD_CHUNK):
            rows = zip(*(v[start:start + _RECORD_CHUNK].tolist() for v in flat))
            yield sep + ("," + item).join([template % r for r in rows])
            sep = "," + item
        yield nl + "]"
    return chunks()


def _read_input(path, what: str, parse):
    """parse(file) of an input file; a missing file or a malformed value exits 2 naming the file."""
    try:
        with open(path, newline="") as fh:
            return parse(fh)
    except OSError as exc:
        raise ValidationError(f"{what} file {path}: {exc.strerror}") from None
    except (KeyError, TypeError, ValueError) as exc:   # JSONDecodeError is a ValueError
        raise ValidationError(f"{what} file {path}: malformed ({exc!r})") from None


# ---------------------------------------------------------------------------
# commands

def _solve_from_problem(args):
    if args.modes is not None and args.modes < 1:
        raise ValidationError(f"--modes must be >= 1, got {args.modes}")
    graph, control, settings = load_problem(args.problem)
    modes = settings.num_modes if args.modes is None else args.modes
    return graph, control, spectrum.solve_spectrum(graph, modes)


def _sqrt_gap(basis):
    """The sqrt-gap report as JSON; null below two modes."""
    gap = basis.gap_report
    return None if gap is None else {"M": gap[0], "delta": gap[1]}


def cmd_spectrum(args, runner: Runner):
    graph, _, basis = _solve_from_problem(args)
    header = ["k", "lambda", "omega", "multiplicity"] + [f"amp_{eid}" for eid in basis.edge_ids]
    runner.write_csv("spectrum.csv", header, [np.arange(1, len(basis) + 1), basis.eigenvalues,
                                              basis.omegas, basis.multiplicity, *basis.amplitudes.T])
    report = spectrum.validate_spectral_hypotheses(basis)
    lengths = check_length_set(graph.lengths)
    runner.write_json("spectrum_summary.json", {
        "num_modes": len(basis),
        "weyl": basis.weyl_report,
        "sqrt_gap": _sqrt_gap(basis),
        "simple": report.simplicity if report else None,
        "center_decay_exponent": report.center_decay_exponent if report else None,
        "length_scan": {"independent": lengths.independence_flag,
                        "hits": lengths.rational_hits},
    })


def cmd_check_assumptions(args, runner: Runner):
    graph, control, basis = _solve_from_problem(args)
    rep = potentials.analyze_coupling(control, basis, len(basis),
                                      tol_res=args.tol_res, floor=args.floor)
    vertex = potentials.check_vertex_compatibility(control, graph)
    runner.write_json("assumptions.json", {
        "decay_fit": {"exponent": rep.decay_fit[0], "constant": rep.decay_fit[1],
                      "rms_residual": rep.decay_fit[2]},
        "envelope_fit": {"exponent": rep.envelope_fit[0], "constant": rep.envelope_fit[1]},
        "zero_elements": rep.zero_elements,
        "resonant_quadruples": Records(rep.resonant_quadruples),
        "vertex_compatibility": {
            "preserves_h2": vertex.preserves_h2,
            "vanishing_order": vertex.vanishing_order,
            "nk_class_sup": vertex.nk_class_sup,
            "certified_d_max": vertex.certified_d_max,
            "boundary_class": vertex.boundary_class,
            "conditions": vertex.conditions,
        },
    })


def cmd_lowerbounds(args, runner: Runner):
    graph, _, basis = _solve_from_problem(args)
    sp = lowerbounds.build_secular_product(graph)
    fit = lowerbounds.fit_derivative_bound(sp, basis)
    # scalar powers: numpy's vectorized pow may differ from libm's in the last bit
    model = np.array([fit.constant / k ** (1 + fit.dtilde) for k in range(1, len(basis) + 1)])
    runner.write_csv("derivative_bound.csv", ["k", "sqrt_lambda", "abs_Gprime", "bound_model"],
                     [np.arange(1, len(basis) + 1), basis.omegas, fit.values, model])
    runner.write_json("lowerbounds_summary.json", {
        "dtilde_fit": fit.dtilde,
        "constant": fit.constant,
        "raw_slope": fit.raw_slope,
        "worst_k": fit.worst_k,
        "scaled_infimum_eps": {str(e): float(np.min(fit.values * np.arange(1, len(basis) + 1) ** (1 + e)))
                               for e in lowerbounds.EPS_GRID},
    })


def cmd_moment_solve(args, runner: Runner):
    if args.samples < 2:
        raise ValidationError(f"--samples must be >= 2 to span [0, T], got {args.samples}")
    lambdas = _read_input(args.freqs, "freqs",
                          lambda fh: [float(row["lambda"]) for row in csv.DictReader(fh)])
    targets = _read_input(args.target, "target", lambda fh: [
        complex(float(row["re_x"]), float(row["im_x"])) for row in csv.DictReader(fh)])
    sol = moment.solve_moment(lambdas, targets, args.T, mode=args.mode)
    t = np.linspace(0.0, args.T, args.samples)
    runner.write_csv("control.csv", ["t", "u"], [t, sol.control(t)])
    runner.write_json("moment_diagnostics.json", {
        "mode": sol.mode,
        "max_residual": sol.max_residual,
        "gram_condition": sol.gram_condition,
        "imag_moment_defect": sol.imag_moment_defect,
        "residuals": [complex(r) for r in sol.residuals],
    })


def _control_from_file(path) -> dynamics.TrigControl | dynamics.SampledControl:
    """The control of a JSON file; the control classes check the values they are given."""
    doc = _read_input(path, "control", json.load)
    if not isinstance(doc, dict):
        raise ValidationError(f"control file {path}: expected a JSON object")
    kind = doc.get("kind", "trig")
    try:
        if kind == "resonant":
            return dynamics.resonant_pulse(float(doc["amplitude"]), float(doc["frequency"]),
                                           float(doc["T"]))
        if kind == "trig":
            return dynamics.TrigControl(horizon=float(doc["T"]), const=float(doc.get("const", 0.0)),
                                        terms=[(float(f), str(k), float(c))
                                               for f, k, c in doc.get("terms", [])])
        if kind == "samples":
            return dynamics.SampledControl(samples=np.asarray(doc["samples"], dtype=float),
                                           dt=float(doc["dt"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"control file {path}: malformed {kind!r} control ({exc!r})") from exc
    raise ValidationError(f"unknown control kind {kind!r}")


def _galerkin_from_problem(args):
    _, control, basis = _solve_from_problem(args)
    B = potentials.build_matrix(control, basis)
    return dynamics.GalerkinSystem(lam=basis.eigenvalues, B=B, int_labels=basis.int_labels)


def cmd_simulate(args, runner: Runner):
    system = _galerkin_from_problem(args)
    if not 1 <= args.initial <= system.dim:
        raise ValidationError(f"--initial must be a mode in 1..{system.dim}, got {args.initial}")
    u = _control_from_file(args.control)
    psi0 = np.zeros(system.dim, dtype=complex)
    psi0[args.initial - 1] = 1.0
    traj = dynamics.propagate(system, psi0, u)
    header = (["t"] + [f"re_{k+1}" for k in range(system.dim)]
              + [f"im_{k+1}" for k in range(system.dim)]
              + ["norm"] + [f"pop_{k+1}" for k in range(system.dim)])
    # bit for bit np.linalg.norm(row) and abs(v) ** 2; a vectorized norm or x * x rounds otherwise
    norms = np.array([np.linalg.norm(st) for st in traj.states])
    re, im = traj.states.real, traj.states.imag
    runner.write_csv("trajectory.csv", header, [traj.times, *re.T, *im.T, norms,
                                                *np.float_power(np.hypot(re, im), 2.0).T])
    runner.write_json("simulate_summary.json", {
        "norm_drift": traj.norm_drift,
        "steps": traj.steps,
        "error_estimate": dynamics.step_doubling_error(system, psi0, u, traj),
        "final_populations": np.abs(traj.final) ** 2,
    })


def cmd_liealg(args, runner: Runner):
    rep = dynamics.lie_closure(_galerkin_from_problem(args), resonance_tol=args.resonance_tol)
    runner.write_json("lie_closure.json", {
        "dimension": rep.n1,
        "admissible_pairs": rep.admissible_pairs,
        "reached_dimension": rep.reached_dimension,
        "target_dimension": rep.target_dimension,
        "generated": rep.generated,
        "bracket_depth": rep.bracket_depth,
    })


def cmd_report(args, runner: Runner):
    require_range("--eps", args.eps, strict=True)
    graph, control, basis = _solve_from_problem(args)
    out: dict = {"spectrum": {
        "eigenvalues": basis.eigenvalues,
        "weyl": basis.weyl_report,
        "sqrt_gap": _sqrt_gap(basis),
    }}
    hyp = spectrum.validate_spectral_hypotheses(basis)
    if hyp:
        out["spectrum"]["simple"] = hyp.simplicity
    demo = bool(hyp and hyp.simplicity)
    # the transfer demo needs all of B; its first column and diagonal are the coupling
    # analysis' elements, computed on the same ordered pairs
    B = potentials.build_matrix(control, basis) if demo else None
    coupling = potentials.analyze_coupling(control if B is None else B, basis, len(basis))
    vertex = potentials.check_vertex_compatibility(control, graph)
    out["coupling"] = {
        "decay_exponent": coupling.decay_fit[0],
        "envelope_exponent": coupling.envelope_fit[0],
        "zero_elements": coupling.zero_elements,
        "num_resonant_quadruples": len(coupling.resonant_quadruples["frequency_defect"]),
    }
    out["vertex_compatibility"] = {
        "preserves_h2": vertex.preserves_h2,
        "vanishing_order": vertex.vanishing_order,
        "certified_d_max": vertex.certified_d_max,
    }
    if demo:
        sp = lowerbounds.build_secular_product(graph)
        fit = lowerbounds.fit_derivative_bound(sp, basis)
        out["derivative_bound"] = {"dtilde": fit.dtilde, "constant": fit.constant,
                                   "raw_slope": fit.raw_slope}
        system = dynamics.GalerkinSystem(lam=basis.eigenvalues, B=B, int_labels=basis.int_labels)
        try:
            res = dynamics.resonant_transfer(system, 1, 2, args.eps)
            out["transfer_demo"] = {"fidelity": res.fidelity, "norm_drift": res.norm_drift,
                                    "boundary_population": res.boundary_population}
        except (ValidationError, NumericalError) as exc:
            out["transfer_demo"] = {"error": str(exc)}
    runner.write_json("report.json", out)


# ---------------------------------------------------------------------------
# dispatch

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphctrl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", default="out", help="output directory (default: ./out)")
    sub = ap.add_subparsers(dest="command")
    problem = argparse.ArgumentParser(add_help=False)    # the arguments of every problem command
    problem.add_argument("--problem", required=True)
    problem.add_argument("--modes", type=int, default=None)

    sub.add_parser("spectrum", parents=[problem], help="eigenvalues and eigenfunction amplitudes (CSV)")

    p = sub.add_parser("check-assumptions", parents=[problem],
                       help="coupling decay / resonances / vertex conditions")
    p.add_argument("--tol-res", dest="tol_res", type=float, default=1e-10)
    p.add_argument("--floor", type=float, default=None)

    sub.add_parser("lowerbounds", parents=[problem], help="secular-derivative lower-bound fits")

    p = sub.add_parser("moment-solve", help="solve a truncated moment problem")
    p.add_argument("--freqs", required=True, help="CSV with columns k,lambda")
    p.add_argument("--target", required=True, help="CSV with columns k,re_x,im_x")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mode", choices=["direct", "dd_preconditioned"], default="direct")
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("simulate", parents=[problem], help="propagate the truncated dynamics")
    p.add_argument("--control", required=True, help="control JSON file")
    p.add_argument("--initial", type=int, default=1)

    p = sub.add_parser("liealg", parents=[problem], help="bracket-closure dimension report")
    p.add_argument("--resonance-tol", dest="resonance_tol", type=float, default=dynamics.RESONANCE_TOL)

    p = sub.add_parser("report", parents=[problem],
                       help="combined spectral / coupling / bound / transfer report")
    p.add_argument("--eps", type=float, default=0.01)

    return ap


# built once per process: construction costs about 30 parses, and
# parse_args keeps no state between calls
_parser = functools.cache(build_parser)

_HANDLERS = {
    "spectrum": cmd_spectrum,
    "check-assumptions": cmd_check_assumptions,
    "lowerbounds": cmd_lowerbounds,
    "moment-solve": cmd_moment_solve,
    "simulate": cmd_simulate,
    "liealg": cmd_liealg,
    "report": cmd_report,
}


def dispatch(argv) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not args.command:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE

    inputs = [v for k, v in vars(args).items()
              if k in ("problem", "freqs", "target", "control") and v]
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
    runner = Runner(args.command, Path(args.out_dir), inputs, settings)
    try:
        _HANDLERS[args.command](args, runner)
        runner.finish(None)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        runner.finish((EXIT_VALIDATION, str(exc)))
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        runner.finish((EXIT_NUMERICAL, str(exc)))
        return EXIT_NUMERICAL


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

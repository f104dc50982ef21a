"""graphctrl benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload spectra --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports graphctrl from its
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1`` (spans are then written to ``.bench_out/``).  Lines before it
give the environment, each metric by name with its unit, the raw wall time
``wall_s``, the raw set-up time ``setup_raw_s`` and ``fail_frac`` with its
base.  Failing operations are listed on standard error.
"""

import os

# BLAS threads are fixed before numpy loads; graphctrl's own cap is applied too late.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["spectra", "checkers", "dynamics", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "graphctrl" / "__init__.py").is_file():
        print(f"error: no graphctrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    import harness
    from wl_checkers import Checkers
    from wl_cli import Cli
    from wl_dynamics import Dynamics
    from wl_spectra import Spectra

    import graphctrl
    if Path(graphctrl.__file__).resolve().parent != SRC / "graphctrl":
        print(f"error: graphctrl imported from {graphctrl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload_cls = {"spectra": Spectra, "checkers": Checkers, "dynamics": Dynamics, "cli": Cli}
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    workload = workload_cls[args.workload](ROOT, work_dir)
    try:
        out = harness.run(workload, args.seed, args.seconds, bool(args.trace), SRC, trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    log, metrics = out["log"], out["metrics"]
    expected = declared_metrics(bool(args.trace))
    if sorted(expected) != sorted(metrics):
        print(f"error: measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}",
              file=sys.stderr)
        return 3

    for name, reason in log.failures.items():
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    for name, reason in out["probe"]:
        if reason is not None:
            print(f"KNOWN DEFECT {name}: {reason}", file=sys.stderr)
    print("env " + json.dumps(harness.environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {log.passes} passes of "
          f"{len(log.times)} operations")
    for name, unit in expected.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"wall_s = {log.raw_wall_s():.6g} s (raw wall time of one pass; host speed factor "
          f"{log.host_factor():.4g})")
    print(f"setup_raw_s = {out['setup_raw_s']:.6g} s (raw median set-up time; host speed factor "
          f"{out['setup_factor']:.4g})")
    print(f"fail_frac = {log.failed / log.attempted:.6g} fraction "
          f"({log.failed} failed of {log.attempted} attempted)")
    if out["probe"]:
        missed = sum(r is not None for _, r in out["probe"])
        print(f"known_defect_probe = {missed} of {len(out['probe'])} checks fail "
              f"(reported, not counted as failures)")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in expected.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

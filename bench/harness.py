"""Closed-loop timing of a workload's operations, with set-up and tracing.

One process runs one operation at a time.  A workload is a fixed, seeded list
of operations; the list is run in passes until the run's time is used.  Every
result is checked (outside the timed region) by the operation's oracle or
gate; an operation fails when it raises or its check returns a reason.

Host speed.  On a shared machine the speed of the same code drifts by 20% and
more between runs (other tenants' work, at a time scale of seconds), which is
more than any useful regression bound.  So after every operation the harness
runs a fixed calibration kernel for about 3% of the operation's time (at
least once), and ``wall_ref_s`` scales the run's raw wall time by
``CAL_REFERENCE_S`` over the kernel's median time in the run: seconds at a
fixed reference host speed.  The median, not the mean, so that a few kernel
runs stalled by the host do not move the factor.  On a 2-vCPU Xeon VM, in
sets of ten unchanged runs, this narrowed the run-to-run spread in most sets
and kept the medians of two sets made while the host slowed within 13% of
each other where raw times moved by up to 57% (bench/README.md).  The raw wall
time is reported beside it.  ``setup_s`` is scaled the same way, by kernel
runs made between its repeats.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import Tracer

SETUP_REPEATS = 7
SETUP_CAL_RUNS = 10        # calibration kernel runs after each set-up repeat
CAL_REFERENCE_S = 0.0025   # kernel time that defines the reference host speed
CAL_SHARE = 0.03           # calibration time per second of operation time
_CAL_MATRIX = np.random.default_rng(0).random((40, 40))
_CAL_MATRIX = _CAL_MATRIX + _CAL_MATRIX.T


@dataclass
class Op:
    """One timed call and the check of its result (None when correct)."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class PassLog:
    times: list[list[float]]                      # per op, one entry per pass
    calibration: list[float] = field(default_factory=list)   # kernel times
    attempted: int = 0
    failed: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return len(self.times[0]) if self.times else 0

    def raw_wall_s(self) -> float:
        """Wall time of one pass: each operation's median over passes, summed."""
        return sum(statistics.median(t) for t in self.times)

    def host_factor(self) -> float:
        """Reference speed over the speed measured in this run (> 1: fast host)."""
        return CAL_REFERENCE_S / statistics.median(self.calibration)

    def wall_ref_s(self) -> float:
        return self.raw_wall_s() * self.host_factor()


class Workload:
    """Base class: ``build`` makes inputs and fixtures from the seed,
    ``operations`` lists the timed calls of one pass."""

    name = ""
    min_passes = 1

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir
        self.bytes_written = 0

    def build(self, seed: int):
        raise NotImplementedError

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def start_pass(self):
        """Hook run before each pass (untimed)."""

    def probe(self) -> list[tuple[str, str | None]]:
        """Known-defect probe, run once after the passes (untimed): (label,
        reason or None) per check.  Its failures are reported, not counted."""
        return []


def import_seconds(src: Path) -> float:
    """Wall time from starting a fresh interpreter until it has imported graphctrl.

    The child prints the end time itself, on the system-wide monotonic clock:
    ``subprocess.run`` with a timeout polls for the child's exit in sleeps of
    up to 50 ms, which would round the measurement to that step.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", "import time, graphctrl; print(time.monotonic())"],
                         env=env, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(out.stdout) - t0


def setup_seconds(workload: Workload, seed: int, src: Path) -> tuple[float, float, float]:
    """Median over repeats of (process start + import) + input and fixture build.

    Returns the median at the reference host speed, the raw median and the
    host speed factor measured between the repeats.  The last build is the
    one whose fixtures the timed operations use.
    """
    totals, cal = [], []
    for _ in range(SETUP_REPEATS):
        start_import = import_seconds(src)
        t0 = time.perf_counter()
        workload.build(seed)
        totals.append(start_import + time.perf_counter() - t0)
        calibrate(SETUP_CAL_RUNS, cal)
    raw = statistics.median(totals)
    factor = CAL_REFERENCE_S / statistics.median(cal)
    return raw * factor, raw, factor


def calibration_kernel():
    """Fixed interpreter and LAPACK work, about 2.5 ms on an idle Xeon core."""
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for _ in range(4):
        np.linalg.eigh(_CAL_MATRIX)
    return acc


def calibrate(runs: int, times: list[float]):
    """Run the calibration kernel ``runs`` times, appending each run's time."""
    for _ in range(runs):
        c0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - c0)


def run_passes(workload: Workload, ops: list[Op], log: PassLog, seconds: float,
               min_passes: int):
    """Run whole passes within ``seconds`` (but at least ``min_passes``).

    A further pass starts only while it is expected to end in time.
    """
    t_start = time.perf_counter()
    done = 0
    last = 0.0
    while done < min_passes or time.perf_counter() - t_start + last <= seconds:
        workload.start_pass()
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            reason = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:     # a failing operation is counted, not fatal
                t1 = time.perf_counter()
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                try:
                    reason = op.check(result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            log.times[i].append(t1 - t0)
            calibrate(max(1, round(CAL_SHARE * (t1 - t0) / CAL_REFERENCE_S)), log.calibration)
            log.attempted += 1
            if reason is not None:
                log.failed += 1
                log.failures.setdefault(op.name, reason)
        last = time.perf_counter() - t_pass
        done += 1


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: Workload, seed: int, seconds: float, trace: bool, src: Path,
        trace_out: Path) -> dict:
    setup_s, setup_raw_s, setup_factor = setup_seconds(workload, seed, src)
    ops = workload.operations()
    log = PassLog(times=[[] for _ in ops])
    if not trace:
        run_passes(workload, ops, log, seconds, workload.min_passes)
        metrics = {
            "wall_ref_s": log.wall_ref_s(),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        # untraced and traced halves of the run; their difference is the overhead
        run_passes(workload, ops, log, seconds / 2, 1)
        untraced = log.wall_ref_s()
        traced_log = PassLog(times=[[] for _ in ops])
        tracer = Tracer()
        bytes_before = workload.bytes_written
        tracer.install()
        try:
            run_passes(workload, ops, traced_log, seconds / 2, 1)
        finally:
            tracer.uninstall()
        passes = traced_log.passes
        metrics = tracer.layer_metrics(passes)
        metrics["cli.bytes_written"] = (workload.bytes_written - bytes_before) / passes
        metrics["trace.overhead_s"] = traced_log.wall_ref_s() - untraced
        for k in ("attempted", "failed"):
            setattr(log, k, getattr(log, k) + getattr(traced_log, k))
        for k, v in traced_log.failures.items():
            log.failures.setdefault(k, v)
    probe = workload.probe()
    if trace:
        metrics["spectrum.oracle_mismatch"] = (sum(r is not None for _, r in probe) / len(probe)
                                               if probe else 0.0)
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_out, "w") as fh:
            json.dump({"workload": workload.name, "seed": seed, "traced_passes": passes,
                       "environment": environment(),
                       "metrics": metrics,
                       "counts": dict(tracer.counts),
                       "spans": tracer.spans}, fh)
    return {"log": log, "metrics": metrics, "setup_raw_s": setup_raw_s, "setup_factor": setup_factor,
            "probe": probe}

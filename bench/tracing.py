"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces public functions of the graphctrl modules with
wrappers, in every module namespace that holds them (a name imported from
another module, such as ``lowerbounds.assemble_secular``, is replaced there
too), and ``uninstall`` puts the originals back.  Spans are kept in memory as
[name, start, end, parent index] and written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# Functions whose calls become spans, by module.
SPANNED = {
    "graph": ("load_problem", "check_length_set"),
    "spectrum": ("solve_spectrum", "validate_spectral_hypotheses"),
    "potentials": ("build_matrix", "analyze_coupling", "check_vertex_compatibility"),
    "moment": ("solve_moment", "build_dd_system", "check_trace_bounds", "verify_biorthogonality"),
    "lowerbounds": ("fit_derivative_bound", "check_cos_lower_bound"),
    "dynamics": ("propagate", "propagate_reversed", "admissible_pairs", "resonant_transfer",
                 "lie_closure"),
    "cli": ("dispatch",),
}
# Functions called too often for a span each: only their calls are counted.
COUNTED = {
    "potentials": ("matrix_element", "mode_overlap_integral"),
    "moment": ("exp_inner",),
}

CLI_COMMANDS = ("spectrum", "check-assumptions", "lowerbounds", "moment-solve", "simulate",
                "liealg", "report")

# Per-layer metrics read from spans: (metric, span name, "s" inclusive | "self_s").
SPAN_METRICS = [
    ("graph.load_problem.s", "graph.load_problem", "s"),
    ("graph.check_length_set.s", "graph.check_length_set", "s"),
    ("spectrum.solve_spectrum.s", "spectrum.solve_spectrum", "s"),
    ("spectrum.validate_spectral_hypotheses.s", "spectrum.validate_spectral_hypotheses", "s"),
    ("potentials.build_matrix.s", "potentials.build_matrix", "s"),
    ("potentials.analyze_coupling.s", "potentials.analyze_coupling", "s"),
    ("potentials.check_vertex_compatibility.s", "potentials.check_vertex_compatibility", "s"),
    ("moment.solve_moment.direct.s", "moment.solve_moment.direct", "s"),
    ("moment.solve_moment.dd_preconditioned.s", "moment.solve_moment.dd_preconditioned", "s"),
    ("moment.build_dd_system.s", "moment.build_dd_system", "s"),
    ("moment.check_trace_bounds.s", "moment.check_trace_bounds", "s"),
    ("moment.verify_biorthogonality.s", "moment.verify_biorthogonality", "s"),
    ("lowerbounds.fit_derivative_bound.s", "lowerbounds.fit_derivative_bound", "s"),
    ("lowerbounds.check_cos_lower_bound.s", "lowerbounds.check_cos_lower_bound", "s"),
    ("dynamics.propagate.s", "dynamics.propagate", "s"),
    ("dynamics.propagate_reversed.s", "dynamics.propagate_reversed", "s"),
    ("dynamics.admissible_pairs.s", "dynamics.admissible_pairs", "s"),
    ("dynamics.resonant_transfer.self_s", "dynamics.resonant_transfer", "self_s"),
    ("dynamics.lie_closure.s", "dynamics.lie_closure", "s"),
] + [(f"cli.dispatch.{c}.s", f"cli.dispatch.{c}", "s") for c in CLI_COMMANDS]

# Per-layer metrics read from counters.
COUNT_METRICS = [
    "spectrum.solve_spectrum.calls", "spectrum.modes", "spectrum.secular_evals",
    "spectrum.secular_points", "potentials.matrix_entries", "potentials.mode_overlap_integral.calls",
    "moment.exp_inner.calls", "dynamics.propagate.steps", "dynamics.admissible_pairs.coupled",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _span(self, name, fn, on_result=None, namer=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- layer-specific wrappers ------------------------------------------------

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        if full == "spectrum.solve_spectrum":
            def on_result(args, kwargs, basis):
                self.counts["spectrum.solve_spectrum.calls"] += 1
                self.counts["spectrum.modes"] += len(basis)
            return self._span(full, fn, on_result)
        if full == "moment.solve_moment":
            def namer(args, kwargs):
                mode = kwargs.get("mode", args[3] if len(args) > 3 else "direct")
                return f"{full}.{mode}"
            return self._span(full, fn, namer=namer)
        if full == "cli.dispatch":
            def namer(args, kwargs):
                argv = list(args[0]) if args else list(kwargs.get("argv", []))
                cmd = next((a for a in argv if a in CLI_COMMANDS), "unknown")
                return f"{full}.{cmd}"
            return self._span(full, fn, namer=namer)
        if full == "dynamics.admissible_pairs":
            inner = self._span(full, fn)

            @functools.wraps(fn)
            def admissible(system, *args, **kwargs):
                # the coupled-pair count P, with the library's default element tolerance
                B = np.abs(system.B)
                tol = 1e-12 * max(1.0, float(B.max()))
                self.counts["dynamics.admissible_pairs.coupled"] += int(np.count_nonzero(np.triu(B, 1) > tol))
                return inner(system, *args, **kwargs)
            return admissible
        return self._span(full, fn)

    def _secular_assembler(self, fn):
        @functools.wraps(fn)
        def assemble(*args, **kwargs):
            S, Sprime = fn(*args, **kwargs)

            def counted_S(x):
                self.counts["spectrum.secular_evals"] += 1
                self.counts["spectrum.secular_points"] += int(np.size(x))
                return S(x)
            return counted_S, Sprime
        return assemble

    def _step_counter(self, fn):
        @functools.wraps(fn)
        def step_matrices(lam, B, u_mids, dt):
            if self._innermost() == "dynamics.propagate":
                self.counts["dynamics.propagate.steps"] += int(np.size(u_mids))
            return fn(lam, B, u_mids, dt)
        return step_matrices

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the traced functions wherever a graphctrl module holds them."""
        replace: dict[int, object] = {}
        keep = []   # holds the originals, so their ids stay unique while we match
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"graphctrl.{layer}")
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = self._wrap(layer, name, fn)
                keep.append(fn)
        for layer, names in COUNTED.items():
            mod = sys.modules[f"graphctrl.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                key = "potentials.matrix_entries" if name == "matrix_element" else f"{layer}.{name}.calls"
                replace[id(fn)] = self._counted(key, fn)
                keep.append(fn)
        spectrum = sys.modules["graphctrl.spectrum"]
        replace[id(spectrum.assemble_secular)] = self._secular_assembler(spectrum.assemble_secular)
        keep.append(spectrum.assemble_secular)
        # The step count has no public hook: the propagator builds its step
        # matrices in one private helper.  When the propagator changes and the
        # helper is gone, the benchmark stops rather than report a zero count.
        step_fn = getattr(sys.modules["graphctrl.dynamics"], "_step_matrices", None)
        if step_fn is None:
            raise RuntimeError("graphctrl.dynamics._step_matrices is gone: update how "
                               "bench/tracing.py counts dynamics.propagate.steps")
        replace[id(step_fn)] = self._step_counter(step_fn)
        keep.append(step_fn)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "graphctrl" or n.startswith("graphctrl."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    setattr(mod, attr, replace[id(val)])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of the span times and counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[i]
        if inclusive["dynamics.propagate"] > 0 and not self.counts["dynamics.propagate.steps"]:
            raise RuntimeError("dynamics.propagate ran but no step was counted: update how "
                               "bench/tracing.py counts dynamics.propagate.steps")
        out = {}
        for metric, span, kind in SPAN_METRICS:
            out[metric] = (inclusive if kind == "s" else self_time)[span] / passes
        out["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith("cli.dispatch.")) / passes
        for key in COUNT_METRICS:
            out[key] = self.counts[key] / passes
        return out

"""The library names that the benchmark's tracer wraps or reads still resolve, and the
library still accepts the argument lists that the benchmark passes.

bench/tracing.py wraps functions of graphctrl by name, so deleting or renaming
one of them would only show in a traced benchmark run.  Its source is
executed here without importing it as a module, so no bytecode is written
under bench/.  The workloads' calls into the library are read from their
sources with ast, and each one's argument list is bound to the signature it
calls.
"""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from graphctrl import dynamics
from graphctrl.moment import MomentSolution, TrigControl

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_library_names_resolve():
    tracing = load_tracing()
    wanted = [(layer, name) for table in (tracing.SPANNED, tracing.COUNTED)
              for layer, names in table.items() for name in names]
    wanted += [("spectrum", "assemble_secular"), ("dynamics", "_step_matrices")]
    missing = [f"graphctrl.{layer}.{name}" for layer, name in wanted
               if not callable(getattr(importlib.import_module(f"graphctrl.{layer}"), name, None))]
    assert missing == []


def test_tracer_counts_fixed_grid_steps():
    # the tracer wraps dynamics._step_matrices by its positional parameters; a changed
    # hook would otherwise only show in a run with --trace 1
    tracer = load_tracing().Tracer()
    system = dynamics.GalerkinSystem(lam=np.array([0.0, 3.0, 8.0]), B=np.ones((3, 3)))
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    u = TrigControl(horizon=1.0, terms=[(3.0, "cos", 0.2)])
    tracer.install()
    try:
        dynamics.propagate(system, psi0, u, n_steps=64)
    finally:
        tracer.uninstall()
    assert tracer.counts["dynamics.propagate.steps"] == 64


def test_moment_solution_keeps_the_gated_field():
    # the checkers and cli workloads gate on sol.imag_moment_defect
    assert "imag_moment_defect" in {f.name for f in dataclasses.fields(MomentSolution)}


def bench_calls():
    """(site, layer, name, positional count, keyword names) of every call in bench/wl_*.py
    to a name imported from graphctrl, read from the sources with ast.

    A module imported as ``from graphctrl import dynamics`` (or ``import
    graphctrl.dynamics as dynamics``) is followed through ``dynamics.name(...)``; a
    name imported as ``from graphctrl.graph import Edge`` (possibly under an alias)
    through ``Edge(...)``.
    """
    calls = []
    for path in sorted(TRACING.parent.glob("wl_*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules, names = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "graphctrl":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphctrl."):
                layer = node.module.split(".", 1)[1]
                names.update((a.asname or a.name, (layer, a.name)) for a in node.names)
            elif isinstance(node, ast.Import):
                modules.update((a.asname, a.name.split(".", 1)[1]) for a in node.names
                               if a.asname and a.name.startswith("graphctrl."))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
                target = (modules[f.value.id], f.attr)
            elif isinstance(f, ast.Name) and f.id in names:
                target = names[f.id]
            else:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            calls.append((f"{path.name}:{node.lineno}", *target, len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return calls


BENCH_CALLS = bench_calls()


def test_bench_calls_are_found():
    # the calls that the benchmark's workloads make into the library, one per layer at least
    assert {layer for _, layer, *_ in BENCH_CALLS} == {
        "cli", "dynamics", "graph", "lowerbounds", "moment", "potentials", "spectrum"}
    assert ("dynamics", "resonant_transfer", 4, ()) in {c[1:] for c in BENCH_CALLS}


@pytest.mark.parametrize("site, layer, name, n_args, keywords", BENCH_CALLS,
                         ids=[f"{site} {layer}.{name}" for site, layer, name, _, _ in BENCH_CALLS])
def test_benchmark_call_shapes_bind(site, layer, name, n_args, keywords):
    # a parameter removed or renamed under one of these calls would otherwise only
    # break a benchmark run
    target = getattr(importlib.import_module(f"graphctrl.{layer}"), name)
    inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))

"""The library names that the benchmark's tracer wraps or reads still resolve.

bench/tracing.py wraps functions of graphctrl by name, so deleting or renaming
one of them would only show in a traced benchmark run.  Its source is
executed here without importing it as a module, so no bytecode is written
under bench/.
"""

import dataclasses
import importlib
import types
from pathlib import Path

from graphctrl.moment import MomentSolution

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


def test_moment_solution_keeps_the_gated_field():
    # the checkers and cli workloads gate on sol.imag_moment_defect
    assert "imag_moment_defect" in {f.name for f in dataclasses.fields(MomentSolution)}

"""The number of values a caller of the library can set without being made to.

Counted with ast over src/graphctrl: every function parameter with a default,
plus every dataclass field given a value.  A new option, or one removed, has
to change the number here on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graphctrl"


def is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values():
    """(file, owner, name) of each defaulted parameter and each dataclass field with a value."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [(path.name, getattr(node, "name", "lambda"), a.arg) for a in defaulted]
            elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                found += [(path.name, node.name, st.target.id) for st in node.body
                          if isinstance(st, ast.AnnAssign) and st.value is not None]
    return found


def test_settable_value_count():
    values = settable_values()
    assert len(values) == 33, "\n".join(" ".join(v) for v in values)

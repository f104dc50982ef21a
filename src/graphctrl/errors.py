"""Exception types shared across the package, and the input checks that several layers share.

Validation problems (bad input files, violated invariants) are kept apart
from numerical failures (lost root brackets, singular Gram matrices) so the
CLI can map them to distinct exit codes.
"""

import math

import numpy as np


class GraphCtrlError(Exception):
    """Base class for all package errors."""


class ValidationError(GraphCtrlError):
    """Invalid input: file contents, graph invariants, argument ranges."""


class NumericalError(GraphCtrlError):
    """A numerical procedure failed (bracketing, conditioning, underflow)."""


def require_finite(name: str, values):
    """Raise ValidationError naming the first non-finite entry of an array."""
    values = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        index = tuple(int(i) for i in np.unravel_index(bad[0], values.shape))
        where = f"[{', '.join(map(str, index))}]" if index else ""
        raise ValidationError(f"{name}{where} = {values[index]} is not finite")


def require_range(name: str, x, *, strict: bool):
    """Raise ValidationError unless the scalar x is finite and x > 0 (strict) or x >= 0."""
    if not (math.isfinite(x) and (x > 0 if strict else x >= 0)):
        raise ValidationError(f"{name} must be finite and {'>' if strict else '>='} 0, got {x!r}")


def require_integers(name: str, values, count: int) -> np.ndarray:
    """values as an int64 array; ValidationError unless they are count integers."""
    values = np.asarray(values)
    if values.shape != (count,):
        raise ValidationError(f"{name}: expected {count} integers, got shape {values.shape}")
    if not (values.dtype.kind in "iu" or values.dtype.kind == "f"
            and np.all(np.isfinite(values) & (values == np.trunc(values)))):
        raise ValidationError(f"{name} must be integers")
    return values.astype(np.int64)

"""Exception types shared across the package, and the finiteness check of array input.

Validation problems (bad input files, violated invariants) are kept apart
from numerical failures (lost root brackets, singular Gram matrices) so the
CLI can map them to distinct exit codes.
"""

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

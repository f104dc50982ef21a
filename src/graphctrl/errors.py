"""Exception types shared across the package.

Validation problems (bad input files, violated invariants) are kept apart
from numerical failures (lost root brackets, singular Gram matrices) so the
CLI can map them to distinct exit codes.
"""


class GraphCtrlError(Exception):
    """Base class for all package errors."""


class ValidationError(GraphCtrlError):
    """Invalid input: file contents, graph invariants, argument ranges."""


class NumericalError(GraphCtrlError):
    """A numerical procedure failed (bracketing, conditioning, underflow)."""

"""Independent correctness oracles used by the benchmark workloads.

Nothing here imports graphctrl: each oracle recomputes what it checks from
closed forms, so a wrong library result cannot also make its check pass.
"""

from __future__ import annotations

import math

import numpy as np

# Two edge-factor zeros closer than this (relative) are one shared zero.  Only
# exactly repeated lengths produce shared zeros in the benchmark inputs, where
# the closed-form zeros agree bit for bit; the tolerance absorbs rounding only.
_SHARED_ZERO_REL = 1e-12
# A center-vanishing eigenvalue sits exactly on its shared zero.
_POINT_REL = 1e-9


def _distinct_zeros(lengths, dirichlet, x_max):
    """Sorted distinct zeros of the edge factors on (0, x_max], with multiplicity r."""
    zeros = []
    for L, is_sin in zip(lengths, dirichlet):
        n = np.arange(1, int(x_max * L / math.pi) + 2)
        z = ((n if is_sin else n - 0.5) * math.pi) / L
        zeros.append(z[z <= x_max])
    allz = np.sort(np.concatenate(zeros))
    out: list[list[float]] = []
    for z in allz:
        if out and z - out[-1][0] <= _SHARED_ZERO_REL * z:
            out[-1][1] += 1
        else:
            out.append([float(z), 1])
    return out


def interlacing_slots(lengths, dirichlet, count, distinct=False):
    """Where the first ``count`` square-root eigenvalues of a star must lie.

    Between consecutive distinct zeros of the edge factors (sin on Dirichlet
    edges, cos on Neumann edges) the secular function has exactly one root;
    a zero shared by r factors carries r - 1 center-vanishing eigenvalues
    (Berkolaiko & Kuchment, Introduction to Quantum Graphs, 2013).  Each slot
    is ("interval", a, b) or ("point", z, z).  An all-Neumann star starts
    with the constant mode at 0.  With ``distinct`` a shared zero gives one
    slot whatever its multiplicity (a list of distinct roots).
    """
    lengths = [float(L) for L in lengths]
    x_max = (count + 2) * math.pi / sum(lengths) * 1.25 + 10.0
    while True:
        zeros = _distinct_zeros(lengths, dirichlet, x_max)
        slots = []
        if any(dirichlet):
            slots.append(("interval", 0.0, zeros[0][0]))
        elif not distinct:
            slots.append(("point", 0.0, 0.0))
        for i, (z, r) in enumerate(zeros[:-1]):
            if r >= 2:
                slots.extend([("point", z, z)] * (1 if distinct else r - 1))
            slots.append(("interval", z, zeros[i + 1][0]))
        if len(slots) >= count:
            return slots[:count]
        x_max *= 1.5


def interlacing_mismatch(lengths, dirichlet, omegas, count, distinct=False) -> str | None:
    """None when ``omegas`` fills the interlacing slots one by one, else a reason."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size != count:
        return f"returned {omegas.size} roots, requested {count}"
    for k, ((kind, a, b), w) in enumerate(zip(interlacing_slots(lengths, dirichlet, count, distinct),
                                              omegas)):
        if kind == "point":
            ok = abs(w - a) <= _POINT_REL * max(1.0, a)
        else:
            ok = a < w < b
        if not ok:
            return f"root {k + 1} = {w!r} outside its slot {kind} [{a!r}, {b!r}]"
    return None


def closure_dimension(n, pairs) -> int:
    """Exact dimension of the Lie algebra generated by both phases of each pair.

    The generators of a connected set of pairs span su(c) on that component
    (the bracket of the two phases of a pair gives its diagonal, brackets
    along a path give every other pair), and components do not mix, so the
    dimension is the sum of c^2 - 1 over components with c >= 2 nodes.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j, k in pairs:
        parent[find(j - 1)] = find(k - 1)
    sizes: dict[int, int] = {}
    for i in range(n):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return sum(c * c - 1 for c in sizes.values() if c >= 2)

"""Laplacian spectra of intervals and star graphs.

Eigenfunctions are per-edge trigonometric: a * sin(omega x) on edges whose
external vertex is Dirichlet, a * cos(omega x) on Neumann edges, with
omega = sqrt(lambda).  Vertex conditions at the center reduce the problem to
a scalar secular function

    S(x) = sum_l w_l * sigma_l(x L_l) * prod_{j ≠ l} tau_j(x L_j)

with tau = sin, sigma = cos on Dirichlet edges and tau = cos, sigma = -sin
on Neumann edges.  S is entire (pole-free) and its positive zeros, counted
with their order, enumerate the spectrum.

Star roots are bracketed by the closed-form zeros of the edge factors tau_l.
Away from them S = prod_l tau_l * M with

    M(x) = sum_l sigma_l(x L_l) / tau_l(x L_l),

and M falls strictly from +inf to -inf between consecutive distinct zeros
(Berkolaiko & Kuchment, Introduction to Quantum Graphs, 2013).  So each such
interval, and the interval below the first zero when some edge is Dirichlet,
holds exactly one simple eigenvalue, whose eigenfunction does not vanish at
the center.  A zero shared by r >= 2 edge factors is a branch point: it
carries r-1 eigenfunctions supported on those edges that vanish at the
center (a zero of S of order r-1).  Branch points exist only when length
ratios are rational.  The count below any x is therefore known in closed
form, and all brackets are refined at once by vectorized bisection on M.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .graph import BoundaryCondition, MetricGraph, Topology

_BISECT_REL = 1e-13
_CLUSTER_REL = 1e-9


class TrigMode(enum.Enum):
    SIN = "sin"
    COS = "cos"


@dataclass
class EigenMode:
    index: int              # 1-based position in the ordered spectrum
    lam: float
    omega: float
    per_edge: list[tuple[float, TrigMode]]
    multiplicity_group: int | None = None
    center_value: float = 0.0

    def edge_value(self, edge: int, x):
        amp, mode = self.per_edge[edge]
        f = np.sin if mode is TrigMode.SIN else np.cos
        return amp * f(self.omega * np.asarray(x))


@dataclass
class SpectralBasis:
    modes: list[EigenMode]
    lengths: np.ndarray
    edge_ids: list[str]
    gap_report: tuple[int, float]    # (M, delta) for the sqrt-eigenvalue gap
    weyl_report: tuple[float, float]  # (c1, c2) = min/max over k>=2 of lambda_k / k^2
    int_labels: list[int] | None = None   # integer labels when mu_k = scale * label^2
    int_scale: float | None = None
    family: str | None = None

    def __len__(self):
        return len(self.modes)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([m.omega for m in self.modes])


# ---------------------------------------------------------------------------
# secular function assembly

def _edge_kinds(graph: MetricGraph) -> list[TrigMode]:
    kinds = []
    for e in graph.edges:
        cond = graph.external_bc(e)
        kinds.append(TrigMode.SIN if cond is BoundaryCondition.DIRICHLET else TrigMode.COS)
    return kinds


def leave_one_out(rows):
    """Row products without the own factor: P[..., l] = prod_{j ≠ l} rows[..., l, j].

    ``rows`` broadcasts to (..., n, n); a[..., None, :] gives the
    leave-one-out products prod_{j ≠ l} a_j of one factor array.  Each row
    is copied with its own factor set to 1 and multiplied out in index
    order, so P equals a loop over j ≠ l bit for bit, and it is exact where
    factors vanish: nothing is divided.  Applied to rows that already carry
    a 1 in place l, it gives the leave-two-out products prod_{j ≠ l, m} a_j.
    """
    rows = np.asarray(rows)
    n = rows.shape[-1]
    # the factor index j leads the copy, so np.prod multiplies whole slices
    # in the order of j instead of reducing n-long rows one at a time
    factors = np.moveaxis(np.broadcast_to(rows, np.broadcast_shapes(rows.shape, (n, n))), -1, 0).copy()
    factors[range(n), ..., range(n)] = 1.0
    return np.prod(factors, axis=0)


def sum_in_order(terms):
    """Sum over the last axis, added onto 0.0 from left to right.

    The secular sums are compared bit for bit with loops that add one term
    at a time; ``np.sum`` adds pairwise, which rounds differently.
    """
    total = np.zeros(np.shape(terms)[:-1])
    for column in np.moveaxis(terms, -1, 0):
        total += column
    return total


def assemble_secular(lengths, kinds, weights=None):
    """Return vectorized callables (S, S') for the pole-free secular function."""
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    is_sin = np.array([k is TrigMode.SIN for k in kinds])
    own = np.eye(n, dtype=bool)
    # the terms of S' in the order they are added: for each l the sigma_l'
    # term, then the tau_m' terms in increasing m
    order = (np.arange(n)[:, None], np.argsort(~own, axis=1, kind="stable"))

    def parts(x):
        """tau and sigma at x L_l; tau' = L sigma and sigma' = -L tau on both kinds of edge."""
        arg = np.outer(np.atleast_1d(np.asarray(x, dtype=float)), lengths)
        s, c = np.sin(arg), np.cos(arg)
        return np.where(is_sin, s, c), np.where(is_sin, c, -s)

    def S(x):
        tau, sigma = parts(x)
        total = sum_in_order(weights * sigma * leave_one_out(tau[:, None, :]))
        return total[0] if np.isscalar(x) else total

    def Sprime(x):
        tau, sigma = parts(x)
        # Q[:, l, m] = prod_{j ≠ l, m} tau_j, and prod_{j ≠ l} tau_j where m = l
        Q = leave_one_out(np.where(own, 1.0, tau[:, None, :])[:, :, None, :])
        terms = (weights * sigma)[:, :, None] * (lengths * sigma)[:, None, :] * Q
        terms[:, own] = weights * (-lengths * tau) * Q[:, own]
        total = sum_in_order(terms[:, order[0], order[1]].reshape(len(tau), n * n))
        return total[0] if np.isscalar(x) else total

    return S, Sprime


# ---------------------------------------------------------------------------
# roots from interlacing brackets

def _edge_zero_clusters(lengths, kinds, x_max, cluster_rel=_CLUSTER_REL):
    """Distinct zeros of the edge factors tau_l on (0, x_max], in increasing order.

    The closed-form zeros (sin: n pi / L, cos: (n - 1/2) pi / L) of all edges
    are merged where consecutive ones agree to ``cluster_rel``.  Returns the
    first, last and mean member of each cluster as arrays lo, hi, x, and a
    dict mapping the index of each cluster where >= 2 edges vanish to the
    sorted indices of those edges.
    """
    xs, edges = [], []
    for j, (L, k) in enumerate(zip(lengths, kinds)):
        shift = 0.0 if k is TrigMode.SIN else 0.5
        n = np.arange(1, int(x_max * L / math.pi + shift) + 1)
        xs.append(((n - shift) * math.pi) / L)
        edges.append(np.full(n.size, j))
    x, e = np.concatenate(xs), np.concatenate(edges)
    if not x.size:
        return x, x, x, {}
    order = np.lexsort((e, x))
    x, e = x[order], e[order]
    first = np.flatnonzero(np.concatenate(([True], np.diff(x) > cluster_rel * np.maximum(1.0, x[:-1]))))
    last = np.append(first[1:], x.size) - 1
    shared = {}
    for i in np.flatnonzero(last > first):
        support = sorted(set(e[first[i]:last[i] + 1].tolist()))
        if len(support) >= 2:
            shared[int(i)] = support
    mean = np.add.reduceat(x, first) / (last - first + 1)
    return x[first], x[last], mean, shared


def common_vanishing_points(lengths, kinds, x_max, cluster_rel=_CLUSTER_REL):
    """Points where >= 2 edge factors vanish simultaneously.

    Returns a list of (x, [edge indices]) sorted by x.  Only rationally
    related lengths produce such points; they are detected by clustering the
    closed-form zeros of the individual factors.
    """
    _, _, x, shared = _edge_zero_clusters(lengths, kinds, x_max, cluster_rel)
    return [(float(x[i]), support) for i, support in shared.items()]


def _secular_ratio(x, lengths, is_sin):
    """M(x) = sum_l sigma_l(x L_l) / tau_l(x L_l), i.e. S(x) / prod_l tau_l(x L_l)."""
    arg = np.outer(x, lengths)
    s, c = np.sin(arg), np.cos(arg)
    return np.where(is_sin, c / s, -s / c).sum(axis=1)


def _bisect_brackets(lo, hi, lengths, is_sin):
    """The root of M in each bracket (lo, hi), all refined together.

    M falls strictly from +inf to -inf across each bracket, so only interior
    points are evaluated and the sign of M tells which half holds the root.
    """
    a, b = lo.copy(), hi.copy()
    while True:
        active = np.flatnonzero(b - a > _BISECT_REL * np.maximum(1.0, b))
        if not active.size:
            return 0.5 * (a + b)
        mid = 0.5 * (a[active] + b[active])
        right = _secular_ratio(mid, lengths, is_sin) > 0
        a[active[right]] = mid[right]
        b[active[~right]] = mid[~right]


def star_roots(lengths, kinds, count, distinct=False):
    """The lowest positive square-root eigenvalues of a star, in increasing order.

    Returns (x, multiplicity, support) entries covering at least ``count``
    eigenvalues; with ``distinct`` every entry counts once.  Between
    consecutive distinct zeros of the edge factors, and below the first one
    when some edge is Dirichlet, M has exactly one root: a simple eigenvalue
    (support None) whose eigenfunction does not vanish at the center.  A zero
    shared by the r edges in ``support`` is a branch point carrying r - 1
    center-vanishing eigenvalues.  The constant mode of an all-Neumann star
    is not included.
    """
    lengths = np.asarray(lengths, dtype=float)
    is_sin = np.array([k is TrigMode.SIN for k in kinds])
    lead = int(is_sin.any())
    x_max = (count + 2) * math.pi / float(lengths.sum()) + 1.0
    while True:
        lo, hi, x, shared = _edge_zero_clusters(lengths, kinds, x_max)
        mult = np.zeros(x.size, dtype=int)
        for i, support in shared.items():
            mult[i] = 1 if distinct else len(support) - 1
        # eigenvalues below cluster i; the last cluster may extend past x_max,
        # so only those below it are complete
        below = lead + np.arange(x.size) + np.cumsum(mult) - mult
        if x.size and below[-1] >= count:
            break
        x_max *= 1.4
    left = np.concatenate((np.zeros(lead), hi[:-1]))
    right = lo[1 - lead:]
    need = np.concatenate((np.zeros(lead, dtype=int), (below + mult)[:-1])) < count
    entries = [(float(r), 1, None) for r in _bisect_brackets(left[need], right[need], lengths, is_sin)]
    entries += [(float(x[i]), int(mult[i]), support) for i, support in shared.items()
                if i < x.size - 1 and below[i] < count]
    return sorted(entries, key=lambda t: t[0])


# ---------------------------------------------------------------------------
# eigenfunction assembly

def _trig_norm_integral(omega, L, mode: TrigMode):
    """Integral over (0, L) of sin^2(omega x) resp. cos^2(omega x)."""
    if omega == 0.0:
        return 0.0 if mode is TrigMode.SIN else L
    osc = math.sin(2 * L * omega) / (4 * omega)
    return L / 2 - osc if mode is TrigMode.SIN else L / 2 + osc


def _simple_mode(x0, lengths, kinds) -> tuple[list[float], float]:
    """Amplitudes of the center-nonvanishing eigenfunction at sqrt(lambda)=x0.

    Continuity pins a_j * tau_j(x0 L_j) to a common center value c; the
    normalization then fixes c.  This is equivalent to anchoring the
    continuity chain at the edge with the largest |tau| (no division by a
    near-vanishing factor: the quotient c / tau_j is the actual amplitude).
    """
    taus = []
    for L, k in zip(lengths, kinds):
        t = math.sin(x0 * L) if k is TrigMode.SIN else math.cos(x0 * L)
        taus.append(t)
    norm_sq = 0.0
    for (L, k), t in zip(zip(lengths, kinds), taus):
        if t == 0.0:
            raise NumericalError(f"edge factor vanishes at x={x0}; not a simple mode")
        norm_sq += _trig_norm_integral(x0, L, k) / t**2
    c = 1.0 / math.sqrt(norm_sq)
    return [c / t for t in taus], c


def _branch_modes(x0, lengths, kinds, support):
    """Orthonormal basis (r-1 functions) of the center-vanishing eigenspace.

    The eigenfunctions are supported on the edges in ``support`` whose own
    factor vanishes at x0; the Kirchhoff condition leaves an (r-1)-dim
    amplitude space, orthonormalized against the L2 weights.
    """
    r = len(support)
    d = []
    for j in support:
        L, k = lengths[j], kinds[j]
        d.append(math.cos(x0 * L) if k is TrigMode.SIN else -math.sin(x0 * L))
    w = np.array([_trig_norm_integral(x0, lengths[j], kinds[j]) for j in support])
    d = np.array(d)
    vecs = []
    for i in range(1, r):
        v = np.zeros(r)
        v[i] = 1.0
        v[0] = -d[i] / d[0]
        for prev in vecs:
            v -= prev * np.dot(prev * w, v)
        v /= math.sqrt(np.dot(v * w, v))
        vecs.append(v)
    out = []
    for v in vecs:
        amps = np.zeros(len(lengths))
        amps[support] = v
        out.append(amps)
    return out


def _weyl_report(lams):
    ks = np.arange(1, len(lams) + 1)
    sel = ks >= 2
    vals = np.asarray(lams)[sel] / ks[sel] ** 2
    return (float(vals.min()), float(vals.max())) if vals.size else (math.nan, math.nan)


def _gap_report(omegas, m_max=10, floor_rel=1e-9):
    omegas = np.asarray(omegas)
    scale = max(1.0, float(omegas.max(initial=1.0)))
    for M in range(1, m_max + 1):
        if len(omegas) <= M:
            break
        gaps = omegas[M:] - omegas[:-M]
        delta = float(gaps.min()) / M
        if delta > floor_rel * scale:
            return (M, delta)
    return (m_max, 0.0)


def solve_spectrum(graph: MetricGraph, num_modes: int) -> SpectralBasis:
    """First ``num_modes`` eigenvalues and normalized eigenfunctions.

    For a star the roots come from ``star_roots``: one bracket between
    consecutive distinct zeros of the edge factors (and below the first zero
    when an edge is Dirichlet), all refined at once by bisection on M, plus
    the closed-form branch points of rationally related lengths with their
    multiplicity.  The count is exact, so the window holding ``num_modes``
    eigenvalues is found in closed form before any root is refined.  The
    all-Neumann constant mode is included explicitly.
    """
    if num_modes < 1:
        raise ValidationError("num_modes must be >= 1")
    if graph.topology is Topology.INTERVAL:
        return _interval_spectrum(graph, num_modes)

    lengths = graph.lengths
    kinds = _edge_kinds(graph)
    modes: list[EigenMode] = []
    if all(k is TrigMode.COS for k in kinds):
        amp = 1.0 / math.sqrt(float(lengths.sum()))
        modes.append(EigenMode(index=1, lam=0.0, omega=0.0,
                               per_edge=[(amp, TrigMode.COS)] * len(lengths),
                               center_value=amp))
    group_id = 0
    for x0, _, support in star_roots(lengths, kinds, num_modes - len(modes)):
        lam = x0 * x0
        if support is None:
            amps, c = _simple_mode(x0, lengths, kinds)
            modes.append(EigenMode(index=0, lam=lam, omega=x0,
                                   per_edge=[(a, k) for a, k in zip(amps, kinds)],
                                   center_value=c))
        else:
            group_id += 1
            for amps in _branch_modes(x0, lengths, kinds, support):
                modes.append(EigenMode(index=0, lam=lam, omega=x0,
                                       per_edge=[(float(a), k) for a, k in zip(amps, kinds)],
                                       multiplicity_group=group_id, center_value=0.0))

    modes = modes[:num_modes]
    for i, m in enumerate(modes):
        m.index = i + 1
    lams = [m.lam for m in modes]
    return SpectralBasis(modes=modes, lengths=lengths, edge_ids=graph.edge_ids,
                         gap_report=_gap_report([m.omega for m in modes]),
                         weyl_report=_weyl_report(lams))


def _interval_spectrum(graph: MetricGraph, num_modes: int) -> SpectralBasis:
    e = graph.edges[0]
    L = e.length
    tail, head = graph.bc[e.tail], graph.bc[e.head]
    mode = TrigMode.SIN if tail is BoundaryCondition.DIRICHLET else TrigMode.COS
    modes = []
    if tail is BoundaryCondition.NEUMANN and head is BoundaryCondition.NEUMANN:
        modes.append(EigenMode(index=1, lam=0.0, omega=0.0,
                               per_edge=[(1.0 / math.sqrt(L), TrigMode.COS)],
                               center_value=1.0 / math.sqrt(L)))
    mixed = (tail != head)
    n = 1
    while len(modes) < num_modes:
        omega = ((n - 0.5) if mixed else n) * math.pi / L
        amp = 1.0 / math.sqrt(_trig_norm_integral(omega, L, mode))
        modes.append(EigenMode(index=len(modes) + 1, lam=omega * omega, omega=omega,
                               per_edge=[(amp, mode)],
                               center_value=amp * (math.sin(omega * L) if mode is TrigMode.SIN
                                                   else math.cos(omega * L))))
        n += 1
    lams = [m.lam for m in modes]
    return SpectralBasis(modes=modes, lengths=graph.lengths, edge_ids=graph.edge_ids,
                         gap_report=_gap_report([m.omega for m in modes]),
                         weyl_report=_weyl_report(lams))


# ---------------------------------------------------------------------------
# closed-form subsystems

def explicit_subsystem(family: str, num_modes: int, **params) -> SpectralBasis:
    """Closed-form orthonormal eigenfunction systems of the known families.

    family:
      "equilateral_star" (n_edges, length): Dirichlet star, all edges equal.
        Alternates the all-equal odd modes with the single level-(k) member
        of each degenerate eigenspace that does not vanish on edge 1.
      "two_equal_edges" (length): antisymmetric modes on two equal Dirichlet
        edges of a larger star.
      "paired_star" (lengths): one antisymmetric family per equal-length pair.
      "loops" (lengths): one sine family per loop, eigenvalues 4 k^2 pi^2 / L^2.
    """
    if num_modes < 1:
        raise ValidationError("num_modes must be >= 1")
    if family == "equilateral_star":
        return _equilateral_subsystem(num_modes, int(params.get("n_edges", 3)),
                                      float(params.get("length", 1.0)))
    if family == "two_equal_edges":
        return _two_equal_subsystem(num_modes, float(params.get("length", 1.0)))
    if family == "paired_star":
        return _scaled_family(num_modes, params["lengths"], loop=False)
    if family == "loops":
        return _scaled_family(num_modes, params["lengths"], loop=True)
    raise ValidationError(f"unknown subsystem family {family!r}")


def _equilateral_subsystem(num_modes, n_edges, L) -> SpectralBasis:
    if n_edges < 3:
        raise ValidationError("equilateral star family requires >= 3 edges")
    if L <= 0:
        raise ValidationError("length must be positive")
    modes = []
    for k in range(1, num_modes + 1):
        omega = k * math.pi / (2 * L)
        if k % 2 == 1:  # simple level: equal amplitude on every edge
            amp = math.sqrt(2.0 / (n_edges * L))
            amps = [amp] * n_edges
        else:  # the one member of the degenerate level not vanishing on edge 1
            a = -math.sqrt(2.0 * (n_edges - 1) / (n_edges * L))
            b = math.sqrt(2.0 / (n_edges * (n_edges - 1) * L))
            amps = [a] + [b] * (n_edges - 1)
        modes.append(EigenMode(index=k, lam=omega * omega, omega=omega,
                               per_edge=[(a, TrigMode.SIN) for a in amps],
                               center_value=(amps[0] * math.sin(omega * L))))
    return SpectralBasis(modes=modes, lengths=np.full(n_edges, L),
                         edge_ids=[f"e{j+1}" for j in range(n_edges)],
                         gap_report=_gap_report([m.omega for m in modes]),
                         weyl_report=_weyl_report([m.lam for m in modes]),
                         int_labels=list(range(1, num_modes + 1)),
                         int_scale=math.pi**2 / (4 * L * L),
                         family="equilateral_star")


def equilateral_dropped_modes(num_levels, n_edges, L) -> list[EigenMode]:
    """The degenerate-level eigenfunctions vanishing on edge 1 (leakage checks)."""
    out = []
    for k in range(1, num_levels + 1):
        omega = k * math.pi / L
        # orthonormal basis of {amps: amps[0] = 0, sum amps = 0}, weights L/2
        raw = []
        for i in range(1, n_edges - 1):
            v = np.zeros(n_edges)
            v[i] = 1.0
            v[i + 1] = -1.0
            raw.append(v)
        basis = []
        for v in raw:
            for prev in basis:
                v = v - prev * np.dot(prev, v)
            v = v / math.sqrt(np.dot(v, v))
            basis.append(v)
        for v in basis:
            amps = v * math.sqrt(2.0 / L)
            out.append(EigenMode(index=k, lam=omega * omega, omega=omega,
                                 per_edge=[(float(a), TrigMode.SIN) for a in amps],
                                 multiplicity_group=k, center_value=0.0))
    return out


def _two_equal_subsystem(num_modes, L) -> SpectralBasis:
    amp = 1.0 / math.sqrt(L)
    modes = []
    for k in range(1, num_modes + 1):
        omega = k * math.pi / L
        modes.append(EigenMode(index=k, lam=omega * omega, omega=omega,
                               per_edge=[(amp, TrigMode.SIN), (-amp, TrigMode.SIN)],
                               center_value=0.0))
    return SpectralBasis(modes=modes, lengths=np.array([L, L]), edge_ids=["e1", "e2"],
                         gap_report=_gap_report([m.omega for m in modes]),
                         weyl_report=_weyl_report([m.lam for m in modes]),
                         int_labels=list(range(1, num_modes + 1)),
                         int_scale=math.pi**2 / (L * L),
                         family="two_equal_edges")


def _scaled_family(num_modes, lengths, loop: bool) -> SpectralBasis:
    """Families made of one sine series per component (pair or loop).

    paired_star: mu = m^2 pi^2 / L_j^2, +/- amplitudes on the pair edges.
    loops:       mu = 4 m^2 pi^2 / L_j^2, sqrt(2/L) amplitude on one loop.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size < 1 or np.any(lengths <= 0):
        raise ValidationError("family needs positive lengths")
    factor = 2.0 if loop else 1.0
    # enumerate (m, j) by increasing frequency
    heap = [(factor * math.pi / L, 1, j) for j, L in enumerate(lengths)]
    entries = []
    import heapq
    heapq.heapify(heap)
    while len(entries) < num_modes:
        om, m, j = heapq.heappop(heap)
        entries.append((om, m, j))
        heapq.heappush(heap, (factor * (m + 1) * math.pi / lengths[j], m + 1, j))
    n_edges = lengths.size if loop else 2 * lengths.size
    modes = []
    labels = []
    for i, (om, m, j) in enumerate(entries):
        amps = np.zeros(n_edges)
        if loop:
            amps[j] = math.sqrt(2.0 / lengths[j])
        else:
            amps[2 * j] = 1.0 / math.sqrt(lengths[j])
            amps[2 * j + 1] = -amps[2 * j]
        modes.append(EigenMode(index=i + 1, lam=om * om, omega=om,
                               per_edge=[(float(a), TrigMode.SIN) for a in amps],
                               center_value=0.0))
        labels.append(m)
    single = lengths.size == 1
    edge_ids = [f"e{j+1}" for j in range(n_edges)]
    return SpectralBasis(modes=modes, lengths=(lengths if loop else np.repeat(lengths, 2)),
                         edge_ids=edge_ids,
                         gap_report=_gap_report([m.omega for m in modes]),
                         weyl_report=_weyl_report([m.lam for m in modes]),
                         int_labels=labels if single else None,
                         int_scale=(factor**2 * math.pi**2 / lengths[0]**2 if single else None),
                         family="loops" if loop else "paired_star")


# ---------------------------------------------------------------------------
# hypothesis validation

@dataclass
class SpectralHypothesesReport:
    weyl: tuple[float, float]
    gap: tuple[int, float]
    simplicity: bool
    center_decay_exponent: float
    center_min_product: float


def validate_spectral_hypotheses(basis: SpectralBasis, min_modes: int = 20) -> SpectralHypothesesReport:
    """Two-sided k^2 growth, sqrt-gap parameters, simplicity, center decay."""
    if len(basis) < min_modes:
        raise ValidationError(f"need at least {min_modes} modes, got {len(basis)}")
    lams = basis.eigenvalues
    rel = np.diff(lams) / np.maximum(np.abs(lams[1:]), 1e-300)
    simple = bool(np.all(rel > 1e-9))
    centers = np.array([abs(m.center_value) for m in basis.modes])
    ks = np.arange(1, len(basis) + 1)
    sel = centers > 0
    if sel.sum() >= 2:
        A = np.vstack([np.log(ks[sel]), np.ones(sel.sum())]).T
        slope, _ = np.linalg.lstsq(A, np.log(centers[sel]), rcond=None)[0]
        p_fit = -float(slope)
        min_prod = float(np.min(centers[sel] * ks[sel] ** p_fit))
    else:
        p_fit, min_prod = math.nan, 0.0
    return SpectralHypothesesReport(weyl=basis.weyl_report, gap=basis.gap_report,
                                    simplicity=simple,
                                    center_decay_exponent=p_fit,
                                    center_min_product=min_prod)

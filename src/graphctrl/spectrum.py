"""Laplacian spectra of intervals and star graphs.

Eigenfunctions are per-edge trigonometric: a * sin(omega x) on edges whose
external vertex is Dirichlet, a * cos(omega x) on Neumann edges, with
omega = sqrt(lambda).  Vertex conditions at the center reduce the problem to
a scalar secular function

    S(x) = sum_l w_l * sigma_l(x L_l) * prod_{j ≠ l} tau_j(x L_j)

with tau = sin, sigma = cos on Dirichlet edges (where the boolean edge kind
``is_sin`` holds) and tau = cos, sigma = -sin on Neumann edges; every caller
gets both from ``edge_factors``.  S is entire (pole-free) and its positive
zeros, counted with their order, enumerate the spectrum.

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
form, and all brackets are refined at once by safeguarded Newton steps on M,
whose derivative M'(x) = -sum_l L_l / tau_l(x L_l)^2 is exact.

A basis is held as arrays (``SpectralBasis``): the eigenvalues, a K x E
amplitude matrix, ``is_sin`` and the center values.  The amplitudes of all
simple roots come from one array evaluation; a branch point fills its r-1
rows, and ``multiplicity`` counts the members of each eigenspace among the
modes kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .graph import BoundaryCondition, MetricGraph, Topology

_CLUSTER_REL = 1e-9
_NEWTON_STEP_REL = 1e-15     # a bracket is done once its Newton step is this small relative to x
_NEWTON_PASSES = 64          # bisecting alone would meet the step tolerance within this many passes


@dataclass
class SpectralBasis:
    """The first K eigenfunctions as arrays.

    Mode k is amplitudes[k, l] * sin(omegas[k] x) on edge l where
    is_sin[l], and amplitudes[k, l] * cos(omegas[k] x) elsewhere; x runs from
    the external vertex of the edge.  The trig kind belongs to the edge (sin
    on Dirichlet ends, cos on Neumann ends), never to the mode.
    """

    eigenvalues: np.ndarray          # (K,) ascending
    omegas: np.ndarray               # (K,) square roots of the eigenvalues
    amplitudes: np.ndarray           # (K, E)
    is_sin: np.ndarray               # (E,) bool: True on Dirichlet-ended edges
    center_values: np.ndarray        # (K,) eigenfunction value at the center
    multiplicity: np.ndarray         # (K,) int: members of the mode's eigenspace among the K kept
    lengths: np.ndarray
    edge_ids: list[str]
    # both reports are None below two modes
    gap_report: tuple[int, float] | None     # (M, delta) for the sqrt-eigenvalue gap
    weyl_report: tuple[float, float] | None  # (c1, c2) = min/max over k>=2 of lambda_k / k^2
    int_labels: list[int] | None = None   # integer labels when mu_k = scale * label^2
    family: str | None = None

    def __len__(self):
        return len(self.eigenvalues)


def _basis(omegas, amplitudes, is_sin, lengths, edge_ids, center_values=None, multiplicity=None,
           **labels) -> SpectralBasis:
    """A basis from its frequency and amplitude arrays; the center values and
    multiplicities default to 0 and 1, the reports are computed here."""
    omegas = np.asarray(omegas, dtype=float)
    lams = omegas * omegas
    K = omegas.size
    return SpectralBasis(eigenvalues=lams, omegas=omegas,
                         amplitudes=np.asarray(amplitudes, dtype=float),
                         is_sin=np.asarray(is_sin, dtype=bool),
                         center_values=np.zeros(K) if center_values is None else center_values,
                         multiplicity=np.ones(K, dtype=int) if multiplicity is None else multiplicity,
                         lengths=np.asarray(lengths, dtype=float), edge_ids=list(edge_ids),
                         gap_report=_gap_report(omegas), weyl_report=_weyl_report(lams), **labels)


# ---------------------------------------------------------------------------
# secular function assembly

def _is_sin(graph: MetricGraph, ends) -> np.ndarray:
    """The edge kinds of edges whose coordinate-0 vertices are ``ends``: True where Dirichlet."""
    return np.array([graph.bc[v] is BoundaryCondition.DIRICHLET for v in ends])


def edge_factors(x, lengths, is_sin):
    """The edge factors (tau, sigma) at x L_l, one row per point of x.

    tau = sin, sigma = cos where is_sin, and tau = cos, sigma = -sin
    elsewhere, so tau' = L sigma and sigma' = -L tau on both kinds of edge.
    """
    arg = np.asarray(x, dtype=float).reshape(-1, 1) * lengths    # np.outer, without its overhead
    s, c = np.sin(arg), np.cos(arg)
    return np.where(is_sin, s, c), np.where(is_sin, c, -s)


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


def loglog_fit(ks, vals):
    """(slope, intercept, rms residual) of the least-squares line log(vals) ~ log(ks)."""
    A = np.vstack([np.log(ks), np.ones(np.size(ks))]).T
    y = np.log(vals)
    sol = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean((y - A @ sol) ** 2)))


def assemble_secular(lengths, is_sin, weights):
    """Return vectorized callables (S, S') for the pole-free secular function."""
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    weights = np.asarray(weights, dtype=float)
    is_sin = np.asarray(is_sin, dtype=bool)
    own = np.eye(n, dtype=bool)
    # the terms of S' in the order they are added: for each l the sigma_l'
    # term, then the tau_m' terms in increasing m
    order = (np.arange(n)[:, None], np.argsort(~own, axis=1, kind="stable"))

    def S(x):
        tau, sigma = edge_factors(x, lengths, is_sin)
        total = sum_in_order(weights * sigma * leave_one_out(tau[:, None, :]))
        return total[0] if np.isscalar(x) else total

    def Sprime(x):
        tau, sigma = edge_factors(x, lengths, is_sin)
        # Q[:, l, m] = prod_{j ≠ l, m} tau_j, and prod_{j ≠ l} tau_j where m = l
        Q = leave_one_out(np.where(own, 1.0, tau[:, None, :])[:, :, None, :])
        terms = (weights * sigma)[:, :, None] * (lengths * sigma)[:, None, :] * Q
        terms[:, own] = weights * (-lengths * tau) * Q[:, own]
        total = sum_in_order(terms[:, order[0], order[1]].reshape(len(tau), n * n))
        return total[0] if np.isscalar(x) else total

    return S, Sprime


# ---------------------------------------------------------------------------
# roots from interlacing brackets

def _edge_zero_clusters(lengths, is_sin, x_max, cluster_rel=_CLUSTER_REL):
    """Distinct zeros of the edge factors tau_l on (0, x_max], in increasing order.

    The closed-form zeros (sin: n pi / L, cos: (n - 1/2) pi / L) of all edges
    are merged where consecutive ones agree to ``cluster_rel``.  Returns the
    first, last and mean member of each cluster as arrays lo, hi, x, and a
    (clusters, edges) boolean array marking the edges that vanish in each
    cluster.
    """
    xs, edges = [], []
    for j, (L, s) in enumerate(zip(lengths, is_sin)):
        shift = 0.0 if s else 0.5
        n = np.arange(1, int(x_max * L / math.pi + shift) + 1)
        xs.append(((n - shift) * math.pi) / L)
        edges.append(np.full(n.size, j))
    x, e = np.concatenate(xs), np.concatenate(edges)
    if not x.size:
        return x, x, x, np.zeros((0, len(lengths)), dtype=bool)
    order = np.lexsort((e, x))
    x, e = x[order], e[order]
    starts = np.concatenate(([True], np.diff(x) > cluster_rel * np.maximum(1.0, x[:-1])))
    first = np.flatnonzero(starts)
    last = np.append(first[1:], x.size) - 1
    vanishing = np.zeros((first.size, len(lengths)), dtype=bool)
    vanishing[np.cumsum(starts) - 1, e] = True
    mean = np.add.reduceat(x, first) / (last - first + 1)
    return x[first], x[last], mean, vanishing


def common_vanishing_points(lengths, is_sin, x_max, cluster_rel=_CLUSTER_REL):
    """Points where >= 2 edge factors vanish simultaneously.

    Returns a list of (x, [edge indices]) sorted by x.  Only rationally
    related lengths produce such points; they are detected by clustering the
    closed-form zeros of the individual factors.
    """
    _, _, x, vanishing = _edge_zero_clusters(lengths, is_sin, x_max, cluster_rel)
    return [(float(x[i]), np.flatnonzero(vanishing[i]).tolist())
            for i in np.flatnonzero(vanishing.sum(axis=1) >= 2)]


def _newton_brackets(lo, hi, lengths, is_sin):
    """The root of M in each bracket (lo, hi), all refined together.

    M falls strictly from +inf to -inf across each bracket, and
    M' = -sum_l L_l / tau_l^2 follows from tau' = L sigma, sigma' = -L tau.
    Each pass evaluates M and M' once at every open bracket's iterate,
    shrinks the bracket by the sign of M, and moves to the Newton point when
    it lies strictly inside the bracket, to the midpoint otherwise.  A
    bracket is done when M is exactly 0 or its Newton step is at most
    _NEWTON_STEP_REL x; one still open after _NEWTON_PASSES passes raises.
    """
    a, b = lo.copy(), hi.copy()
    x = 0.5 * (a + b)
    active = np.arange(x.size)
    for _ in range(_NEWTON_PASSES):
        xa = x[active]
        tau, sigma = edge_factors(xa, lengths, is_sin)
        m = (sigma / tau).sum(axis=1)
        step = m / (lengths / (tau * tau)).sum(axis=1)       # -M / M'
        a[active[m > 0]] = xa[m > 0]
        b[active[m < 0]] = xa[m < 0]
        new = xa + step
        inside = (new > a[active]) & (new < b[active])
        done = (m == 0) | (np.abs(step) <= _NEWTON_STEP_REL * xa)
        x[active] = np.where(inside, new, np.where(done, xa, 0.5 * (a[active] + b[active])))
        active = active[~done]
        if not active.size:
            return x
    i = int(active[0])
    raise NumericalError(f"root refinement did not converge within {_NEWTON_PASSES} passes "
                         f"in the bracket ({float(lo[i])!r}, {float(hi[i])!r})")


def star_roots(lengths, is_sin, count, distinct=False):
    """The lowest positive square-root eigenvalues of a star, in increasing order.

    Returns arrays x, multiplicity and support with one entry per distinct
    root, covering at least ``count`` eigenvalues; with ``distinct`` every
    entry counts once.  Between consecutive distinct zeros of the edge
    factors, and below the first one when some edge is Dirichlet, M has
    exactly one root: a simple eigenvalue (a support row with no edge)
    whose eigenfunction does not vanish at the center.  A zero shared by
    the r edges marked in its (len(lengths),) support row is a branch point
    carrying r - 1 center-vanishing eigenvalues.  The constant mode of an
    all-Neumann star is not included.  The simple roots of all brackets are
    refined together by ``_newton_brackets``; a bracket that does not
    converge within _NEWTON_PASSES passes raises NumericalError.
    """
    lengths = np.asarray(lengths, dtype=float)
    is_sin = np.asarray(is_sin, dtype=bool)
    lead = int(is_sin.any())
    x_max = (count + 2) * math.pi / float(lengths.sum()) + 1.0
    while True:
        lo, hi, x, vanishing = _edge_zero_clusters(lengths, is_sin, x_max)
        r = vanishing.sum(axis=1)
        mult = np.where(r >= 2, 1 if distinct else r - 1, 0)
        # eigenvalues below cluster i; the last cluster may extend past x_max,
        # so only those below it are complete
        below = lead + np.arange(x.size) + np.cumsum(mult) - mult
        if x.size and below[-1] >= count:
            break
        x_max *= 1.4
    left = np.concatenate((np.zeros(lead), hi[:-1]))
    right = lo[1 - lead:]
    need = np.concatenate((np.zeros(lead, dtype=int), (below + mult)[:-1])) < count
    simple = _newton_brackets(left[need], right[need], lengths, is_sin)
    branch = np.flatnonzero((mult[:-1] > 0) & (below[:-1] < count))
    roots = np.concatenate((simple, x[branch]))
    multiplicity = np.concatenate((np.ones(simple.size, dtype=int), mult[branch]))
    support = np.concatenate((np.zeros((simple.size, lengths.size), dtype=bool), vanishing[branch]))
    order = np.argsort(roots, kind="stable")     # no simple root sits on a branch point
    return roots[order], multiplicity[order], support[order]


# ---------------------------------------------------------------------------
# eigenfunction assembly

def _trig_norm_integral(omega, L, is_sin):
    """Integral over (0, L) of sin^2(omega x) where is_sin, else cos^2(omega x); omega > 0."""
    osc = np.sin(2 * L * omega) / (4 * omega)
    return np.where(is_sin, L / 2 - osc, L / 2 + osc)


def _simple_modes(x, lengths, is_sin):
    """Amplitude rows and center values of the center-nonvanishing modes at sqrt(lambda) = x.

    Continuity pins a_j * tau_j(x L_j) to a common center value c; the
    normalization then fixes c.  This is equivalent to anchoring the
    continuity chain at the edge with the largest |tau| (no division by a
    near-vanishing factor: the quotient c / tau_j is the actual amplitude).
    The norm is summed edge by edge and tau is squared by pow, as a loop
    over the edges of one root would.
    """
    x = np.asarray(x, dtype=float)
    tau, _ = edge_factors(x, lengths, is_sin)
    vanishing = np.flatnonzero((tau == 0.0).any(axis=1))
    if vanishing.size:
        x0 = float(x[vanishing[0]])
        raise NumericalError(f"edge factor vanishes at x={x0}; not a simple mode")
    norm_sq = sum_in_order(_trig_norm_integral(x[:, None], lengths, is_sin)
                           / np.float_power(tau, 2.0))
    c = 1.0 / np.sqrt(norm_sq)
    return c[:, None] / tau, c


def _branch_modes(x, lengths, is_sin, support):
    """Orthonormal bases of the center-vanishing eigenspaces at the branch points x.

    Every point of x is a shared zero of the factors of the edges in
    ``support``; its r-1 eigenfunctions live on those edges, and the
    Kirchhoff condition leaves an (r-1)-dim amplitude space, orthonormalized
    against the L2 weights by Gram-Schmidt.  All points run together;
    ``np.vecdot`` gives each point the inner products ``np.dot`` would.
    Returns an array of shape (len(x), r-1, len(lengths)).
    """
    r = len(support)
    L, kind = lengths[support], is_sin[support]
    _, d = edge_factors(x, L, kind)
    w = _trig_norm_integral(x[:, None], L, kind)
    vecs = []
    for i in range(1, r):
        v = np.zeros_like(d)
        v[:, i] = 1.0
        v[:, 0] = -d[:, i] / d[:, 0]
        for prev in vecs:
            v -= prev * np.vecdot(prev * w, v)[:, None]
        v /= np.sqrt(np.vecdot(v * w, v))[:, None]
        vecs.append(v)
    out = np.zeros((d.shape[0], r - 1, len(lengths)))
    out[:, :, support] = np.stack(vecs, axis=1)
    return out


def _weyl_report(lams):
    """(min, max) over k >= 2 of lambda_k / k^2; None below two modes."""
    if len(lams) < 2:
        return None
    vals = np.asarray(lams)[1:] / np.arange(2, len(lams) + 1) ** 2
    return (float(vals.min()), float(vals.max()))


def _gap_report(omegas, m_max=10, floor_rel=1e-9):
    """The smallest M <= m_max with a gap omega_{k+M} - omega_k >= M delta, delta > 0,
    as (M, delta); (m_max, 0.0) when there is none, None below two modes."""
    omegas = np.asarray(omegas)
    if omegas.size < 2:
        return None
    scale = max(1.0, float(omegas.max()))
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
    when an edge is Dirichlet), all refined at once by safeguarded Newton
    steps on M, plus the closed-form branch points of rationally related
    lengths with their multiplicity; the branch points that share one
    support get their eigenfunctions from one array pass.  The count is
    exact, so the window holding ``num_modes`` eigenvalues is found in
    closed form before any root is refined.  The all-Neumann constant mode
    is included explicitly.  When ``num_modes`` cuts through a branch point,
    the multiplicity of its kept modes counts only those kept.
    """
    if num_modes < 1:
        raise ValidationError("num_modes must be >= 1")
    if graph.topology is Topology.INTERVAL:
        return _interval_spectrum(graph, num_modes)

    lengths = graph.lengths
    is_sin = _is_sin(graph, [e.tail for e in graph.edges])
    constant = not is_sin.any()
    x, size, support = star_roots(lengths, is_sin, num_modes - constant)   # size: 1 or r - 1
    simple = ~support.any(axis=1)
    start = np.cumsum(size) - size + constant             # first row of each entry
    amps = np.zeros((constant + int(size.sum()), lengths.size))
    center = np.zeros(len(amps))
    rows = start[simple]
    amps[rows], center[rows] = _simple_modes(x[simple], lengths, is_sin)
    branches = {}                                         # support -> indices of its branch points
    for i in np.flatnonzero(~simple):
        branches.setdefault(support[i].tobytes(), []).append(i)
    for idx in branches.values():
        edges = np.flatnonzero(support[idx[0]])
        rows = start[idx][:, None] + np.arange(edges.size - 1)
        amps[rows] = _branch_modes(x[idx], lengths, is_sin, edges)
    omegas = np.repeat(x, size)
    multiplicity = np.repeat(np.minimum(size, num_modes - start), size)
    if constant:
        amps[0] = center[0] = 1.0 / math.sqrt(float(lengths.sum()))
        omegas, multiplicity = np.r_[0.0, omegas], np.r_[1, multiplicity]
    return _basis(omegas[:num_modes], amps[:num_modes], is_sin, lengths, graph.edge_ids,
                  center[:num_modes], multiplicity[:num_modes])


def _interval_spectrum(graph: MetricGraph, num_modes: int) -> SpectralBasis:
    e = graph.edges[0]
    L = e.length
    tail, head = graph.bc[e.tail], graph.bc[e.head]
    is_sin = _is_sin(graph, [e.tail])
    constant = tail is BoundaryCondition.NEUMANN and head is BoundaryCondition.NEUMANN
    n = np.arange(1, num_modes + 1 - constant)
    omegas = (n - 0.5 if tail != head else n) * math.pi / L
    amps = 1.0 / np.sqrt(_trig_norm_integral(omegas, L, is_sin))
    center = amps * edge_factors(omegas, [L], is_sin)[0][:, 0]
    if constant:
        amp = 1.0 / math.sqrt(L)
        omegas, amps, center = np.r_[0.0, omegas], np.r_[amp, amps], np.r_[amp, center]
    return _basis(omegas, amps[:, None], is_sin, graph.lengths, graph.edge_ids, center)


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
    k = np.arange(1, num_modes + 1)
    omegas = k * math.pi / (2 * L)
    # odd k: the simple level, equal amplitude on every edge; even k: the one
    # member of the degenerate level not vanishing on edge 1
    degenerate = np.r_[-math.sqrt(2.0 * (n_edges - 1) / (n_edges * L)),
                       np.full(n_edges - 1, math.sqrt(2.0 / (n_edges * (n_edges - 1) * L)))]
    amps = np.where((k % 2 == 1)[:, None], math.sqrt(2.0 / (n_edges * L)), degenerate)
    tau, _ = edge_factors(omegas, [L], True)
    return _basis(omegas, amps, np.ones(n_edges, dtype=bool), np.full(n_edges, L),
                  [f"e{j+1}" for j in range(n_edges)], amps[:, 0] * tau[:, 0],
                  int_labels=k.tolist(), family="equilateral_star")


def equilateral_dropped_modes(num_levels, n_edges, L) -> SpectralBasis:
    """The degenerate-level eigenfunctions vanishing on edge 1 (leakage checks).

    Level k holds n_edges - 2 of them at omega = k pi / L: an orthonormal
    basis of {amps: amps[0] = 0, sum amps = 0} under the weights L / 2.
    """
    vecs = []
    for i in range(1, n_edges - 1):
        v = np.zeros(n_edges)
        v[i], v[i + 1] = 1.0, -1.0
        for prev in vecs:
            v = v - prev * np.dot(prev, v)
        vecs.append(v / math.sqrt(np.dot(v, v)))
    per_level = len(vecs)
    omegas = np.repeat(np.arange(1, num_levels + 1) * math.pi / L, per_level)
    return _basis(omegas, np.tile(np.array(vecs) * math.sqrt(2.0 / L), (num_levels, 1)),
                  np.ones(n_edges, dtype=bool), np.full(n_edges, L),
                  [f"e{j+1}" for j in range(n_edges)], multiplicity=np.full(omegas.size, per_level))


def _two_equal_subsystem(num_modes, L) -> SpectralBasis:
    amp = 1.0 / math.sqrt(L)
    k = np.arange(1, num_modes + 1)
    return _basis(k * math.pi / L, np.tile([amp, -amp], (num_modes, 1)), np.ones(2, dtype=bool),
                  [L, L], ["e1", "e2"], int_labels=k.tolist(), family="two_equal_edges")


def _scaled_family(num_modes, lengths, loop: bool) -> SpectralBasis:
    """Families made of one sine series per component (pair or loop).

    paired_star: mu = m^2 pi^2 / L_j^2, +/- amplitudes on the pair edges.
    loops:       mu = 4 m^2 pi^2 / L_j^2, sqrt(2/L) amplitude on one loop.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size < 1 or np.any(lengths <= 0):
        raise ValidationError("family needs positive lengths")
    factor = 2.0 if loop else 1.0
    # the first num_modes (omega, m, j) of every component, in increasing order
    m = np.arange(1, num_modes + 1)
    om = factor * m[:, None] * math.pi / lengths
    m, j = (a.ravel() for a in np.meshgrid(m, np.arange(lengths.size), indexing="ij"))
    order = np.lexsort((j, m, om.ravel()))[:num_modes]
    om, m, j = om.ravel()[order], m[order], j[order]
    rows = np.arange(num_modes)
    if loop:
        amps = np.zeros((num_modes, lengths.size))
        amps[rows, j] = np.sqrt(2.0 / lengths[j])
    else:
        amps = np.zeros((num_modes, 2 * lengths.size))
        amps[rows, 2 * j] = 1.0 / np.sqrt(lengths[j])
        amps[rows, 2 * j + 1] = -amps[rows, 2 * j]
    return _basis(om, amps, np.ones(amps.shape[1], dtype=bool),
                  lengths if loop else np.repeat(lengths, 2),
                  [f"e{i+1}" for i in range(amps.shape[1])],
                  int_labels=m.tolist() if lengths.size == 1 else None,
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
    centers = np.abs(basis.center_values)
    ks = np.arange(1, len(basis) + 1)
    sel = centers > 0
    if sel.sum() >= 2:
        p_fit = -loglog_fit(ks[sel], centers[sel])[0]
        min_prod = float(np.min(centers[sel] * ks[sel] ** p_fit))
    else:
        p_fit, min_prod = math.nan, 0.0
    return SpectralHypothesesReport(weyl=basis.weyl_report, gap=basis.gap_report,
                                    simplicity=simple,
                                    center_decay_exponent=p_fit,
                                    center_min_product=min_prod)

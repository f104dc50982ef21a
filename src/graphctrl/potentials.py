"""Multiplication-potential control operators and their matrix elements.

The control operator acts edgewise as psi^j -> P_j(x) psi^j with real
polynomial potentials P_j.  Matrix elements against trigonometric
eigenfunctions reduce to integrals x^p * trig * trig which are evaluated in
closed form (product-to-sum plus the x^p cos recurrence) by one array
kernel.  The frequencies, amplitudes and per-edge kinds ``is_sin`` (sin on a
Dirichlet end, cos on a Neumann end) are read from the array basis, so each
edge is one kernel call over all requested mode pairs; the same per-edge sum
gives the cross block between two bases on the same edges
(``coupling_block``).

The module also hosts the two numerical checkers used before a control run:
the decay/resonance analysis of the coupling column <phi_k, B phi_1>, and
the endpoint-derivative conditions under which B preserves the vertex
conditions (and hence the higher smoothness classes) of the graph Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import BoundaryCondition, MetricGraph
from .spectrum import SpectralBasis, loglog_fit

MAX_DEGREE = 12


def _series(w, first, L, sums):
    """Taylor sums of the moments of degrees first..deg and both parities, in one pass over m.

    Writes sums[odd, q, i], for q >= first[i] (deg = sums.shape[1] - 1), the
    sum over m of (-1)^m w_i^n L^(q+n+1) / (n! (q+n+1)), n = 2m + odd, added
    left to right.  Each sum stops after its first term below 1e-20 of its
    partial sum, or after 121 terms.  A cell (i, q) carries both parities;
    cells whose sums have both stopped leave the loop in batches, once a
    quarter of the cells have, and an element's powers stop with its last
    cell.  w^n is Python's float power (libm pow): numpy's vectorized pow can
    differ in the last bit.
    """
    deg = sums.shape[1] - 1
    counts = deg + 1 - first
    el = np.repeat(np.arange(w.size), counts)            # each cell's element and degree
    q = first[el] + np.arange(el.size) - np.repeat(np.cumsum(counts) - counts, counts)
    acc = np.zeros((2, el.size))
    going = np.ones((2, el.size), dtype=bool)
    power = np.empty((2, w.size))
    members, ws = np.arange(w.size), w.tolist()          # the elements with a cell in the loop
    for m in range(121):
        n = 2 * m
        power[:, members] = [[x ** n for x in ws], [x ** (n + 1) for x in ws]]
        Ln = [(-1) ** m * L ** e for e in range(n + 1, deg + n + 3)]
        div = [[float(math.factorial(n + odd) * (k + n + odd + 1)) for k in range(deg + 1)]
               for odd in (0, 1)]
        term = np.take(power, el, axis=1)
        term *= np.take([Ln[:-1], Ln[1:]], q, axis=1)
        term /= np.take(div, q, axis=1)
        np.add(acc, term, out=acc, where=going)
        tol = np.abs(acc)
        np.maximum(tol, 1e-300, out=tol)
        tol *= 1e-20
        going &= np.abs(term, out=term) >= tol
        live = going[0] | going[1]
        alive = np.count_nonzero(live)
        if 4 * alive <= 3 * live.size:
            done = ~live
            sums[:, q[done], el[done]] = acc[:, done]
            if not alive:
                return
            acc, going, el, q = acc[:, live], going[:, live], el[live], q[live]
            kept = np.zeros(w.size, dtype=bool)
            kept[el] = True
            members = np.flatnonzero(kept)
            ws = w[members].tolist()
    sums[:, q, el] = acc


def trig_moments(omega, L, deg):
    """Yield (int x^q cos(omega x), int x^q sin(omega x)) over (0, L) for q = 0..deg.

    omega is a 1-d array.  The branch is chosen per q and per element.  The
    upward integration-by-parts recurrence amplifies rounding by roughly
    prod_{k<=q} max(1, k/T), T = |omega| L, and the alternating Taylor
    series by about e^T, so an element takes the series where that factor
    exceeds e^min(T, 40), and for every q where T < 0.5 (small phases also
    hit the 1 - cos cancellation of the recurrence base; at omega = 0 the
    series is exact).  The series values of every q come from one pass
    (_series) before the first yield and are held as 2 (deg + 1) values per
    series element; the recurrence holds only the current q.
    """
    w = np.asarray(omega, dtype=float)
    T = np.abs(w) * L
    # first q on the series; the factor never falls with q, and is 1 while q <= T
    first = np.where(T < 0.5, 0, deg + 1)
    mid = np.flatnonzero((T >= 0.5) & (T < deg))
    if mid.size:
        Tm = T[mid]
        bound = np.array([math.exp(min(t, 40.0)) for t in Tm.tolist()])
        factor = np.ones(mid.size)
        for k in range(1, deg + 1):
            factor *= np.maximum(1.0, k / Tm)
            first[mid[(factor > bound) & (first[mid] > deg)]] = k
    series = np.flatnonzero(first <= deg)
    first = first[series]
    sums = np.zeros((2, deg + 1, series.size))
    _series(w[series], first, L, sums)

    wr = np.where(T < 0.5, 1.0, w)           # those elements never use the recurrence
    s, c = np.sin(wr * L), np.cos(wr * L)
    ic, is_ = s / wr, (1.0 - c) / wr
    Lq = 1.0
    for q in range(deg + 1):
        if q:
            Lq *= L
            ic, is_ = Lq * s / wr - (q / wr) * is_, -Lq * c / wr + (q / wr) * ic
        live = first <= q
        if live.any():      # an element on the series stays there, so its recurrence is dropped
            ic[series[live]], is_[series[live]] = sums[:, q, live]
        yield ic, is_


def _overlap(coeffs, a, b, L, sin_a: bool, sin_b: bool):
    """Elementwise sum over q of c_q * (integral over (0, L) of x^q f(a x) g(b x)).

    f is sin if sin_a, else cos, and g likewise by sin_b.  Product to sum
    with d = a - b, s = a + b: sin sin = (C(d) - C(s))/2, cos cos =
    (C(d) + C(s))/2, sin cos = (S(s) + S(d))/2, cos sin = (S(s) - S(d))/2.
    The coefficient sum runs inside the moment recurrence.
    """
    acc = np.zeros(np.shape(a))
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size == 0:
        return acc
    deg = int(nonzero[-1])
    for c, (cd, sd), (cs, ss) in zip(coeffs, trig_moments(a - b, L, deg),
                                     trig_moments(a + b, L, deg)):
        if c != 0.0:
            if sin_a == sin_b:
                val = cd - cs if sin_a else cd + cs
            else:
                val = ss + sd if sin_a else ss - sd
            acc += c * (0.5 * val)
    return acc


def mode_overlap_integral(omega1, sin1: bool, omega2, sin2: bool, L, p: int = 0):
    """x^p-weighted overlap on (0, L) of two edge factors: sin where sin1 (sin2) holds, else cos."""
    if p < 0 or p > MAX_DEGREE:
        raise ValidationError(f"polynomial degree {p} outside supported range 0..{MAX_DEGREE}")
    if L <= 0:
        raise ValidationError("L must be positive")
    unit = np.zeros(p + 1)
    unit[p] = 1.0
    return float(_overlap(unit, np.array([float(omega1)]), np.array([float(omega2)]), L,
                          bool(sin1), bool(sin2))[0])


@dataclass
class ControlOperator:
    """Per-edge real polynomial multiplication potentials (ascending degree)."""

    per_edge: dict[str, np.ndarray]
    tag: str = ""

    def __post_init__(self):
        clean = {}
        for eid, coeffs in self.per_edge.items():
            arr = np.asarray(coeffs, dtype=float)
            if arr.ndim != 1:
                raise ValidationError(f"control on edge {eid!r}: coefficients must be a vector")
            if arr.size > MAX_DEGREE + 1:
                raise ValidationError(
                    f"control on edge {eid!r}: degree {arr.size - 1} exceeds cap {MAX_DEGREE}")
            clean[eid] = arr
        self.per_edge = clean

    def coeffs(self, eid: str) -> np.ndarray:
        return self.per_edge.get(eid, np.zeros(1))


def squared_shift_potential(L: float) -> np.ndarray:
    """(x - L)^2 in ascending coefficients."""
    return np.array([L * L, -2.0 * L, 1.0])


def degree6_neumann_potential(L: float) -> np.ndarray:
    """5x^6 - 24x^5 L + 45x^4 L^2 - 40x^3 L^3 + 15x^2 L^4 - L^6, ascending.

    Equals (x - L)^5 (5x + L): vanishes to order 5 at x = L and has zero
    derivative at x = 0, which is what the Neumann-star checks require.
    """
    return np.array([-L ** 6, 0.0, 15 * L ** 4, -40 * L ** 3, 45 * L ** 2, -24 * L, 5.0])


def _edge_sum(op: ControlOperator, left: SpectralBasis, rows, right: SpectralBasis, cols):
    """<phi_j, B psi_k> for phi_j = left mode rows[i], psi_k = right mode cols[i], elementwise.

    Both bases live on the same edges.  Edges are summed in order and an
    edge where either mode vanishes adds nothing.
    """
    total = np.zeros(np.shape(rows))
    for e, (eid, L) in enumerate(zip(right.edge_ids, right.lengths)):
        coeffs = op.coeffs(eid)
        if not np.any(coeffs):
            continue
        acc = _overlap(coeffs, left.omegas[rows], right.omegas[cols], L,
                       left.is_sin[e], right.is_sin[e])
        aj, ak = left.amplitudes[rows, e], right.amplitudes[cols, e]
        total += np.where((aj != 0.0) & (ak != 0.0), aj * ak * acc, 0.0)
    return total


def _coupling_elements(op: ControlOperator, basis: SpectralBasis, rows, cols) -> np.ndarray:
    """<phi_j, B phi_k> for 0-based index arrays rows <= cols, elementwise.

    The ordered pair fixes every argument, so a pair and its mirror agree
    bit for bit.
    """
    if cols.size and int(cols.max()) >= len(basis):
        raise ValidationError("mode index out of range")
    return _edge_sum(op, basis, rows, basis, cols)


def coupling_block(op: ControlOperator, left: SpectralBasis, right: SpectralBasis) -> np.ndarray:
    """<phi_j, B psi_k> for every mode phi_j of left and psi_k of right, on the same edges."""
    rows, cols = np.indices((len(left), len(right))).reshape(2, -1)
    return _edge_sum(op, left, rows, right, cols).reshape(len(left), len(right))


def matrix_element(op: ControlOperator, basis: SpectralBasis, j: int, k: int) -> float:
    """<phi_j, B phi_k> for 1-based mode indices; symmetric by construction.

    The (j, k) and (k, j) calls run the identical code path on the ordered
    pair, so the symmetry holds bit for bit.
    """
    if not (1 <= j <= len(basis) and 1 <= k <= len(basis)):
        raise ValidationError("mode index out of range")
    lo, hi = (j, k) if j <= k else (k, j)
    return float(_coupling_elements(op, basis, np.array([lo - 1]), np.array([hi - 1]))[0])


def _symmetric_from_upper(K: int, elements) -> np.ndarray:
    """K x K matrix from a function of the upper-triangle index arrays, mirrored."""
    rows, cols = np.triu_indices(K)
    B = np.zeros((K, K))
    B[rows, cols] = B[cols, rows] = elements(rows, cols)
    return B


def build_matrix(op: ControlOperator, basis: SpectralBasis, K: int | None = None) -> np.ndarray:
    """Coupling matrix <phi_j, B phi_k>, j, k = 1..K, bit-for-bit symmetric."""
    K = len(basis) if K is None else K
    return _symmetric_from_upper(K, lambda rows, cols: _coupling_elements(op, basis, rows, cols))


# ---------------------------------------------------------------------------
# exchange operators of the closed-form subsystems

def _exchange_elements(basis: SpectralBasis, rows, cols) -> np.ndarray:
    """Exchange-operator elements for 0-based index arrays rows <= cols.

    two_equal_edges: B psi = (x^2 (psi1 - psi2), x^2 (psi2 - psi1), 0, ...)
    paired_star / loops: the rescaled cross-pair (resp. cross-loop)
    exchange; in the subsystem basis these reduce to integrals over (0, 1).
    """
    if basis.family is None:
        raise ValidationError("exchange elements are defined for explicit subsystems only")
    n = int(cols.max()) + 1 if cols.size else 0
    omega = basis.omegas[:n]
    if basis.family == "two_equal_edges":
        L = basis.lengths[0]
        return 4.0 / L * _overlap([0.0, 0.0, 1.0], omega[rows], omega[cols], L, True, True)
    if basis.family not in ("paired_star", "loops"):
        raise ValidationError(f"no exchange operator for family {basis.family!r}")
    amps = basis.amplitudes[:n]
    if not amps.any(axis=1).all():
        raise ValidationError("mode has empty support")
    support = basis.lengths[np.argmax(amps != 0.0, axis=1)]   # the first edge a mode lives on
    Lj, Lk = support[rows], support[cols]
    if basis.family == "paired_star":
        label = np.round(omega * support / math.pi)
        val = _overlap([0.0, 0.0, 1.0], label[rows] * math.pi, label[cols] * math.pi, 1.0,
                       True, True)
        return 4.0 * Lj * Lk * val
    label = np.round(omega * support / (2 * math.pi))
    val = _overlap([0.0, 0.0, -1.0, 1.0], 2 * label[rows] * math.pi,    # x^2 (x - 1)
                   2 * label[cols] * math.pi, 1.0, True, True)
    return 2.0 * Lj * Lk * val


def build_exchange_matrix(basis: SpectralBasis) -> np.ndarray:
    """The family's exchange-operator matrix over all modes of the basis, mirrored."""
    return _symmetric_from_upper(len(basis), lambda rows, cols: _exchange_elements(basis, rows, cols))


# ---------------------------------------------------------------------------
# coupling-column analysis

@dataclass
class CouplingReport:
    elements: np.ndarray                       # <phi_k, B phi_1>, k = 1..K
    decay_fit: tuple[float, float, float]      # (exponent, constant, rms residual)
    envelope_fit: tuple[float, float]          # (exponent, constant) of block minima
    zero_elements: list[int]
    # columns by field: pair1, pair2 (n x 2 int64, 1-based, pair1 < pair2), frequency_defect
    # and diagonal_combination (n floats); rows sorted by the pairs
    resonant_quadruples: dict[str, np.ndarray]
    floor: float = 0.0


def _loglog_fit(ks, vals):
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    ok = vals > 0
    if ok.sum() < 2:
        return (math.nan, math.nan, math.nan)
    slope, intercept, rms = loglog_fit(ks[ok], vals[ok])
    return (slope, math.exp(intercept), rms)


_ENVELOPE_BLOCKS = 6     # geometric blocks whose minima the envelope fit regresses


def _envelope_fit(ks, vals):
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    edges = np.unique(np.round(np.geomspace(ks.min(), ks.max() + 1, _ENVELOPE_BLOCKS + 1)))
    bk, bv = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (ks >= lo) & (ks < hi) & (vals > 0)
        if m.any():
            i = np.argmin(vals[m])
            bk.append(ks[m][i])
            bv.append(vals[m][i])
    if len(bk) < 2:
        return (math.nan, math.nan)
    slope, const, _ = _loglog_fit(bk, bv)
    return (slope, const)


def pair_gaps(mu, int_labels=None):
    """Row-major pairs j < k (0-based) and their gaps mu_k - mu_j, or label_k^2 -
    label_j^2 as exact int64 with integer labels (mu = scale * label^2)."""
    j, k = np.triu_indices(len(mu), 1)
    if int_labels is None:
        return j, k, mu[k] - mu[j]
    lab = np.asarray(int_labels, dtype=np.int64)
    return j, k, lab[k] ** 2 - lab[j] ** 2


def matching_gaps(gap, tol_abs):
    """Every index pair (a, b) of gaps with |gap[a] - gap[b]| <= tol_abs, each once,
    a before b in a stable sort of the gaps; integer gaps match only when equal."""
    if np.issubdtype(gap.dtype, np.integer):
        tol_abs = 0
    order = np.argsort(gap, kind="stable")
    gap = gap[order]
    n = gap.size

    # window [i + 1, end_i) of candidates for gap i.  A gap above fl(g + 2 tol_abs)
    # exceeds g by more than 2 tol_abs exactly, so g2 - g > tol_abs after
    # rounding too: the window holds every match, and the exact test decides.
    first_after = np.arange(n) + 1
    end = np.maximum(np.searchsorted(gap, gap + 2 * tol_abs, side="right"), first_after)
    count = end - first_after
    first = np.repeat(np.arange(n), count)
    second = first + 1 + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    keep = ~(gap[second] - gap[first] > tol_abs)
    return order[first[keep]], order[second[keep]]


def find_resonant_quadruples(mu, tol_abs, int_labels=None):
    """Pairs of index pairs (j,k) != (l,m), j<k, l<m with mu_j - mu_k - mu_l + mu_m ~ 0.

    The pair gaps mu_k - mu_j (pair_gaps) within tol_abs of each other
    (matching_gaps); when integer labels are supplied (mu = scale * label^2)
    the gaps are label_k^2 - label_j^2 and match by exact integer equality.
    Returns the columns (pair1, pair2, defect): row i is one quadruple, its
    1-based pairs (j, k) < (l, m) as int64 rows of the n x 2 arrays and its
    float defect |(mu_m - mu_l) - (mu_k - mu_j)|.  Rows are sorted by the
    pairs, so rounding noise in equal gaps does not reorder them.
    """
    mu = np.asarray(mu, dtype=float)
    j, k, gap = pair_gaps(mu, int_labels)
    a, b = matching_gaps(gap, tol_abs)
    # row-major indices order the pairs: smaller pair first, then sort by the pairs
    a, b = np.minimum(a, b), np.maximum(a, b)
    rank = np.lexsort((b, a))
    a, b = a[rank], b[rank]
    defect = np.abs((mu[k[b]] - mu[j[b]]) - (mu[k[a]] - mu[j[a]]))
    j, k = j + 1, k + 1
    return np.stack([j[a], k[a]], axis=1), np.stack([j[b], k[b]], axis=1), defect


def analyze_coupling(B, basis: SpectralBasis, K: int, tol_res: float = 1e-10,
                     floor: float | None = None, fit_range: tuple[int, int] | None = None) -> CouplingReport:
    """Decay fit of |<phi_k, B phi_1>| plus the frequency-resonance scan.

    B may be a ControlOperator or a precomputed K x K symmetric matrix.
    The least-squares fit runs over k in [K/3, K] unless fit_range is given;
    the envelope fit regresses geometric-block minima over the same window
    (the shadow of an inequality-style lower bound).  A quadruple's
    frequency defect below 1e-12 max|mu| is rounding noise of the float
    spectrum and is reported as 0.0.
    """
    if K < 4:
        raise ValidationError("need at least 4 modes")
    if not (math.isfinite(tol_res) and tol_res >= 0):
        raise ValidationError(f"resonance tolerance must be finite and >= 0, got {tol_res!r}")
    if floor is not None and not (math.isfinite(floor) and floor >= 0):
        raise ValidationError(f"zero-element floor must be finite and >= 0, got {floor!r}")
    if isinstance(B, np.ndarray):
        col = np.asarray(B)[:K, 0].copy()
        diag = np.asarray(B).diagonal()[:K].copy()
    else:
        ks = np.arange(K)    # the column (1, k), then the diagonal (k, k)
        col, diag = _coupling_elements(B, basis, np.r_[0 * ks, ks], np.r_[ks, ks]).reshape(2, K)
    mu = basis.eigenvalues[:K]

    abs_col = np.abs(col)
    if floor is None:
        floor = 1e-14 * abs_col.max() if abs_col.max() > 0 else 0.0
    zero_elements = [k + 1 for k in range(K) if abs_col[k] < floor]

    lo, hi = fit_range if fit_range is not None else (max(2, K // 3), K)
    ks = np.arange(lo, hi + 1)
    decay_fit = _loglog_fit(ks, abs_col[lo - 1:hi])
    envelope_fit = _envelope_fit(ks, abs_col[lo - 1:hi])

    labels = basis.int_labels[:K] if basis.int_labels is not None else None
    tol_abs = tol_res * float(np.abs(mu).max())
    defect_floor = 1e-12 * float(np.abs(mu).max())
    pair1, pair2, defect = find_resonant_quadruples(mu, tol_abs, labels)
    (j, k), (l, m) = (pair1 - 1).T, (pair2 - 1).T
    quads = {"pair1": pair1, "pair2": pair2,
             "frequency_defect": np.where(defect >= defect_floor, defect, 0.0),
             "diagonal_combination": np.abs(diag[j] - diag[k] - diag[l] + diag[m])}
    return CouplingReport(elements=col, decay_fit=decay_fit, envelope_fit=envelope_fit,
                          zero_elements=zero_elements, resonant_quadruples=quads, floor=floor)


# ---------------------------------------------------------------------------
# vertex-condition preservation

@dataclass
class VertexCompatibilityReport:
    """Endpoint-derivative certificate that B maps the Laplacian domain to itself.

    vanishing_order: smallest n with some P_j^(n)(L_j) != 0 at the center
    (infinite contributions from identically-zero potentials are ignored in
    the min).  The operator preserves the NK smoothness classes H^m for
    m < vanishing_order + 1/2.
    """

    conditions: list[tuple[str, float]] = field(default_factory=list)
    preserves_h2: bool = True
    vanishing_order: int = 0
    nk_class_sup: float = 0.0
    certified_d_max: float = 0.0
    boundary_class: str = ""


def _poly_derivatives(coeffs, x, n_max):
    out = []
    c = np.asarray(coeffs, dtype=float)
    for _ in range(n_max + 1):
        out.append(float(np.polynomial.polynomial.polyval(x, c)) if c.size else 0.0)
        c = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(0)
    return out


def check_vertex_compatibility(op: ControlOperator, graph: MetricGraph) -> VertexCompatibilityReport:
    """Check the endpoint conditions under which B preserves vertex conditions.

    External Neumann vertex on a supported edge: P'(0) = 0 (so that the
    image keeps a vanishing derivative).  Dirichlet external vertices need
    nothing (the factor psi(0) = 0 already kills the image value).  At the
    internal vertex, matching requires the potential values to agree across
    edges and the derivative sum to cancel; with all values zero, each
    further vanishing derivative order extends the preserved smoothness
    window by one.
    """
    rep = VertexCompatibilityReport()
    n_check = MAX_DEGREE + 2
    center = graph.center
    ext_conditions_ok = True

    for e in graph.edges:
        coeffs = op.coeffs(e.eid)
        if not np.any(coeffs):
            continue
        dvals0 = _poly_derivatives(coeffs, 0.0, 1)
        if graph.bc.get(e.tail) is BoundaryCondition.NEUMANN:
            res = abs(dvals0[1])
            rep.conditions.append((f"P'(0)=0 on {e.eid} (Neumann external)", res))
            if res > 1e-12 * max(1.0, float(np.abs(coeffs).max())):
                ext_conditions_ok = False

    if center is not None:
        center_edges = [e for e in graph.edges if e.head == center or e.tail == center]
        dtabs = {e.eid: _poly_derivatives(op.coeffs(e.eid), e.length, n_check)
                 for e in center_edges}
        scale = max(1.0, max(float(np.abs(op.coeffs(e.eid)).max(initial=0.0)) for e in center_edges))
        order = 0
        for n in range(n_check + 1):
            vals = [dtabs[e.eid][n] for e in center_edges]
            spread = max(vals) - min(vals)
            resid = max(abs(v) for v in vals)
            if n == 0:
                rep.conditions.append(("center values equal across edges", spread))
            if n == 1:
                rep.conditions.append(("center derivative sum zero", abs(sum(vals))))
            if resid <= 1e-12 * scale:
                order += 1
            else:
                rep.conditions.append((f"first nonvanishing center derivative: order {n} on "
                                       + ",".join(e.eid for e in center_edges
                                                  if abs(dtabs[e.eid][n]) > 1e-12 * scale),
                                       resid))
                break
        rep.vanishing_order = order
    else:
        rep.vanishing_order = n_check  # interval: no internal vertex conditions

    rep.preserves_h2 = ext_conditions_ok and rep.vanishing_order >= 2
    rep.nk_class_sup = rep.vanishing_order + 0.5
    all_neumann = all(graph.bc[v] is BoundaryCondition.NEUMANN for v in graph.external_vertices)
    if all_neumann:
        rep.boundary_class = "N"
        rep.certified_d_max = min(rep.nk_class_sup, 3.5) if rep.preserves_h2 else 0.0
    else:
        all_dirichlet = all(graph.bc[v] is BoundaryCondition.DIRICHLET for v in graph.external_vertices)
        rep.boundary_class = "D" if all_dirichlet else "D/N"
        rep.certified_d_max = min(rep.nk_class_sup - 1.0, 2.5) if rep.preserves_h2 else 0.0
    return rep

"""Multiplication-potential control operators and their matrix elements.

The control operator acts edgewise as psi^j -> P_j(x) psi^j with real
polynomial potentials P_j.  Matrix elements against trigonometric
eigenfunctions reduce to integrals x^p * trig * trig which are evaluated in
closed form (product-to-sum plus the x^p cos recurrence).

The module also hosts the two numerical checkers used before a control run:
the decay/resonance analysis of the coupling column <phi_k, B phi_1>, and
the endpoint-derivative conditions under which B preserves the vertex
conditions (and hence the higher smoothness classes) of the graph Laplacian.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import BoundaryCondition, MetricGraph
from .spectrum import SpectralBasis, TrigMode

MAX_DEGREE = 12


class TrigKind(enum.Enum):
    SINSIN = "sinsin"
    SINCOS = "sincos"
    COSCOS = "coscos"


def _trig_moments_taylor(p, omega, L):
    """Series evaluation of (int x^p cos(omega x), int x^p sin(omega x)) on (0, L).

    Alternating series in (omega L)^2; accurate while the peak term stays a
    modest multiple of the result, i.e. for omega L up to about the degree.
    """
    ic, m = 0.0, 0
    while True:
        term = (-1) ** m * omega ** (2 * m) * L ** (p + 2 * m + 1) / (
            math.factorial(2 * m) * (p + 2 * m + 1))
        ic += term
        m += 1
        if abs(term) < 1e-20 * max(abs(ic), 1e-300) or m > 120:
            break
    is_, m = 0.0, 0
    while True:
        term = (-1) ** m * omega ** (2 * m + 1) * L ** (p + 2 * m + 2) / (
            math.factorial(2 * m + 1) * (p + 2 * m + 2))
        is_ += term
        m += 1
        if abs(term) < 1e-20 * max(abs(is_), 1e-300) or m > 120:
            break
    return ic, is_


def _trig_moments(p, omega, L):
    """(int x^p cos(omega x), int x^p sin(omega x)) over (0, L), stable branch choice.

    The upward integration-by-parts recurrence amplifies rounding by roughly
    prod_k max(1, k/(omega L)); the Taylor series loses about e^(omega L)
    through alternation.  Whichever factor is smaller decides the branch, so
    the result stays near machine accuracy over the whole (p, omega) range.
    """
    if omega == 0.0:
        return L ** (p + 1) / (p + 1), 0.0
    T = abs(omega) * L
    recur_factor = 1.0
    for k in range(1, p + 1):
        recur_factor *= max(1.0, k / T)
    # small phases also hit the 1 - cos cancellation in the recurrence base
    if T < 0.5 or recur_factor > math.exp(min(T, 40.0)):
        return _trig_moments_taylor(p, omega, L)
    s, c = math.sin(omega * L), math.cos(omega * L)
    ic, is_ = s / omega, (1.0 - c) / omega
    Lq = 1.0
    for q in range(1, p + 1):
        Lq *= L
        ic, is_ = Lq * s / omega - (q / omega) * is_, -Lq * c / omega + (q / omega) * ic
    return ic, is_


def _int_cos(p, omega, L):
    """Integral over (0, L) of x^p cos(omega x)."""
    return _trig_moments(p, omega, L)[0]


def _int_sin(p, omega, L):
    """Integral over (0, L) of x^p sin(omega x)."""
    return _trig_moments(p, omega, L)[1]


def trig_poly_integral(p: int, omega: float, L: float, kind: TrigKind, omega2: float) -> float:
    """Closed form of the integral over (0, L) of x^p trig(omega x) trig(omega2 x).

    kind selects sin*sin, sin*cos or cos*cos (first factor carries omega).
    """
    if p < 0 or p > MAX_DEGREE:
        raise ValidationError(f"polynomial degree {p} outside supported range 0..{MAX_DEGREE}")
    if L <= 0:
        raise ValidationError("L must be positive")
    a, b = float(omega), float(omega2)
    if kind is TrigKind.SINSIN:
        return 0.5 * (_int_cos(p, a - b, L) - _int_cos(p, a + b, L))
    if kind is TrigKind.COSCOS:
        return 0.5 * (_int_cos(p, a - b, L) + _int_cos(p, a + b, L))
    if kind is TrigKind.SINCOS:
        return 0.5 * (_int_sin(p, a + b, L) + _int_sin(p, a - b, L))
    raise ValidationError(f"unknown kind {kind!r}")


def mode_overlap_integral(omega1, mode1: TrigMode, omega2, mode2: TrigMode, L, p: int = 0):
    """x^p-weighted overlap of two edge trig factors on (0, L)."""
    if mode1 is TrigMode.SIN and mode2 is TrigMode.SIN:
        return trig_poly_integral(p, omega1, L, TrigKind.SINSIN, omega2)
    if mode1 is TrigMode.COS and mode2 is TrigMode.COS:
        return trig_poly_integral(p, omega1, L, TrigKind.COSCOS, omega2)
    if mode1 is TrigMode.SIN:
        return trig_poly_integral(p, omega1, L, TrigKind.SINCOS, omega2)
    return trig_poly_integral(p, omega2, L, TrigKind.SINCOS, omega1)


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


def quartic_shift_potential(L: float) -> np.ndarray:
    """(x - L)^4 in ascending coefficients."""
    return np.array([L ** 4, -4 * L ** 3, 6 * L ** 2, -4 * L, 1.0])


def degree6_neumann_potential(L: float) -> np.ndarray:
    """5x^6 - 24x^5 L + 45x^4 L^2 - 40x^3 L^3 + 15x^2 L^4 - L^6, ascending.

    Equals (x - L)^5 (5x + L): vanishes to order 5 at x = L and has zero
    derivative at x = 0, which is what the Neumann-star checks require.
    """
    return np.array([-L ** 6, 0.0, 15 * L ** 4, -40 * L ** 3, 45 * L ** 2, -24 * L, 5.0])


def matrix_element(op: ControlOperator, basis: SpectralBasis, j: int, k: int) -> float:
    """<phi_j, B phi_k> for 1-based mode indices; symmetric by construction.

    The (j, k) and (k, j) calls run the identical code path on the ordered
    pair, so the symmetry holds bit for bit.
    """
    if not (1 <= j <= len(basis) and 1 <= k <= len(basis)):
        raise ValidationError("mode index out of range")
    lo, hi = (j, k) if j <= k else (k, j)
    mj, mk = basis.modes[lo - 1], basis.modes[hi - 1]
    total = 0.0
    for e, (eid, L) in enumerate(zip(basis.edge_ids, basis.lengths)):
        coeffs = op.coeffs(eid)
        aj, modej = mj.per_edge[e]
        ak, modek = mk.per_edge[e]
        if aj == 0.0 or ak == 0.0:
            continue
        acc = 0.0
        for p, c in enumerate(coeffs):
            if c != 0.0:
                acc += c * mode_overlap_integral(mj.omega, modej, mk.omega, modek, L, p)
        total += aj * ak * acc
    return total


def build_matrix(op: ControlOperator, basis: SpectralBasis, K: int | None = None) -> np.ndarray:
    K = len(basis) if K is None else K
    B = np.zeros((K, K))
    for j in range(1, K + 1):
        for k in range(j, K + 1):
            B[j - 1, k - 1] = B[k - 1, j - 1] = matrix_element(op, basis, j, k)
    return B


# ---------------------------------------------------------------------------
# exchange operators of the closed-form subsystems

def exchange_matrix_element(basis: SpectralBasis, j: int, k: int) -> float:
    """Matrix elements of the family-specific exchange operators.

    two_equal_edges: B psi = (x^2 (psi1 - psi2), x^2 (psi2 - psi1), 0, ...)
    paired_star / loops: the rescaled cross-pair (resp. cross-loop)
    exchange; in the subsystem basis these reduce to integrals over (0, 1).
    """
    if basis.family is None:
        raise ValidationError("exchange elements are defined for explicit subsystems only")
    lo, hi = (j, k) if j <= k else (k, j)
    mj, mk = basis.modes[lo - 1], basis.modes[hi - 1]
    if basis.family == "two_equal_edges":
        L = basis.lengths[0]
        val = trig_poly_integral(2, mj.omega, L, TrigKind.SINSIN, mk.omega)
        return 4.0 / L * val
    if basis.family == "paired_star":
        Lj = _support_length(basis, mj)
        Lk = _support_length(basis, mk)
        mjn = round(mj.omega * Lj / math.pi)
        mkn = round(mk.omega * Lk / math.pi)
        val = trig_poly_integral(2, mjn * math.pi, 1.0, TrigKind.SINSIN, mkn * math.pi)
        return 4.0 * Lj * Lk * val
    if basis.family == "loops":
        Lj = _support_length(basis, mj)
        Lk = _support_length(basis, mk)
        mjn = round(mj.omega * Lj / (2 * math.pi))
        mkn = round(mk.omega * Lk / (2 * math.pi))
        cubic = trig_poly_integral(3, 2 * mjn * math.pi, 1.0, TrigKind.SINSIN, 2 * mkn * math.pi)
        quad = trig_poly_integral(2, 2 * mjn * math.pi, 1.0, TrigKind.SINSIN, 2 * mkn * math.pi)
        return 2.0 * Lj * Lk * (cubic - quad)
    raise ValidationError(f"no exchange operator for family {basis.family!r}")


def _support_length(basis: SpectralBasis, mode) -> float:
    for e, (a, _) in enumerate(mode.per_edge):
        if a != 0.0:
            return float(basis.lengths[e])
    raise ValidationError("mode has empty support")


def build_exchange_matrix(basis: SpectralBasis, K: int | None = None) -> np.ndarray:
    K = len(basis) if K is None else K
    B = np.zeros((K, K))
    for j in range(1, K + 1):
        for k in range(j, K + 1):
            B[j - 1, k - 1] = B[k - 1, j - 1] = exchange_matrix_element(basis, j, k)
    return B


# ---------------------------------------------------------------------------
# coupling-column analysis

@dataclass
class CouplingReport:
    elements: np.ndarray                       # <phi_k, B phi_1>, k = 1..K
    decay_fit: tuple[float, float, float]      # (exponent, constant, rms residual)
    envelope_fit: tuple[float, float]          # (exponent, constant) of block minima
    zero_elements: list[int]
    resonant_quadruples: list[tuple[tuple[int, int], tuple[int, int], float, float]]
    floor: float = 0.0


def _loglog_fit(ks, vals):
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    ok = vals > 0
    if ok.sum() < 2:
        return (math.nan, math.nan, math.nan)
    A = np.vstack([np.log(ks[ok]), np.ones(ok.sum())]).T
    sol, *_ = np.linalg.lstsq(A, np.log(vals[ok]), rcond=None)
    pred = A @ sol
    rms = float(np.sqrt(np.mean((np.log(vals[ok]) - pred) ** 2)))
    return (float(sol[0]), float(math.exp(sol[1])), rms)


def _envelope_fit(ks, vals, n_blocks=6):
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    edges = np.unique(np.round(np.geomspace(ks.min(), ks.max() + 1, n_blocks + 1)))
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


def find_resonant_quadruples(mu, tol_abs, int_labels=None):
    """Pairs of index pairs (j,k) != (l,m), j<k, l<m with mu_j - mu_k - mu_l + mu_m ~ 0.

    Implemented by sorting all pair gaps and matching near-equal neighbours;
    when integer labels are supplied (mu = scale * label^2) the matching is
    exact in integer arithmetic.  Each quadruple lists its smaller pair
    first and the list is sorted by the pairs, so rounding noise in equal
    gaps does not reorder the output.
    """
    K = len(mu)
    gaps = []
    for j in range(K):
        for k in range(j + 1, K):
            if int_labels is not None:
                g = int_labels[k] ** 2 - int_labels[j] ** 2
            else:
                g = mu[k] - mu[j]
            gaps.append((g, j + 1, k + 1))
    gaps.sort(key=lambda t: t[0])
    out = []
    for i in range(len(gaps)):
        g, j, k = gaps[i]
        for p in range(i + 1, len(gaps)):
            g2, l, m = gaps[p]
            if int_labels is not None:
                if g2 != g:
                    break
            elif g2 - g > tol_abs:
                break
            defect = abs(float(mu[m - 1] - mu[l - 1]) - float(mu[k - 1] - mu[j - 1]))
            out.append((min((j, k), (l, m)), max((j, k), (l, m)), defect))
    return sorted(out)


def analyze_coupling(B, basis: SpectralBasis, K: int, tol_res: float = 1e-10,
                     floor: float | None = None, fit_range: tuple[int, int] | None = None) -> CouplingReport:
    """Decay fit of |<phi_k, B phi_1>| plus the frequency-resonance scan.

    B may be a ControlOperator or a precomputed K x K symmetric matrix.
    The least-squares fit runs over k in [K/3, K] unless fit_range is given;
    the envelope fit regresses geometric-block minima over the same window
    (the shadow of an inequality-style lower bound).
    """
    if K < 4:
        raise ValidationError("need at least 4 modes")
    if isinstance(B, np.ndarray):
        col = np.asarray(B)[:K, 0].copy()
        diag = np.asarray(B).diagonal()[:K].copy()
    else:
        col = np.array([matrix_element(B, basis, 1, k) for k in range(1, K + 1)])
        diag = np.array([matrix_element(B, basis, k, k) for k in range(1, K + 1)])
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
    quads = []
    for (j, k), (l, m), defect in find_resonant_quadruples(mu, tol_abs, labels):
        combo = abs(diag[j - 1] - diag[k - 1] - diag[l - 1] + diag[m - 1])
        quads.append(((j, k), (l, m), defect, float(combo)))
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

"""Entire secular products, derivative lower bounds, diophantine toolkit.

The expanded secular product

    G(x) = sum_l sigma_l(x L_l) prod_{j ≠ l} tau_j(x L_j)

(tau = sin, sigma = cos on Dirichlet edges, where ``is_sin`` holds; tau =
cos, sigma = -sin on Neumann edges; all factors from
``spectrum.edge_factors``) is entire, real and bounded on
the real axis, and vanishes exactly on the sqrt-spectrum.  At a
simple zero its derivative reduces to

    |G'(sqrt(lambda))| = prod_l tau_l * sum_l L_l / tau_l^2
                       >= (min_l L_l) * sum_l prod_{j ≠ l} |tau_j|,

so fitted lower envelopes of |G'| at the computed roots play the role of
the k^-(1+d) bounds that control the moment-problem regularity.  The
distance-to-integer machinery evaluates the product bounds behind those
estimates on arbitrary grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import MetricGraph, Topology
from .spectrum import (SpectralBasis, _is_sin, assemble_secular, common_vanishing_points,
                       edge_factors, leave_one_out, loglog_fit, star_roots, sum_in_order)

EPS_GRID = (0.05, 0.1, 0.25, 0.5)   # the eps of the decaying lower bounds a(x) x^(1+eps)
COS_BOUND_EPS = 0.1                  # the eps of the cosine bound |cos| omega^(1+eps)


@dataclass
class SecularProduct:
    lengths: np.ndarray
    is_sin: np.ndarray               # True on Dirichlet edges (tau = sin), False on Neumann
    _S: object = field(init=False, repr=False)
    _Sprime: object = field(init=False, repr=False)

    def __post_init__(self):
        self._S, self._Sprime = assemble_secular(self.lengths, self.is_sin)

    def value(self, x):
        return self._S(x)

    def derivative(self, x):
        return self._Sprime(x)

    def derivative_at_root(self, x):
        """-(prod tau) * sum L / tau^2: the derivative when the bracket vanishes.

        Valid exactly on the sqrt-spectrum (the complementary term carries
        the vanishing bracket as a factor there).
        """
        tau, _ = edge_factors(x, self.lengths, self.is_sin)
        return -sum_in_order(self.lengths * leave_one_out(tau[:, None, :]) / tau)

    def envelope(self, x):
        """(min_l L_l) * sum_l prod_{j ≠ l} |tau_j|: lower bound for |G'| at roots."""
        tau = np.abs(edge_factors(x, self.lengths, self.is_sin)[0])
        return float(self.lengths.min()) * sum_in_order(leave_one_out(tau[:, None, :]))

    @property
    def sup_bound(self) -> float:
        """Every summand is a product of unit-bounded factors."""
        return float(self.lengths.size)


def build_secular_product(graph: MetricGraph) -> SecularProduct:
    """Expanded pole-free secular product for a star (or interval) graph.

    An interval is split at its midpoint into a two-edge star, which
    reproduces the classical closed forms by angle addition (D-D: sin(xL),
    mixed: cos(xL)) including the derivative scale.
    """
    if graph.topology is Topology.INTERVAL:
        e = graph.edges[0]
        return SecularProduct(lengths=np.array([e.length / 2, e.length / 2]),
                              is_sin=_is_sin(graph, (e.tail, e.head)))
    return SecularProduct(lengths=graph.lengths, is_sin=_is_sin(graph, [e.tail for e in graph.edges]))


@dataclass
class DerivativeBoundFit:
    dtilde: float            # clamped at 0: the bound exponent is nonnegative
    constant: float
    worst_k: int
    raw_slope: float
    values: np.ndarray       # min(|G'(sqrt lam)|, |G'(-sqrt lam)|) per mode


def fit_derivative_bound(sp: SecularProduct, basis: SpectralBasis) -> DerivativeBoundFit:
    """Fit |G'(+-sqrt(lambda_k))| >= C / k^(1+d) over the modes of the basis.

    Requires a simple spectrum; a vanishing derivative at a root flags a
    degenerate eigenvalue and is an error.
    """
    K = len(basis)
    lams = basis.eigenvalues
    if np.any(np.diff(lams) <= 1e-9 * np.abs(lams[1:])):
        raise ValidationError("spectrum is not simple; derivative bound undefined")
    omegas = basis.omegas
    pos = np.abs(np.asarray(sp.derivative(omegas)))
    neg = np.abs(np.asarray(sp.derivative(-omegas)))
    vals = np.minimum(pos, neg)
    if np.any(vals == 0.0):
        k0 = int(np.argmin(vals)) + 1
        raise ValidationError(f"derivative vanishes at mode {k0}: degenerate zero")
    ks = np.arange(1, K + 1, dtype=float)
    # one mode fixes no slope: 0, the slope of the least-squares line through one point
    slope = loglog_fit(ks, vals)[0] if K >= 2 else 0.0
    dtilde = max(0.0, -slope - 1.0)
    prods = vals * ks ** (1.0 + dtilde)
    worst = int(np.argmin(prods)) + 1
    return DerivativeBoundFit(dtilde=dtilde, constant=float(prods.min()), worst_k=worst,
                              raw_slope=slope, values=vals)


# ---------------------------------------------------------------------------
# distance-to-integer toolkit

def nearest_integer(x):
    """Closest integer (half-integers round to even, irrelevant to the bounds)."""
    return np.rint(np.asarray(x, dtype=float))


def frac_distance(x):
    """Distance to the nearest integer; always in [0, 1/2]."""
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.rint(x))


def half_grid_index(x):
    """n(x) = nearest integer of x - 1/2."""
    return nearest_integer(np.asarray(x, dtype=float) - 0.5)


def half_distance(x):
    """d(x) = distance from x to the half-integer grid Z + 1/2."""
    return frac_distance(np.asarray(x, dtype=float) - 0.5)


def mixed_product_sum(lengths, i1, i2, x):
    """sum over l of prod_{j ≠ l} |tau_j(x L_j)| with cos on i1, sin on i2."""
    lengths = np.asarray(lengths, dtype=float)
    tau, _ = edge_factors(x, lengths, [j not in i1 for j in range(lengths.size)])
    return sum_in_order(leave_one_out(np.abs(tau)[:, None, :]))


@dataclass
class DiophantineReport:
    x_grid: np.ndarray
    a_values: np.ndarray
    product_bound: np.ndarray          # min of the two distance-product minima
    ratio_infimum: float               # inf a(x) / product_bound(x) over nonzero bound
    genuine_zero_points: list[float]
    sandwich_max_violation: float
    scaled_infima: dict[float, float]  # eps -> inf a(x) x^(1+eps), eps in EPS_GRID


def diophantine_products(lengths, i1, i2, x_grid) -> DiophantineReport:
    """Distance-to-integer product bounds on a grid.

    Evaluates the mixed sin/cos product sum a(x), the two distance-product
    minima with doubled lengths on the cosine set, the pointwise sandwich
    2 d(y) <= |cos(pi y)| <= pi d(y), and the decaying lower bounds
    a(x) x^(1+eps).  Grid points must sit above pi/2 * max(1/L_j).
    """
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    i1, i2 = set(i1), set(i2)
    if i1 | i2 != set(range(n)) or i1 & i2:
        raise ValidationError("i1, i2 must partition the edge indices")
    x = np.asarray(x_grid, dtype=float)
    x_min = 0.5 * math.pi * float(np.max(1.0 / lengths))
    if np.any(x <= x_min):
        raise ValidationError(f"grid must lie above pi/2 * max(1/L_j) = {x_min:.6g}")

    a_vals = mixed_product_sum(lengths, i1, i2, x)
    is_sin = np.array([j not in i1 for j in range(n)])
    tilde = np.where(is_sin, lengths, 2 * lengths)

    # rows[:, i, j] = d(m_i tilde_j / L_i), m_i the point of the half-integer
    # grid, then of the integer grid, nearest to L_i x / pi; the bound is the
    # least product over j ≠ i, over all i and both grids
    scaled = np.outer(x, lengths / math.pi)
    bound = np.inf
    for m in (half_grid_index(scaled) + 0.5, nearest_integer(scaled)):
        rows = frac_distance(m[:, :, None] * tilde / lengths[:, None])
        bound = np.minimum(bound, leave_one_out(rows).min(axis=1))

    floor = 1e-14
    nz = bound > floor
    ratio_inf = float(np.min(a_vals[nz] / bound[nz])) if nz.any() else math.inf
    # a(x) = 0 exactly when >= 2 factors vanish together, which only happens
    # for rationally related lengths; detect those points in closed form
    zeros = [float(p) for p, _ in common_vanishing_points(lengths, is_sin, float(x.max()))
             if p > x_min]

    y = np.linspace(0.0, 25.0, x.size)
    cosy = np.abs(np.cos(math.pi * y))
    d = half_distance(y)
    viol = max(float(np.max(2 * d - cosy)), float(np.max(cosy - math.pi * d)))

    scaled = {e: float(np.min(a_vals * x ** (1 + e))) for e in EPS_GRID}
    return DiophantineReport(x_grid=x, a_values=a_vals, product_bound=bound,
                             ratio_infimum=ratio_inf, genuine_zero_points=zeros,
                             sandwich_max_violation=viol, scaled_infima=scaled)


@dataclass
class CosBoundReport:
    roots: np.ndarray
    per_root_min: np.ndarray        # min over edges of |cos(omega_n L_l)|
    scaled_min: float               # min over n, l of |cos| * omega^(1+eps), eps = COS_BOUND_EPS
    # log-log slope of the running scaled minimum over its positive values; NaN when fewer
    # than two are positive (K = 1).  No CLI output reads it.
    trend_slope: float
    failed: bool


def check_cos_lower_bound(lengths, K: int) -> CosBoundReport:
    """Cosine values along the roots of the all-Neumann secular equation.

    Takes the first K distinct positive roots of sum_l sin(x L_l) prod_{m ≠ l}
    cos(x L_m) = 0 (a branch point of rationally related lengths counts
    once) and reports min over roots and edges of |cos(omega_n L_l)| *
    omega_n^(1 + COS_BOUND_EPS); a minimum indistinguishable from zero means
    the bound genuinely fails (rationally related lengths).
    """
    if K < 1:
        raise ValidationError("K must be >= 1")
    lengths = np.asarray(lengths, dtype=float)
    roots = star_roots(lengths, np.zeros(lengths.size, dtype=bool), K, distinct=True)[0][:K]
    cosvals = np.abs(np.cos(np.outer(roots, lengths)))
    per_root = cosvals.min(axis=1)
    scaled = per_root * roots ** (1 + COS_BOUND_EPS)
    running = np.minimum.accumulate(scaled)
    slope = loglog_fit(np.arange(1, roots.size + 1), running)[0]
    failed = bool(np.any(per_root < 1e-12))
    return CosBoundReport(roots=roots, per_root_min=per_root, scaled_min=float(scaled.min()),
                          trend_slope=slope, failed=failed)

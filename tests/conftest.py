import csv
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from graphctrl.dynamics import LieClosureReport, admissible_pairs
from graphctrl.errors import NumericalError
from graphctrl.graph import BoundaryCondition as BC
from graphctrl.graph import Edge, MetricGraph, Topology
from graphctrl.moment import TraceBoundReport, centred_inner, exp_inner
from graphctrl.spectrum import MAX_GAP_WINDOW, edge_factors, loglog_fit, star_roots


# Property tests run the same examples on every run; each test sets its own
# max_examples on top of this profile.
settings.register_profile("graphctrl", derandomize=True, deadline=None)
settings.load_profile("graphctrl")


def star(lengths, bcs=None, topology=Topology.STAR):
    n = len(lengths)
    if bcs is None:
        bcs = [BC.DIRICHLET] * n
    edges = [Edge(f"e{i+1}", lengths[i], f"v{i+1}", "c") for i in range(n)]
    bc = {f"v{i+1}": bcs[i] for i in range(n)}
    bc["c"] = BC.NEUMANN_KIRCHHOFF
    return MetricGraph(edges=edges, bc=bc, topology=topology)


def interval(length=1.0, left=BC.DIRICHLET, right=BC.DIRICHLET):
    return MetricGraph(edges=[Edge("e1", length, "a", "b")],
                       bc={"a": left, "b": right}, topology=Topology.INTERVAL)


@pytest.fixture
def star3_equilateral():
    return star([1.0, 1.0, 1.0])


@pytest.fixture
def star2_irrational():
    return star([1.0, math.sqrt(2.0)])


@pytest.fixture
def star5_neumann():
    return star([1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7)],
                bcs=[BC.NEUMANN] * 5)


# -- closed forms for the Neumann star --------------------------------------

def neumann_star_amplitude(omega, lengths, edge=0):
    """|c_edge| of the simple all-Neumann star mode c_j cos(omega x) at omega > 0.

    x = 0 at each external vertex.  Continuity at the center gives
    c_j = A / cos(omega L_j); the unit norm fixes A through
    sum_j c_j^2 (L_j/2 + sin(2 omega L_j)/(4 omega)) = 1.
    """
    lengths = np.asarray(lengths, dtype=float)
    c = np.cos(omega * lengths)
    norm2 = np.sum((lengths / 2 + np.sin(2 * omega * lengths) / (4 * omega)) / c**2)
    return 1.0 / (abs(c[edge]) * math.sqrt(norm2))


def degree6_neumann_cos_integral(omega, L):
    """Integral over [0, L] of P(x) cos(omega x) for P = (x - L)^5 (5x + L).

    Integration by parts terminates at P^(6).  The boundary terms at x = L
    vanish up to P^(4) (fifth-order zero), and P'(0) = 0, so
    P'''(0)/w^4 - (P^(5)(0) - P^(5)(L) cos wL)/w^6 - P^(6) sin(wL)/w^7 remains,
    with the derivatives written out below.
    """
    d3_0, d5_0, d5_L, d6 = -240.0 * L**3, -2880.0 * L, 720.0 * L, 3600.0
    return (d3_0 / omega**4 - (d5_0 - d5_L * math.cos(omega * L)) / omega**6
            - d6 * math.sin(omega * L) / omega**7)


# -- scalar closed-form integrals ----------------------------------------------
# One Python call per (p, omega), kept as the reference for the array kernel
# in graphctrl.potentials: the kernel must agree with these bit for bit.

def trig_moments_taylor_scalar(p, omega, L):
    """Series evaluation of (int x^p cos(omega x), int x^p sin(omega x)) on (0, L)."""
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


def _series_reference(power, live, q, L, odd):
    """Taylor sum over m of (-1)^m w^n L^(q+n+1) / (n! (q+n+1)), n = 2m + odd,
    for one degree q and one parity: the elements selected by live."""
    acc = np.zeros(np.count_nonzero(live))
    going = np.ones(acc.size, dtype=bool)
    m = 0
    while going.any():
        n = 2 * m + odd
        term = (-1) ** m * power(n)[live] * L ** (q + n + 1) / (math.factorial(n) * (q + n + 1))
        acc = np.where(going, acc + term, acc)
        m += 1
        going &= (np.abs(term) >= 1e-20 * np.maximum(np.abs(acc), 1e-300)) & (m <= 120)
    return acc


def trig_moments_reference(omega, L, deg):
    """graphctrl.potentials.trig_moments with one series loop per degree and parity.

    The same branch choice and the same terms, summed in the same order, so the
    kernel's single series pass must agree with it bit for bit.  Returns the
    list of (cos, sin) moment arrays for q = 0..deg.
    """
    w = np.asarray(omega, dtype=float)
    T = np.abs(w) * L
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
    ws = w[series].tolist()
    powers = []

    def power(n):
        while len(powers) <= n:
            k = len(powers)
            powers.append(np.array([x ** k for x in ws]))
        return powers[n]

    wr = np.where(T < 0.5, 1.0, w)
    s, c = np.sin(wr * L), np.cos(wr * L)
    ic, is_ = s / wr, (1.0 - c) / wr
    Lq, out = 1.0, []
    for q in range(deg + 1):
        if q:
            Lq *= L
            ic, is_ = Lq * s / wr - (q / wr) * is_, -Lq * c / wr + (q / wr) * ic
        live = first <= q
        if live.any():
            ic[series[live]] = _series_reference(power, live, q, L, 0)
            is_[series[live]] = _series_reference(power, live, q, L, 1)
        out.append((ic, is_))
    return out


def trig_moments_scalar(p, omega, L):
    """(int x^p cos(omega x), int x^p sin(omega x)) over (0, L), stable branch choice.

    The upward recurrence amplifies rounding by about prod_k max(1, k/(omega L)),
    the Taylor series by about e^(omega L); the smaller factor picks the branch.
    """
    if omega == 0.0:
        return L ** (p + 1) / (p + 1), 0.0
    T = abs(omega) * L
    recur_factor = 1.0
    for k in range(1, p + 1):
        recur_factor *= max(1.0, k / T)
    if T < 0.5 or recur_factor > math.exp(min(T, 40.0)):
        return trig_moments_taylor_scalar(p, omega, L)
    s, c = math.sin(omega * L), math.cos(omega * L)
    ic, is_ = s / omega, (1.0 - c) / omega
    Lq = 1.0
    for q in range(1, p + 1):
        Lq *= L
        ic, is_ = Lq * s / omega - (q / omega) * is_, -Lq * c / omega + (q / omega) * ic
    return ic, is_


def trig_poly_integral_scalar(p, omega, L, kind, omega2):
    """Integral over (0, L) of x^p trig(omega x) trig(omega2 x), kind a TrigKind value."""
    a, b = float(omega), float(omega2)
    if kind == "sinsin":
        return 0.5 * (trig_moments_scalar(p, a - b, L)[0] - trig_moments_scalar(p, a + b, L)[0])
    if kind == "coscos":
        return 0.5 * (trig_moments_scalar(p, a - b, L)[0] + trig_moments_scalar(p, a + b, L)[0])
    return 0.5 * (trig_moments_scalar(p, a + b, L)[1] + trig_moments_scalar(p, a - b, L)[1])


def matrix_element_scalar(op, basis, j, k):
    """<phi_j, B phi_k> summed one edge, one degree and one integral at a time."""
    lo, hi = (j, k) if j <= k else (k, j)
    total = 0.0
    for e, (eid, L, sin) in enumerate(zip(basis.edge_ids, basis.lengths, basis.is_sin)):
        aj, ak = float(basis.amplitudes[lo - 1, e]), float(basis.amplitudes[hi - 1, e])
        if aj == 0.0 or ak == 0.0:
            continue
        a, b = float(basis.omegas[lo - 1]), float(basis.omegas[hi - 1])
        kind = "sinsin" if sin else "coscos"
        acc = 0.0
        for p, c in enumerate(op.coeffs(eid)):
            if c != 0.0:
                acc += c * trig_poly_integral_scalar(p, a, L, kind, b)
        total += aj * ak * acc
    return total


# -- star eigenfunctions, one mode at a time ------------------------------------
# The per-root amplitude loop and the per-mode assembly that graphctrl.spectrum
# ran before its basis became arrays, kept as the reference: the array basis
# must agree with these bit for bit.

def _trig_norm_integral_reference(omega, L, sin):
    """Integral over (0, L) of sin^2(omega x) if sin, else cos^2(omega x)."""
    if omega == 0.0:
        return 0.0 if sin else L
    osc = math.sin(2 * L * omega) / (4 * omega)
    return L / 2 - osc if sin else L / 2 + osc


def simple_mode_reference(x0, lengths, is_sin):
    """Amplitudes and center value of the center-nonvanishing mode at sqrt(lambda) = x0."""
    taus = []
    for L, k in zip(lengths, is_sin):
        taus.append(math.sin(x0 * L) if k else math.cos(x0 * L))
    norm_sq = 0.0
    for (L, k), t in zip(zip(lengths, is_sin), taus):
        if t == 0.0:
            raise NumericalError(f"edge factor vanishes at x={x0}; not a simple mode")
        norm_sq += _trig_norm_integral_reference(x0, L, k) / t**2
    c = 1.0 / math.sqrt(norm_sq)
    return [c / t for t in taus], c


def branch_modes_reference(x0, lengths, is_sin, support):
    """Orthonormal amplitude vectors of the center-vanishing eigenspace at x0."""
    r = len(support)
    d = []
    for j in support:
        L, k = lengths[j], is_sin[j]
        d.append(math.cos(x0 * L) if k else -math.sin(x0 * L))
    w = np.array([_trig_norm_integral_reference(x0, lengths[j], is_sin[j]) for j in support])
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


def bisect_brackets_reference(lo, hi, lengths, is_sin):
    """The root of M = sum_l sigma_l / tau_l in each bracket (lo, hi), by bisection.

    The refinement graphctrl.spectrum used before its Newton steps: halve
    every bracket by the sign of M at the midpoint until it is narrower than
    1e-13 max(1, hi), and return the midpoints.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        active = np.flatnonzero(b - a > 1e-13 * np.maximum(1.0, b))
        if not active.size:
            return 0.5 * (a + b)
        mid = 0.5 * (a[active] + b[active])
        tau, sigma = edge_factors(mid, lengths, is_sin)
        right = (sigma / tau).sum(axis=1) > 0
        a[active[right]] = mid[right]
        b[active[~right]] = mid[~right]


def star_basis_reference(graph, num_modes):
    """(eigenvalues, amplitudes, center values, multiplicity) of a star, mode by mode.

    Each mode is a (lam, amplitudes, center value, group) record; the
    multiplicity is the number of kept modes sharing the mode's group.
    """
    lengths = graph.lengths
    is_sin = [graph.bc[e.tail] is BC.DIRICHLET for e in graph.edges]
    modes = []
    if not any(is_sin):
        amp = 1.0 / math.sqrt(float(lengths.sum()))
        modes.append((0.0, [amp] * len(lengths), amp, None))
    group_id = 0
    x, _, support = star_roots(lengths, is_sin, num_modes - len(modes))
    for x0, edges in zip(x.tolist(), support):
        lam = x0 * x0
        if not edges.any():
            amps, c = simple_mode_reference(x0, lengths, is_sin)
            modes.append((lam, amps, c, None))
        else:
            group_id += 1
            for amps in branch_modes_reference(x0, lengths, is_sin, np.flatnonzero(edges).tolist()):
                modes.append((lam, [float(a) for a in amps], 0.0, group_id))
    modes = modes[:num_modes]
    counts = Counter(m[3] for m in modes)
    return (np.array([m[0] for m in modes]),
            np.array([m[1] for m in modes], dtype=float),
            np.array([m[2] for m in modes]),
            np.array([1 if m[3] is None else counts[m[3]] for m in modes]))


# -- interlacing slots of a star ---------------------------------------------

def interlacing_slots(lengths, dirichlet, count, distinct=False, shared_rel=1e-12):
    """Where the first ``count`` square-root eigenvalues of a star must lie.

    Uses only the closed-form zeros of the edge factors, sin(x L) on
    Dirichlet edges and cos(x L) on Neumann edges.  Between consecutive
    distinct zeros there is exactly one eigenvalue, below the first zero
    there is one when some edge is Dirichlet, and a zero shared by r factors
    carries r - 1 more (Berkolaiko & Kuchment, Introduction to Quantum
    Graphs, 2013).  Returns one (a, b) per eigenvalue: an open interval, or
    a == b at a shared zero.  An all-Neumann star starts with the constant
    mode (0, 0).  With ``distinct`` a shared zero gives one slot and the
    constant mode none (the distinct positive roots).
    """
    x_max = (count + 2) * math.pi / min(lengths)
    while True:
        zeros = sorted(z for L, d in zip(lengths, dirichlet)
                       for n in range(1, int(x_max * L / math.pi) + 2)
                       if (z := (n if d else n - 0.5) * math.pi / L) <= x_max)
        clusters = []                      # [zero, number of factors vanishing there]
        for z in zeros:
            if clusters and z - clusters[-1][0] <= shared_rel * z:
                clusters[-1][1] += 1
            else:
                clusters.append([z, 1])
        slots = []
        if any(dirichlet):
            slots.append((0.0, clusters[0][0]))
        elif not distinct:
            slots.append((0.0, 0.0))
        # the last cluster may extend past x_max: stop at the interval below it
        for (z, r), (z_next, _) in zip(clusters, clusters[1:]):
            if r >= 2:
                slots.extend([(z, z)] * (1 if distinct else r - 1))
            slots.append((z, z_next))
        if len(slots) >= count:
            return slots[:count]
        x_max *= 2.0


def assert_fills_slots(omegas, slots, point_rel=1e-9):
    """Each root lies in its own slot: inside its interval, or on its shared zero."""
    assert len(omegas) == len(slots)
    for k, (w, (a, b)) in enumerate(zip(omegas, slots), start=1):
        if a == b:
            assert abs(w - a) <= point_rel * max(1.0, a), f"root {k} = {w!r} is not the point {a!r}"
        else:
            assert a < w < b, f"root {k} = {w!r} outside ({a!r}, {b!r})"


# -- secular sums -------------------------------------------------------------
# The loops over l and over j != l, one np.prod per l, kept as the reference
# for the leave-one-out products in graphctrl.spectrum and graphctrl.lowerbounds:
# those must agree with these bit for bit.

def assemble_secular_reference(lengths, is_sin):
    """(S, S') of sum_l sigma_l(x L_l) prod_{j != l} tau_j(x L_j), term by term."""
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    is_sin = np.asarray(is_sin, dtype=bool)

    def parts(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        arg = np.outer(x, lengths)
        tau = np.where(is_sin[None, :], np.sin(arg), np.cos(arg))
        sigma = np.where(is_sin[None, :], np.cos(arg), -np.sin(arg))
        dtau = np.where(is_sin[None, :], lengths[None, :] * np.cos(arg),
                        -lengths[None, :] * np.sin(arg))
        dsigma = np.where(is_sin[None, :], -lengths[None, :] * np.sin(arg),
                          -lengths[None, :] * np.cos(arg))
        return tau, sigma, dtau, dsigma

    def S(x):
        scalar = np.isscalar(x)
        tau, sigma, _, _ = parts(x)
        total = np.zeros(tau.shape[0])
        for l in range(n):
            others = [j for j in range(n) if j != l]
            total += sigma[:, l] * np.prod(tau[:, others], axis=1)
        return total[0] if scalar else total

    def Sprime(x):
        scalar = np.isscalar(x)
        tau, sigma, dtau, dsigma = parts(x)
        total = np.zeros(tau.shape[0])
        for l in range(n):
            others = [j for j in range(n) if j != l]
            total += dsigma[:, l] * np.prod(tau[:, others], axis=1)
            for m in others:
                rest = [j for j in range(n) if j != l and j != m]
                total += sigma[:, l] * dtau[:, m] * np.prod(tau[:, rest], axis=1)
        return total[0] if scalar else total

    return S, Sprime


def _edge_factors_reference(lengths, is_sin, x):
    """(tau, sigma) at x L_l, chosen edge by edge: (sin, cos) on sin edges, else (cos, -sin)."""
    arg = np.outer(np.atleast_1d(np.asarray(x, dtype=float)), lengths)
    s, c = np.sin(arg), np.cos(arg)
    tau, sigma = np.empty_like(arg), np.empty_like(arg)
    for j, sin in enumerate(is_sin):
        tau[:, j], sigma[:, j] = (s[:, j], c[:, j]) if sin else (c[:, j], -s[:, j])
    return tau, sigma


def derivative_at_root_reference(lengths, is_sin, x):
    """-sum_l L_l prod_{j != l} tau_j / tau_l."""
    tau, _ = _edge_factors_reference(lengths, is_sin, x)
    total = np.zeros(tau.shape[0])
    for l in range(len(lengths)):
        others = [j for j in range(len(lengths)) if j != l]
        total += lengths[l] * np.prod(tau[:, others], axis=1) / tau[:, l]
    return -total


def envelope_reference(lengths, is_sin, x):
    """(min_l L_l) sum_l prod_{j != l} |tau_j|."""
    tau = np.abs(_edge_factors_reference(lengths, is_sin, x)[0])
    total = np.zeros(tau.shape[0])
    for l in range(len(lengths)):
        others = [j for j in range(len(lengths)) if j != l]
        total += np.prod(tau[:, others], axis=1)
    return float(np.min(lengths)) * total


def mixed_product_sum_reference(lengths, i1, x):
    """sum_l prod_{j != l} |tau_j|, cos on the edges in i1 and sin on the rest."""
    lengths = np.asarray(lengths, dtype=float)
    arg = np.outer(np.atleast_1d(np.asarray(x, dtype=float)), lengths)
    tau = np.empty_like(arg)
    for j in range(lengths.size):
        tau[:, j] = np.abs(np.cos(arg[:, j])) if j in i1 else np.abs(np.sin(arg[:, j]))
    total = np.zeros(arg.shape[0])
    for l in range(lengths.size):
        others = [j for j in range(lengths.size) if j != l]
        total += np.prod(tau[:, others], axis=1)
    return total


def product_bound_reference(lengths, i1, x):
    """min over i of the distance products over j != i, half-integer and integer grids."""
    lengths = np.asarray(lengths, dtype=float)
    x = np.asarray(x, dtype=float)
    n = lengths.size
    tilde = np.where([j in i1 for j in range(n)], 2 * lengths, lengths)
    prod_half = np.full(x.size, np.inf)
    prod_int = np.full(x.size, np.inf)
    for i in range(n):
        m_half = np.rint(lengths[i] / math.pi * x - 0.5) + 0.5
        m_int = np.rint(lengths[i] / math.pi * x)
        ph = np.ones(x.size)
        pi_ = np.ones(x.size)
        for j in range(n):
            if j == i:
                continue
            y = m_half * tilde[j] / lengths[i]
            ph *= np.abs(y - np.rint(y))
            y = m_int * tilde[j] / lengths[i]
            pi_ *= np.abs(y - np.rint(y))
        prod_half = np.minimum(prod_half, ph)
        prod_int = np.minimum(prod_int, pi_)
    return np.minimum(prod_half, prod_int)


# -- scalar moment integrals, control evaluation and greedy clusters -------------
# The loops that graphctrl's array code replaced, kept as references for it.

def trig_moment_integral_reference(control, alpha):
    """Integral of a TrigControl u(t) e^{i alpha t} over (0, horizon), term by term."""
    total = control.const * exp_inner(alpha, control.horizon)
    for freq, kind, c in control.terms:
        plus = exp_inner(alpha + freq, control.horizon)
        minus = exp_inner(alpha - freq, control.horizon)
        total += c * (0.5 * (plus + minus) if kind == "cos" else (plus - minus) / 2j)
    return total


def sampled_moment_integral_reference(control, alpha):
    """Integral of a SampledControl u(t) e^{i alpha t} over (0, horizon), sample by sample."""
    total = 0.0 + 0.0j
    for i, u in enumerate(control.samples):
        a, b = i * control.dt, (i + 1) * control.dt
        if alpha == 0.0:
            total += u * (b - a)
        else:
            total += u * (np.exp(1j * alpha * b) - np.exp(1j * alpha * a)) / (1j * alpha)
    return complex(total)


def moment_control_reference(alpha, coefficients, t):
    """The moment control over the real dictionary {1, cos alpha_k t, sin alpha_k t}, term by term."""
    dictionary = [(0.0, "const")] + [(float(a), kind) for a in alpha[1:] for kind in ("cos", "sin")]
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for (freq, kind), c in zip(dictionary, coefficients):
        if kind == "const":
            out = out + c
        elif kind == "cos":
            out = out + c * np.cos(freq * t)
        else:
            out = out + c * np.sin(freq * t)
    return out


def signed_family(alpha):
    """The signed family -alpha_{K-1} < ... < -alpha_1 < alpha_0 = 0 < ... < alpha_{K-1}."""
    return np.concatenate([-alpha[:0:-1], alpha])


def centred_grams_reference(alpha, T):
    """The cos and sin Grams of graphctrl.moment._centred_system from the whole
    (K, 2K - 1) grid of the centred kernel over the signed family: S(alpha_k +
    alpha_j) and S(alpha_k - alpha_j) are its columns K - 1 + j and K - 1 - j."""
    S = centred_inner(alpha[:, None] + signed_family(alpha), T)
    K = S.shape[0]
    plus, minus = S[:, K - 1:], S[:, K - 1::-1]
    return 0.5 * (plus + minus), 0.5 * (minus[1:, 1:] - plus[1:, 1:])


def exponential_gram_reference(freqs, T):
    """The exponential Gram from the whole K x K grid of exp_inner, upper triangle kept."""
    E = exp_inner(freqs[None, :] - freqs[:, None], T)
    return np.triu(E) + np.triu(E, 1).conj().T


def dd_matrix_reference(values):
    """Divided-difference matrix, one scalar product of 1 / (v_j - v_l) per entry."""
    v = np.asarray(values, dtype=float)
    n = v.size
    F = np.zeros((n, n))
    for k in range(n):
        for j in range(k + 1):
            prod = 1.0
            for l in range(k + 1):
                if l != j:
                    prod /= (v[j] - v[l])
            F[j, k] = prod
    return F


def dd_blocks_reference(partition):
    """The divided-difference blocks of graphctrl.moment._dd_blocks, one cluster at a
    time: the clusters' positions and, per cluster, dd_matrix_reference or [[1]]."""
    positions = [range(s, e) for s, e in partition.clusters]
    blocks = [dd_matrix_reference(partition.frequencies[s:e]) if e - s > 1 else np.ones((1, 1))
              for s, e in partition.clusters]
    return positions, blocks


def half_blocks_reference(partition):
    """graphctrl.moment._half_blocks, cluster by cluster: the cos half as the clusters
    are, the sin half shifted down by one, with the cluster holding position 0 over
    its other positions."""
    positions, blocks = dd_blocks_reference(partition)
    sin_positions, sin_blocks = [], []
    for (s, e), F in zip(partition.clusters, blocks):
        if s == 0:
            if e == 1:
                continue
            s, F = 1, dd_matrix_reference(partition.frequencies[1:e])
        sin_positions.append(range(s - 1, e - 1))
        sin_blocks.append(F)
    return (positions, blocks), (sin_positions, sin_blocks)


def unstack_blocks(stacks):
    """Stacked (rows, F) blocks back to per-cluster positions and blocks, in position order."""
    pairs = sorted(((list(r), f) for rows, F in stacks for r, f in zip(rows.tolist(), F)),
                   key=lambda pair: pair[0][0])
    return [range(r[0], r[-1] + 1) for r, _ in pairs], [f for _, f in pairs]


def apply_blocks_reference(positions, blocks, X, transpose=False):
    """W @ X or W.T @ X for per-cluster blocks: index arrays and np.stack rebuilt on each
    call, one batched product per block size."""
    X = np.asarray(X)
    out = X.astype(np.result_type(X, float))
    sizes = [len(p) for p in positions]
    for size in set(sizes) - {1}:
        members = [c for c, n in enumerate(sizes) if n == size]
        rows = np.array([positions[c] for c in members])
        F = np.stack([blocks[c] for c in members])
        if transpose:
            F = F.transpose(0, 2, 1)
        Xc = X[rows]
        out[rows] = (F @ Xc.reshape(len(members), size, -1)).reshape(Xc.shape)
    return out


def congruence_reference(positions, blocks, G):
    WtG = apply_blocks_reference(positions, blocks, G, transpose=True)
    return apply_blocks_reference(positions, blocks, WtG.T, transpose=True).T


def check_trace_bounds_reference(partition, blocks, dtilde):
    """graphctrl.moment.check_trace_bounds one cluster at a time, from per-cluster blocks."""
    rows, theta_rows = [], []
    for (s, e), F in zip(partition.clusters, blocks):
        lab = int(np.min(np.abs(partition.labels[s:e])))
        tr = float(np.sum(F * F))
        rows.append((tr, lab, tr / lab ** (2 * (1 + dtilde))))
        nu = partition.frequencies[s:e]
        Ft = dd_matrix_reference(np.sign(nu) * nu ** 2)
        trt = float(np.sum(Ft * Ft))
        theta_rows.append((trt, lab, trt / max(lab ** (2 * dtilde), 1e-300)))
    labs = np.array([r[1] for r in rows], dtype=float)
    ratios = np.array([r[2] for r in rows])
    slope = loglog_fit(labs, ratios)[0] if labs.size >= 2 and np.all(ratios > 0) else math.nan
    return TraceBoundReport(per_cluster=rows, sup_ratio=float(max(r[2] for r in rows)),
                            theta_per_cluster=theta_rows,
                            theta_sup_ratio=float(max(r[2] for r in theta_rows)),
                            fitted_slope=slope, dtilde=dtilde)


def greedy_clusters_reference(freqs, delta):
    """[start, end) clusters of the greedy rule: cut wherever the next gap is >= delta."""
    clusters, start = [], 0
    for i in range(freqs.size - 1):
        if freqs[i + 1] - freqs[i] >= delta:
            clusters.append((start, i + 1))
            start = i + 1
    clusters.append((start, freqs.size))
    return clusters


def greedy_sizes_reference(freqs, delta):
    """Cluster sizes of the greedy rule, counted run by run."""
    sizes, run = [], 1
    for g in np.diff(freqs):
        if g >= delta:
            sizes.append(run)
            run = 1
        else:
            run += 1
    sizes.append(run)
    return sizes


# -- windowed gaps and log-log fits ----------------------------------------------
# The two loops over the window M that spectrum._gap_report and
# moment.estimate_gap_parameters ran before spectrum.windowed_gaps, and the
# log-log fit without its positivity filter: kept as references.

def gap_report_reference(omegas):
    omegas = np.asarray(omegas)
    if omegas.size < 2:
        return None
    scale = max(1.0, float(omegas.max()))
    for M in range(1, MAX_GAP_WINDOW + 1):
        if len(omegas) <= M:
            break
        gaps = omegas[M:] - omegas[:-M]
        delta = float(gaps.min()) / M
        if delta > 1e-9 * scale:
            return (M, delta)
    return (MAX_GAP_WINDOW, 0.0)


def window_deltas_reference(freqs):
    deltas = {}
    for M in range(1, MAX_GAP_WINDOW + 1):
        if freqs.size <= M:
            break
        deltas[M] = float(np.min(freqs[M:] - freqs[:-M]) / M)
    return deltas


def estimate_gap_parameters_reference(freqs):
    freqs = np.asarray(freqs, dtype=float)
    deltas = window_deltas_reference(freqs)
    if not deltas:
        return (1.0, 1)
    best = max(deltas.values())
    for M, d in deltas.items():
        if d < 0.5 * best or d <= 0:
            continue
        if max(greedy_sizes_reference(freqs, d)) <= (1 if M == 1 else M - 1):
            return (d, M)
    return (best, max(deltas, key=deltas.get))


def plain_loglog_fit(ks, vals):
    """(slope, intercept, rms residual) of the least-squares line log(vals) ~ log(ks)."""
    A = np.vstack([np.log(ks), np.ones(np.size(ks))]).T
    y = np.log(vals)
    sol = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean((y - A @ sol) ** 2)))


# -- admissible transition pairs ----------------------------------------------

def admissible_pairs_reference(lam, B, resonance_tol=1e-8, int_labels=None):
    """Coupled pairs (1-based) whose frequency no other coupled pair shares.

    The direct O(P^2) comparison of every coupled pair with every other one,
    kept as the reference for the sorted implementation.
    """
    K = len(lam)
    element_tol = 1e-12 * max(1.0, float(np.abs(B).max()))
    coupled = [(j, k) for j in range(K) for k in range(j + 1, K) if abs(B[j, k]) > element_tol]
    scale = max(1.0, float(np.abs(lam).max()))
    out = []
    for (j, k) in coupled:
        fjk = abs(lam[k] - lam[j])
        degenerate = False
        for (l, m) in coupled:
            if (l, m) == (j, k):
                continue
            if int_labels is not None:
                if abs(int_labels[m] ** 2 - int_labels[l] ** 2) == abs(int_labels[k] ** 2 - int_labels[j] ** 2):
                    degenerate = True
                    break
            elif abs(abs(lam[m] - lam[l]) - fjk) <= resonance_tol * scale:
                degenerate = True
                break
        if not degenerate:
            out.append((j + 1, k + 1))
    return out


def transfer_colliders_reference(lam, B, j, k, resonance_tol=1e-8, int_labels=None):
    """Coupled pairs (1-based, row-major) other than (j, k) whose frequency
    collides with that of the 1-based pair (j, k).

    Each pair is compared with (j, k) directly, kept as the reference for the
    colliders that resonant_transfer lists.
    """
    K = len(lam)
    element_tol = 1e-12 * max(1.0, float(np.abs(B).max()))
    scale = max(1.0, float(np.abs(lam).max()))

    def frequency(l, m):
        if int_labels is not None:
            return abs(int_labels[m] ** 2 - int_labels[l] ** 2)
        return abs(lam[m] - lam[l])

    f = frequency(j - 1, k - 1)
    out = []
    for l in range(K):
        for m in range(l + 1, K):
            if (l + 1, m + 1) == (j, k) or abs(B[l, m]) <= element_tol:
                continue
            g = frequency(l, m)
            if g == f if int_labels is not None else abs(g - f) <= resonance_tol * scale:
                out.append((l + 1, m + 1))
    return out


# -- resonant quadruples -------------------------------------------------------

def find_resonant_quadruples_reference(mu, tol_abs, int_labels=None):
    """The tuple sort and Python double loop over all pair gaps, kept as the
    reference for the array gap matcher in graphctrl.potentials."""
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


def resonant_quadruple_records_reference(mu, diag, tol_abs, int_labels=None):
    """The resonant_quadruples list of assumptions.json as analyze_coupling built it, one
    tuple per quadruple, and cmd_check_assumptions turned it into one dict per quadruple,
    before the quadruples became columns: kept as the reference for the streamed records."""
    defect_floor = 1e-12 * float(np.abs(mu).max())
    quads = []
    for (j, k), (l, m), defect in find_resonant_quadruples_reference(mu, tol_abs, int_labels):
        combo = abs(diag[j - 1] - diag[k - 1] - diag[l - 1] + diag[m - 1])
        quads.append(((j, k), (l, m), defect if defect >= defect_floor else 0.0, float(combo)))
    return [{"pair1": q[0], "pair2": q[1], "frequency_defect": q[2], "diagonal_combination": q[3]}
            for q in quads]


# -- propagation step count ---------------------------------------------------

def dense_step_count(system, control, horizon):
    """dynamics.choose_step_count with [Lambda, B] formed by two products with diag(lam)."""
    lam, B = system.lam, system.B
    comm = np.linalg.norm(np.diag(lam) @ B - B @ np.diag(lam))
    u_scale = float(np.max(np.abs(control(np.linspace(0, horizon, 257)))))
    n_osc = int(64 * max(1.0, control.max_frequency * horizon / (2 * math.pi)))
    n_comm = int(math.sqrt(max(comm * u_scale, 1e-12)) * horizon * 20)
    return max(512, n_osc, n_comm)


# -- bracket closure ---------------------------------------------------------

def lie_closure_reference(system, resonance_tol=1e-8):
    """One dense commutator and one Gram-Schmidt test per bracket, in breadth-first
    order: the numeric closure, kept as the oracle for the closed-form
    component count and bracket depth of graphctrl.dynamics.lie_closure."""
    n = system.dim
    pairs = admissible_pairs(system, resonance_tol)
    gens = []
    for (j, k) in pairs:
        for theta in (0.0, math.pi / 2):
            E = np.zeros((n, n), dtype=complex)
            E[j - 1, k - 1] = np.exp(1j * theta)
            E[k - 1, j - 1] = -np.exp(-1j * theta)
            gens.append(E)

    target = n * n - 1
    ortho = np.empty((target, 2 * n * n))
    rank = 0

    def try_add(Mx):
        nonlocal rank
        v = np.concatenate([Mx.real.ravel(), Mx.imag.ravel()])
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            return False
        for _ in range(2):
            v -= ortho[:rank].T @ (ortho[:rank] @ v)
        r = np.linalg.norm(v)
        if r > 1e-10 * nv:
            ortho[rank] = v / r
            rank += 1
            return True
        return False

    frontier = [g for g in gens if try_add(g)]
    depth = 0
    while frontier and rank < target:
        depth += 1
        new = []
        for C in (g @ Mx - Mx @ g for g in gens for Mx in frontier):
            if try_add(C):
                new.append(C)
                if rank == target:
                    break
        frontier = new
    return LieClosureReport(n1=n, admissible_pairs=pairs, reached_dimension=rank,
                            target_dimension=target, generated=(rank == target),
                            bracket_depth=depth)


def closure_by_components(n, pairs):
    """Sum of c^2 - 1 over the connected components (c >= 2 nodes) of the pair
    graph, found by union-find rather than by reachability products."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for j, k in pairs:
        parent[find(j - 1)] = find(k - 1)
    sizes = np.bincount([find(i) for i in range(n)], minlength=n)
    return int(sum(c * c - 1 for c in sizes if c >= 2))


# -- CLI data files --------------------------------------------------------------
# The per-value row writer and the recursive JSON copy graphctrl.cli used before
# its column writer and json default hook, kept as byte references.

def fmt_reference(x) -> str:
    """17-significant-digit decimal: lossless double round-trip."""
    return format(float(x), ".17g")


def write_csv_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def trajectory_rows_reference(times, states):
    """trajectory.csv rows: t, Re and Im of each mode, the row's norm and each population."""
    fmt = fmt_reference
    return [[fmt(t)] + [fmt(v) for v in st.real] + [fmt(v) for v in st.imag]
            + [fmt(np.linalg.norm(st))] + [fmt(abs(v) ** 2) for v in st]
            for t, st in zip(times, states)]


def jsonable_reference(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, np.ndarray):
        return [jsonable_reference(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [jsonable_reference(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable_reference(v) for k, v in x.items()}
    return x


def write_json_reference(path, payload):
    with open(path, "w") as fh:
        json.dump(jsonable_reference(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from graphctrl.errors import ValidationError
from graphctrl.potentials import (ControlOperator, analyze_coupling, build_exchange_matrix,
                                  build_matrix, check_vertex_compatibility,
                                  degree6_neumann_potential, find_resonant_quadruples,
                                  matching_gaps, matrix_element, mode_overlap_integral, pair_gaps,
                                  squared_shift_potential, trig_moments)
from graphctrl.spectrum import explicit_subsystem, solve_spectrum

from conftest import (degree6_neumann_cos_integral, find_resonant_quadruples_reference, interval,
                      matrix_element_scalar, star, trig_moments_reference, trig_moments_scalar,
                      trig_poly_integral_scalar)

PI = math.pi
SIN, COS = True, False        # the is_sin flag of an edge factor
# the factor kinds (first factor carries the first frequency), by the scalar reference's names
KINDS = {"sinsin": (SIN, SIN), "sincos": (SIN, COS), "coscos": (COS, COS)}


def quad_oracle(p, w1, L, kind, w2):
    f = {"sinsin": lambda x: x**p * np.sin(w1 * x) * np.sin(w2 * x),
         "sincos": lambda x: x**p * np.sin(w1 * x) * np.cos(w2 * x),
         "coscos": lambda x: x**p * np.cos(w1 * x) * np.cos(w2 * x)}[kind]
    val, err = quad(f, 0, L, limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


def test_trig_integral_orthonormality_normalizer():
    assert mode_overlap_integral(PI, SIN, PI, SIN, 1.0, 0) == pytest.approx(0.5, abs=1e-15)


def test_trig_integral_against_quadrature():
    val = mode_overlap_integral(PI / 2, SIN, PI, SIN, 1.0, 2)
    assert abs(val - quad_oracle(2, PI / 2, 1.0, "sinsin", PI)) < 1e-12


def test_trig_integral_zero_frequency():
    assert mode_overlap_integral(0.0, SIN, 0.0, COS, 1.0, 1) == 0.0


def test_trig_integral_tiny_phase_taylor_branch():
    w = 1e-6
    val = mode_overlap_integral(w, COS, w, COS, 2.0, 3)
    assert abs(val - quad_oracle(3, w, 2.0, "coscos", w)) < 1e-14


def test_trig_integral_degree_cap():
    with pytest.raises(ValidationError):
        mode_overlap_integral(1.0, SIN, 1.0, SIN, 1.0, 13)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.sampled_from(list(KINDS)))
def test_trig_integral_matches_quadrature(p, w1, w2, L, kind):
    val = mode_overlap_integral(w1, KINDS[kind][0], w2, KINDS[kind][1], L, p)
    ref = quad_oracle(p, w1, L, kind, w2)
    assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))


# -- array kernel against the scalar oracle -------------------------------------

def series_switch(q):
    """Adjacent floats lo < hi of T = |omega| L: q-th moment on the series at lo, recurrence at hi."""
    def on_series(T):
        factor = 1.0
        for k in range(1, q + 1):
            factor *= max(1.0, k / T)
        return factor > math.exp(min(T, 40.0))
    lo, hi = 0.5, float(q)
    assert on_series(lo) and not on_series(hi)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if on_series(mid) else (lo, mid)
    return lo, hi


def switch_omegas(L):
    """omega = 0 and omegas of both signs at, and one float either side of, each branch switch."""
    points = [0.5] + [T for q in range(1, 13) for T in series_switch(q)]
    out = [0.0]
    for T in points:
        w = T / L
        out += [w, math.nextafter(w, 0.0), math.nextafter(w, math.inf)]
    return np.array(out + [-w for w in out[1:]])


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=25)
@given(st.floats(min_value=0.2, max_value=3.0),
       st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=12),
       st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=12),
       st.sampled_from(list(KINDS)))
def test_trig_moments_match_scalar_bitwise(L, wide, narrow, kind):
    omega = np.concatenate([wide, narrow, switch_omegas(L)])
    for q, (ic, is_) in enumerate(trig_moments(omega, L, 12)):
        ref = [trig_moments_scalar(q, w, L) for w in omega.tolist()]
        assert bits(ic) == bits([r[0] for r in ref]), f"cos moment, q = {q}"
        assert bits(is_) == bits([r[1] for r in ref]), f"sin moment, q = {q}"
    for p in (0, 5, 12):
        for w1, w2 in zip(wide, narrow):
            assert bits(mode_overlap_integral(w1, KINDS[kind][0], w2, KINDS[kind][1], L, p)) == \
                bits(trig_poly_integral_scalar(p, w1, L, kind, w2))
            # cos * sin is the sin * cos integral with the frequencies swapped
            assert bits(mode_overlap_integral(w1, COS, w2, SIN, L, p)) == \
                bits(trig_poly_integral_scalar(p, w2, L, "sincos", w1))


@settings(max_examples=10)
@given(st.floats(min_value=0.2, max_value=3.0),
       st.lists(st.floats(min_value=-15.0, max_value=15.0), max_size=12))
def test_trig_moments_match_per_degree_series_bitwise(L, extra):
    # one series pass over every degree and parity against one loop per degree and parity
    omega = np.concatenate([extra, switch_omegas(L)])
    for deg in range(13):
        got = list(trig_moments(omega, L, deg))
        ref = trig_moments_reference(omega, L, deg)
        assert len(got) == deg + 1
        for q, ((ic, is_), (rc, rs)) in enumerate(zip(got, ref)):
            assert bits(ic) == bits(rc) and bits(is_) == bits(rs), f"deg = {deg}, q = {q}"


@pytest.mark.parametrize("half_width", [0.45, 12.0])
def test_trig_moments_working_set_is_linear(half_width):
    # 0.45: every element on the series at every degree, whose 2 (deg + 1) sums are
    # held until their yields; 12.0: both branches, switching at every degree.  The
    # one series pass peaks near 190 * 8N bytes at deg 12 (13 cells per element, each
    # with two running sums, terms, tolerances, table lookups and indices)
    N = 20000
    omega = np.linspace(-half_width, half_width, N)
    tracemalloc.start()
    try:
        for _ in trig_moments(omega, 1.0, 12):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 200 * 8 * N


@pytest.mark.parametrize("graph_name, per_edge", [
    ("star2_irrational", {"e1": [0.0, 1.0, 0.5], "e2": [2.0, 0.0, 0.0, -1.0, 0.25]}),
    ("star5_neumann", {"e1": degree6_neumann_potential(1.0), "e3": [0.3, 0.0, -1.0]}),
])
def test_build_matrix_matches_scalar_oracle(request, graph_name, per_edge):
    basis = solve_spectrum(request.getfixturevalue(graph_name), 60)
    op = ControlOperator(per_edge=per_edge)
    B = build_matrix(op, basis, 60)
    ref = np.zeros((60, 60))
    for j in range(1, 61):
        for k in range(j, 61):
            ref[j - 1, k - 1] = ref[k - 1, j - 1] = matrix_element_scalar(op, basis, j, k)
    assert B.tobytes() == ref.tobytes()


def test_operator_coupling_matches_matrix_column(star5_neumann):
    basis = solve_spectrum(star5_neumann, 80)
    op = ControlOperator(per_edge={"e1": degree6_neumann_potential(1.0)})
    B = build_matrix(op, basis)
    from_op = analyze_coupling(op, basis, 80)
    from_matrix = analyze_coupling(B, basis, 80)
    assert from_op.elements.tobytes() == B[:, 0].tobytes()
    assert_same_columns(from_op.resonant_quadruples, from_matrix.resonant_quadruples)


def test_build_matrix_memory_bound(star5_neumann):
    basis = solve_spectrum(star5_neumann, 400)
    op = ControlOperator(per_edge={"e1": degree6_neumann_potential(1.0)})
    tracemalloc.start()
    try:
        B = build_matrix(op, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert B.shape == (400, 400)
    assert peak < 32 * 2**20


# -- matrix elements ----------------------------------------------------------

def test_matrix_element_symmetric_bitwise(star2_irrational):
    basis = solve_spectrum(star2_irrational, 8)
    op = ControlOperator(per_edge={"e1": np.array([0.0, 1.0, 0.5])})
    for j, k in [(1, 5), (2, 7), (3, 4)]:
        assert matrix_element(op, basis, j, k) == matrix_element(op, basis, k, j)


def test_interval_constant_potential_orthogonality():
    basis = solve_spectrum(interval(1.0), 4)
    op = ControlOperator(per_edge={"e1": np.array([1.0])})
    assert matrix_element(op, basis, 1, 2) == pytest.approx(0.0, abs=1e-15)
    assert matrix_element(op, basis, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_equilateral_diagonal_element_oracle():
    basis = explicit_subsystem("equilateral_star", 2, n_edges=3, length=1.0)
    op = ControlOperator(per_edge={"e1": squared_shift_potential(1.0)})
    got = matrix_element(op, basis, 1, 1)
    ref, _ = quad(lambda x: (2 / 3) * (x - 1) ** 2 * np.sin(PI * x / 2) ** 2, 0, 1,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(got - ref) < 1e-12


def test_matrix_element_quadrature_agreement(star5_neumann):
    basis = solve_spectrum(star5_neumann, 12)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=7)  # degree 6
    op = ControlOperator(per_edge={"e1": coeffs})
    for _ in range(50):
        j, k = sorted(rng.integers(1, 13, size=2))
        got = matrix_element(op, basis, int(j), int(k))
        wj, wk = basis.omegas[j - 1], basis.omegas[k - 1]
        aj, ak = basis.amplitudes[j - 1, 0], basis.amplitudes[k - 1, 0]
        ref, _ = quad(lambda x: np.polynomial.polynomial.polyval(x, coeffs)
                      * np.cos(wj * x) * np.cos(wk * x), 0, 1.0,
                      limit=400, epsabs=1e-13, epsrel=1e-13)
        assert abs(got - aj * ak * ref) < 1e-10 * max(1.0, abs(got))


def test_neumann_column_asymptote(star5_neumann):
    # the coupling column via terminating integration by parts:
    # integral of P cos(w x) = P'''(0)/w^4 + O(w^-6) with P'''(0) = -240 L^3
    basis = solve_spectrum(star5_neumann, 120)
    op = ControlOperator(per_edge={"e1": degree6_neumann_potential(1.0)})
    k = 118
    a1 = basis.amplitudes[0, 0]
    ak = basis.amplitudes[k - 1, 0]
    got = matrix_element(op, basis, 1, k)
    pred = a1 * ak * degree6_neumann_cos_integral(basis.omegas[k - 1], 1.0)
    assert got / pred == pytest.approx(1.0, abs=1e-9)


def test_neumann_column_against_mpmath(star5_neumann):
    # independent of the closed form: 30-digit quadrature at the two deep
    # amplitude dips (k = 74, 100) and at k = 120, 126 near the truncation K
    mpmath = pytest.importorskip("mpmath")
    basis = solve_spectrum(star5_neumann, 126)
    op = ControlOperator(per_edge={"e1": degree6_neumann_potential(1.0)})
    a1 = float(basis.amplitudes[0, 0])
    with mpmath.workdps(30):
        for k in (74, 100, 120, 126):
            w = mpmath.mpf(basis.omegas[k - 1])
            integral = mpmath.quad(lambda x: (x - 1) ** 5 * (5 * x + 1) * mpmath.cos(w * x),
                                   mpmath.linspace(0, 1, 9))
            ref = float(a1 * float(basis.amplitudes[k - 1, 0]) * integral)
            got = matrix_element(op, basis, 1, k)
            assert abs(got - ref) <= 1e-10 * abs(ref)


# -- exchange families --------------------------------------------------------

def test_two_equal_exchange_element():
    basis = explicit_subsystem("two_equal_edges", 6, length=1.0)
    B = build_exchange_matrix(basis)
    ref, _ = quad(lambda x: 4 * x**2 * np.sin(PI * x) * np.sin(3 * PI * x), 0, 1,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(B[0, 2] - ref) < 1e-12
    assert B[2, 0] == B[0, 2]


def test_paired_star_exchange_symmetric():
    basis = explicit_subsystem("paired_star", 8, lengths=[1.0, math.sqrt(2)])
    B = build_exchange_matrix(basis)
    assert np.array_equal(B, B.T)
    assert not np.allclose(B, 0.0)


def test_loops_exchange_element_oracle():
    basis = explicit_subsystem("loops", 5, lengths=[1.0])
    got = build_exchange_matrix(basis)[0, 1]
    ref, _ = quad(lambda x: 2 * x**2 * (x - 1) * np.sin(2 * PI * x) * np.sin(4 * PI * x),
                  0, 1, epsabs=1e-13, epsrel=1e-13)
    assert abs(got - ref) < 1e-12


# -- coupling analysis --------------------------------------------------------

def exhaustive_quadruples(mu, tol_abs):
    out = set()
    K = len(mu)
    pairs = [(j, k) for j in range(1, K + 1) for k in range(j + 1, K + 1)]
    for (j, k) in pairs:
        for (l, m) in pairs:
            if (j, k) >= (l, m):
                continue
            if abs(mu[j - 1] - mu[k - 1] - mu[l - 1] + mu[m - 1]) <= tol_abs:
                out.add(((j, k), (l, m)))
    return out


def reference_columns(mu, tol_abs, int_labels=None):
    """find_resonant_quadruples_reference as the (pair1, pair2, defect) columns of the array code."""
    ref = find_resonant_quadruples_reference(mu, tol_abs, int_labels)
    return (np.array([q[0] for q in ref], dtype=np.int64).reshape(-1, 2),
            np.array([q[1] for q in ref], dtype=np.int64).reshape(-1, 2),
            np.array([q[2] for q in ref], dtype=float))


def assert_same_columns(got, want):
    """Equal columns, bit for bit, in dtype and shape too (a tuple or a dict of arrays)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        got, want = [got[k] for k in want], list(want.values())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()


def test_resonance_finder_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    mu = np.sort(rng.uniform(0, 50, size=12))
    mu[5] = mu[2] + (mu[8] - mu[4])  # plant an exact resonance
    mu = np.sort(mu)
    tol = 1e-9 * mu.max()
    pair1, pair2, _ = find_resonant_quadruples(mu, tol)
    got = {(tuple(a), tuple(b)) for a, b in zip(pair1.tolist(), pair2.tolist())}
    assert len(got) == len(pair1) and got == exhaustive_quadruples(mu, tol)


def test_resonant_quadruple_order_survives_rounding(star2_irrational):
    # equal gaps of the 2-star agree only to rounding; a 1e-14 change of mu
    # must leave the pair order in each quadruple and the list order alone
    mu = solve_spectrum(star2_irrational, 60).eigenvalues
    tol = 1e-10 * float(mu.max())
    noise = 1.0 + 1e-14 * np.random.default_rng(0).standard_normal(mu.size)
    pair1, pair2, _ = find_resonant_quadruples(mu, tol)
    got = list(zip(map(tuple, pair1.tolist()), map(tuple, pair2.tolist())))
    assert len(got) > 900 and got == sorted(got)
    assert all(p1 < p2 for p1, p2 in got)
    noisy1, noisy2, _ = find_resonant_quadruples(mu * noise, tol)
    assert noisy1.tobytes() == pair1.tobytes() and noisy2.tobytes() == pair2.tobytes()


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=4, max_size=14, unique=True),
       st.lists(st.sampled_from([0.0, 0.0, 0.5, -0.5, 2.0, -2.0]), min_size=14, max_size=14),
       st.sampled_from([2.0 ** -30, 2.0 ** -20, 2.0 ** -10, -(2.0 ** -20)]))
def test_gap_matcher_matches_reference_loop(ints, nudges, tol):
    # an integer lattice has many exactly equal gaps; nudging points by 0.5 and
    # 2 tolerances puts gap differences inside, outside and (all values being
    # dyadic, so every difference is exact) exactly at tol
    lattice = 0.375 * np.sort(np.array(ints, dtype=float))
    mu = lattice + tol * np.array(nudges[:len(ints)])
    assert_same_columns(find_resonant_quadruples(mu, tol), reference_columns(mu, tol))
    assert_same_columns(find_resonant_quadruples(lattice, tol), reference_columns(lattice, tol))
    labels = sorted(i + 1 for i in ints)
    mu_int = 0.375 * np.array(labels, dtype=float) ** 2
    assert_same_columns(find_resonant_quadruples(mu_int, tol, labels),
                        reference_columns(mu_int, tol, labels))


def test_gap_matcher_matches_reference_on_stars(star2_irrational, star3_equilateral):
    for graph, K in ((star2_irrational, 60), (star3_equilateral, 40), (star([1.0, 2.0, 3.0]), 40)):
        mu = solve_spectrum(graph, K).eigenvalues
        for rel in (1e-10, 1e-6):
            tol = rel * float(mu.max())
            got = find_resonant_quadruples(mu, tol)
            assert len(got[2]) > 300
            assert_same_columns(got, reference_columns(mu, tol))
    basis = explicit_subsystem("equilateral_star", 30, n_edges=3, length=1.0)
    mu, labels = basis.eigenvalues[:30], basis.int_labels[:30]
    got = find_resonant_quadruples(mu, 0.0, labels)
    assert len(got[2]) > 100
    assert_same_columns(got, reference_columns(mu, 0.0, labels))


def test_resonance_exact_integer_matching():
    basis = explicit_subsystem("equilateral_star", 8, n_edges=3, length=1.0)
    op = ControlOperator(per_edge={"e1": squared_shift_potential(1.0)})
    rep = analyze_coupling(op, basis, 8)
    # mu ~ k^2: e.g. 1 - 16 - 49 + 64 = 0 gives ((1,4),(7,8))
    quads = rep.resonant_quadruples
    combos = set(zip(map(tuple, quads["pair1"].tolist()), map(tuple, quads["pair2"].tolist())))
    assert ((1, 4), (7, 8)) in combos
    # every listed quadruple has a nonzero diagonal combination (order-one check)
    assert np.all(quads["diagonal_combination"] > 1e-12)


def test_analyze_coupling_memory_bound():
    # 213 376 resonant quadruples at K = 600: as Python tuples they peaked at 100.3 MiB,
    # as columns at about 24 MiB
    basis = solve_spectrum(interval(1.0), 600)
    op = ControlOperator(per_edge={"e1": np.array([0.0, 1.0])})
    tracemalloc.start()
    try:
        rep = analyze_coupling(op, basis, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20
    quads = rep.resonant_quadruples
    pair1, pair2, _ = reference_columns(basis.eigenvalues, 1e-10 * float(basis.eigenvalues.max()))
    assert len(pair1) == 213_376
    assert_same_columns((quads["pair1"], quads["pair2"]), (pair1, pair2))


def test_interval_linear_potential_no_low_resonance():
    basis = solve_spectrum(interval(1.0), 4)
    op = ControlOperator(per_edge={"e1": np.array([0.0, 1.0])})
    rep = analyze_coupling(op, basis, 4)
    # 1 - 4 - 9 + 16 != 0: no quadruple among the first four modes
    assert {name: col.shape for name, col in rep.resonant_quadruples.items()} == {
        "pair1": (0, 2), "pair2": (0, 2), "frequency_defect": (0,), "diagonal_combination": (0,)}


def test_equilateral_subsystem_decay_exponent():
    basis = explicit_subsystem("equilateral_star", 200, n_edges=3, length=1.0)
    op = ControlOperator(per_edge={"e1": squared_shift_potential(1.0)})
    rep = analyze_coupling(op, basis, 200)
    assert rep.decay_fit[0] == pytest.approx(-3.0, abs=0.35)
    assert rep.zero_elements == []


def test_decay_fit_stable_under_doubling():
    basis = explicit_subsystem("equilateral_star", 200, n_edges=3, length=1.0)
    op = ControlOperator(per_edge={"e1": squared_shift_potential(1.0)})
    e100 = analyze_coupling(op, basis, 100).decay_fit[0]
    e200 = analyze_coupling(op, basis, 200).decay_fit[0]
    assert abs(e200 - e100) < 0.15


# -- vertex compatibility -----------------------------------------------------

def test_degree6_potential_certified(star5_neumann):
    op = ControlOperator(per_edge={"e1": degree6_neumann_potential(1.0)})
    rep = check_vertex_compatibility(op, star5_neumann)
    assert rep.preserves_h2
    assert rep.vanishing_order >= 4
    assert rep.nk_class_sup >= 4.5
    assert rep.certified_d_max == pytest.approx(3.5)
    conds = dict(rep.conditions)
    assert conds["P'(0)=0 on e1 (Neumann external)"] == pytest.approx(0.0, abs=1e-12)


def test_quartic_dirichlet_certified():
    g = star([1.0, math.sqrt(2), math.sqrt(3)])
    op = ControlOperator(per_edge={"e1": np.array([1.0, -4.0, 6.0, -4.0, 1.0])})   # (x - 1)^4
    rep = check_vertex_compatibility(op, g)
    assert rep.preserves_h2
    assert rep.vanishing_order == 4
    assert rep.certified_d_max == pytest.approx(2.5)
    # P'(0) = -4 L^3 != 0 but externals are Dirichlet: no such condition emitted
    assert not any("Neumann external" in name for name, _ in rep.conditions)


def test_constant_potential_fails_center_condition(star3_equilateral):
    op = ControlOperator(per_edge={"e1": np.array([1.0])})
    rep = check_vertex_compatibility(op, star3_equilateral)
    assert not rep.preserves_h2
    assert rep.vanishing_order == 0


def test_matching_gaps_memory_bound(star2_irrational):
    # K = 1000 gives 499 500 gaps and 664 395 matches, 10.1 MiB of indices; with every
    # sorted and candidate-sized intermediate held to the end the peak was 4.4 times that
    mu = solve_spectrum(star2_irrational, 1000).eigenvalues
    gap = pair_gaps(mu)[2]
    tracemalloc.start()
    try:
        first, second = matching_gaps(gap, 1e-10 * float(mu.max()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.size == 664_395
    assert peak < 3.2 * (first.nbytes + second.nbytes)

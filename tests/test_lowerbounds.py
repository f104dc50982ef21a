import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphctrl.errors import ValidationError
from graphctrl.graph import BoundaryCondition as BC
from graphctrl.lowerbounds import (SecularProduct, build_secular_product, check_cos_lower_bound,
                                   diophantine_products, fit_derivative_bound, frac_distance,
                                   half_distance, mixed_product_sum, nearest_integer)
from graphctrl.spectrum import assemble_secular, solve_spectrum

from conftest import (assemble_secular_reference, derivative_at_root_reference,
                      envelope_reference, interval, mixed_product_sum_reference,
                      product_bound_reference, star)

PI = math.pi
SQRT2 = math.sqrt(2.0)


# -- secular products ---------------------------------------------------------

def test_interval_product_is_sine_with_unit_derivative():
    sp = build_secular_product(interval(1.0))
    xs = np.linspace(0.2, 12, 64)
    assert np.allclose(sp.value(xs), np.sin(xs), atol=1e-14)
    roots = PI * np.arange(1, 5)
    assert np.allclose(np.abs(sp.derivative(roots)), 1.0, atol=1e-14)


def test_two_star_product_closed_form(star2_irrational):
    sp = build_secular_product(star2_irrational)
    xs = np.linspace(0.1, 30, 200)
    assert np.allclose(sp.value(xs), np.sin((1 + SQRT2) * xs), atol=1e-12)
    basis = solve_spectrum(star2_irrational, 10)
    vals = np.abs(sp.derivative(basis.omegas))
    assert np.allclose(vals, 1 + SQRT2, atol=1e-9)


def test_mixed_interval_secular_has_correct_zeros():
    # D at 0, N at the far end modeled as a 2-star with one Neumann edge:
    # the bracket must combine cot and tan with opposite signs
    g = star([0.5, 0.5], bcs=[BC.DIRICHLET, BC.NEUMANN])
    sp = build_secular_product(g)
    xs = np.linspace(0.1, 20, 400)
    assert np.allclose(sp.value(xs), np.cos(xs), atol=1e-12)


def test_equilateral_star_degenerate_zeros(star3_equilateral):
    sp = build_secular_product(star3_equilateral)
    # double zeros at k pi: value and derivative both vanish
    ks = PI * np.arange(1, 4)
    assert np.max(np.abs(sp.value(ks))) < 1e-12
    assert np.max(np.abs(sp.derivative(ks))) < 1e-11
    basis = solve_spectrum(star3_equilateral, 30)
    with pytest.raises(ValidationError, match="not simple"):
        fit_derivative_bound(sp, basis)


def test_derivative_matches_finite_difference(star2_irrational):
    sp = build_secular_product(star2_irrational)
    for x in (0.7, 3.123, 11.04):
        fd = (sp.value(x + 1e-6) - sp.value(x - 1e-6)) / 2e-6
        assert abs(fd - sp.derivative(x)) < 1e-5 * max(1.0, abs(fd))


def test_derivative_at_root_shortcut(star2_irrational):
    sp = build_secular_product(star2_irrational)
    basis = solve_spectrum(star2_irrational, 20)
    direct = sp.derivative(basis.omegas)
    shortcut = sp.derivative_at_root(basis.omegas)
    assert np.max(np.abs(direct - shortcut)) < 1e-9 * np.max(np.abs(direct))


def test_product_bounded_by_edge_count(star5_neumann):
    sp = build_secular_product(star5_neumann)
    xs = np.linspace(0.0, 1000.0, 200001)
    assert np.max(np.abs(sp.value(xs))) <= sp.sup_bound + 1e-12


def test_complex_plane_growth_envelope(star2_irrational):
    # |G(z)| <= N exp(total_length |z|) on a coarse complex grid: every term
    # is a product of sin/cos factors each bounded by e^(L_j |z|)
    sp = build_secular_product(star2_irrational)
    total = float(sp.lengths.sum())
    rng = np.random.default_rng(9)
    zs = rng.uniform(-8, 8, size=60) + 1j * rng.uniform(-8, 8, size=60)
    for z in zs:
        val = sum(w * np.cos(z * sp.lengths[l])
                  * np.prod([np.sin(z * sp.lengths[j]) for j in range(2) if j != l])
                  for l, w in enumerate(sp.weights))
        assert abs(val) <= sp.sup_bound * math.exp(total * abs(z)) * (1 + 1e-12)


def assert_same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), \
        f"first difference at {np.flatnonzero(got.view(np.uint64) != ref.view(np.uint64))[:5]}"


# rational ratios among these make distance products vanish exactly
LENGTH_CHOICES = [0.5, 1.0, 1.5, 2.0, 3.0, SQRT2, math.sqrt(3.0), PI / 3, math.e]


@settings(max_examples=80)
@given(n=st.integers(2, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_secular_sums_match_reference_loops_bitwise(n, data, seed):
    """Every sum over l of products over j != l equals the old term-by-term loop
    bit for bit, at points where edge factors vanish exactly (x = +-0 on sine
    edges, integer distances in the diophantine products) and near their
    closed-form zeros."""
    lengths = np.array(data.draw(st.lists(st.sampled_from(LENGTH_CHOICES), min_size=n, max_size=n)))
    is_sin = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    weights = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    zeros = np.concatenate([(np.arange(1, 6) - (0.0 if s else 0.5)) * PI / L
                            for L, s in zip(lengths, is_sin)])
    away = np.concatenate([rng.uniform(-40.0, 40.0, int(rng.integers(300, 500))),
                           zeros, np.nextafter(zeros, np.inf), -zeros])
    x = np.concatenate([[0.0, -0.0], away])

    S, Sprime = assemble_secular(lengths, is_sin, weights)
    S_ref, Sprime_ref = assemble_secular_reference(lengths, is_sin, weights)
    assert_same_bits(S(x), S_ref(x))
    assert_same_bits(Sprime(x), Sprime_ref(x))
    sp = SecularProduct(lengths=lengths, is_sin=is_sin, weights=weights)
    assert_same_bits(sp.envelope(x), envelope_reference(lengths, is_sin, weights, x))
    # derivative_at_root divides by tau_l, so it is compared away from x = 0
    assert_same_bits(sp.derivative_at_root(away),
                     derivative_at_root_reference(lengths, is_sin, weights, away))
    i1 = [j for j in range(n) if not is_sin[j]]
    i2 = [j for j in range(n) if is_sin[j]]
    assert_same_bits(mixed_product_sum(lengths, i1, i2, x), mixed_product_sum_reference(lengths, i1, x))
    grid = np.abs(away)
    grid = grid[grid > 0.5 * PI * float(np.max(1.0 / lengths))]
    bound = diophantine_products(lengths, i1, i2, grid).product_bound
    assert_same_bits(bound, product_bound_reference(lengths, i1, grid))


def test_paired_weights():
    g = star([1.0, 1.0, SQRT2, SQRT2])
    sp = build_secular_product(g, pair_weights=True)
    assert sorted(sp.weights.tolist()) == [2.0, 2.0]
    assert sp.lengths.size == 2


# -- derivative bound fits ----------------------------------------------------

def test_interval_fit_flat(star2_irrational):
    basis = solve_spectrum(interval(1.0), 50)
    sp = build_secular_product(interval(1.0))
    fit = fit_derivative_bound(sp, basis)
    assert fit.dtilde == pytest.approx(0.0, abs=0.05)
    assert fit.constant == pytest.approx(1.0, rel=1e-6)


def test_two_star_fit(star2_irrational):
    basis = solve_spectrum(star2_irrational, 200)
    sp = build_secular_product(star2_irrational)
    fit = fit_derivative_bound(sp, basis)
    assert fit.dtilde == pytest.approx(0.0, abs=0.05)
    assert fit.constant == pytest.approx(1 + SQRT2, rel=1e-6)
    scaled = fit.values * np.arange(1, 201) ** 1.1
    assert scaled.min() > 0


def test_generic_three_star_fit_small_exponent():
    g = star([1.0, 2 ** (1 / 3), 5 ** (1 / 4)])
    basis = solve_spectrum(g, 200)
    sp = build_secular_product(g)
    fit = fit_derivative_bound(sp, basis)
    assert fit.dtilde < 0.5
    assert fit.constant > 0


# -- distance-to-integer toolkit ----------------------------------------------

def test_distance_definitions():
    assert frac_distance(3.25) == pytest.approx(0.25)
    assert frac_distance(-0.4) == pytest.approx(0.4)
    assert half_distance(0.25) == pytest.approx(0.25)
    assert nearest_integer(2.6) == 3.0
    xs = np.linspace(-7, 7, 1001)
    assert np.all(frac_distance(xs) <= 0.5 + 1e-15)


def test_sandwich_example_point():
    # 2 d(x) <= |cos(pi x)| <= pi d(x) at x = 0.25
    d = half_distance(0.25)
    c = abs(math.cos(PI * 0.25))
    assert 2 * d <= c <= PI * d
    assert d == pytest.approx(0.25)
    assert c == pytest.approx(0.7071067811865476)


def test_diophantine_report_irrational_pair():
    xg = np.linspace(2.0, 10000.0, 200001)
    rep = diophantine_products([1.0, SQRT2], [], [0, 1], xg)
    assert rep.sandwich_max_violation <= 5e-14  # pure rounding at cos-argument scale
    assert rep.ratio_infimum > 0
    assert rep.genuine_zero_points == []
    assert rep.scaled_infima[0.1] > 0


def test_diophantine_report_rational_pair_fails():
    xg = np.linspace(2.0, 60.0, 20001)
    rep = diophantine_products([1.0, 2.0], [], [0, 1], xg)
    assert len(rep.genuine_zero_points) > 0
    assert rep.genuine_zero_points[0] == pytest.approx(PI)


def test_diophantine_grid_domain_enforced():
    with pytest.raises(ValidationError, match="grid must lie above"):
        diophantine_products([1.0, SQRT2], [], [0, 1], np.linspace(0.1, 5, 11))


def test_mixed_product_sum_reduces_to_sine_products():
    # with i1 empty the sum reduces to sum_l prod_{j != l} |sin|
    xs = np.linspace(2.0, 9.0, 101)
    got = mixed_product_sum([1.0, SQRT2], [], [0, 1], xs)
    ref = np.abs(np.sin(SQRT2 * xs)) + np.abs(np.sin(xs))
    assert np.allclose(got, ref, atol=1e-14)


# -- cosine lower bound along secular roots ------------------------------------

def test_cos_bound_single_edge():
    rep = check_cos_lower_bound([1.0], 10)
    assert np.allclose(rep.roots, PI * np.arange(1, 11), rtol=1e-10)
    assert np.allclose(rep.per_root_min, 1.0, atol=1e-12)
    assert not rep.failed


def test_cos_bound_irrational_pair():
    rep = check_cos_lower_bound([1.0, SQRT2], 100)
    assert not rep.failed
    assert rep.scaled_min > 0
    assert rep.trend_slope > -0.5  # running minimum does not decay toward zero


def test_cos_bound_rational_pair_fails():
    rep = check_cos_lower_bound([1.0, 3.0], 50)
    assert rep.failed
    assert rep.per_root_min.min() < 1e-12

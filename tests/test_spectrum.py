import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphctrl import spectrum
from graphctrl.cli import EXIT_NUMERICAL, dispatch
from graphctrl.errors import NumericalError
from graphctrl.graph import BoundaryCondition as BC
from graphctrl.lowerbounds import build_secular_product, check_cos_lower_bound
from graphctrl.potentials import mode_overlap_integral
from graphctrl.spectrum import (_branch_modes, _simple_modes, common_vanishing_points,
                                edge_factors, explicit_subsystem, equilateral_dropped_modes,
                                solve_spectrum, star_roots, validate_spectral_hypotheses)

from conftest import (_edge_factors_reference, assert_fills_slots, bisect_brackets_reference,
                      branch_modes_reference, interlacing_slots, interval, star,
                      star_basis_reference)

SQRT2 = math.sqrt(2.0)
PI = math.pi


def bisect_oracle(f, a, b, iters=80):
    fa, fb = f(a), f(b)
    assert fa * fb < 0
    for _ in range(iters):
        m = 0.5 * (a + b)
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, f(m)
    return 0.5 * (a + b)


def gram(basis):
    """<phi_i, phi_j> summed edge by edge through mode_overlap_integral."""
    K = len(basis)
    G = np.zeros((K, K))
    for i in range(K):
        for j in range(K):
            G[i, j] = sum(basis.amplitudes[i, e] * basis.amplitudes[j, e]
                          * mode_overlap_integral(basis.omegas[i], sin, basis.omegas[j], sin, L)
                          for e, (L, sin) in enumerate(zip(basis.lengths, basis.is_sin)))
    return G


# -- secular functions -------------------------------------------------------

def test_two_star_first_root_bisection_oracle(star2_irrational):
    # independent oracle: bisect the raw assembled secular combination on (0, 3),
    # bracketing only the first of the two roots in that window
    f = lambda x: math.cos(x) * math.sin(SQRT2 * x) + math.cos(SQRT2 * x) * math.sin(x)
    root = bisect_oracle(f, 0.5, 1.5)
    assert abs(root - PI / (1 + SQRT2)) < 1e-12
    basis = solve_spectrum(star2_irrational, 1)
    assert abs(basis.omegas[0] - root) < 1e-12


@settings(max_examples=80)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_edge_factors_match_reference_bitwise(data, seed):
    """tau and sigma equal the edge-by-edge reference bit for bit, also at the
    closed-form zeros of tau (n pi / L on sin edges, (n - 1/2) pi / L on cos
    edges), next to them and at +-0."""
    n = data.draw(st.integers(1, 8))
    lengths = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    is_sin = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    zeros = np.concatenate([(np.arange(1, 6) - (0.0 if s else 0.5)) * PI / L
                            for L, s in zip(lengths, is_sin)])
    x = np.concatenate([[0.0, -0.0], rng.uniform(-60.0, 60.0, 200), zeros, -zeros,
                        np.nextafter(zeros, np.inf), np.nextafter(zeros, 0.0)])
    for point in (x, x[7]):         # a scalar point gives one row
        ref = _edge_factors_reference(lengths, is_sin, point)
        for g, r in zip(edge_factors(point, lengths, is_sin), ref):
            assert g.shape == (np.size(point), n) and g.tobytes() == r.tobytes()


D, N = BC.DIRICHLET, BC.NEUMANN


@pytest.mark.parametrize("make, expected", [
    (lambda: solve_spectrum(star([1.0, SQRT2, 1.7, 0.6], [D, N, D, N]), 12),
     [True, False, True, False]),
    (lambda: solve_spectrum(star([1.0, SQRT2, 1.7], [N, N, N]), 12), [False, False, False]),
    (lambda: solve_spectrum(interval(1.0, D, D), 5), [True]),
    (lambda: solve_spectrum(interval(1.0, D, N), 5), [True]),
    (lambda: solve_spectrum(interval(1.0, N, D), 5), [False]),
    (lambda: solve_spectrum(interval(1.0, N, N), 5), [False]),
    (lambda: explicit_subsystem("equilateral_star", 6, n_edges=4, length=1.0), [True] * 4),
    (lambda: explicit_subsystem("two_equal_edges", 6, length=1.0), [True] * 2),
    (lambda: explicit_subsystem("paired_star", 6, lengths=[1.0, SQRT2]), [True] * 4),
    (lambda: explicit_subsystem("loops", 6, lengths=[1.0, SQRT2, 2.0]), [True] * 3),
    (lambda: equilateral_dropped_modes(3, 5, 1.0), [True] * 5),
], ids=["star_DNDN", "star_NNN", "interval_DD", "interval_DN", "interval_ND", "interval_NN",
        "equilateral_star", "two_equal_edges", "paired_star", "loops", "dropped_modes"])
def test_every_basis_marks_its_dirichlet_edges_as_sin(make, expected):
    basis = make()
    assert basis.is_sin.dtype == bool
    assert basis.is_sin.tolist() == expected
    assert basis.amplitudes.shape[1] == len(expected)


# -- interval spectra ---------------------------------------------------------

def test_interval_dirichlet_spectrum():
    basis = solve_spectrum(interval(1.0), 5)
    assert np.allclose(basis.eigenvalues, [(k * PI) ** 2 for k in range(1, 6)], rtol=1e-14)


def test_interval_neumann_spectrum():
    basis = solve_spectrum(interval(1.0, BC.NEUMANN, BC.NEUMANN), 4)
    assert np.allclose(basis.eigenvalues, [0.0, PI**2, 4 * PI**2, 9 * PI**2], atol=1e-12)
    amp = basis.amplitudes[0, 0]
    assert abs(amp - 1.0) < 1e-14  # constant mode on unit length


def test_interval_mixed_spectrum():
    basis = solve_spectrum(interval(1.0, BC.DIRICHLET, BC.NEUMANN), 3)
    assert np.allclose(basis.eigenvalues, [((2 * k - 1) * PI / 2) ** 2 for k in range(1, 4)],
                       rtol=1e-14)


# -- star spectra -------------------------------------------------------------

def test_equilateral_star_spectrum(star3_equilateral):
    basis = solve_spectrum(star3_equilateral, 30)
    expected = sorted([(2 * k - 1) ** 2 * PI**2 / 4 for k in range(1, 11)]
                      + [k**2 * PI**2 for k in range(1, 11) for _ in range(2)])[:30]
    assert np.allclose(basis.eigenvalues, expected, rtol=1e-10)
    # the double levels carry multiplicity 2 and vanish at the center
    grouped = basis.multiplicity > 1
    assert grouped.sum() == 20
    assert np.all(basis.center_values[grouped] == 0.0)


def test_two_star_spectrum_progression(star2_irrational):
    # D-D 2-star: S = sin((L1 + L2) x), so omega_k = k pi / (L1 + L2) exactly
    basis = solve_spectrum(star2_irrational, 1000)
    exact = np.arange(1, 1001) * PI / (1 + SQRT2)
    assert np.max(np.abs(basis.omegas - exact) / exact) <= 1e-13


def test_neumann_star_includes_constant_mode(star5_neumann):
    basis = solve_spectrum(star5_neumann, 10)
    assert basis.eigenvalues[0] == 0.0
    amp = basis.amplitudes[0, 0]
    assert abs(amp - 1.0 / math.sqrt(float(basis.lengths.sum()))) < 1e-14


def test_secular_residual_at_roots(star2_irrational):
    basis = solve_spectrum(star2_irrational, 50)
    vals = np.abs(build_secular_product(star2_irrational).value(basis.omegas))
    assert vals.max() < 1e-10 * 2  # |S| <= N on the real axis


def test_orthonormality_gram(star3_equilateral):
    basis = solve_spectrum(star3_equilateral, 12)
    K = len(basis)
    G = gram(basis)
    assert np.max(np.abs(G - np.eye(K))) < 1e-9


def test_orthonormality_gram_neumann_star(star5_neumann):
    basis = solve_spectrum(star5_neumann, 10)
    K = len(basis)
    G = gram(basis)
    assert np.max(np.abs(G - np.eye(K))) < 1e-9


def test_vertex_conditions_hold(star5_neumann):
    basis = solve_spectrum(star5_neumann, 20)
    for w, amps in zip(basis.omegas[1:], basis.amplitudes[1:]):
        arg = w * basis.lengths
        vals = list(amps * np.where(basis.is_sin, np.sin(arg), np.cos(arg)))
        assert max(vals) - min(vals) < 1e-8 * max(1.0, abs(max(vals)))
        # Kirchhoff: for cos-modes the outgoing-derivative sum is omega * sum a sin(omega L)
        ksum = sum(a * math.sin(w * L) for a, L in zip(amps, basis.lengths))
        scale = sum(abs(a) for a in amps)
        assert abs(ksum) < 1e-8 * scale


def test_weyl_sandwich(star2_irrational):
    basis = solve_spectrum(star2_irrational, 200)
    c1, c2 = basis.weyl_report
    assert 0 < c1 <= c2 < math.inf
    ks = np.arange(2, 201)
    ratios = basis.eigenvalues[1:] / ks**2
    assert np.all(ratios >= c1 - 1e-12) and np.all(ratios <= c2 + 1e-12)


def test_near_equal_dirichlet_star_keeps_every_root():
    # four nearly equal edges: each cluster of edge-factor zeros holds three
    # roots, two of which a grid sign-scan misses
    lengths = [0.54134275, 0.54134158, 0.54134045, 0.54134294]
    basis = solve_spectrum(star(lengths), 200)
    assert np.allclose(basis.omegas[:4], [2.9016713, 5.8033327, 5.8033410, 5.8033540],
                       rtol=0, atol=6e-8)
    assert_fills_slots(basis.omegas, interlacing_slots(lengths, [True] * 4, 200))


@st.composite
def clustered_stars(draw):
    """3-6 edges with mixed ends, either nearly equal (relative spread >= 1e-7)
    or small integer multiples of one scale, detuned by multiples of >= 1e-7
    (equal detunings keep exactly shared zeros)."""
    n = draw(st.integers(3, 6))
    dirichlet = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    spread = 10.0 ** draw(st.floats(-7.0, -4.0))
    if draw(st.booleans()):
        base = draw(st.floats(0.3, 2.0))
        steps = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
        lengths = [base * (1.0 + spread * u) for u in steps]
    else:
        h = draw(st.floats(0.1, 0.4))
        ms = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        lengths = [h * m * (1.0 + spread * u) for m, u in zip(ms, steps)]
    return lengths, dirichlet


@settings(max_examples=60)
@given(clustered_stars())
def test_roots_fill_interlacing_slots(case):
    lengths, dirichlet = case
    K = 120
    basis = solve_spectrum(star(lengths, [BC.DIRICHLET if d else BC.NEUMANN for d in dirichlet]), K)
    assert_fills_slots(basis.omegas, interlacing_slots(lengths, dirichlet, K))
    rep = check_cos_lower_bound(lengths, K)
    assert_fills_slots(rep.roots, interlacing_slots(lengths, [False] * len(lengths), K,
                                                    distinct=True))


def test_generic_mixed_star_roots_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    lengths = [0.7 * math.sqrt(p) for p in (2, 3, 5, 7, 11)]
    dirichlet = [True, False, True, False, False]
    basis = solve_spectrum(star(lengths, [BC.DIRICHLET if d else BC.NEUMANN for d in dirichlet]), 200)
    slots = interlacing_slots(lengths, dirichlet, 200)

    def secular(x):
        # sum_l sigma_l prod_{j != l} tau_j: tau = sin, sigma = cos on Dirichlet
        # edges, tau = cos, sigma = -sin on Neumann edges
        tau = [mpmath.sin(x * L) if d else mpmath.cos(x * L) for L, d in zip(lengths, dirichlet)]
        sigma = [mpmath.cos(x * L) if d else -mpmath.sin(x * L) for L, d in zip(lengths, dirichlet)]
        return mpmath.fsum(sigma[l] * mpmath.fprod(tau[:l] + tau[l + 1:]) for l in range(len(tau)))

    with mpmath.workdps(30):
        for k in (1, 50, 100, 200):
            ref = mpmath.findroot(secular, mpmath.mpf(basis.omegas[k - 1]))
            a, b = slots[k - 1]
            assert a < ref < b
            assert abs(basis.omegas[k - 1] - float(ref)) <= 1e-15 * float(ref)

    # every root is within one relative ulp, 2^-52 x, of a 50-digit Newton step on M
    with mpmath.workdps(50):
        for w in basis.omegas:
            x = mpmath.mpf(float(w))
            tau = [mpmath.sin(x * L) if d else mpmath.cos(x * L) for L, d in zip(lengths, dirichlet)]
            sigma = [mpmath.cos(x * L) if d else -mpmath.sin(x * L) for L, d in zip(lengths, dirichlet)]
            step = (mpmath.fsum(s / t for s, t in zip(sigma, tau))
                    / mpmath.fsum(mpmath.mpf(L) / t**2 for L, t in zip(lengths, tau)))
            assert abs(step) <= 2.0**-52 * x


# -- Newton refinement of the brackets ----------------------------------------

@st.composite
def bracket_stars(draw):
    """2-6 edges with mixed ends: generic lengths, multiples h m of one scale
    (branch points) or nearly equal lengths (relative spread 1e-7 to 1e-4);
    a root count K and the distinct flag."""
    n = draw(st.integers(2, 6))
    dirichlet = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    family = draw(st.sampled_from(["generic", "commensurate", "near_equal"]))
    if family == "generic":
        lengths = draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n))
    elif family == "commensurate":
        h = draw(st.floats(0.15, 0.5))
        lengths = [h * m for m in draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))]
    else:
        base, spread = draw(st.floats(0.3, 2.0)), 10.0 ** draw(st.floats(-7.0, -4.0))
        steps = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
        lengths = [base * (1.0 + spread * u) for u in steps]
    return np.array(lengths), np.array(dirichlet), draw(st.integers(1, 300)), draw(st.booleans())


@settings(max_examples=120)
@given(bracket_stars())
def test_newton_roots_match_bisection_reference(case):
    """The Newton roots lie strictly inside their brackets and agree with the
    bisection reference on the same brackets to its 1e-13 max(1, x)."""
    lengths, is_sin, K, distinct = case
    seen = []

    def capture(lo, hi, lengths, is_sin):
        roots = newton(lo, hi, lengths, is_sin)
        seen.append((lo, hi, roots))
        return roots

    newton = spectrum._newton_brackets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_newton_brackets", capture)
        x, _, support = star_roots(lengths, is_sin, K, distinct=distinct)
    (lo, hi, roots), = seen
    ref = bisect_brackets_reference(lo, hi, lengths, is_sin)
    assert roots.shape == ref.shape == lo.shape
    assert x[~support.any(axis=1)].tolist() == roots.tolist()
    assert np.all((lo < roots) & (roots < hi))
    assert np.all(np.abs(roots - ref) <= 1e-13 * np.maximum(1.0, roots))


def test_newton_converges_in_few_passes(monkeypatch, star2_irrational, star5_neumann):
    # the bisection it replaced took about 44 passes at these sizes
    monkeypatch.setattr(spectrum, "_NEWTON_PASSES", 8)
    lengths, dirichlet, K = CUT_STAR
    for graph, modes in ((star2_irrational, 1000), (star5_neumann, 200),
                         (star(lengths, [BC.DIRICHLET if d else BC.NEUMANN for d in dirichlet]), K)):
        assert len(solve_spectrum(graph, modes)) == modes


def test_newton_pass_cap_raises(monkeypatch, star2_irrational, tmp_path, capsys):
    monkeypatch.setattr(spectrum, "_NEWTON_PASSES", 1)
    with pytest.raises(NumericalError, match=r"did not converge within 1 passes in the bracket \(0\.0, "):
        solve_spectrum(star2_irrational, 10)
    problem = Path(__file__).resolve().parents[1] / "sample_problems" / "star2_dirichlet.json"
    assert dispatch(["--out-dir", str(tmp_path / "o"), "spectrum", "--problem", str(problem)]) \
        == EXIT_NUMERICAL
    assert "did not converge" in capsys.readouterr().err


# -- the array basis against the mode-by-mode assembly -------------------------

@st.composite
def reference_stars(draw):
    """2-6 edges with mixed ends, generic lengths or multiples h m of one scale
    (branch points), and a mode count K."""
    n = draw(st.integers(2, 6))
    dirichlet = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n))
    else:
        h = draw(st.floats(0.2, 0.8))
        lengths = [h * m for m in draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))]
    return lengths, dirichlet, draw(st.integers(1, 200))


# K = 20 keeps one of the two modes of the branch point at 3 pi
CUT_STAR = ([1.0, 1.0, 2.0, 3.0], [True, True, True, False], 20)
# nine edges: np.sum adds eight or more terms in another order than a loop does
WIDE_STAR = ([0.7 * math.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)],
             [True, False] * 4 + [True], 80)


@settings(max_examples=200)
@given(reference_stars())
@example(CUT_STAR)
@example(WIDE_STAR)
def test_array_basis_matches_mode_by_mode_reference_bitwise(case):
    lengths, dirichlet, K = case
    graph = star(lengths, [BC.DIRICHLET if d else BC.NEUMANN for d in dirichlet])
    basis = solve_spectrum(graph, K)
    lams, amps, centers, multiplicity = star_basis_reference(graph, K)
    assert basis.eigenvalues.tobytes() == lams.tobytes()
    assert basis.amplitudes.tobytes() == amps.tobytes()
    assert basis.center_values.tobytes() == centers.tobytes()
    assert basis.multiplicity.tobytes() == multiplicity.astype(basis.multiplicity.dtype).tobytes()


def test_multiplicity_counts_kept_members_of_a_cut_branch_point():
    lengths, dirichlet, K = CUT_STAR
    graph = star(lengths, [BC.DIRICHLET if d else BC.NEUMANN for d in dirichlet])
    whole, cut = solve_spectrum(graph, K + 1), solve_spectrum(graph, K)
    assert whole.eigenvalues[K - 1] == whole.eigenvalues[K] == (3 * PI) ** 2
    assert list(whole.multiplicity[K - 2:]) == [1, 2, 2]
    assert list(cut.multiplicity[K - 2:]) == [1, 1]
    assert cut.center_values[K - 1] == 0.0


@settings(max_examples=100)
@given(n=st.integers(2, 6), h=st.floats(0.2, 0.8), data=st.data())
def test_batched_branch_modes_match_per_point_bitwise(n, h, data):
    """All branch points of one support in one call give the rows of
    branch_modes_reference and of one call per point, bit for bit.  The first
    two edges are equal, so some support exists; the others are multiples."""
    ms = data.draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
    dirichlet = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    lengths = np.array([h * m for m in [ms[0]] + ms])
    is_sin = np.array([dirichlet[0]] + dirichlet)
    groups = {}
    for x, support in common_vanishing_points(lengths, is_sin, 40.0 / h):
        groups.setdefault(tuple(support), []).append(x)
    assert groups
    for support, xs in groups.items():
        batch = _branch_modes(np.array(xs), lengths, is_sin, list(support))
        assert batch.shape == (len(xs), len(support) - 1, n)
        for x, rows in zip(xs, batch):
            ref = np.array(branch_modes_reference(x, lengths, is_sin, list(support)))
            alone = _branch_modes(np.array([x]), lengths, is_sin, list(support))[0]
            assert rows.tobytes() == ref.tobytes() == alone.tobytes()


def test_reports_are_none_below_two_modes(star2_irrational, star5_neumann):
    # no k >= 2: no Weyl ratio and no sqrt gap, rather than (nan, nan) and the
    # "no gap" (10, 0.0)
    for basis in (solve_spectrum(star2_irrational, 1), solve_spectrum(star5_neumann, 1),
                  solve_spectrum(interval(1.0), 1),
                  explicit_subsystem("loops", 1, lengths=[1.0])):
        assert basis.weyl_report is None and basis.gap_report is None
    two = solve_spectrum(star2_irrational, 2)
    assert two.weyl_report is not None and two.gap_report[0] == 1


def test_simple_modes_reject_a_vanishing_edge_factor():
    with pytest.raises(NumericalError, match="edge factor vanishes at x=0.0"):
        _simple_modes(np.array([1.0, 0.0]), np.array([1.0, 2.0]), np.array([True, False]))


# -- explicit subsystems ------------------------------------------------------

def test_equilateral_subsystem_matches_construction():
    basis = explicit_subsystem("equilateral_star", 6, n_edges=3, length=1.0)
    assert np.allclose(basis.eigenvalues, [k**2 * PI**2 / 4 for k in range(1, 7)], rtol=1e-14)
    g1 = basis.amplitudes[0]
    assert all(abs(a - math.sqrt(2 / 3)) < 1e-14 for a in g1)
    f1 = basis.amplitudes[1]
    assert abs(f1[0] + math.sqrt(4 / 3)) < 1e-14
    assert abs(f1[1] - math.sqrt(1 / 3)) < 1e-14


def test_equilateral_subsystem_orthonormal_n5():
    basis = explicit_subsystem("equilateral_star", 8, n_edges=5, length=0.7)
    K = len(basis)
    G = gram(basis)
    assert np.max(np.abs(G - np.eye(K))) < 1e-12


def test_two_equal_edges_subsystem():
    basis = explicit_subsystem("two_equal_edges", 4, length=1.0)
    assert np.allclose(basis.eigenvalues, [k**2 * PI**2 for k in range(1, 5)], rtol=1e-14)
    m1 = basis.amplitudes[0]
    assert m1[0] == -m1[1] == 1.0


def test_loops_family_gap():
    basis = explicit_subsystem("loops", 10, lengths=[1.0])
    assert basis.int_labels == list(range(1, 11))
    assert np.allclose(basis.eigenvalues, [4 * k**2 * PI**2 for k in range(1, 11)], rtol=1e-15)
    gaps = np.diff(basis.eigenvalues)
    assert abs(gaps.min() - 12 * PI**2) < 4 * np.finfo(float).eps * 12 * PI**2


def test_paired_star_subsystem():
    basis = explicit_subsystem("paired_star", 6, lengths=[1.0, SQRT2])
    mus = sorted([m**2 * PI**2 / L**2 for m in range(1, 5) for L in (1.0, SQRT2)])[:6]
    assert np.allclose(basis.eigenvalues, mus, rtol=1e-14)
    for m in basis.amplitudes:
        sup = [e for e, a in enumerate(m) if a != 0.0]
        assert len(sup) == 2 and sup[1] == sup[0] + 1
        assert m[sup[0]] == -m[sup[1]]


def test_dropped_family_vanishes_on_edge_one():
    for dm in equilateral_dropped_modes(3, 4, 1.0).amplitudes:
        assert dm[0] == 0.0
        assert abs(sum(dm)) < 1e-12


# -- hypothesis validation ----------------------------------------------------

def test_validate_equilateral_not_simple(star3_equilateral):
    basis = solve_spectrum(star3_equilateral, 30)
    rep = validate_spectral_hypotheses(basis)
    assert rep.simplicity is False


def test_validate_interval():
    basis = solve_spectrum(interval(1.0), 40)
    rep = validate_spectral_hypotheses(basis)
    assert rep.gap[0] == 1
    assert abs(rep.gap[1] - PI) < 1e-12
    assert abs(rep.weyl[0] - PI**2) < 1e-9 and abs(rep.weyl[1] - PI**2) < 1e-9


def test_validate_two_star(star2_irrational):
    basis = solve_spectrum(star2_irrational, 100)
    rep = validate_spectral_hypotheses(basis)
    assert rep.simplicity is True
    assert rep.gap[0] == 1
    assert abs(rep.gap[1] - PI / (1 + SQRT2)) < 1e-10

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from graphctrl import moment
from graphctrl.errors import NumericalError, ValidationError
from graphctrl.moment import (_apply_blocks, _centred_system, _congruence, _dd_blocks,
                              _gram_condition, _greedy_clusters, _half_blocks, _uncentred,
                              build_dd_system, build_partition, centred_inner, check_trace_bounds,
                              dd_matrix, estimate_gap_parameters, exp_inner, exponential_gram,
                              solve_moment, verify_biorthogonality)
from graphctrl.spectrum import solve_spectrum

from conftest import (apply_blocks_reference, centred_grams_reference, check_trace_bounds_reference,
                      congruence_reference, dd_blocks_reference, dd_matrix_reference,
                      exponential_gram_reference, greedy_clusters_reference, greedy_sizes_reference,
                      half_blocks_reference, moment_control_reference, signed_family, star,
                      unstack_blocks)

PI = math.pi
TWO_PI = 2 * math.pi


def paired_family(n, offset=0.3):
    """ceil(m/2) + offset on even m: gaps alternate offset / 1 - offset."""
    return np.array([(m + 1) // 2 + offset * (m % 2 == 0) for m in range(1, n + 1)], dtype=float)


def eps_pair_family(eps, K=64):
    """lambda = 2 pi {0, 1, 1 + eps, 2, 2 + eps, ...}: pairs closing in as eps -> 0."""
    values = [0.0] + [n + eps * (m % 2) for n in range(1, K) for m in range(2)]
    return TWO_PI * np.array(values[:K])


def random_targets(seed, K):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=K) + 1j * rng.normal(size=K)
    x[0] = x[0].real
    return x


# -- partitions ---------------------------------------------------------------

def test_partition_all_singletons():
    part = build_partition([1.0, 2.0, 3.0, 4.0], delta=0.5, M=1)
    assert part.sizes == [1, 1, 1, 1]


def test_partition_gap_comparison():
    part = build_partition([0.0, 0.4, 3.0, 3.3, 7.0], delta=1.0, M=3)
    assert part.sizes == [2, 2, 1]
    s, e = part.clusters[0]
    assert np.allclose(part.frequencies[s:e], [0.0, 0.4])


def test_partition_two_star_progression():
    step = PI / (1 + math.sqrt(2))
    freqs = step * np.arange(1, 21)
    part = build_partition(freqs, delta=step, M=1)
    assert all(s == 1 for s in part.sizes)


def test_partition_rejects_gap_violation():
    with pytest.raises(ValidationError, match="window gap violated"):
        build_partition([0.0, 0.1, 0.2, 10.0], delta=1.0, M=2)
    # a NaN delta passed every comparison, and build_dd_system then read frame
    # bounds (45.6, 21142.5) at T = 100 for this partition
    for delta in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValidationError, match="delta must be finite and positive"):
            build_partition([1.0, 1.1], delta, 3)


def test_partition_rejects_oversized_cluster():
    # valid window condition for M=3 but a greedy cluster of size 3 > M-1
    with pytest.raises(ValidationError, match="size 3"):
        build_partition([0.0, 0.3, 0.6, 1.8, 3.0, 4.2], delta=0.4, M=3)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=8), max_size=40),
       st.integers(min_value=1, max_value=8))
def test_greedy_clusters_match_scalar_loops(gaps, delta_units):
    # gaps and delta are multiples of 1/8, so gap == delta ties compare exactly
    freqs = np.cumsum([0.0] + gaps) / 8.0
    delta = delta_units / 8.0
    clusters = _greedy_clusters(freqs, delta)
    assert clusters == greedy_clusters_reference(freqs, delta)
    assert [e - s for s, e in clusters] == greedy_sizes_reference(freqs, delta)
    part = build_partition(freqs, delta, M=freqs.size + 1)
    assert part.clusters == clusters
    assert all(type(i) is int for c in part.clusters for i in c)


def shrinking_pairs(n_pairs):
    """Pairs at integer positions with gaps 1/sqrt(j+1): genuine clustering."""
    out = []
    for j in range(1, n_pairs + 1):
        out.extend([float(j), j + 1.0 / math.sqrt(j + 1.0)])
    return np.array(out)


def test_estimate_gap_parameters_on_shrinking_pairs():
    freqs = shrinking_pairs(30)
    delta, M = estimate_gap_parameters(freqs)
    part = build_partition(freqs, delta, M)
    # tiny pair gaps rule out M = 1; pairs must land in shared clusters
    assert M >= 3
    assert max(part.sizes) == 2


# -- divided differences ------------------------------------------------------

def test_dd_matrix_singleton():
    F = dd_matrix(np.array([2.5]))
    assert F.shape == (1, 1) and F[0, 0] == 1.0


def test_dd_matrix_pair_example():
    F = dd_matrix(np.array([0.0, 0.4]))
    assert np.allclose(F, [[1.0, -2.5], [0.0, 2.5]])
    assert np.sum(F * F) == pytest.approx(13.5)


@settings(max_examples=120)
@given(n=st.integers(1, 9), stacked=st.integers(1, 4), clustered=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_dd_matrix_matches_scalar_loops_bitwise(n, stacked, clustered, seed):
    # clustered: nodes 1e-7 ... 1e-3 apart around one centre (entries up to ~1e56);
    # spread: unsorted nodes over (-20, 20).  Each of the stacked clusters, batched
    # as (stacked, n) values, and the first one alone, as (1, n) and as (n,), must
    # give the scalar loops' block.
    rng = np.random.default_rng(seed)
    if clustered:
        centres = rng.uniform(-5.0, 5.0, (stacked, 1))
        V = centres + np.cumsum(10.0 ** rng.uniform(-7, -3, (stacked, n)), axis=1)
    else:
        V = rng.uniform(-20.0, 20.0, (stacked, n))
    batched = dd_matrix(V)
    assert batched.shape == (stacked, n, n)
    for v, F in zip(V, batched):
        assert F.tobytes() == dd_matrix_reference(v).tobytes()
    assert dd_matrix(V[:1]).tobytes() == dd_matrix(V[0]).tobytes() == batched[0].tobytes()


def test_dd_blocks_upper_triangular_invertible():
    freqs = paired_family(30)
    part = build_partition(freqs, 0.4, 3)
    system = build_dd_system(part, 1.2 * TWO_PI / 0.4)
    for F in unstack_blocks(system.blocks)[1]:
        assert np.allclose(F, np.triu(F))
        assert np.all(np.abs(np.diag(F)) > 0)
        assert np.isfinite(np.linalg.cond(F))


@settings(max_examples=80)
@given(M=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1), at_zero=st.booleans())
def test_stacked_blocks_match_per_cluster_references_bitwise(M, data, seed, at_zero):
    # clusters of sizes 1 .. M - 1 (singletons at M = 1), inner gaps below delta = 1
    # and outer gaps of at least M: the window condition holds and the greedy cut
    # gives back exactly these clusters; at_zero puts the first frequency at 0, as
    # for the shifted frequencies alpha of a moment solve
    sizes = data.draw(st.lists(st.integers(1, max(1, M - 1)), min_size=1, max_size=12))
    rng = np.random.default_rng(seed)
    gaps = np.concatenate([np.r_[rng.uniform(M, M + 3), rng.uniform(0.01, 0.9, s - 1)]
                           for s in sizes])[1:]
    freqs = np.concatenate([[0.0], np.cumsum(gaps)]) + (0.0 if at_zero else rng.uniform(-15, 5))
    labels = rng.integers(1, 40, freqs.size) * rng.choice([-1, 1], freqs.size)
    part = build_partition(freqs, 1.0, M, labels=labels)
    assert part.sizes == sizes
    T = 1.05 * TWO_PI

    stacks = _dd_blocks(part, T)
    assert [rows.shape[1] for rows, _ in stacks] == sorted(set(sizes))
    positions, blocks = dd_blocks_reference(part)
    got_positions, got_blocks = unstack_blocks(stacks)
    assert got_positions == positions
    assert [F.tobytes() for F in got_blocks] == [F.tobytes() for F in blocks]
    for got, (ref_positions, ref_blocks) in zip(_half_blocks(part, T), half_blocks_reference(part)):
        got_positions, got_blocks = unstack_blocks(got)
        assert got_positions == ref_positions
        assert [F.tobytes() for F in got_blocks] == [F.tobytes() for F in ref_blocks]

    n = freqs.size
    E = exponential_gram(freqs, T)
    for X in (rng.standard_normal(n), rng.standard_normal((n, 3)), E, E.real):
        for transpose in (False, True):
            assert (_apply_blocks(stacks, X, transpose).tobytes()
                    == apply_blocks_reference(positions, blocks, X, transpose).tobytes())
    for G in (E, E.real):
        assert _congruence(stacks, G).tobytes() == congruence_reference(positions, blocks, G).tobytes()

    system = build_dd_system(part, T)
    for dtilde in (0.0, 0.5, 1.3):
        assert (repr(check_trace_bounds(system, dtilde))
                == repr(check_trace_bounds_reference(part, blocks, dtilde)))


def test_partition_rejects_non_integral_labels():
    with pytest.raises(ValidationError, match="labels must be integers"):
        build_partition([1.0, 2.0, 3.0], delta=0.5, M=1, labels=[1.5, 2.7, 3.2])
    part = build_partition([1.0, 2.0, 3.0], delta=0.5, M=1, labels=[1.0, -2.0, 3.0])
    assert part.labels.tolist() == [1, -2, 3]
    with pytest.raises(ValidationError, match="expected 3 integers"):
        build_partition([1.0, 2.0, 3.0], delta=0.5, M=1, labels=[1, 2])


def test_partition_rejects_a_zero_label():
    # the trace bounds divide by |label|^(2(1 + d)): a label 0 used to pass here and
    # end in ZeroDivisionError in check_trace_bounds
    freqs = np.arange(-3.0, 5.0) + 0.5
    with pytest.raises(ValidationError, match="labels must be nonzero"):
        build_partition(freqs, delta=1.0, M=1, labels=np.arange(-3, 5))


def test_integer_lattice_orthogonal_frame():
    freqs = np.array(sorted(set(range(-5, 0)) | set(range(1, 6))), dtype=float)
    part = build_partition(freqs, delta=1.0, M=1,
                           labels=[k for k in range(-5, 6) if k != 0])
    system = build_dd_system(part, TWO_PI)
    lo, hi = system.frame_bounds
    assert lo == pytest.approx(TWO_PI, rel=1e-12)
    assert hi == pytest.approx(TWO_PI, rel=1e-12)


def test_dd_function_is_divided_difference():
    part = build_partition([0.0, 0.4], delta=1.0, M=3)
    system = build_dd_system(part, 8.0)
    t = np.linspace(0, 8, 17)
    xi = np.exp(1j * np.outer(t, part.frequencies)) @ system.weights     # column k is xi_k(t)
    assert np.allclose(xi[:, 1], 2.5 * (np.exp(1j * 0.4 * t) - 1.0), atol=1e-14)


def test_horizon_hypothesis_enforced():
    part = build_partition([0.0, 0.4, 3.0, 3.3, 7.0], delta=1.0, M=3)
    with pytest.raises(ValidationError, match="T > 2 pi / delta"):
        build_dd_system(part, 5.0)


def test_preconditioned_solve_enforces_horizon():
    # the shifted frequencies (0, 1.5, 3, 3.4) have the estimated (delta, M) = (1.133..., 3),
    # clusters {0}, {1.5}, {3, 3.4}, so the window needs T >= 2 pi / delta = 5.54
    lam = [0.0, 1.5, 3.0, 3.4]
    x = [1.0, 0.5j, 0.0, 0.25]
    part = build_partition(lam)
    assert (part.M, part.clusters) == (3, [(0, 1), (1, 2), (2, 4)])
    assert 5.0 < 2 * math.pi / part.delta < 8.0
    with pytest.raises(ValidationError, match="T > 2 pi / delta"):
        solve_moment(lam, x, 5.0, mode="dd_preconditioned")
    sol = solve_moment(lam, x, 8.0, mode="dd_preconditioned")
    assert sol.max_residual < 1e-10


def test_exp_inner_arrays_match_scalar_closed_form():
    omega = np.concatenate([np.linspace(-30.0, 30.0, 401), [0.0, 1e-300, -1e-9, 7e5]])
    got = exp_inner(omega, 1.7)
    ref = [complex(1.7) if w == 0.0 else (cmath.exp(1j * w * 1.7) - 1.0) / (1j * w)
           for w in omega.tolist()]
    assert got.shape == omega.shape and got.dtype == complex
    # the real part is sin(omega T) / omega bit for bit
    assert np.array_equal(got.real, np.array(ref).real)
    assert isinstance(exp_inner(0.25, 1.7), complex)
    assert exp_inner(0.0, 1.7) == 1.7


def test_exp_inner_and_centred_inner_match_mpmath():
    # at T = 2 the arguments omega T and omega T / 2 are exact, so both parts of
    # the closed forms are good to a few ulp everywhere: (1 - cos(omega T)) / omega
    # lost all its digits at omega = 1e-10
    T = 2.0
    omega = np.logspace(-12, 3, 301)
    omega = np.concatenate([-omega[::-1], omega])
    got, kernel = exp_inner(omega, T), centred_inner(omega, T)
    ulp = np.finfo(float).eps
    with mpmath.workdps(50):
        for w, g, k in zip(omega.tolist(), got.tolist(), kernel.tolist()):
            ref = (mpmath.expj(mpmath.mpf(w) * T) - 1) / (1j * mpmath.mpf(w))
            assert abs(g.real - ref.real) <= 4 * ulp * abs(ref.real), w
            assert abs(g.imag - ref.imag) <= 4 * ulp * abs(ref.imag), w
            centred = 2 * mpmath.sin(mpmath.mpf(w) * T / 2) / mpmath.mpf(w)
            assert abs(k - centred) <= 4 * ulp * abs(centred), w
    assert centred_inner(0.0, T) == T
    # S is even bit for bit, the imaginary part of exp_inner odd
    assert np.array_equal(kernel, kernel[::-1])
    assert np.array_equal(got.imag, -got.imag[::-1])


GRAM_FAMILIES = [
    (np.array([0.0]), 3.0),
    (np.array([0.0, 2.5]), 3.0),
    (eps_pair_family(1e-2) - eps_pair_family(1e-2)[0], 4.0),
    (eps_pair_family(1e-5) - eps_pair_family(1e-5)[0], 4.0),
    ((np.arange(1, 65) * PI) ** 2 - PI ** 2, 1.0),
]


@pytest.mark.parametrize("alpha, T", GRAM_FAMILIES, ids=["K1", "K2", "eps1e-2", "eps1e-5", "interval"])
def test_half_grid_grams_match_full_grid_bitwise(alpha, T):
    cos_gram, sin_gram = _centred_system(alpha, np.zeros(alpha.size, dtype=complex), T)[:2]
    ref_cos, ref_sin = centred_grams_reference(alpha, T)
    assert cos_gram.tobytes() == ref_cos.tobytes() and sin_gram.tobytes() == ref_sin.tobytes()
    freqs = alpha + 0.75
    assert exponential_gram(freqs, T).tobytes() == exponential_gram_reference(freqs, T).tobytes()


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=24, unique=True),
       st.floats(min_value=0.5, max_value=20.0))
def test_half_grid_grams_match_full_grid_bitwise_property(values, T):
    freqs = np.sort(values)
    E = exponential_gram(freqs, T)
    assert E.tobytes() == exponential_gram_reference(freqs, T).tobytes()
    alpha = np.abs(freqs - freqs[0])
    grams = _centred_system(alpha, np.zeros(alpha.size, dtype=complex), T)[:2]
    for got, ref in zip(grams, centred_grams_reference(alpha, T)):
        assert got.tobytes() == ref.tobytes()


def test_frame_lower_bound_stability():
    for K in (64, 128):
        freqs = paired_family(K)
        part = build_partition(freqs, 0.4, 3)
        system = build_dd_system(part, 1.2 * TWO_PI / 0.4)
        assert system.frame_bounds[0] > 0
    # the full stability comparison lives in the acceptance suite


# -- trace bounds -------------------------------------------------------------

def test_trace_singletons():
    part = build_partition([1.0, 2.0, 3.0], delta=0.5, M=1)
    system = build_dd_system(part, 3 * TWO_PI)
    rep = check_trace_bounds(system, dtilde=0.5)
    assert all(r[0] == pytest.approx(1.0) for r in rep.per_cluster)
    assert rep.sup_ratio <= 1.0 + 1e-12


def test_trace_pair_example():
    part = build_partition([0.0, 0.4], delta=1.0, M=3)
    system = build_dd_system(part, 8.0)
    rep = check_trace_bounds(system, dtilde=0.0)
    assert rep.per_cluster[0][0] == pytest.approx(13.5)
    # a NaN dtilde returned NaN ratios with an unchanged sup_ratio (1 ** nan == 1.0)
    system = build_dd_system(build_partition(paired_family(16), 0.4, 3), 1.2 * TWO_PI / 0.4)
    for dtilde in (-0.5, math.nan, math.inf):
        with pytest.raises(ValidationError, match="dtilde must be finite and >= 0"):
            check_trace_bounds(system, dtilde)


def test_theta_scale_ratio_controlled_by_sqrt_scale():
    # |theta_l - theta_k| >= min(|nu_l|,|nu_k|) |nu_l - nu_k| transfers the
    # trace growth with one power of min |nu| removed; check the off-diagonal
    # part of the trace on genuinely clustered (non-singleton) groups
    freqs = paired_family(60) + 4.0   # keep frequencies away from 0
    part = build_partition(freqs, 0.4, 3)
    system = build_dd_system(part, 1.2 * TWO_PI / 0.4)
    rep = check_trace_bounds(system, dtilde=0.5)
    checked = 0
    for c, ((tr, lab, _), (trt, _, _)) in enumerate(zip(rep.per_cluster, rep.theta_per_cluster)):
        s, e = part.clusters[c]
        if e - s < 2:
            continue
        min_nu = np.min(np.abs(part.frequencies[s:e]))
        # both blocks carry a unit [0, 0] entry; compare the gap-driven rest
        assert trt - 1 <= (tr - 1) / min_nu**2 * 1.5 + 1e-12
        checked += 1
    assert checked > 10


# -- moment problems ----------------------------------------------------------

def test_moment_dc_only():
    sol = solve_moment([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], TWO_PI)
    t = np.linspace(0, TWO_PI, 64)
    assert np.allclose(sol.control(t), 1.0 / TWO_PI, atol=1e-14)


def test_moment_single_cosine():
    sol = solve_moment([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], TWO_PI)
    t = np.linspace(0, TWO_PI, 64)
    assert np.allclose(sol.control(t), np.cos(t) / PI, atol=1e-13)
    assert sol.max_residual < 1e-13


def test_moment_interval_spectrum_quadrature_oracle():
    lam = [(k * PI) ** 2 for k in range(1, 9)]
    x = np.zeros(8, dtype=complex)
    x[2] = 1.0
    sol = solve_moment(lam, x, 1.0)
    assert sol.max_residual < 1e-9
    # independent check: dense Simpson quadrature of the sampled control
    t = np.linspace(0, 1.0, 2**16 + 1)
    u = sol.control(t)
    alpha = np.array(lam) - lam[0]
    for k in range(8):
        val = simpson(u * np.exp(1j * alpha[k] * t), x=t)
        assert abs(val - x[k]) < 1e-8


def test_moment_realness_mechanism():
    rng = np.random.default_rng(11)
    lam = [(k * PI) ** 2 for k in range(1, 7)]
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    x[0] = x[0].real
    sol = solve_moment(lam, x, 1.0, mode="dd_preconditioned")
    assert sol.imag_moment_defect < 1e-12
    # u is real, so its moments at -alpha_k are the conjugates of its moments at alpha_k
    t = np.linspace(0, 1.0, 2**15 + 1)
    u = sol.control(t)
    assert np.max(np.abs(u.imag)) == 0.0  # real dictionary representation
    for k in range(1, 6):
        val = simpson(u * np.exp(-1j * (lam[k] - lam[0]) * t), x=t)
        assert abs(val - np.conj(x[k])) < 1e-7


def test_moment_modes_agree():
    rng = np.random.default_rng(5)
    lam = [(k * PI) ** 2 for k in range(1, 9)]
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    x[0] = x[0].real
    s1 = solve_moment(lam, x, 1.0, mode="direct")
    s2 = solve_moment(lam, x, 1.0, mode="dd_preconditioned")
    assert s1.gram_condition < 1e6 and s2.gram_condition < 1e6
    t = np.linspace(0, 1.0, 512)
    u1, u2 = s1.control(t), s2.control(t)
    assert np.max(np.abs(u1 - u2)) < 1e-6 * max(1.0, np.max(np.abs(u1)))


@pytest.mark.parametrize("K", [40, 200])
@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_moment_control_is_the_dictionary_evaluator_bitwise(mode, K):
    lam = (np.arange(1, K + 1) * PI) ** 2
    sol = solve_moment(lam, random_targets(9, K), 1.0, mode=mode)
    t = np.linspace(0.0, 1.0, 1001)
    ref = moment_control_reference(lam - lam[0], sol.coefficients, t)
    assert sol.control(t).tobytes() == ref.tobytes()


def test_moment_requires_real_first_target():
    with pytest.raises(ValidationError, match="x_1 must be real"):
        solve_moment([0.0, 1.0], [1j, 0.0], TWO_PI)


def test_moment_rejects_duplicate_frequencies():
    with pytest.raises(ValidationError, match="strictly increasing"):
        solve_moment([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], TWO_PI)


def test_indefinite_gram_reads_infinite_condition():
    # rounding can leave a nearly singular Gram with lambda_min <= 0: that is
    # breakdown, whatever |lambda_max / lambda_min| is
    with pytest.raises(NumericalError, match="condition inf"):
        _gram_condition(np.diag([-1e-3, 1.0]))


def test_moment_condition_error_suggests_larger_horizon():
    lam = [0.0, 1e-4, 2e-4, 1.0]
    with pytest.raises(NumericalError, match="increase T"):
        solve_moment(lam, [0.0, 1.0, 0.0, 0.0], 2.0)


# -- biorthogonality ----------------------------------------------------------

def test_biorthogonal_orthogonal_family():
    freqs = np.array(sorted(set(range(-5, 0)) | set(range(1, 6))), dtype=float)
    part = build_partition(freqs, delta=1.0, M=1)
    system = build_dd_system(part, TWO_PI)
    dev1, dev2 = verify_biorthogonality(system)
    assert dev1 < 1e-12 and dev2 < 1e-12


def test_biorthogonal_two_cluster_system():
    part = build_partition([0.0, 0.4, 3.0, 3.3, 7.0], delta=1.0, M=3)
    system = build_dd_system(part, 20.0)
    dev1, dev2 = verify_biorthogonality(system)
    assert dev1 < 1e-8 and dev2 < 1e-8


# -- Gram algebra of the two solve modes -----------------------------------------

def real_rows(z):
    """The real moment equations from complex rows: Re of row 0, then Re and Im of each other."""
    out = np.empty((2 * len(z) - 1,) + z.shape[1:])
    out[0] = z[0].real
    out[1::2] = z[1:].real
    out[2::2] = z[1:].imag
    return out


def interleaved_gram(alpha, T):
    """The real Gram of {1, cos alpha_k t, sin alpha_k t} on (0, T), (2K - 1)^2, with the
    constant, then cos and sin of each alpha[1:], interleaved: the real rows of the
    dictionary's moments against e^{i alpha_k t}."""
    K = alpha.size
    inner = exp_inner(alpha[:, None] + signed_family(alpha), T)
    plus, minus = inner[:, K:], inner[:, K - 2::-1]
    moments = np.empty((K, 2 * K - 1), dtype=complex)
    moments[:, 0] = inner[:, K - 1]
    moments[:, 1::2] = 0.5 * (plus + minus)
    moments[:, 2::2] = (plus - minus) / 2j
    return real_rows(moments)


@pytest.mark.parametrize("lam, T", [
    ((np.arange(1, 65) * PI) ** 2, 1.0),
    (eps_pair_family(1e-3), 4.0),
    (np.cumsum(np.random.default_rng(4).uniform(0.5, 3.0, 40)), 7.0),
])
def test_direct_moment_matrix_is_symmetric_gram(lam, T):
    alpha = lam - lam[0]
    x = random_targets(8, len(lam))
    cos_gram, sin_gram, y, c, s = _centred_system(alpha, x, T)
    assert cos_gram.shape == (lam.size, lam.size) and sin_gram.shape == (lam.size - 1,) * 2
    for G in (cos_gram, sin_gram):
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G)[0] > 0
    # direct mode solves exactly these two Grams with numpy's solve
    sol = solve_moment(lam, x, T)
    a, b = np.linalg.solve(cos_gram, y.real), np.linalg.solve(sin_gram, y.imag[1:])
    assert sol.coefficients.tobytes() == _uncentred(a, b, c, s).tobytes()
    # the residuals of the two systems, rotated back by e^{i alpha_k T/2}
    centred = np.concatenate([[0.0], sin_gram @ b]) * 1j + cos_gram @ a - y
    assert np.array_equal(sol.residuals, centred * (c + 1j * s))
    # the centred Grams are the interleaved Gram rotated by an orthogonal map
    A = interleaved_gram(alpha, T)
    eigs = np.linalg.eigvalsh(A)
    assert sol.gram_condition == pytest.approx(eigs[-1] / eigs[0], rel=1e-10)
    ref = np.linalg.solve(A, real_rows(x))
    rel = np.linalg.norm(sol.coefficients - ref) / np.linalg.norm(ref)
    assert rel <= 10 * sol.gram_condition * np.finfo(float).eps


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_moment_one_and_two_frequencies(mode):
    # K = 1 has an empty sin Gram: the condition comes from the constant alone
    sol = solve_moment([3.0], [1.5], 7.0, mode=mode)
    assert sol.coefficients.tolist() == [1.5 / 7.0] and sol.control.terms == []
    assert sol.gram_condition == 1.0 and sol.max_residual == 0.0
    lam, x = np.array([1.0, 4.0]), np.array([1.0, 0.5 + 0.25j])
    sol = solve_moment(lam, x, 7.0, mode=mode)
    A = interleaved_gram(lam - lam[0], 7.0)
    ref = np.linalg.solve(A, real_rows(x))
    assert np.max(np.abs(sol.coefficients - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert sol.max_residual <= 1e-14
    if mode == "direct":
        eigs = np.linalg.eigvalsh(A)
        assert sol.gram_condition == pytest.approx(eigs[-1] / eigs[0], rel=1e-12)


def dense_dd_reference(system):
    """Frame bounds and biorthogonality deviations with the dense W = system.weights."""
    W = system.weights
    E = exponential_gram(system.partition.frequencies, system.horizon)
    G = W.T @ E @ W
    G = 0.5 * (G + G.conj().T)
    eigs = np.linalg.eigvalsh(G)
    n = G.shape[0]
    Ginv = np.linalg.inv(G)
    dev1 = np.max(np.abs(G @ Ginv - np.eye(n)))
    dev2 = np.max(np.abs(W @ ((W @ Ginv).conj().T @ E) - np.eye(n)))
    return G, (eigs[0], eigs[-1]), (dev1, dev2)


@pytest.mark.parametrize("freqs, delta, M, T", [
    ([0.0, 0.4, 3.0, 3.3, 7.0], 1.0, 3, 20.0),
    (paired_family(128), 0.4, 3, 1.2 * TWO_PI / 0.4),
    (paired_family(256, 0.27), 0.4, 3, 1.2 * TWO_PI / 0.4),
])
def test_block_applied_weights_match_dense_products(freqs, delta, M, T):
    part = build_partition(freqs, delta, M)
    system = build_dd_system(part, T)
    G, bounds, devs = dense_dd_reference(system)
    assert np.max(np.abs(system.gram - G)) <= 1e-13 * np.max(np.abs(G))
    assert system.frame_bounds == pytest.approx(bounds, rel=1e-12)
    assert np.max(np.abs(np.subtract(verify_biorthogonality(system), devs))) <= 1e-12


# Before the blocks were stacked, on the K = 256 clustered family and after one
# warm-up call, the system that build_dd_system returns held 1 071 096 traced
# bytes, and build_dd_system then verify_biorthogonality peaked at 6 340 408
# (tracemalloc, numpy 2).  The margins, 256 KiB and 450 KiB, cover allocator and
# numpy differences and stay below the 1 MiB of one more K x K complex array,
# kept on the system or alive at the peak.
DD_SYSTEM_KEPT_BOUND = 1_071_096 + 256 * 1024
DD_TRACEMALLOC_PEAK_BOUND = 6_340_408 + 450 * 1024


def test_dd_system_and_biorthogonality_memory():
    part = build_partition(paired_family(256), 0.4, 3)
    T = 1.2 * TWO_PI / 0.4
    verify_biorthogonality(build_dd_system(part, T))      # lazy imports and caches
    tracemalloc.start()
    try:
        system = build_dd_system(part, T)
        kept = tracemalloc.get_traced_memory()[0]
        verify_biorthogonality(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept <= DD_SYSTEM_KEPT_BOUND
    assert peak <= DD_TRACEMALLOC_PEAK_BOUND


def test_block_gram_of_signed_family_matches_dense():
    # the block congruence W^T G W on the Hermitian Gram G[p, q] = integral of
    # e^{i (s_p - s_q) t} of a signed family s, whose clusters lie on both sides of 0
    alpha = eps_pair_family(1e-2)
    signed = signed_family(alpha)
    part = build_partition(signed)
    blocks = _dd_blocks(part, 4.0)
    G = exp_inner(signed[:, None] + signed, 4.0)[:, ::-1]
    assert np.array_equal(G, G.conj().T)
    assert max(part.sizes) == 2
    W = build_dd_system(part, 4.0).weights
    dense = W.T @ G @ W
    assert np.max(np.abs(_congruence(blocks, G) - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_eps_pair_family_divided_differences_precondition(eps):
    lam, T = eps_pair_family(eps), 4.0
    x = random_targets(3, lam.size)
    direct = solve_moment(lam, x, T, mode="direct")
    dd = solve_moment(lam, x, T, mode="dd_preconditioned")
    assert dd.gram_condition < 100
    # two nearly equal exponentials per pair: the raw Gram degrades like eps^-2
    assert direct.gram_condition >= 0.05 * eps ** -2
    assert direct.max_residual <= 1e-8 and dd.max_residual <= 1e-8
    rel = np.linalg.norm(dd.coefficients - direct.coefficients) / np.linalg.norm(direct.coefficients)
    assert rel <= 10 * direct.gram_condition * np.finfo(float).eps
    if eps >= 1e-3:
        assert dd.imag_moment_defect <= 1e-10


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_residual_gate_raises_instead_of_returning(mode):
    # at eps = 1e-5 both Gram conditions pass the limit (8e8 and 2.3) but
    # neither solve meets 1e-8: that is a numerical failure, not a result
    lam = eps_pair_family(1e-5)
    with pytest.raises(NumericalError, match="moment residual"):
        solve_moment(lam, random_targets(3, lam.size), 4.0, mode=mode)


def dictionary_moment_row(ak, alphas, T):
    """The integrals over (0, T) of 1, then cos alpha_j t and sin alpha_j t for alpha_j in
    alphas, against e^{i ak t}, in mpmath at its working precision."""
    def inner(w):
        return mpmath.mpf(T) if w == 0 else (mpmath.expj(w * T) - 1) / (1j * w)
    row = [inner(ak)]
    for aj in alphas:
        plus, minus = inner(ak + aj), inner(ak - aj)
        row += [(plus + minus) / 2, (plus - minus) / 2j]
    return row


@pytest.fixture(scope="module")
def eps_pair_moments():
    """The eps = 1e-4 pair family (T = 4) and its dictionary moment matrix in 40-digit mpmath:
    row k holds the integrals over (0, T) of 1, cos alpha_j t and sin alpha_j t
    against e^{i alpha_k t}, at the floating-point alphas."""
    lam, T = eps_pair_family(1e-4), 4
    alpha = lam - lam[0]
    with mpmath.workdps(40):
        a = [mpmath.mpf(v) for v in alpha.tolist()]
        rows = [dictionary_moment_row(ak, a[1:], T) for ak in a]
    return lam, float(T), rows


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_eps_pair_true_residual_meets_gate(mode, eps_pair_moments):
    # the residual gate on moments computed in 40-digit arithmetic: the cancelling
    # form (1 - cos) / omega left about 9e-8 here
    lam, T, rows = eps_pair_moments
    for seed in range(1, 7):
        x = random_targets(seed, lam.size)
        sol = solve_moment(lam, x, T, mode=mode)
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(c) for c in sol.coefficients.tolist()]
            worst = max(abs(mpmath.fdot(row, coeffs) - mpmath.mpc(complex(xk)))
                        for row, xk in zip(rows, x.tolist()))
        assert float(worst) <= moment.RESIDUAL_LIMIT * max(1.0, np.max(np.abs(x))), seed


# -- the divided-difference mode on the two centred Grams ------------------------

def dense_half_weights(alpha, part):
    """W on the cos Gram and on the sin Gram, built entry by entry.

    A cluster's divided differences act on its cos indices k (the constant is
    cos 0 s) and on its sin indices k - 1; sin 0 s does not exist, so the sin
    block of the cluster holding alpha_0 = 0 takes its nonzero alphas only.
    """
    K = alpha.size
    W_cos, W_sin = np.zeros((K, K)), np.zeros((K - 1, K - 1))
    for s, e in part.clusters:
        ks = list(range(s, e))
        W_cos[np.ix_(ks, ks)] = dd_matrix(alpha[ks])
        nonzero = [k for k in ks if k > 0]
        if nonzero:
            index = [k - 1 for k in nonzero]
            W_sin[np.ix_(index, index)] = dd_matrix(alpha[nonzero])
    return W_cos, W_sin


@pytest.mark.parametrize("alpha, delta, M, T, zero_size", [
    (eps_pair_family(1e-2), None, None, 4.0, 1),
    (np.array([0.0, 0.3, 3.0, 3.4, 7.0]), 1.0, 3, 8.0, 2),
    (np.array([0.0, 0.3, 0.7, 5.0, 5.4, 9.0, 9.2]), 1.0, 4, 8.0, 3),
    ((np.arange(1, 65) * PI) ** 2 - PI ** 2, None, None, 1.0, 3),
])
def test_dictionary_blocks_match_dense_weights(alpha, delta, M, T, zero_size):
    part = build_partition(alpha, delta, M)
    assert part.sizes[0] == zero_size
    grams = _centred_system(alpha, np.zeros(alpha.size, dtype=complex), T)[:2]
    halves = _half_blocks(part, T)
    for G, W, blocks in zip(grams, dense_half_weights(alpha, part), halves):
        assert sorted(np.concatenate([rows.ravel() for rows, _ in blocks])) == list(range(G.shape[0]))
        dense = W.T @ G @ W
        got = _congruence(blocks, G)
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def two_star_frequencies(K):
    return solve_spectrum(star([1.0, math.sqrt(2.0)]), K).eigenvalues[:K]


@pytest.mark.parametrize("family", ["interval", "star2"])
def test_dd_mode_is_real_and_agrees_with_direct(family):
    K = 64
    if family == "interval":
        lam, T = (np.arange(1, K + 1) * PI) ** 2, 1.0
    else:
        lam = two_star_frequencies(K)
        T = 1.5 * TWO_PI / float(np.min(np.diff(lam)))
    x = random_targets(7, K)
    direct = solve_moment(lam, x, T, mode="direct")
    dd = solve_moment(lam, x, T, mode="dd_preconditioned")
    assert direct.imag_moment_defect == 0.0 and dd.imag_moment_defect == 0.0
    assert dd.coefficients.dtype == float and ([t[:2] for t in dd.control.terms]
                                               == [t[:2] for t in direct.control.terms])
    rel = np.max(np.abs(dd.coefficients - direct.coefficients)) / np.max(np.abs(direct.coefficients))
    assert rel <= 1e-12
    assert dd.max_residual <= 1e-12 * np.max(np.abs(x))
    assert dd.gram_condition < 200


def test_dd_mode_builds_no_signed_family_matrix(monkeypatch):
    # the only integrals are one centred-kernel call on the j >= k half of the (K, 2K - 1)
    # grid: S(alpha_k + alpha_j) and S(alpha_k - alpha_j) at the K (K + 1) / 2 pairs
    calls = []

    def recording(name, fn):
        def wrapper(omega, T):
            calls.append((name, np.shape(omega)))
            return fn(omega, T)
        return wrapper

    monkeypatch.setattr(moment, "centred_inner", recording("centred_inner", centred_inner))
    monkeypatch.setattr(moment, "exp_inner", recording("exp_inner", exp_inner))
    K = 32
    solve_moment((np.arange(1, K + 1) * PI) ** 2, random_targets(2, K), 1.0,
                 mode="dd_preconditioned")
    assert calls == [("centred_inner", (2, K * (K + 1) // 2))]


@pytest.mark.parametrize("lam, x, message", [
    ([1.0, math.nan, 9.0], [1.0, 0.0, 0.0], r"lambdas\[1\] = nan"),
    ([1.0, 4.0, math.inf], [1.0, 0.0, 0.0], r"lambdas\[2\] = inf"),
    ([1.0, 4.0, 9.0], [1.0, complex(0.5, math.nan), 0.0], r"x\[1\]"),
    ([1.0, 4.0, 9.0], [1.0, 0.0, complex(-math.inf, 0.0)], r"x\[2\]"),
    ([-math.inf, 4.0, math.nan], [math.nan, 0.0], r"lambdas\[0\] = -inf"),
    ([1.0, 4.0], [1.0, math.nan, 0.0, 0.0], r"x\[1\]"),
], ids=["lambda_nan", "lambda_inf", "target_nan", "target_inf", "first_bad_index",
        "before_length_check"])
@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_non_finite_input_rejected_first(lam, x, message, mode):
    # a nan frequency ended in LinAlgError; a nan target in a residual-gate NumericalError
    with pytest.raises(ValidationError, match=message + ".* is not finite"):
        solve_moment(lam, x, TWO_PI, mode=mode)


# -- no size cap ---------------------------------------------------------------------

# The K = 1000 solves below peaked at 6.26 * 8 K^2 traced bytes in both modes (one
# BLAS thread, tracemalloc, numpy 2): memory grows as K^2 and with nothing else.
SOLVE_PEAK_PER_8K2 = 7


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_moment_solve_above_512_meets_gate_in_bounded_memory(mode):
    # the interval family (k pi)^2 at T = 1; sizes above 512 used to be refused
    K, T = 1000, 1.0
    lam = (np.arange(1, K + 1) * PI) ** 2
    x = random_targets(5, K)
    solve_moment(lam[:8], x[:8], T, mode=mode)            # lazy imports and caches
    tracemalloc.start()
    try:
        sol = solve_moment(lam, x, T, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SOLVE_PEAK_PER_8K2 * 8 * K * K
    assert sol.gram_condition < 1e3                        # 2.17 direct, 98.1 dd
    # the true residual of the returned coefficients in 30-digit arithmetic: it read
    # 5.1e-15 at most, four orders inside the gate of 3.5e-8
    alpha = lam - lam[0]
    with mpmath.workdps(30):
        a = [mpmath.mpf(v) for v in alpha.tolist()]
        coeffs = [mpmath.mpf(c) for c in sol.coefficients.tolist()]
        for k in (0, 1, 500, K - 1):
            row = dictionary_moment_row(a[k], a[1:], T)
            true = abs(mpmath.fdot(row, coeffs) - mpmath.mpc(complex(x[k])))
            assert float(true) <= 1e-12, k


def test_biorthogonality_above_256_functions():
    # the clustered pair family at K = 512; checks above 256 functions used to be refused
    part = build_partition(paired_family(512), 0.4, 3)
    dev1, dev2 = verify_biorthogonality(build_dd_system(part, 1.05 * TWO_PI / 0.4))
    assert dev1 < 1e-12 and dev2 < 1e-12

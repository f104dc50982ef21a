import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from graphctrl import moment
from graphctrl.errors import NumericalError, ValidationError
from graphctrl.moment import (_congruence, _dd_blocks, _dictionary_blocks, _gram_condition,
                              _greedy_clusters, _moment_matrix, _real_rows, _signed,
                              build_dd_system, build_partition, check_trace_bounds, dd_matrix,
                              estimate_gap_parameters, exp_inner, exponential_gram, solve_moment,
                              verify_biorthogonality)
from graphctrl.spectrum import solve_spectrum

from conftest import (dd_matrix_reference, greedy_clusters_reference, greedy_sizes_reference,
                      moment_control_reference, star)

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
    assert np.allclose(part.cluster_values(0), [0.0, 0.4])


def test_partition_two_star_progression():
    step = PI / (1 + math.sqrt(2))
    freqs = step * np.arange(1, 21)
    part = build_partition(freqs, delta=step, M=1)
    assert all(s == 1 for s in part.sizes)


def test_partition_rejects_gap_violation():
    with pytest.raises(ValidationError, match="window gap violated"):
        build_partition([0.0, 0.1, 0.2, 10.0], delta=1.0, M=2)


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
@given(n=st.integers(1, 9), clustered=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dd_matrix_matches_scalar_loops_bitwise(n, clustered, seed):
    # clustered: nodes 1e-7 ... 1e-3 apart around one centre (entries up to ~1e56);
    # spread: unsorted nodes over (-20, 20)
    rng = np.random.default_rng(seed)
    if clustered:
        v = rng.uniform(-5.0, 5.0) + np.cumsum(10.0 ** rng.uniform(-7, -3, n))
    else:
        v = rng.uniform(-20.0, 20.0, n)
    assert dd_matrix(v).tobytes() == dd_matrix_reference(v).tobytes()


def test_dd_blocks_upper_triangular_invertible():
    freqs = paired_family(30)
    part = build_partition(freqs, 0.4, 3)
    system = build_dd_system(part, 1.2 * TWO_PI / 0.4)
    for F in system.blocks:
        assert np.allclose(F, np.triu(F))
        assert np.all(np.abs(np.diag(F)) > 0)
        assert np.isfinite(np.linalg.cond(F))


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
    xi = system.dd_function(1)
    t = np.linspace(0, 8, 17)
    assert np.allclose(xi(t), 2.5 * (np.exp(1j * 0.4 * t) - 1.0), atol=1e-14)


def test_horizon_hypothesis_enforced():
    part = build_partition([0.0, 0.4, 3.0, 3.3, 7.0], delta=1.0, M=3)
    with pytest.raises(ValidationError, match="T > 2 pi / delta"):
        build_dd_system(part, 5.0)


def test_preconditioned_solve_enforces_horizon():
    # the shifted frequencies (0, 1.5, 3, 3.4) cluster as {0}, {1.5}, {3, 3.4} for delta = 1,
    # M = 3, so the window needs T >= 2 pi
    lam = [0.0, 1.5, 3.0, 3.4]
    x = [1.0, 0.5j, 0.0, 0.25]
    with pytest.raises(ValidationError, match="T > 2 pi / delta"):
        solve_moment(lam, x, 5.0, mode="dd_preconditioned", delta=1.0, M=3)
    sol = solve_moment(lam, x, 8.0, mode="dd_preconditioned", delta=1.0, M=3)
    assert sol.max_residual < 1e-10


def test_exp_inner_arrays_match_scalar_closed_form():
    omega = np.concatenate([np.linspace(-30.0, 30.0, 401), [0.0, 1e-300, -1e-9, 7e5]])
    got = exp_inner(omega, 1.7)
    ref = [complex(1.7) if w == 0.0 else (cmath.exp(1j * w * 1.7) - 1.0) / (1j * w)
           for w in omega.tolist()]
    assert got.shape == omega.shape and got.dtype == complex
    assert np.array_equal(got, np.array(ref))
    assert isinstance(exp_inner(0.25, 1.7), complex)
    assert exp_inner(0.0, 1.7) == 1.7


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

@pytest.mark.parametrize("lam, T", [
    ((np.arange(1, 65) * PI) ** 2, 1.0),
    (eps_pair_family(1e-3), 4.0),
    (np.cumsum(np.random.default_rng(4).uniform(0.5, 3.0, 40)), 7.0),
])
def test_direct_moment_matrix_is_symmetric_gram(lam, T):
    alpha = lam - lam[0]
    moments = _moment_matrix(exp_inner(alpha[:, None] + _signed(alpha), T))
    A = _real_rows(moments)
    assert np.array_equal(A, A.T)
    assert np.linalg.eigvalsh(A)[0] > 0
    # direct mode solves exactly this matrix with numpy's solve
    x = random_targets(8, len(lam))
    sol = solve_moment(lam, x, T)
    assert sol.coefficients.tobytes() == np.linalg.solve(A, _real_rows(x)).tobytes()
    assert np.array_equal(sol.residuals, moments @ sol.coefficients - x)


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


def test_block_gram_of_signed_family_matches_dense():
    # the block congruence W^T G W on the Hermitian Gram G[p, q] = integral of
    # e^{i (s_p - s_q) t} of a signed family s, whose clusters lie on both sides of 0
    alpha = eps_pair_family(1e-2)
    signed = _signed(alpha)
    part = build_partition(signed)
    blocks = _dd_blocks(part, 4.0)
    G = exp_inner(signed[:, None] + signed, 4.0)[:, ::-1]
    assert np.array_equal(G, G.conj().T)
    assert max(part.sizes) == 2
    W = build_dd_system(part, 4.0).weights
    dense = W.T @ G @ W
    assert np.max(np.abs(_congruence(part.positions, blocks, G) - dense)) <= 1e-13 * np.max(np.abs(dense))


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
    # at eps = 1e-5 both Gram conditions pass the limit (8e8 and 22) but
    # neither solve meets 1e-8: that is a numerical failure, not a result
    lam = eps_pair_family(1e-5)
    with pytest.raises(NumericalError, match="moment residual"):
        solve_moment(lam, random_targets(3, lam.size), 4.0, mode=mode)


# -- the divided-difference mode on the real dictionary --------------------------

def dense_dictionary_weights(alpha, part):
    """W on the dictionary {1, cos alpha_k t, sin alpha_k t}, built entry by entry.

    A cluster's divided differences act on its cos columns (the constant is
    cos 0 t) and on its sin columns; sin 0 t does not exist, so the sin
    columns of the cluster holding alpha_0 = 0 take its nonzero alphas only.
    """
    n = 2 * alpha.size - 1
    cos = [0] + list(range(1, n, 2))
    sin = [None] + list(range(2, n, 2))
    W = np.zeros((n, n))
    for s, e in part.clusters:
        ks = list(range(s, e))
        nonzero = [k for k in ks if k > 0]
        for index, nodes in (([cos[k] for k in ks], ks), ([sin[k] for k in nonzero], nonzero)):
            if nodes:
                W[np.ix_(index, index)] = dd_matrix(alpha[nodes])
    return W


@pytest.mark.parametrize("alpha, delta, M, T, zero_size", [
    (eps_pair_family(1e-2), None, None, 4.0, 1),
    (np.array([0.0, 0.3, 3.0, 3.4, 7.0]), 1.0, 3, 8.0, 2),
    (np.array([0.0, 0.3, 0.7, 5.0, 5.4, 9.0, 9.2]), 1.0, 4, 8.0, 3),
    ((np.arange(1, 65) * PI) ** 2 - PI ** 2, None, None, 1.0, 3),
])
def test_dictionary_blocks_match_dense_weights(alpha, delta, M, T, zero_size):
    part = build_partition(alpha, delta, M)
    assert part.sizes[0] == zero_size
    A = _real_rows(_moment_matrix(exp_inner(alpha[:, None] + _signed(alpha), T)))
    W = dense_dictionary_weights(alpha, part)
    dense = W.T @ A @ W
    positions, blocks = _dictionary_blocks(part, T)
    assert sorted(np.concatenate(positions).tolist()) == list(range(A.shape[0]))
    got = _congruence(positions, blocks, A)
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
    # the only exponential integrals are the K x (2K - 1) moments of the real dictionary
    shapes = []

    def recording(omega, T):
        shapes.append(np.shape(omega))
        return exp_inner(omega, T)

    monkeypatch.setattr(moment, "exp_inner", recording)
    K = 32
    solve_moment((np.arange(1, K + 1) * PI) ** 2, random_targets(2, K), 1.0,
                 mode="dd_preconditioned")
    assert shapes == [(K, 2 * K - 1)]


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

import dataclasses
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphctrl import dynamics
from graphctrl.dynamics import (GalerkinSystem, SampledControl, TrigControl, _free_step, _kick_steps, _period_map, _polar_unitary,
                                _propagate_periodic, _split_evolve, _step_matrices,
                                admissible_pairs, choose_step_count, first_order_prediction, lie_closure,
                                linearized_response, propagate, propagate_reversed,
                                resonant_pulse, resonant_transfer, subsystem_transfer_demo)
from graphctrl.errors import NumericalError, ValidationError
from graphctrl.graph import load_problem
from graphctrl.moment import solve_moment
from graphctrl.potentials import (ControlOperator, analyze_coupling, build_matrix,
                                  coupling_block, squared_shift_potential)
from graphctrl.spectrum import equilateral_dropped_modes, explicit_subsystem, solve_spectrum

from conftest import (admissible_pairs_reference, closure_by_components, dense_step_count,
                      interval, lie_closure_reference, sampled_moment_integral_reference, star,
                      transfer_colliders_reference, trig_moment_integral_reference)

PI = math.pi
SAMPLES = Path(__file__).resolve().parents[1] / "sample_problems"


def interval_system(K=8):
    basis = solve_spectrum(interval(1.0), K)
    op = ControlOperator(per_edge={"e1": np.array([0.0, 1.0])})  # B = x
    return GalerkinSystem(lam=basis.eigenvalues, B=build_matrix(op, basis))


def two_level(delta=1.0):
    return GalerkinSystem(lam=np.array([0.0, delta]), B=np.array([[0.0, 1.0], [1.0, 0.0]]))


# -- propagation --------------------------------------------------------------

def test_free_evolution_is_diagonal():
    sys8 = interval_system()
    rng = np.random.default_rng(1)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    u = TrigControl(horizon=0.7)
    traj = propagate(sys8, psi0, u, n_steps=64)
    expected = np.exp(-1j * sys8.lam * 0.7) * psi0
    assert np.max(np.abs(traj.final - expected)) < 1e-12


def test_unitarity_random_control():
    sys8 = interval_system()
    rng = np.random.default_rng(2)
    u = SampledControl(samples=rng.normal(scale=0.5, size=200), dt=0.005)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    traj = propagate(sys8, psi0, u, n_steps=2000)
    assert traj.norm_drift < 1e-10


def test_rabi_profile_against_dense_reference():
    sys2 = two_level()
    eps = 0.01
    T = 200.0
    u = resonant_pulse(eps, 1.0, T)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    ref = propagate(sys2, psi0, u, n_steps=200000)  # fixed-step oracle, 10x the finer grid
    # the default run takes the periodic path (1024 steps per period)
    periodic = propagate(sys2, psi0, u)
    assert periodic.period_steps == 1024
    assert np.max(np.abs(periodic.final - ref.final)) < 1e-7
    # an explicit step count runs the fixed grid, with second-order error
    errs = [np.max(np.abs(propagate(sys2, psi0, u, n_steps=n).final - ref.final))
            for n in (20000, 40000)]
    assert 3.5 < errs[0] / errs[1] < 4.5
    # rotating-wave profile sin^2(eps t / 2) within O(eps)
    pop = abs(periodic.final[1]) ** 2
    assert abs(pop - math.sin(eps * T / 2) ** 2) < 10 * eps


def test_constant_control_against_exact_exponential():
    sys8 = interval_system()
    c = 0.05
    w, v = np.linalg.eigh(np.diag(sys8.lam) + c * sys8.B)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    exact = v @ (np.exp(-1j * w) * (v.T @ psi0))
    u = TrigControl(horizon=1.0, const=c)
    errs = {n: np.max(np.abs(propagate(sys8, psi0, u, n_steps=n).final - exact))
            for n in (512, 1024, 2048, 4096)}
    assert errs[4096] < 2e-9
    # Lambda and B do not commute, so the splitting error is second order, not zero
    assert 3.9 < errs[512] / errs[1024] < 4.1
    assert 3.9 < errs[1024] / errs[2048] < 4.1


def test_periodic_path_matches_fixed_steps():
    sys8 = interval_system()
    u = TrigControl(horizon=3.0, terms=[(3 * PI**2, "cos", 0.05)])   # about 14 periods
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    periodic = propagate(sys8, psi0, u)
    assert periodic.period_steps == 1024
    fixed = propagate(sys8, psi0, u, n_steps=200000)
    assert fixed.period_steps is None
    assert np.max(np.abs(periodic.final - fixed.final)) <= 1e-7


@pytest.mark.parametrize("const, terms, t0_periods", [
    (0.0, [(3 * PI**2, "sin", 0.05)], 0.25),
    (0.02, [(3 * PI**2, "cos", -0.03), (-3 * PI**2, "sin", 0.04)], None),
], ids=["sine", "mixed"])
def test_shifted_periodic_window_matches_fixed_steps(const, terms, t0_periods):
    # the period window starts at even_time, where u is even; the lead-in before it is stepped
    sys8 = interval_system()
    u = TrigControl(horizon=3.0, const=const, terms=terms)
    P, t0 = u.period, u.even_time
    assert 0 < t0 < P / 2
    if t0_periods is not None:
        assert t0 == pytest.approx(t0_periods * P, rel=1e-14)
    s = np.random.default_rng(7).uniform(0, P, 50)
    assert np.max(np.abs(u(t0 + s) - u(t0 - s))) < 1e-15
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    periodic = propagate(sys8, psi0, u)
    assert periodic.period_steps == 1024
    assert periodic.times[-1] == 3.0
    whole = (periodic.times[1:-1] - t0) / P
    assert np.max(np.abs(whole - np.round(whole))) < 1e-12
    fixed = propagate(sys8, psi0, u, n_steps=200000)
    assert np.max(np.abs(periodic.final - fixed.final)) <= 1e-7


def test_step_doubling_error_on_the_periodic_path():
    # a transfer pulse of about 2 020 periods: the estimate compares period maps
    # of 1024 and 512 steps, the reference error is against maps of 4096 steps
    _, system = sample_system("star2_dirichlet", 30)
    amplitude = 0.02
    u = resonant_pulse(amplitude, system.lam[1] - system.lam[0],
                       PI / (amplitude * abs(system.B[0, 1])))
    psi0 = np.zeros(30, dtype=complex)
    psi0[0] = 1.0
    traj = propagate(system, psi0, u)
    assert traj.period_steps == 1024
    fine = _propagate_periodic(system, psi0, u, u.period, 2, 4 * traj.period_steps)
    err = np.max(np.abs(traj.final - fine.final))
    assert 0.5 * err <= dynamics.step_doubling_error(system, psi0, u, traj) <= 2.0 * err


def random_system(K, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(K, K))
    return GalerkinSystem(lam=np.sort(rng.uniform(0.0, 50.0, K)), B=0.5 * (B + B.T))


@pytest.mark.parametrize("terms", [[(7.0, "cos", 0.8)], [(7.0, "cos", 0.3), (7.0, "sin", -0.6)],
                                   [(-7.0, "cos", -0.5)]], ids=["cos", "phase", "negative"])
def test_half_period_map_matches_full_product(monkeypatch, terms):
    system = random_system(6, 11)
    u = TrigControl(horizon=50.0, const=0.1, terms=terms)
    P, t0, n = u.period, u.even_time, 1024
    dt = P / n
    mids = u(t0 + (np.arange(n) + 0.5) * dt)
    rows, _ = _split_evolve(system.lam, system.eig, mids, dt, np.eye(6, dtype=complex))
    full = _polar_unitary(rows.T)
    # all 1024 steps with the map's exactly symmetric free step: equal up to rounding
    # (2.5e-13 apart with the free step left as projected, its asymmetry repeated 512 times)
    half, Q, D = _step_matrices(system.lam, system.eig, mids, dt)
    W = _free_step(half, Q)
    W = (W + W.T) / 2
    a, _ = _kick_steps(np.eye(6, dtype=complex), W, D, mids, dt)
    full_symmetric = _polar_unitary(half.conj()[:, None] * (Q @ a.T @ Q.T) * half)
    # every path passes the midpoints it steps through _step_matrices, where the benchmark counts them
    stepped = []
    step_matrices = dynamics._step_matrices
    monkeypatch.setattr(dynamics, "_step_matrices",
                        lambda lam, factors, u_mids, dt: stepped.append(len(u_mids)) or
                        step_matrices(lam, factors, u_mids, dt))
    M = _period_map(system, u, P, t0, n)
    assert stepped == [n // 2]
    assert np.max(np.abs(M - full)) <= 1e-12
    assert np.max(np.abs(M - full_symmetric)) <= 2e-14
    assert np.max(np.abs(M.conj().T @ M - np.eye(6))) <= 1e-14


@pytest.mark.parametrize("record", [2, 17, 129])
def test_period_powers_match_sequential_loop(record):
    system = random_system(6, 12)
    u = TrigControl(horizon=300.3 * 2 * PI / 7.0, terms=[(7.0, "cos", 0.8)])
    P = u.period
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    traj = propagate(system, psi0, u, record=record)
    # the periodic path before period powers: the period map applied one period at a time
    M = _period_map(system, u, P, 0.0, 1024)
    n_periods = int(u.horizon // P)
    rec_every = max(1, n_periods // (record - 1))
    times, states, psi = [0.0], [psi0], psi0
    for p in range(1, n_periods + 1):
        psi = M @ psi
        if p % rec_every == 0 or p == n_periods:
            times.append(p * P)
            states.append(psi)
    assert np.array_equal(traj.times[:-1], times) and traj.times[-1] == u.horizon
    assert np.max(np.abs(traj.states[:-1] - np.array(states))) <= 1e-12
    # the projected power keeps the norm of the whole-period states at rounding level
    assert np.max(np.abs(np.linalg.norm(traj.states[:-1], axis=1) - 1.0)) <= 1e-13


def test_transfer_norm_drift_at_rounding_level():
    # 4 040 periods at K=30: applying the period map once per period drifts by 7.1e-13,
    # and the squared power left unprojected by 2.7e-12
    basis = solve_spectrum(star([1.0, math.sqrt(2.0)]), 30)
    op = ControlOperator(per_edge={"e1": squared_shift_potential(1.0)})
    system = GalerkinSystem(lam=basis.eigenvalues, B=build_matrix(op, basis))
    res = resonant_transfer(system, 1, 2, 0.01)
    assert res.fidelity > 0.9999999
    assert res.norm_drift <= 5e-13


def test_long_propagation_memory_and_drift():
    rng = np.random.default_rng(5)
    K = 100
    B = rng.normal(size=(K, K))
    system = GalerkinSystem(lam=np.sort(rng.uniform(0.0, 1e4, K)), B=B + B.T)
    psi0 = np.zeros(K, dtype=complex)
    psi0[0] = 1.0
    u = TrigControl(horizon=1.0, terms=[(30.0, "cos", 0.05), (70.0, "sin", 0.03)])
    tracemalloc.start()
    try:
        traj = propagate(system, psi0, u, n_steps=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8192 per-step K x K complex matrices would take about 1.3 GB
    assert peak < 32e6
    # the unitary projection of the free step keeps the drift at rounding level
    # (1.5e-11 here without it)
    assert traj.steps == 20000 and traj.norm_drift < 5e-12


def svd_polar_factor(U):
    """The nearest unitary to U by the SVD U = W S V^H: W V^H."""
    w, _, vt = np.linalg.svd(U)
    return w @ vt


def projected_inputs(monkeypatch, K):
    """Every matrix _period_map projects, and the power M^31 of the map it returns,
    on star2_dirichlet under a resonant pulse between modes 1 and 2."""
    _, system = sample_system("star2_dirichlet", K)
    u = resonant_pulse(0.01, system.lam[1] - system.lam[0], 500.0)
    inputs, project = [], dynamics._polar_unitary
    monkeypatch.setattr(dynamics, "_polar_unitary", lambda U: inputs.append(U) or project(U))
    M = _period_map(system, u, u.period, u.even_time, 1024)
    return inputs + [np.linalg.matrix_power(M, 31)]


@pytest.mark.parametrize("K, which", [(30, 0), (60, 1), (60, 2)],
                         ids=["free step K=30", "period map K=60", "map power 31 K=60"])
def test_polar_unitary_matches_the_svd_polar_factor(monkeypatch, K, which):
    U = projected_inputs(monkeypatch, K)[which]
    eye = np.eye(K)
    assert 0 < np.max(np.abs(U.conj().T @ U - eye)) <= 1e-12
    P = _polar_unitary(U)
    assert np.max(np.abs(P - svd_polar_factor(U))) <= 1e-14
    assert np.max(np.abs(P.conj().T @ P - eye)) <= 1e-14


def test_polar_unitary_converges_from_a_large_defect():
    # Frobenius defect 0.497, just inside the guard: several Newton-Schulz steps, each
    # about squaring it
    rng = np.random.default_rng(3)
    U = svd_polar_factor(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    A = U @ np.diag(np.linspace(0.85, 1.12, 8))
    P = _polar_unitary(A)
    assert np.max(np.abs(P - svd_polar_factor(A))) <= 1e-14
    assert np.max(np.abs(P.conj().T @ P - np.eye(8))) <= 1e-14


@pytest.mark.parametrize("U", [np.full((4, 4), np.nan), 2 * np.eye(4), np.eye(4) - 0.25,
                               np.eye(16) + 1 / 16],
                         ids=["nan", "2I", "singular", "rank-one"])
def test_polar_unitary_raises_outside_its_convergence_region(U):
    # I - v v^T with v = (1, 1, 1, 1) / 2 is a fixed point of the step; I + v v^T with
    # v = (1, ..., 1) / 4 has a singular value 2, which the step maps to the fixed point -1.
    # Their largest defect entries are only 0.25 and 0.19, their Frobenius defects 1 and 3.
    with pytest.raises(NumericalError, match="defect"):
        _polar_unitary(U)


def test_propagation_calls_no_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    system = interval_system()
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    u = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.05)])
    traj = propagate(system, psi0, u, n_steps=256)
    assert traj.norm_drift < 1e-13
    assert dynamics.step_doubling_error(system, psi0, u, traj) < 1e-6
    assert resonant_transfer(two_level(), 1, 2, 0.05).fidelity > 0.999


def test_one_factorization_per_system(monkeypatch):
    # every stretch of steps shares the system's eig: B is diagonalized once, on first use
    system, transfer_system = interval_system(), interval_system(6)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    u = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.05)])
    traj = propagate(system, psi0, u)
    dynamics.step_doubling_error(system, psi0, u, traj)
    assert calls == [(8, 8)]
    propagate(system, psi0, u, n_steps=64)
    propagate_reversed(system, psi0, u, 64)
    assert calls == [(8, 8)]
    # the period map and the stepped remainder share one factorization
    res = resonant_transfer(transfer_system, 1, 2, 0.5)
    assert res.control.horizon > 8 * res.control.period
    assert calls == [(8, 8), (6, 6)]


def test_galerkin_system_is_immutable():
    lam, B = np.array([0.0, 1.0, 4.0]), np.eye(3)
    system = GalerkinSystem(lam=lam, B=B, int_labels=[0, 1, 2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.B = np.zeros((3, 3))
    for values in (system.lam, system.B, system.int_labels, *system.eig):
        with pytest.raises(ValueError, match="read-only"):
            values[(0,) * values.ndim] = 1
    # views, not copies, and the caller's arrays stay writeable
    assert np.shares_memory(system.lam, lam) and np.shares_memory(system.B, B)
    assert lam.flags.writeable and B.flags.writeable


def test_kicks_match_complex_exp_bit_for_bit():
    # real cos and sin give the same bits as the complex exponential, signed zeros included
    rng = np.random.default_rng(26)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, PI, -PI, 1e6, -1e6])
    for decade in range(-9, 10):
        u = np.concatenate([special, rng.normal(size=40) * 10.0 ** decade])
        D = np.concatenate([special, rng.normal(size=30) * 10.0 ** rng.uniform(-3, 3)])
        for dt in (1e-4, 0.37, 2.0):
            expected = np.exp(-1j * dt * np.multiply.outer(u, D))
            assert np.array_equal(dynamics._kicks(u, D, dt).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("make", [
    lambda: TrigControl(horizon=0.0),
    lambda: TrigControl(horizon=-1.0),
    lambda: TrigControl(horizon=math.nan),
    lambda: TrigControl(horizon=math.inf),
    lambda: TrigControl(horizon=1.0, const=math.nan),
    lambda: TrigControl(horizon=1.0, terms=[(3.0, "tan", 0.1)]),
    lambda: TrigControl(horizon=1.0, terms=[(math.inf, "cos", 0.1)]),
    lambda: TrigControl(horizon=1.0, terms=[(3.0, "sin", math.nan)]),
    lambda: resonant_pulse(0.01, 3.0, -2.0),
    lambda: SampledControl(samples=[], dt=0.1),
    lambda: SampledControl(samples=[0.1, math.nan], dt=0.1),
    lambda: SampledControl(samples=[0.1, 0.2], dt=0.0),
    lambda: SampledControl(samples=[0.1, 0.2], dt=-0.1),
    lambda: SampledControl(samples=[0.1, 0.2], dt=math.nan),
], ids=["T0", "Tneg", "Tnan", "Tinf", "const_nan", "kind_tan", "freq_inf", "coeff_nan",
        "pulse_Tneg", "samples_empty", "sample_nan", "dt0", "dtneg", "dtnan"])
def test_controls_validated_at_construction(make):
    # an unknown kind ran as "sin"; T <= 0, a NaN horizon and empty samples failed deep in propagate
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("lam, B, message", [
    ([0.0, math.nan, 2.0], np.eye(3), r"eigenvalues\[1\] = nan"),
    ([0.0, 1.0, math.inf], np.eye(3), r"eigenvalues\[2\] = inf"),
    ([0.0, 1.0, 2.0], [[0.0, 1.0, 0.0], [1.0, 0.0, math.nan], [0.0, math.nan, 0.0]],
     r"coupling matrix\[1, 2\] = nan"),
    ([0.0, 1.0], [[0.0, -math.inf], [-math.inf, 0.0]], r"coupling matrix\[0, 1\] = -inf"),
], ids=["lambda_nan", "lambda_inf", "coupling_nan", "coupling_inf"])
def test_galerkin_system_rejects_non_finite_input(lam, B, message):
    # a nan eigenvalue passed the ascending check; a nan coupling read as "not symmetric"
    with pytest.raises(ValidationError, match=message + " is not finite"):
        GalerkinSystem(lam=lam, B=B)


@pytest.mark.parametrize("evolve", [propagate, propagate_reversed])
@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)], ids=["nan", "inf"])
def test_propagation_rejects_non_finite_initial_state(evolve, bad):
    # abs(nan - 1) > 1e-12 is False, so a nan state ran and returned a nan final state
    psi0 = np.zeros(8, dtype=complex)
    psi0[0], psi0[3] = 1.0, bad
    u = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.05)])
    with pytest.raises(ValidationError, match=r"initial state\[3\] = .* is not finite"):
        evolve(interval_system(), psi0, u, n_steps=64)


def test_time_reversal_returns_initial_state():
    sys8 = interval_system()
    u = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.05), (8 * PI**2, "sin", 0.03)])
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    n = 4096
    traj = propagate(sys8, psi0, u, n_steps=n)
    back = propagate_reversed(sys8, traj.final, u, n_steps=n)
    assert np.max(np.abs(back - psi0)) < 1e-9


@pytest.mark.parametrize("evolve", [propagate, propagate_reversed])
@pytest.mark.parametrize("n_steps", [0, -2, math.nan])
def test_propagation_rejects_step_count_below_one(evolve, n_steps):
    # propagate raised ZeroDivisionError at 0 and "step size underflow" (exit 3)
    # below; the reversed pass returned the initial state unchanged
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    u = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.05)])
    with pytest.raises(ValidationError, match="n_steps must be >= 1"):
        evolve(interval_system(), psi0, u, n_steps=n_steps)


@pytest.mark.parametrize("K", [5, 30, 100, 300])
def test_step_count_matches_the_dense_commutator_formula(K):
    # [Lambda, B] is formed by broadcasting instead of two K x K products with diag(lam)
    rng = np.random.default_rng(K)
    B = rng.normal(size=(K, K))
    system = GalerkinSystem(lam=np.sort(rng.uniform(0.0, 50.0 * K, K)), B=B + B.T)
    lam, B = system.lam, system.B
    assert (np.linalg.norm(lam[:, None] * B - B * lam)
            == np.linalg.norm(np.diag(lam) @ B - B @ np.diag(lam)))
    for horizon, amplitude in ((0.5, 1e-4), (2.0, 0.05), (8.0, 1.0)):
        u = TrigControl(horizon=horizon, terms=[(3.0, "cos", amplitude), (11.0, "sin", amplitude)])
        assert (choose_step_count(system, u, horizon, None)
                == dense_step_count(system, u, horizon))


# -- linearized response ------------------------------------------------------

def test_linearized_zero_control():
    sys8 = interval_system()
    assert np.allclose(linearized_response(sys8, TrigControl(horizon=1.0)), 0.0)


def test_linearized_scaling_exact():
    sys8 = interval_system()
    u = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.02)])
    g1 = linearized_response(sys8, u)
    g2 = linearized_response(sys8, u.scaled(0.5))
    assert np.allclose(g2, 0.5 * g1, rtol=0, atol=1e-18)


def test_linearized_matches_moment_solution():
    sys8 = interval_system()
    lam = sys8.lam
    rng = np.random.default_rng(4)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    x[0] = x[0].real
    sol = solve_moment(lam, x, 1.0)
    u = TrigControl(horizon=1.0, const=sol.coefficients[0],
                    terms=[(f, kind, c) for (f, kind, _), c in
                           zip(sol.control.terms, sol.coefficients[1:])])
    gamma = linearized_response(sys8, u)
    expected = -1j * x * sys8.B[:, 0]
    assert np.max(np.abs(gamma - expected)) < 1e-8


def test_first_order_remainder_is_quadratic():
    sys8 = interval_system()
    base = TrigControl(horizon=1.0, terms=[(3 * PI**2, "cos", 0.02), (8 * PI**2, "sin", 0.01)])
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    errs = []
    for s in (1.0, 0.5, 0.25):
        u = base.scaled(s)
        traj = propagate(sys8, psi0, u, n_steps=20000)
        errs.append(np.linalg.norm(traj.final - first_order_prediction(sys8, u)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


# -- array moments against the scalar references --------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_trig_moments_match_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(-80.0, 80.0, 6)
    kinds = rng.choice(["cos", "sin"], 6).tolist()
    u = TrigControl(horizon=float(rng.uniform(0.5, 4.0)), const=float(rng.normal()),
                    terms=list(zip(freqs.tolist(), kinds, rng.normal(size=6).tolist())))
    # alpha = 0, +-f (a term's own frequency, negative ones included) and generic values
    alpha = np.concatenate([[0.0], freqs, -freqs, rng.uniform(-100.0, 100.0, 8)])
    ref = np.array([trig_moment_integral_reference(u, a) for a in alpha.tolist()])
    got = u.moments(alpha)
    assert got.shape == alpha.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert u.moments(alpha[3]) == pytest.approx(ref[3], rel=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_sampled_moments_match_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    dt = 0.005
    u = SampledControl(samples=rng.normal(scale=0.5, size=200), dt=dt)
    # the reference subtracts e^{i alpha a} from e^{i alpha b} and loses digits once
    # 0 < |alpha| dt << 1, so the generic alphas keep |alpha| >= 1
    generic = rng.choice([-1.0, 1.0], 8) * rng.uniform(1.0, 300.0, 8)
    alpha = np.concatenate([[0.0], generic, [PI / dt, -PI / dt]])
    ref = np.array([sampled_moment_integral_reference(u, a) for a in alpha.tolist()])
    got = u.moments(alpha)
    assert got.shape == alpha.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert u.moments(0.0) == pytest.approx(ref[0], rel=1e-13)


# -- the linearization oracle -------------------------------------------------
# At first order the endpoint map is u -> -i B[k, 0] * integral of u e^{i alpha_k t},
# the moment problem: a moment control for x_k = i gamma_k / B[k, 0] reaches
# e^{-i Lambda T} (e_1 + eps gamma) up to O(eps^2) once scaled by eps.

def sample_system(name, K):
    graph, op, _ = load_problem(SAMPLES / f"{name}.json")
    basis = solve_spectrum(graph, K)
    return basis, GalerkinSystem(lam=basis.eigenvalues, B=build_matrix(op, basis))


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_moment_control_passes_linearization_oracle(mode):
    K, T = 12, 4.0
    _, system = sample_system("star2_dirichlet", K)
    rng = np.random.default_rng(12)
    gamma = rng.normal(size=K) + 1j * rng.normal(size=K)
    gamma[0] = 1j * gamma[0].imag      # tangent to the unit sphere at e_1
    sol = solve_moment(system.lam, 1j * gamma / system.B[:, 0], T, mode=mode)
    psi0 = np.zeros(K, dtype=complex)
    psi0[0] = 1.0
    errs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        u = sol.control.scaled(eps)
        linear = linearized_response(system, u)
        assert np.max(np.abs(linear - eps * gamma)) <= 1e-12 * eps * np.max(np.abs(gamma))
        final = propagate(system, psi0, u, n_steps=20000).final
        errs.append(np.linalg.norm(final - np.exp(-1j * system.lam * T) * (psi0 + eps * gamma)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


@pytest.mark.parametrize("mode", ["direct", "dd_preconditioned"])
def test_linearization_oracle_fails_where_coupling_vanishes(mode):
    # the linear potential on (0, 1) has B[k, 0] = 0 at every odd k >= 3: there the
    # hypothesis B[k, 0] != 0 fails and no moment control moves those modes at first order
    K = 12
    basis, system = sample_system("interval_dirichlet", K)
    zeros = analyze_coupling(system.B, basis, K).zero_elements
    assert zeros == [3, 5, 7, 9, 11]
    x = np.ones(K)
    response = linearized_response(system, solve_moment(system.lam, x, 1.0, mode=mode).control)
    dead = np.array(zeros) - 1
    live = np.setdiff1d(np.arange(K), dead)
    assert np.max(np.abs(response[dead])) < 1e-14
    col = system.B[:, 0]
    assert np.max(np.abs(response[live] + 1j * col[live] * x[live])) <= 1e-12 * np.max(np.abs(col))


# -- bracket closure ----------------------------------------------------------

class GaussianRationalMatrix:
    """Exact matrices over Q(i) for the bracket-closure oracle."""

    def __init__(self, re, im):
        self.re = [[Fraction(v) for v in row] for row in re]
        self.im = [[Fraction(v) for v in row] for row in im]

    @property
    def n(self):
        return len(self.re)

    def __matmul__(self, other):
        n = self.n
        re = [[sum(self.re[i][k] * other.re[k][j] - self.im[i][k] * other.im[k][j]
                   for k in range(n)) for j in range(n)] for i in range(n)]
        im = [[sum(self.re[i][k] * other.im[k][j] + self.im[i][k] * other.re[k][j]
                   for k in range(n)) for j in range(n)] for i in range(n)]
        return GaussianRationalMatrix(re, im)

    def bracket(self, other):
        ab = self @ other
        ba = other @ self
        re = [[ab.re[i][j] - ba.re[i][j] for j in range(self.n)] for i in range(self.n)]
        im = [[ab.im[i][j] - ba.im[i][j] for j in range(self.n)] for i in range(self.n)]
        return GaussianRationalMatrix(re, im)

    def vec(self):
        return [v for row in self.re for v in row] + [v for row in self.im for v in row]


def exact_rank(vectors):
    rows = [list(v) for v in vectors]
    rank, col_count = 0, len(rows[0]) if rows else 0
    pivot_col = 0
    r = 0
    while r < len(rows) and pivot_col < col_count:
        pivot = next((i for i in range(r, len(rows)) if rows[i][pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][pivot_col]
        for i in range(len(rows)):
            if i != r and rows[i][pivot_col] != 0:
                f = rows[i][pivot_col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        pivot_col += 1
    return rank


def exact_bracket_closure(n, pairs):
    def gen(j, k, theta_half):
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        if theta_half == 0:      # phase 0: real antisymmetric
            re[j][k], re[k][j] = 1, -1
        else:                    # phase pi/2: imaginary symmetric
            im[j][k], im[k][j] = 1, 1
        return GaussianRationalMatrix(re, im)

    gens = [gen(j - 1, k - 1, t) for (j, k) in pairs for t in (0, 1)]
    basis = []
    vectors = []

    def try_add(M):
        cand = vectors + [M.vec()]
        if exact_rank(cand) > len(vectors):
            vectors.append(M.vec())
            basis.append(M)
            return True
        return False

    frontier = [g for g in gens if try_add(g)]
    while frontier:
        new = []
        for g in gens:
            for M in frontier:
                C = g.bracket(M)
                if try_add(C):
                    new.append(C)
        frontier = new
    return len(vectors)


def chain4():
    lam = np.array([0.0, 1.0, 2.5, 4.2])
    B = np.zeros((4, 4))
    for i in range(3):
        B[i, i + 1] = B[i + 1, i] = 1.0
    return GalerkinSystem(lam=lam, B=B)


def test_su2_generated_by_one_pair():
    rep = lie_closure(two_level())
    assert rep.reached_dimension == 3
    assert rep.generated
    assert rep == lie_closure_reference(two_level())


def test_chain_coupled_su4_matches_exact_oracle():
    rep = lie_closure(chain4())
    assert rep.admissible_pairs == [(1, 2), (2, 3), (3, 4)]
    assert rep.reached_dimension == 15 == rep.target_dimension
    assert exact_bracket_closure(4, rep.admissible_pairs) == 15
    assert rep == lie_closure_reference(chain4())


def test_three_level_matches_exact_oracle():
    lam = np.array([0.0, 1.0, 2.7])
    B = np.zeros((3, 3))
    B[0, 1] = B[1, 0] = 1.0
    B[1, 2] = B[2, 1] = 0.5
    rep = lie_closure(GalerkinSystem(lam=lam, B=B))
    assert rep.reached_dimension == exact_bracket_closure(3, rep.admissible_pairs) == 8
    assert rep == lie_closure_reference(GalerkinSystem(lam=lam, B=B))


def test_diagonal_coupling_generates_nothing():
    system = GalerkinSystem(lam=np.array([0.0, 1.0]), B=np.eye(2))
    rep = lie_closure(system)
    assert rep == lie_closure_reference(system)
    assert rep.admissible_pairs == []
    assert rep.reached_dimension == 0
    assert not rep.generated


def test_degenerate_transitions_excluded():
    lam = np.array([0.0, 1.0, 2.0])  # (1,2) and (2,3) share frequency 1
    B = np.zeros((3, 3))
    B[0, 1] = B[1, 0] = 1.0
    B[1, 2] = B[2, 1] = 1.0
    sys3 = GalerkinSystem(lam=lam, B=B)
    assert admissible_pairs(sys3) == []


def random_pair_system(rng, tol):
    """Random Galerkin system whose pair frequencies tie or nearly tie on purpose."""
    K = int(rng.integers(3, 11))
    lam = np.sort(rng.uniform(0.0, 50.0, K))
    if rng.random() < 0.5:    # exact tie: an equally spaced triple
        i = int(rng.integers(0, K - 2))
        lam[i + 2] = lam[i + 1] + (lam[i + 1] - lam[i])
        lam = np.sort(lam)
    scale = max(1.0, float(np.abs(lam).max()))
    for factor in (0.5, 2.0):  # near ties just inside and well outside the tolerance
        j, k = sorted(rng.choice(K, 2, replace=False))
        l = int(rng.integers(0, K))
        m = l + 1 if l + 1 < K else l - 1
        lam[max(l, m)] = lam[min(l, m)] + abs(lam[k] - lam[j]) + factor * tol * scale
        lam = np.sort(lam)
    B = rng.normal(size=(K, K))
    B[rng.random((K, K)) < 0.3] = 0.0
    return GalerkinSystem(lam=lam, B=np.triu(B) + np.triu(B, 1).T)


def test_admissible_pairs_match_direct_comparison():
    rng = np.random.default_rng(20)
    tol = 1e-8
    for _ in range(200):
        system = random_pair_system(rng, tol)
        assert admissible_pairs(system, tol) == admissible_pairs_reference(system.lam, system.B, tol)
        labels = [int(v) for v in rng.integers(1, 8, system.dim)]
        labelled = GalerkinSystem(lam=system.lam, B=system.B, int_labels=labels)
        assert (admissible_pairs(labelled, tol)
                == admissible_pairs_reference(system.lam, system.B, tol, int_labels=labels))


@pytest.mark.parametrize("labels, match", [
    ([1, 2], "expected 3 integers"),
    ([1, 2, 3, 4], "expected 3 integers"),
    ([1, 1.5, 2], "must be integers"),
    ([1, math.nan, 2], "must be integers"),
    (["1", "2", "3"], "must be integers"),
])
def test_galerkin_system_rejects_bad_int_labels(labels, match):
    with pytest.raises(ValidationError, match=f"integer labels.*{match}"):
        GalerkinSystem(lam=np.array([1.0, 4.0, 9.0]), B=np.ones((3, 3)), int_labels=labels)


def test_galerkin_system_keeps_int_labels_as_integers():
    system = GalerkinSystem(lam=np.array([1.0, 4.0, 9.0]), B=np.ones((3, 3)), int_labels=[1.0, 2.0, 3.0])
    assert system.int_labels.dtype == np.int64 and system.int_labels.tolist() == [1, 2, 3]
    assert GalerkinSystem(lam=np.array([1.0]), B=np.ones((1, 1))).int_labels is None


def test_lie_closure_n12_star():
    basis = solve_spectrum(star([1.0, math.sqrt(2.0)]), 12)
    op = ControlOperator(per_edge={"e1": np.array([1.0, -2.0, 1.0])})
    B = build_matrix(op, basis)
    low = np.arange(12) < 5
    blocks = low[:, None] == low[None, :]
    for B_sys in (B, np.where(blocks, B, 0.0)):   # connected, then modes 1-5 and 6-12 apart
        system = GalerkinSystem(lam=basis.eigenvalues, B=B_sys)
        rep = lie_closure(system)
        assert rep.admissible_pairs == admissible_pairs_reference(system.lam, system.B)
        assert rep.reached_dimension == closure_by_components(12, rep.admissible_pairs)
        assert rep == lie_closure_reference(system)
    assert rep.reached_dimension == 24 + 48


@settings(max_examples=60)
@given(n=st.integers(2, 12), n_blocks=st.integers(1, 3),
       density=st.sampled_from([0.15, 0.4, 1.0]), labelled=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_block_closure_matches_reference_loop(n, n_blocks, density, labelled, seed):
    """Sparse symmetric couplings, split into disconnected blocks; integer labels
    with repeats make equal gaps, so whole pairs drop out as degenerate."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.0, 50.0, n))
    labels = np.sort(rng.integers(1, n + 3, n)).tolist() if labelled else None
    block = rng.integers(0, n_blocks, n)
    B = np.where((rng.random((n, n)) < density) & (block[:, None] == block[None, :]),
                 rng.normal(size=(n, n)), 0.0)
    system = GalerkinSystem(lam=lam, B=np.triu(B) + np.triu(B, 1).T, int_labels=labels)
    rep = lie_closure(system)
    assert rep == lie_closure_reference(system)
    assert rep.reached_dimension == closure_by_components(n, rep.admissible_pairs)


def chain(n, rng):
    """n modes at generic eigenvalues, each coupled to the next only."""
    B = np.diag(rng.uniform(0.5, 1.5, n - 1), 1)
    return np.sort(rng.uniform(0.0, 100.0, n)), B + B.T


def test_lie_closure_long_chain_past_the_old_cap():
    """Modes 1 and 40 are 39 pairs apart, so the last bracket level is 38."""
    lam, B = chain(40, np.random.default_rng(40))
    rep = lie_closure(GalerkinSystem(lam=lam, B=B))
    assert rep.admissible_pairs == [(k, k + 1) for k in range(1, 40)]
    assert rep.generated and rep.reached_dimension == 40 * 40 - 1
    assert rep.bracket_depth == 38


def test_lie_closure_two_disjoint_chains():
    """su(20) + su(20): the last gain at level 18, then one level that gains nothing."""
    rng = np.random.default_rng(20)
    lam, B = chain(40, rng)
    B[19, 20] = B[20, 19] = 0.0
    rep = lie_closure(GalerkinSystem(lam=lam, B=B))
    assert rep.reached_dimension == 2 * (20 * 20 - 1) == 798
    assert not rep.generated
    assert rep.bracket_depth == 19


@settings(max_examples=150)
@given(values=st.lists(st.integers(0, 12), min_size=2, max_size=12),
       step=st.sampled_from([1.0, 0.1, PI]), tol=st.sampled_from([0.0, 1e-12, 1e-8, 1e-2]),
       labelled=st.booleans(), data=st.data())
def test_admissible_pairs_match_reference_property(values, step, tol, labelled, data):
    """Small integer multiples of a step tie gaps exactly (step 1) or only up to
    rounding (0.1, pi); repeated labels tie integer gaps.  Couplings below the
    floor 1e-12 max(1, max|B|) count as uncoupled."""
    lam = np.sort(np.array(values)) * step
    n = lam.size
    upper = data.draw(st.lists(st.sampled_from([0.0, 1e-13, 1.0, -2.5]),
                               min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    B = np.zeros((n, n))
    B[np.triu_indices(n, 1)] = upper
    labels = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)) if labelled else None
    system = GalerkinSystem(lam=lam, B=B + B.T, int_labels=labels)
    assert (admissible_pairs(system, tol)
            == admissible_pairs_reference(system.lam, system.B, tol, int_labels=labels))


# Listing every pair of colliding gaps peaked at 177 MiB traced on this system; the
# neighbour test over the sorted gaps takes about 2.4 MiB.
ADMISSIBLE_K300_PEAK_BOUND = 16 * 2**20


def test_admissible_pairs_memory_on_equal_spacing():
    # every gap d < K - 1 is shared by K - d pairs; only the widest transition is unique
    K = 300
    system = GalerkinSystem(lam=np.arange(K, dtype=float), B=np.ones((K, K)))
    admissible_pairs(system)                      # lazy imports and caches
    tracemalloc.start()
    try:
        pairs = admissible_pairs(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == [(1, K)]
    assert peak <= ADMISSIBLE_K300_PEAK_BOUND


@pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
def test_admissible_pairs_rejects_bad_tolerance(tol):
    with pytest.raises(ValidationError, match="resonance tolerance"):
        admissible_pairs(chain4(), tol)


# -- resonant transfers -------------------------------------------------------

def test_two_level_transfer():
    res = resonant_transfer(two_level(), 1, 2, 0.005)
    assert res.fidelity > 0.99


def test_transfer_identity_when_same_mode():
    res = resonant_transfer(two_level(), 2, 2, 0.01)
    assert res.fidelity == 1.0 and res.control is None


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, 0.0, -0.01])
def test_transfer_rejects_bad_amplitude(amplitude):
    with pytest.raises(ValidationError, match="amplitude"):
        resonant_transfer(two_level(), 1, 2, amplitude)


def test_transfer_degrades_at_large_amplitude():
    weak = resonant_transfer(two_level(), 1, 2, 0.005)
    strong = resonant_transfer(two_level(), 1, 2, 0.2)
    assert weak.fidelity > strong.fidelity  # counter-rotating error grows


def test_transfer_rejects_degenerate_listing_colliders():
    lam = np.array([0.0, 1.0, 2.0])
    B = np.zeros((3, 3))
    B[0, 1] = B[1, 0] = 1.0
    B[1, 2] = B[2, 1] = 1.0
    with pytest.raises(ValidationError, match=r"colliding pairs: \[\(2, 3\)\]"):
        resonant_transfer(GalerkinSystem(lam=lam, B=B), 1, 2, 0.01)


def test_transfer_lists_two_colliders_in_row_major_order():
    # the transition 1 -> 3 has frequency 1, as have the coupled (1, 4) and
    # (2, 3), listed by row (by column (2, 3) would come first); (2, 4) shares
    # the frequency uncoupled and (1, 5) is coupled at another: neither is listed
    B = np.zeros((5, 5))
    for j, k in ((0, 2), (0, 3), (1, 2), (0, 4)):
        B[j, k] = B[k, j] = 1.0
    system = GalerkinSystem(lam=np.array([0.0, 0.0, 1.0, 1.0, 5.0]), B=B)
    with pytest.raises(ValidationError, match=r"colliding pairs: \[\(1, 4\), \(2, 3\)\]$"):
        resonant_transfer(system, 1, 3, 0.01)


def test_transfer_colliders_follow_int_labels():
    # labels 1, 2, 1, 2 give (1, 2) and (3, 4) the gap 3, which their
    # eigenvalue gaps do not share: the list read [] by eigenvalue
    B = np.zeros((4, 4))
    for j, k in ((0, 1), (2, 3), (0, 2)):
        B[j, k] = B[k, j] = 1.0
    system = GalerkinSystem(lam=np.array([0.0, 1.0, 2.5, 4.7]), B=B, int_labels=[1, 2, 1, 2])
    with pytest.raises(ValidationError, match=r"colliding pairs: \[\(3, 4\)\]$"):
        resonant_transfer(system, 1, 2, 0.01)


def test_transfer_lists_the_reference_colliders():
    # every coupled pair that is not admissible is refused with the pairs it
    # collides with, by eigenvalue and by integer label
    rng = np.random.default_rng(21)
    tol, refused = dynamics.RESONANCE_TOL, 0
    for _ in range(100):
        base = random_pair_system(rng, tol)
        labels = [int(v) for v in rng.integers(1, 8, base.dim)]
        floor = 1e-12 * max(1.0, float(np.abs(base.B).max()))
        for lab in (None, labels):
            system = GalerkinSystem(lam=base.lam, B=base.B, int_labels=lab)
            admissible = admissible_pairs(system, tol)
            for j, k in zip(*np.triu_indices(system.dim, 1)):
                j, k = int(j) + 1, int(k) + 1
                if abs(system.B[j - 1, k - 1]) <= floor or (j, k) in admissible:
                    continue
                expected = transfer_colliders_reference(system.lam, system.B, j, k, tol, lab)
                assert expected
                source, target = (j, k) if rng.random() < 0.5 else (k, j)
                with pytest.raises(ValidationError) as exc:
                    resonant_transfer(system, source, target, 0.01)
                assert str(exc.value).endswith(f"colliding pairs: {expected}")
                refused += 1
    assert refused > 100


def test_transfer_refuses_exactly_the_inadmissible_pairs(monkeypatch):
    # one scan of the coupled gaps decides a transfer as admissible_pairs does; the
    # accepted transfers run on a stub propagation that returns the initial state
    def stub(system, psi0, control):
        return dynamics.Trajectory(np.zeros(1), psi0[None, :], 0)
    monkeypatch.setattr(dynamics, "propagate", stub)
    rng = np.random.default_rng(23)
    tol, outcomes = dynamics.RESONANCE_TOL, Counter()
    for _ in range(60):
        base = random_pair_system(rng, tol)
        floor = 1e-12 * max(1.0, float(np.abs(base.B).max()))
        for lab in (None, [int(v) for v in rng.integers(1, 8, base.dim)]):
            system = GalerkinSystem(lam=base.lam, B=base.B, int_labels=lab)
            admissible = admissible_pairs(system, tol)
            for j, k in zip(*np.triu_indices(system.dim, 1)):
                j, k = int(j) + 1, int(k) + 1
                coupled = abs(system.B[j - 1, k - 1]) > floor
                source, target = (j, k) if rng.random() < 0.5 else (k, j)
                try:
                    resonant_transfer(system, source, target, 0.01)
                    outcome = "accepted"
                except ValidationError as exc:
                    outcome = "degenerate" if "frequency-degenerate" in str(exc) else "uncoupled"
                assert outcome == ("uncoupled" if not coupled else
                                   "accepted" if (j, k) in admissible else "degenerate")
                outcomes[outcome] += 1
    assert min(outcomes.values()) > 50


def test_transfer_reports_sub_floor_coupling_as_uncoupled():
    # B_12 = 1e-14 is below the floor of admissible_pairs; the transfer used to
    # call it frequency-degenerate with no colliding pair
    B = np.zeros((3, 3))
    B[0, 1] = B[1, 0] = 1e-14
    B[1, 2] = B[2, 1] = 1.0
    system = GalerkinSystem(lam=np.array([0.0, 1.0, 2.7]), B=B)
    assert admissible_pairs(system) == [(2, 3)]
    with pytest.raises(ValidationError, match="modes 1 and 2 are uncoupled"):
        resonant_transfer(system, 1, 2, 0.01)


def test_transfer_rejects_uncoupled():
    sys3 = GalerkinSystem(lam=np.array([0.0, 1.0, 2.7]),
                          B=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValidationError, match="uncoupled"):
        resonant_transfer(sys3, 1, 3, 0.01)


def test_equilateral_demo_transfer():
    demo = subsystem_transfer_demo("equilateral_star", {"n_edges": 3, "length": 1.0},
                                   1, 2, 0.01, 12)
    assert demo.transfer.fidelity > 0.98
    assert demo.dropped_coupling_max == 0.0
    assert demo.truncation_boundary_max < 1e-6
    assert demo.transfer.norm_drift < 1e-10


def test_leakage_block_sees_a_potential_where_the_dropped_family_lives():
    # the demo's leakage check is the block <dropped_j, B kept_k>: exactly zero
    # for its potential on edge 1, where the dropped family vanishes, and
    # nonzero for the same potential on edge 2, where that family lives
    quad = pytest.importorskip("scipy.integrate").quad
    kept = explicit_subsystem("equilateral_star", 12, n_edges=3, length=1.0)
    dropped = equilateral_dropped_modes(6, 3, 1.0)
    block = {eid: coupling_block(ControlOperator(per_edge={eid: squared_shift_potential(1.0)}),
                                 dropped, kept) for eid in ("e1", "e2")}
    assert block["e1"].shape == (6, 12)
    assert np.all(block["e1"] == 0.0)
    assert np.abs(block["e2"]).max() > 0.1
    for j, k in [(0, 0), (1, 3), (5, 10)]:
        wj, wk = dropped.omegas[j], kept.omegas[k]
        ref, _ = quad(lambda x: (x - 1) ** 2 * np.sin(wj * x) * np.sin(wk * x), 0, 1,
                      limit=200, epsabs=1e-14, epsrel=1e-13)
        expected = dropped.amplitudes[j, 1] * kept.amplitudes[k, 1] * ref
        assert abs(block["e2"][j, k] - expected) < 1e-12


def test_two_equal_edges_demo_sequential():
    # phi_1 -> phi_3 via two first-order pulses
    demo12 = subsystem_transfer_demo("two_equal_edges", {"length": 1.0}, 1, 2, 0.01, 9)
    demo23 = subsystem_transfer_demo("two_equal_edges", {"length": 1.0}, 2, 3, 0.01, 9)
    assert demo12.transfer.fidelity * demo23.transfer.fidelity > 0.95

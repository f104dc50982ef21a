"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget.  Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from graphctrl.dynamics import GalerkinSystem, lie_closure, subsystem_transfer_demo
from graphctrl.lowerbounds import build_secular_product, diophantine_products, fit_derivative_bound
from graphctrl.moment import build_dd_system, build_partition, check_trace_bounds, solve_moment
from graphctrl.potentials import ControlOperator, analyze_coupling, degree6_neumann_potential
from graphctrl.spectrum import explicit_subsystem, solve_spectrum

from conftest import degree6_neumann_cos_integral, neumann_star_amplitude, star
from graphctrl.graph import BoundaryCondition as BC
from test_dynamics import exact_bracket_closure, interval_system

PI = math.pi
SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, label, budget_s):
    t0 = time.perf_counter()
    status = {"ok": False}
    try:
        yield status
        status["ok"] = True
    finally:
        elapsed = time.perf_counter() - t0
        verdict = "PASS" if status["ok"] else "FAIL"
        print(f"[criterion {num:02d}] {verdict} ({elapsed:.2f}s <= {budget_s}s) {label}")
        if status["ok"]:
            assert elapsed < budget_s, f"criterion {num} exceeded runtime budget"


def synthetic_clustered(K):
    """ceil(m/2) + 0.3 on even m: pair clusters with gaps 0.3 / 0.7."""
    return np.array([(m + 1) // 2 + 0.3 * (m % 2 == 0) for m in range(1, K + 1)])


def test_criterion_01_equilateral_star_spectrum():
    with criterion(1, "equilateral-star spectrum (30 modes, union of branches)", 1.0):
        basis = solve_spectrum(star([1.0, 1.0, 1.0]), 30)
        expected = sorted([(2 * k - 1) ** 2 * PI**2 / 4 for k in range(1, 11)]
                          + [k**2 * PI**2 for k in range(1, 11) for _ in range(2)])[:30]
        rel = np.abs(basis.eigenvalues - np.array(expected)) / np.array(expected)
        assert rel.max() < 1e-10


def test_criterion_02_weyl_bounds():
    with criterion(2, "Weyl two-sided k^2 bounds, 2-star and generic 3-star", 5.0):
        for g in (star([1.0, SQRT2]), star([1.0, 2 ** (1 / 3), 5 ** (1 / 4)])):
            basis = solve_spectrum(g, 200)
            ks = np.arange(2, 201)
            ratios = basis.eigenvalues[1:] / ks**2
            c1, c2 = ratios.min(), ratios.max()
            assert 0 < c1 <= c2
            assert c2 / c1 < 10


def test_criterion_03_loop_family_gap():
    with criterion(3, "loop family mu_k = 4 k^2 pi^2, minimal gap 12 pi^2", 1.0):
        basis = explicit_subsystem("loops", 20, lengths=[1.0])
        assert basis.int_labels == list(range(1, 21))
        assert np.allclose(basis.eigenvalues, [4 * k * k * PI**2 for k in range(1, 21)],
                           rtol=4 * np.finfo(float).eps)
        # exact in integer labels: min gap 4((k+1)^2 - k^2) = 12 at k = 1
        int_gaps = [4 * (k + 1) ** 2 - 4 * k**2 for k in range(1, 20)]
        assert min(int_gaps) == 12
        gaps = np.diff(basis.eigenvalues)
        assert abs(gaps.min() - 12 * PI**2) <= 4 * np.finfo(float).eps * 12 * PI**2


def test_criterion_04_divided_difference_frame():
    with criterion(4, "divided-difference Gram frame: positive and K-stable", 10.0):
        lows = {}
        for K in (64, 128):
            part = build_partition(synthetic_clustered(K), delta=0.4, M=3)
            system = build_dd_system(part, 1.2 * 2 * PI / 0.4)
            assert all(s <= 2 for s in part.sizes)
            lo, hi = system.frame_bounds
            assert lo > 0
            lows[K] = lo
        assert abs(lows[128] - lows[64]) / lows[64] < 0.20


def test_criterion_05_moment_solvability():
    with criterion(5, "moment solvability: interval spectrum, 20 random targets", 2.0):
        lam = [(k * PI) ** 2 for k in range(1, 9)]
        rng = np.random.default_rng(2024)
        for _ in range(20):
            x = rng.normal(size=8) + 1j * rng.normal(size=8)
            x[0] = x[0].real
            sol = solve_moment(lam, x, 1.0, mode="direct")
            assert sol.max_residual < 1e-8
            # realness: the divided-difference mode solves the real dictionary's Gram
            sol_dd = solve_moment(lam, x, 1.0, mode="dd_preconditioned")
            assert sol_dd.imag_moment_defect < 1e-12
            assert sol_dd.max_residual < 1e-8


def test_criterion_06_trace_bounds():
    with criterion(6, "trace growth of cluster blocks vs min-label power", 2.0):
        part = build_partition(synthetic_clustered(128), delta=0.4, M=3)
        system = build_dd_system(part, 1.2 * 2 * PI / 0.4)
        rep = check_trace_bounds(system, dtilde=0.5)
        assert math.isfinite(rep.sup_ratio)
        assert rep.fitted_slope < 0  # non-increasing in the fitted sense


def test_criterion_07_coupling_decay_exponent():
    # NOTE: P = (x - L)^5 (5x + L) on e1 has P'(0) = 0 and P'''(0) = -240 L^3,
    # so <phi_k, B phi_1> = a_k a_1 (-240 w_k^-4)(1 + O(w_k^-2)): the typical
    # rate is k^-4 (plain fit ~ -4.1, the amplitude a_k adds ~ -0.1).  The
    # cited k^-(5+eps) is a lower bound, w^-4 times a worst-case amplitude
    # floor, approached only on sparse diophantine dips of a_k; the envelope
    # fit in the printed line shadows it.  Checked: (a) a_k against the
    # closed-form normalization, (b) the column against its exact
    # integration-by-parts form, (c) exponent -4 with a_k divided out,
    # (d) the k^-5.6 lower-bound side of the original band.
    with criterion(7, "coupling column equals its exact k^-4 form; exponent >= -5.6", 30.0):
        lengths = [1.0, SQRT2, math.sqrt(3), math.sqrt(5), math.sqrt(7)]
        basis = solve_spectrum(star(lengths, bcs=[BC.NEUMANN] * 5), 126)
        op = ControlOperator(per_edge={"e1": degree6_neumann_potential(1.0)})
        lo, hi = 30, 120
        rep = analyze_coupling(op, basis, 126, fit_range=(lo, hi))
        exponent = rep.decay_fit[0]
        print(f"  measured decay exponent: {exponent:.3f} "
              f"(envelope: {rep.envelope_fit[0]:.3f})")

        ks = np.arange(lo, hi + 1)
        omegas = basis.omegas[ks - 1]
        a1 = basis.amplitudes[0, 0]
        ak = basis.amplitudes[ks - 1, 0]
        amp_ref = np.array([neumann_star_amplitude(w, lengths) for w in omegas])
        assert np.abs(np.abs(ak) / amp_ref - 1.0).max() <= 1e-12                      # (a)

        reduced = rep.elements[ks - 1] / (ak * a1)
        exact = np.array([degree6_neumann_cos_integral(w, 1.0) for w in omegas])
        assert np.abs(reduced / exact - 1.0).max() <= 1e-9                            # (b)

        reduced_exponent = np.polyfit(np.log(ks), np.log(np.abs(reduced)), 1)[0]
        print(f"  exponent with a_k divided out: {reduced_exponent:.4f}")
        assert abs(reduced_exponent + 4.0) <= 0.1                                     # (c)

        assert exponent >= -5.6                                                       # (d)
        assert not [k for k in rep.zero_elements if lo <= k <= hi]


def test_criterion_08_derivative_lower_bound():
    with criterion(8, "|G'(+-sqrt(lambda_k))| k^1.1 has positive infimum", 5.0):
        g = star([1.0, SQRT2])
        basis = solve_spectrum(g, 200)
        sp = build_secular_product(g)
        fit = fit_derivative_bound(sp, basis, 200)
        pos = np.abs(sp.derivative(basis.omegas))
        neg = np.abs(sp.derivative(-basis.omegas))
        scaled = np.minimum(pos, neg) * np.arange(1, 201) ** 1.1
        assert scaled.min() > 0
        assert fit.constant > 0


def test_criterion_09_diophantine_sandwich():
    with criterion(9, "half-distance sandwich and product-bound ratio", 5.0):
        xg = np.linspace(2.0, 5000.0, 100000)
        rep = diophantine_products([1.0, SQRT2], [], [0, 1], xg)
        assert rep.sandwich_max_violation <= 5e-14  # rounding at cos-argument scale
        assert rep.ratio_infimum > 0
        assert rep.genuine_zero_points == []


def test_criterion_10_lie_closure():
    with criterion(10, "chain-coupled 4-level system generates su(4)", 1.0):
        lam = np.array([0.0, 1.0, 2.5, 4.2])
        B = np.zeros((4, 4))
        for i in range(3):
            B[i, i + 1] = B[i + 1, i] = 1.0
        rep = lie_closure(GalerkinSystem(lam=lam, B=B))
        assert rep.reached_dimension == rep.target_dimension == 15
        assert exact_bracket_closure(4, rep.admissible_pairs) == 15


def test_criterion_11_subsystem_transfer():
    with criterion(11, "equilateral-star transfer phi_1 -> phi_2 in truncation 12", 30.0):
        demo = subsystem_transfer_demo("equilateral_star", {"n_edges": 3, "length": 1.0},
                                       1, 2, 0.01, 12)
        assert demo.transfer.fidelity > 0.98
        assert demo.dropped_coupling_max < 1e-12
        assert demo.truncation_boundary_max < 1e-6
        assert demo.transfer.norm_drift < 1e-10


def test_criterion_12_linearization_remainder():
    with criterion(12, "first-order response with quadratic remainder", 10.0):
        from graphctrl.dynamics import TrigControl, first_order_prediction, propagate
        sys8 = interval_system()
        base = TrigControl(horizon=1.0,
                           terms=[(3 * PI**2, "cos", 0.02), (8 * PI**2, "sin", 0.01)])
        psi0 = np.zeros(8, dtype=complex)
        psi0[0] = 1.0
        errs = []
        for s in (1.0, 0.5, 0.25):
            u = base.scaled(s)
            traj = propagate(sys8, psi0, u, n_steps=20000)
            errs.append(np.linalg.norm(traj.final - first_order_prediction(sys8, u)))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

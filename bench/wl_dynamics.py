"""dynamics: truncated propagation, time reversal, resonant transfers, closure.

Why: per-step step matrices set both the time and the peak memory here, and
admissible_pairs (which compares every pair of coupled pairs, so its cost
grows as K^4) runs inside every resonant transfer.  The Galerkin systems are
built in set-up.
"""

from __future__ import annotations

import math

import numpy as np

from harness import Op, Workload
from oracles import closure_dimension
from wl_spectra import star_graph

K_MAX = 100
# (K, steps) of the fixed-step runs.  The propagator builds one K x K step
# matrix per step (a resonant transfer's periodic path builds 1024 for one
# period), and these matrices set the workload's time and peak memory.
PROPAGATIONS = ((30, 2048), (100, 128))
ROUND_TRIP = (30, 512)
TRANSFER_K = (30, 60)
TRANSFER_AMPLITUDE = 0.01
LIE_N = 12


def two_tone_terms(rng):
    """Seeded control terms (frequency, kind, amplitude): one cosine, one sine."""
    pi2 = math.pi ** 2
    return [(float(rng.uniform(2.0, 5.0)) * pi2, "cos", float(rng.uniform(0.02, 0.05))),
            (float(rng.uniform(6.0, 9.0)) * pi2, "sin", float(rng.uniform(0.01, 0.03)))]


def admissible_oracle(lam, B, resonance_tol=1e-8):
    """Coupled pairs whose transition frequency no other coupled pair shares."""
    K = lam.size
    tol = 1e-12 * max(1.0, float(np.abs(B).max()))
    j, k = np.triu_indices(K, 1)
    coupled = np.abs(B[j, k]) > tol
    j, k = j[coupled], k[coupled]
    f = np.abs(lam[k] - lam[j])
    order = np.argsort(f, kind="stable")
    fs = f[order]
    near = np.zeros(fs.size, dtype=bool)
    gap_ok = np.diff(fs) <= resonance_tol * max(1.0, float(np.abs(lam).max()))
    near[:-1] |= gap_ok
    near[1:] |= gap_ok
    ok = np.empty_like(near)
    ok[order] = ~near
    return {(int(a) + 1, int(b) + 1) for a, b, keep in zip(j, k, ok) if keep}


class Dynamics(Workload):
    name = "dynamics"

    def build(self, seed):
        from graphctrl import dynamics, potentials, spectrum

        rng = np.random.default_rng([seed, 3])
        # The Galerkin system is fixed (the graph and potential of the
        # star2_dirichlet sample problem): the step count and the step-matrix
        # memory of a resonant transfer follow from the system, so a seeded
        # system would make this workload's cost depend on the seed.  The
        # controls and the round-trip state are seeded.
        graph = star_graph([1.0, math.sqrt(2.0)], [True, True])
        basis = spectrum.solve_spectrum(graph, K_MAX)
        op = potentials.ControlOperator(per_edge={"e1": potentials.squared_shift_potential(1.0)})
        B = potentials.build_matrix(op, basis)
        lam = basis.eigenvalues
        sizes = {K for K, _ in PROPAGATIONS} | {ROUND_TRIP[0], LIE_N} | set(TRANSFER_K)
        self.systems = {K: dynamics.GalerkinSystem(lam=lam[:K], B=B[:K, :K]) for K in sizes}
        self.control = dynamics.TrigControl(horizon=1.0, terms=two_tone_terms(rng))
        psi = rng.standard_normal(ROUND_TRIP[0]) + 1j * rng.standard_normal(ROUND_TRIP[0])
        self.psi_round = psi / np.linalg.norm(psi)

    def operations(self):
        from graphctrl import dynamics

        ops = []
        u = self.control
        for K, steps in PROPAGATIONS:
            def prop(K=K, steps=steps):
                psi0 = np.zeros(K, dtype=complex)
                psi0[0] = 1.0
                return dynamics.propagate(self.systems[K], psi0, u, n_steps=steps)
            ops.append(Op(f"propagate K={K} steps={steps}", prop, _check_drift))

        K, steps = ROUND_TRIP

        def round_trip(K=K, steps=steps):
            system = self.systems[K]
            traj = dynamics.propagate(system, self.psi_round, u, n_steps=steps)
            back = dynamics.propagate_reversed(system, traj.final, u, n_steps=steps)
            return traj, back

        def check_round_trip(result):
            traj, back = result
            err = float(np.max(np.abs(back - self.psi_round)))
            if not err <= 1e-9:
                return f"forward-then-reversed error {err:.3g} > 1e-9"
            return _check_drift(traj)

        ops.append(Op(f"propagate+propagate_reversed K={K} steps={steps}", round_trip,
                      check_round_trip))

        for K in TRANSFER_K:
            def transfer(K=K):
                return dynamics.resonant_transfer(self.systems[K], 1, 2, TRANSFER_AMPLITUDE)
            ops.append(Op(f"resonant_transfer K={K}", transfer, _check_transfer))

        def closure():
            return dynamics.lie_closure(self.systems[LIE_N])

        def check_closure(rep):
            system = self.systems[LIE_N]
            expected_pairs = admissible_oracle(system.lam, system.B)
            if set(rep.admissible_pairs) != expected_pairs:
                return "admissible pairs differ from the oracle's"
            exact = closure_dimension(LIE_N, rep.admissible_pairs)
            if rep.reached_dimension != exact:
                return f"closure dimension {rep.reached_dimension}, exact count {exact}"
            return None

        ops.append(Op(f"lie_closure n={LIE_N}", closure, check_closure))
        return ops


def _check_drift(traj):
    if not traj.norm_drift <= 1e-10:
        return f"norm drift {traj.norm_drift:.3g} > 1e-10"
    return None


def _check_transfer(res):
    if not res.fidelity >= 0.98:
        return f"transfer fidelity {res.fidelity:.6f} < 0.98"
    if not res.norm_drift <= 1e-10:
        return f"norm drift {res.norm_drift:.3g} > 1e-10"
    return None

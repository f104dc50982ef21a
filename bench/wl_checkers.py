"""checkers: coupling matrices, coupling analysis and moment problems.

Why: the scalar closed-form integral loops (matrix elements, exponential
moments) do almost all the work here; the spectrum solver runs only in
set-up, where the bases are built.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from harness import Op, Workload
from wl_spectra import star_graph

# (family, K) of the moment solves: the interval at both reference sizes, the
# 2-star at two smaller ones (its K=256 pair would add a third to a pass).
MOMENT_CASES = (("interval", 64), ("interval", 256), ("star2", 64), ("star2", 128))
MATRIX_K = (60, 200)
CLUSTERED_K = (128, 256)
DD_DELTA, DD_M = 0.4, 3
DD_T = 1.2 * 2 * math.pi / DD_DELTA        # acceptance criterion 4's horizon


def vanishing_potential(rng, L, order, degree):
    """(x - L)^order * (a + (x - L) r(x)) in ascending coefficients, a != 0.

    Its first nonvanishing derivative at the center x = L has order ``order``,
    which is what check_vertex_compatibility must report.
    """
    a = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
    r = rng.uniform(-1.0, 1.0, degree - order)
    q = P.polyadd([a], P.polymul([-L, 1.0], r)) if degree > order else np.array([a])
    return P.polymul(P.polypow([-L, 1.0], order), q)


def clustered_family(K, offset):
    """ceil(m/2) + offset on even m: pair clusters (criterion 4's family)."""
    return np.array([(m + 1) // 2 + offset * (m % 2 == 0) for m in range(1, K + 1)])


def moment_targets(rng, K):
    x = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    x[0] = x[0].real
    return x


class Checkers(Workload):
    name = "checkers"

    def build(self, seed):
        from graphctrl import moment, potentials, spectrum

        rng = np.random.default_rng([seed, 2])
        L2 = [1.0, float(rng.uniform(1.2, 1.8))]
        L5 = [float(x) for x in rng.uniform(0.8, 2.0, 5)]
        self.graph2 = star_graph(L2, [True, True])
        self.graph5 = star_graph(L5, [False] * 5)
        self.order2, self.order5 = 2, 3
        self.op2 = potentials.ControlOperator(
            per_edge={"e1": vanishing_potential(rng, L2[0], self.order2, 2)})
        self.op5 = potentials.ControlOperator(
            per_edge={"e1": vanishing_potential(rng, L5[0], self.order5, 6)})
        self.basis2 = spectrum.solve_spectrum(self.graph2, max(MATRIX_K))
        self.basis5 = spectrum.solve_spectrum(self.graph5, max(MATRIX_K))

        self.moment_cases = []
        for family, K in MOMENT_CASES:
            if family == "interval":
                lam, T = (np.arange(1, K + 1) * math.pi) ** 2, 1.0
            else:
                lam = self.basis2.eigenvalues[:K]
                T = 1.5 * 2 * math.pi / float(np.min(np.diff(lam)))
            self.moment_cases.append((family, K, lam, T, moment_targets(rng, K)))

        offset = float(rng.uniform(0.25, 0.35))
        self.partitions = [(K, moment.build_partition(clustered_family(K, offset), DD_DELTA, DD_M))
                           for K in CLUSTERED_K]

    def operations(self):
        from graphctrl import moment, potentials

        ops = []
        matrices = {}
        for label, op, basis in (("star2", self.op2, self.basis2), ("star5", self.op5, self.basis5)):
            for K in MATRIX_K:
                def build(op=op, basis=basis, K=K, key=(label, K)):
                    matrices[key] = None
                    matrices[key] = potentials.build_matrix(op, basis, K)
                    return matrices[key]
                ops.append(Op(f"build_matrix {label} K={K}", build, _check_symmetric))

        K5 = max(MATRIX_K)

        def coupling_op():
            return potentials.analyze_coupling(self.op5, self.basis5, K5)

        def coupling_matrix():
            B = matrices.get(("star5", K5))
            if B is None:
                raise RuntimeError("no matrix: the build_matrix before this call failed")
            return potentials.analyze_coupling(B, self.basis5, K5)

        def check_coupling(rep):
            B = matrices.get(("star5", K5))
            if B is None:
                return "no matrix to compare the coupling column with"
            col = B[:, 0]
            if np.max(np.abs(rep.elements - col)) > 1e-12 * np.max(np.abs(col)):
                return "coupling column differs from the first column of build_matrix"
            if not math.isfinite(rep.decay_fit[0]):
                return f"decay fit {rep.decay_fit!r}"
            return None

        ops.append(Op("analyze_coupling operator star5", coupling_op, check_coupling))
        ops.append(Op("analyze_coupling matrix star5", coupling_matrix, check_coupling))
        for label, op, graph, order in (("star2", self.op2, self.graph2, self.order2),
                                        ("star5", self.op5, self.graph5, self.order5)):
            def vertex(op=op, graph=graph):
                return potentials.check_vertex_compatibility(op, graph)

            def check_vertex(rep, order=order):
                if rep.vanishing_order != order:
                    return f"vanishing order {rep.vanishing_order}, potential has {order}"
                return None
            ops.append(Op(f"check_vertex_compatibility {label}", vertex, check_vertex))

        for family, K, lam, T, x in self.moment_cases:
            for mode in ("direct", "dd_preconditioned"):
                def solve(lam=lam, x=x, T=T, mode=mode):
                    return moment.solve_moment(lam, x, T, mode=mode)
                ops.append(Op(f"solve_moment {mode} {family} K={K}", solve, _check_moment))

        for K, part in self.partitions:
            box = {}

            def build_dd(part=part, box=box):
                box["system"] = None
                box["system"] = moment.build_dd_system(part, DD_T)
                return box["system"]

            def trace(box=box):
                return moment.check_trace_bounds(_system(box), 0.5)

            def bio(box=box):
                return moment.verify_biorthogonality(_system(box))

            ops.append(Op(f"build_dd_system K={K}", build_dd, _check_frame))
            ops.append(Op(f"check_trace_bounds K={K}", trace, _check_trace))
            ops.append(Op(f"verify_biorthogonality K={K}", bio, _check_bio))
        return ops


def _system(box):
    if box.get("system") is None:
        raise RuntimeError("no system: the build_dd_system before this call failed")
    return box["system"]


def _check_symmetric(B):
    if not np.array_equal(B, B.T):
        return "coupling matrix is not symmetric bit for bit"
    if not np.all(np.isfinite(B)):
        return "coupling matrix has non-finite entries"
    return None


def _check_moment(sol):
    if not sol.max_residual <= 1e-8:
        return f"moment residual {sol.max_residual:.3g} > 1e-8"
    if not sol.imag_moment_defect <= 1e-10:
        return f"imaginary-moment defect {sol.imag_moment_defect:.3g} > 1e-10"
    return None


def _check_frame(system):
    lo = system.frame_bounds[0]
    return None if lo > 0 else f"frame lower bound {lo!r} <= 0"


def _check_trace(rep):
    return None if math.isfinite(rep.sup_ratio) else f"trace ratio {rep.sup_ratio!r}"


def _check_bio(devs):
    return None if max(devs) <= 1e-8 else f"biorthogonality deviation {max(devs):.3g} > 1e-8"

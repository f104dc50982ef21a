"""spectra: root scans of seeded star graphs, checked by the interlacing count.

Why: the secular root scan does nearly all the work here and lowerbounds
reuses it; potentials, moment and dynamics do none.

The timed stars are those the solver must get right: generic 2-edge stars
(a grid cell can hold at most one root of them) and stars of 3-6 edges with
commensurate lengths h * m, m a small integer, some exactly repeated, which
produce the center-vanishing branches.  Every timed solve must pass the
interlacing count.

The inputs on which the seed code's grid scan drops roots (ROADMAP item 2)
are not timed: the ROADMAP item 2 reproducer, near-equal stars and a generic
5-edge star are solved once per run as a known-defect probe, and the share
that fails the interlacing count is reported (``spectrum.oracle_mismatch``)
without failing the run.  Once the scan is fixed they belong in CASES.
"""

from __future__ import annotations

import math

import numpy as np

from harness import Op, Workload
from oracles import interlacing_mismatch

# ROADMAP item 2 reproducer: a Dirichlet star whose near-degenerate clusters
# lose two roots each under the grid scan.
REPRODUCER = [0.54134275, 0.54134158, 0.54134045, 0.54134294]

K_MAIN = 200
K_LARGE = 1000

# Fixed composition of one pass: (family, shape, boundary pattern, K).  For
# generic stars the shape is the edge count and the pattern "mixed" draws D/N
# per edge (at least one of each), "D" and "N" make every external vertex
# Dirichlet resp. Neumann.  For commensurate stars the shape is the integers
# m of the lengths h * m and the pattern gives each edge's end as D or N.
CASES = [
    ("generic", 2, "mixed", K_MAIN),
    ("generic", 2, "D", K_MAIN),
    ("generic", 2, "N", K_MAIN),
    ("commensurate", (2, 3, 5), "DND", K_MAIN),
    ("repeated", (3, 3, 4, 5), "NNNN", K_MAIN),
    ("repeated", (2, 3, 3, 4, 5), "DDDDD", K_MAIN),
    ("commensurate", (1, 2, 3, 4, 5, 6), "DNDNND", K_MAIN),
    ("generic", 2, "D", K_LARGE),
]

# Known-defect probe, solved once per run outside the timed passes.
PROBES = [
    ("reproducer", 4, "D", K_MAIN),
    ("near_equal", 3, "D", K_MAIN),
    ("near_equal", 4, "N", K_MAIN),
    ("generic", 5, "mixed", K_MAIN),
]


def _pattern(rng, n, kind):
    if kind == "D":
        return [True] * n
    if kind == "N":
        return [False] * n
    d = [bool(b) for b in rng.random(n) < 0.5]
    d[0], d[1] = True, False            # at least one of each
    return d


def _draw(rng, spec):
    family, shape, kind, K = spec
    if family in ("commensurate", "repeated"):
        # lengths h * m: the seed draws the scale h and the order of the edges.
        # The integers and the pattern are fixed, because the shared zeros
        # they make set how many roots are bisected, and so the solve time.
        order = rng.permutation(len(shape))
        h = float(rng.uniform(0.15, 0.3))
        lengths = [h * shape[i] for i in order]
        dirichlet = [kind[i] == "D" for i in order]
    else:
        dirichlet = _pattern(rng, shape, kind)
        if family == "reproducer":
            lengths = list(REPRODUCER)
        elif family == "near_equal":        # relative spread about 1e-6
            lengths = [float(1.0 + 1e-6 * z) for z in rng.standard_normal(shape)]
        else:
            lengths = [float(x) for x in rng.uniform(0.5, 1.5, shape)]
    return {"family": family, "lengths": lengths, "dirichlet": dirichlet, "K": K,
            "graph": star_graph(lengths, dirichlet)}


def _tag(i, case):
    return f"{case['family']}[{i}] n={len(case['lengths'])} K={case['K']}"


def star_graph(lengths, dirichlet):
    from graphctrl.graph import BoundaryCondition as BC
    from graphctrl.graph import Edge, MetricGraph, Topology

    n = len(lengths)
    edges = [Edge(f"e{i + 1}", lengths[i], f"v{i + 1}", "c") for i in range(n)]
    bc = {f"v{i + 1}": BC.DIRICHLET if dirichlet[i] else BC.NEUMANN for i in range(n)}
    bc["c"] = BC.NEUMANN_KIRCHHOFF
    return MetricGraph(edges=edges, bc=bc, topology=Topology.STAR)


class Spectra(Workload):
    name = "spectra"

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.cases = [_draw(rng, spec) for spec in CASES]
        self.probes = [_draw(rng, spec) for spec in PROBES]

    def operations(self):
        from graphctrl import lowerbounds, spectrum

        ops = []
        for i, case in enumerate(self.cases):
            tag = _tag(i, case)
            box = {}

            def solve(case=case, box=box):
                box["basis"] = None
                box["basis"] = spectrum.solve_spectrum(case["graph"], case["K"])
                return box["basis"]

            def check_solve(basis, case=case):
                return interlacing_mismatch(case["lengths"], case["dirichlet"], basis.omegas, case["K"])

            ops.append(Op(f"solve_spectrum {tag}", solve, check_solve))

            if case["family"] != "generic":     # only generic lengths give a simple spectrum
                continue

            def fit(case=case, box=box):
                if box.get("basis") is None:
                    raise RuntimeError("no basis: the solve before this fit failed")
                sp = lowerbounds.build_secular_product(case["graph"])
                return lowerbounds.fit_derivative_bound(sp, box["basis"])

            ops.append(Op(f"fit_derivative_bound {tag}", fit, _check_fit))

            if not any(case["dirichlet"]) and case["K"] == K_MAIN:
                def cos_bound(case=case):
                    return lowerbounds.check_cos_lower_bound(case["lengths"], case["K"])

                def check_cos(rep, case=case):
                    return interlacing_mismatch(case["lengths"], case["dirichlet"], rep.roots,
                                                case["K"], distinct=True)

                ops.append(Op(f"check_cos_lower_bound {tag}", cos_bound, check_cos))
        return ops

    def probe(self):
        from graphctrl import spectrum

        out = []
        for i, case in enumerate(self.probes):
            try:
                basis = spectrum.solve_spectrum(case["graph"], case["K"])
                reason = interlacing_mismatch(case["lengths"], case["dirichlet"], basis.omegas,
                                              case["K"])
            except Exception as exc:
                reason = f"raised {type(exc).__name__}: {exc}"
            out.append((f"solve_spectrum {_tag(i, case)}", reason))
        return out


def _check_fit(fit):
    # acceptance criterion 8: a positive constant in |G'| >= C / k^(1+d)
    if not (math.isfinite(fit.constant) and fit.constant > 0 and math.isfinite(fit.dtilde)):
        return f"fit constant {fit.constant!r}, dtilde {fit.dtilde!r}"
    return None

"""Clustered exponential families, divided differences and moment problems.

Given an increasing frequency family nu with the windowed gap property
inf |nu_{k+M} - nu_k| >= delta * M, consecutive frequencies closer than
delta are grouped into clusters of size at most M-1.  Within each cluster
the upper-triangular divided-difference matrix

    F[j, k] = prod_{l <= k, l != j} (nu_j - nu_l)^{-1}   (j <= k, F[0,0] = 1)

recombines the raw exponentials e^{i nu t} into divided differences that
recover a Riesz basis on (0, T) once T > 2 pi / delta; the code verifies
that statement at finite rank through the extreme eigenvalues of the Gram
matrix.

The moment solver produces a real control u on (0, T) with prescribed
windowed Fourier coefficients at the shifted frequencies alpha_k = lambda_k -
lambda_1.  The control lives on the real dictionary {1, cos alpha_k t,
sin alpha_k t}, so realness is built in.  The moment problem does not depend
on where the window of length T sits, so both solve modes work on the centred
window (-T/2, T/2), where cos is even and sin is odd: the dictionary's real
Gram splits into the Gram of {1, cos alpha_k s} (the Re equations) and that
of {sin alpha_k s} (the Im equations), and the coefficients and residuals are
rotated back by the phases alpha_k T/2.  The divided-difference mode clusters
the alpha's and recombines each cluster's cos columns, and again its sin
columns, into divided differences; the cluster holding alpha_0 = 0
recombines {1, cos} over all its alphas and its sin columns over its nonzero
ones, since sin 0 s = 0.  The solution's control is a TrigControl over the
dictionary on (0, T).

TrigControl, the trigonometric control that the dynamics propagate, lives
here beside exp_inner: its moments, the integrals of u(t) e^{i alpha t}, are
one exp_inner call at alpha + (0, f, -f) over its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, require_finite
from .spectrum import MAX_GAP_WINDOW, loglog_fit

CONDITION_LIMIT = 1e10
RESIDUAL_LIMIT = 1e-8


# ---------------------------------------------------------------------------
# cluster partitions

@dataclass
class ClusterPartition:
    frequencies: np.ndarray          # strictly increasing
    labels: np.ndarray               # integer labels (signed indexing supported)
    delta: float
    M: int
    clusters: list[tuple[int, int]]  # [start, end) positions

    @property
    def sizes(self) -> list[int]:
        return [e - s for s, e in self.clusters]


def validate_gap_condition(freqs: np.ndarray, delta: float, M: int):
    """Check inf_k |nu_{k+M} - nu_k| >= delta * M over the truncation."""
    n = freqs.size
    if n > M:
        gaps = freqs[M:] - freqs[:-M]
        bad = np.nonzero(gaps < delta * M - 1e-12 * max(1.0, delta * M))[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"window gap violated: nu[{i + M}] - nu[{i}] = {gaps[i]:.6g} < delta*M = {delta * M:.6g}")


def build_partition(frequencies, delta: float | None = None, M: int | None = None,
                    labels=None) -> ClusterPartition:
    """Greedy left-to-right clustering: cut whenever the next gap is >= delta.

    The pair (delta, M) is validated against the windowed gap condition and
    against the cluster-size bound (<= M-1 for M >= 2, singletons for M=1);
    when not supplied both are estimated from the data.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValidationError("frequency list is empty")
    if np.any(np.diff(freqs) <= 0):
        raise ValidationError("frequencies must be strictly increasing and pairwise distinct")
    if labels is None:
        labels = np.arange(1, freqs.size + 1)
    labels = np.asarray(labels, dtype=int)
    if labels.size != freqs.size:
        raise ValidationError("labels must match frequencies in length")

    if delta is None or M is None:
        delta, M = estimate_gap_parameters(freqs)
    if not (math.isfinite(delta) and delta > 0) or M < 1:
        raise ValidationError(
            f"delta must be finite and positive and M >= 1, got delta = {delta!r}, M = {M!r}")
    validate_gap_condition(freqs, delta, M)

    clusters = _greedy_clusters(freqs, delta)
    limit = 1 if M == 1 else M - 1
    for s, e in clusters:
        if e - s > limit:
            raise ValidationError(
                f"cluster {s}:{e} has size {e - s} > {limit} allowed for M = {M} "
                f"(frequencies {freqs[s]:.6g}..{freqs[e - 1]:.6g})")
    return ClusterPartition(frequencies=freqs, labels=labels, delta=float(delta),
                            M=int(M), clusters=clusters)


def estimate_gap_parameters(freqs: np.ndarray) -> tuple[float, int]:
    """Smallest workable M (then largest delta) for the windowed gap condition.

    delta_M = min_k (nu_{k+M} - nu_k) / M is the largest delta valid for a
    given M <= MAX_GAP_WINDOW.  M is feasible when the greedy clustering at delta_M respects
    the size bound; among feasible M the smallest one whose delta is at
    least half the best achievable is returned.
    """
    freqs = np.asarray(freqs, dtype=float)
    deltas = {}
    for M in range(1, MAX_GAP_WINDOW + 1):
        if freqs.size <= M:
            break
        deltas[M] = float(np.min(freqs[M:] - freqs[:-M]) / M)
    if not deltas:
        return (1.0, 1)
    best = max(deltas.values())
    for M, d in deltas.items():
        if d < 0.5 * best or d <= 0:
            continue
        if max(e - s for s, e in _greedy_clusters(freqs, d)) <= (1 if M == 1 else M - 1):
            return (d, M)
    return (best, max(deltas, key=deltas.get))


def _greedy_clusters(freqs, delta) -> list[tuple[int, int]]:
    """[start, end) runs of freqs, cut after every position whose next gap is >= delta."""
    cuts = (np.flatnonzero(np.diff(freqs) >= delta) + 1).tolist()
    return list(zip([0] + cuts, cuts + [len(freqs)]))


# ---------------------------------------------------------------------------
# divided differences

def dd_matrix(values: np.ndarray) -> np.ndarray:
    """Upper-triangular divided-difference matrices of clusters stacked on the last axis.

    values of shape (..., n) give blocks of shape (..., n, n); one cluster of n
    values is the case of no leading axes.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    F = np.zeros(v.shape + (n,))
    # F[j, k] = 1 / prod_{l <= k, l != j} (v_j - v_l), divided out in the order of l
    diag = F.reshape(v.shape[:-1] + (n * n,))[..., ::n + 1]     # a view of the diagonals
    diag[...] = 1.0
    for l in range(n - 1):
        diag[..., l + 1:] /= v[..., l + 1:] - v[..., l, None]
    for k in range(1, n):
        F[..., :k, k] = F[..., :k, k - 1] / (v[..., :k] - v[..., k, None])
    return F


def _stacked_blocks(values: np.ndarray, clusters) -> list[tuple[np.ndarray, np.ndarray]]:
    """The divided-difference blocks of [start, end) clusters of values, stacked by size.

    For each cluster size s, in increasing order, the pair (rows, F): the
    positions of its n_s clusters in their order, shape (n_s, s), and their
    blocks from one batched dd_matrix, shape (n_s, s, s).  This is W =
    blockdiag(F_m), block F_m on the positions of cluster m.
    """
    bounds = np.array(clusters, dtype=int).reshape(-1, 2)
    starts, sizes = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    stacks = []
    for size in np.unique(sizes).tolist():
        rows = starts[sizes == size, None] + np.arange(size)
        F = dd_matrix(values[rows])
        if size > 1 and np.any(np.diagonal(F, axis1=1, axis2=2) == 0.0):
            raise NumericalError("divided-difference block is singular")
        stacks.append((rows, F))
    return stacks


@dataclass
class DividedDifferenceSystem:
    partition: ClusterPartition
    horizon: float
    blocks: list[tuple[np.ndarray, np.ndarray]]   # (rows, F) per cluster size, see _stacked_blocks
    gram: np.ndarray
    frame_bounds: tuple[float, float]

    @property
    def weights(self) -> np.ndarray:
        """Block-diagonal transpose action: xi = W^T e with W = blockdiag(F_m)."""
        n = self.partition.frequencies.size
        W = np.zeros((n, n))
        for rows, F in self.blocks:
            W[rows[:, :, None], rows[:, None, :]] = F
        return W


def exp_inner(omega, T: float):
    """Integral over (0, T) of e^{i omega t}, elementwise over an array of omega.

    Equals sin(omega T) / omega + i sin(omega T/2) S(omega), and T at omega = 0,
    with S = centred_inner: the imaginary part (1 - cos(omega T)) / omega
    without its cancellation at small omega T.  A scalar omega gives a
    complex scalar.
    """
    w = np.asarray(omega, dtype=float)
    zero = w == 0.0
    safe = np.where(zero, 1.0, w)
    half = np.sin(w * (0.5 * T))        # 0 at omega = 0, so the imaginary part is 0 there
    out = np.empty(w.shape, dtype=complex)
    out.real = np.where(zero, T, np.sin(safe * T) / safe)
    out.imag = half * (2.0 * half / safe)
    return complex(out) if out.ndim == 0 else out


def centred_inner(omega, T: float):
    """Integral over (-T/2, T/2) of e^{i omega s}, elementwise over an array of omega.

    The integral is real: S(omega) = 2 sin(omega T/2) / omega, and T at
    omega = 0.  S is even bit for bit, since np.sin is odd.
    """
    w = np.asarray(omega, dtype=float)
    zero = w == 0.0
    safe = np.where(zero, 1.0, w)
    return np.where(zero, T, 2.0 * np.sin(safe * (0.5 * T)) / safe)


@dataclass
class TrigControl:
    """u(t) = const + sum of coeff * cos/sin(freq t) on [0, horizon]."""

    horizon: float
    const: float = 0.0
    terms: list[tuple[float, str, float]] = field(default_factory=list)  # (freq, "cos"|"sin", coeff)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"control horizon must be finite and > 0, got {self.horizon!r}")
        require_finite("control constant", self.const)
        for _, kind, _ in self.terms:
            if kind not in ("cos", "sin"):
                raise ValidationError(f"control term kind must be 'cos' or 'sin', got {kind!r}")
        require_finite("control frequencies", [f for f, _, _ in self.terms])
        require_finite("control coefficients", [c for _, _, c in self.terms])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.const, dtype=float)
        for freq, kind, c in self.terms:
            out = out + c * (np.cos(freq * t) if kind == "cos" else np.sin(freq * t))
        return out

    def moments(self, alpha):
        """Closed-form integrals of u(t) e^{i alpha t} over (0, horizon), elementwise over alpha.

        One exp_inner call at alpha + s for the offsets s = (0, f, -f) of the
        constant and of each term, weighted by const and, per term, c/2 and c/2
        (cos) or c/2i and -c/2i (sin).
        """
        offsets = [0.0] + [s * f for f, _, _ in self.terms for s in (1.0, -1.0)]
        weights = [self.const] + [w for _, kind, c in self.terms
                                  for w in ((c / 2, c / 2) if kind == "cos" else (c / 2j, -c / 2j))]
        alpha = np.asarray(alpha, dtype=float)
        inner = exp_inner(alpha[..., None] + np.array(offsets), self.horizon)
        return inner @ np.array(weights, dtype=complex)

    @property
    def max_frequency(self) -> float:
        return max([abs(f) for f, _, _ in self.terms], default=0.0)

    @property
    def period(self) -> float | None:
        freqs = sorted({abs(f) for f, _, _ in self.terms if f != 0.0})
        if len(freqs) != 1:
            return None
        return 2 * math.pi / freqs[0]

    @property
    def even_time(self) -> float:
        """A time t0 in [0, period/2) about which a single-frequency u is even.

        const + A cos(wt) + B sin(wt) = const + R cos(w(t - t0)) with
        t0 = atan2(B, A) / w, taken modulo half a period since a sinusoid is
        even about its minima as well as its maxima: 0 for every cosine drive.
        """
        omega = 2 * math.pi / self.period
        A = sum(c for f, k, c in self.terms if f != 0.0 and k == "cos")
        B = sum(c if f > 0 else -c for f, k, c in self.terms if f != 0.0 and k == "sin")
        return (math.atan2(B, A) % math.pi) / omega

    def scaled(self, factor: float) -> "TrigControl":
        return TrigControl(horizon=self.horizon, const=factor * self.const,
                           terms=[(f, k, factor * c) for f, k, c in self.terms])


def exponential_gram(freqs: np.ndarray, T: float) -> np.ndarray:
    """Hermitian Gram <e_p, e_q> = integral of e^{i (nu_q - nu_p) t}.

    exp_inner runs on the upper triangle p <= q only, and the lower triangle
    is its conjugate mirror.
    """
    E = np.empty((freqs.size, freqs.size), dtype=complex)
    upper = ~np.tri(freqs.size, k=-1, dtype=bool)
    inner = exp_inner((freqs - freqs[:, None])[upper], T)
    E.T[upper] = inner.conj()
    E[upper] = inner            # last, so the diagonal keeps exp_inner's own bits
    return E


def _dd_blocks(partition: ClusterPartition, T: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stacked divided-difference blocks of the partition, once T is inside the Riesz window.

    The window requires T > 2 pi / delta; equality is admitted (up to
    rounding) since the finite truncation is still well conditioned there
    (e.g. orthogonal integer-lattice exponentials at exactly one period).
    """
    if T < (2 * math.pi / partition.delta) * (1.0 - 1e-12):
        raise ValidationError(
            f"horizon T = {T:.6g} too small: the Riesz-basis window requires "
            f"T > 2 pi / delta = {2 * math.pi / partition.delta:.6g}")
    return _stacked_blocks(partition.frequencies, partition.clusters)


def build_dd_system(partition: ClusterPartition, T: float) -> DividedDifferenceSystem:
    """Assemble the divided-difference family and its Gram frame bounds."""
    blocks = _dd_blocks(partition, T)
    G = _congruence(blocks, exponential_gram(partition.frequencies, T))
    G = 0.5 * (G + G.conj().T)
    eigs = np.linalg.eigvalsh(G)
    return DividedDifferenceSystem(partition=partition, horizon=float(T), blocks=blocks,
                                   gram=G, frame_bounds=(float(eigs[0]), float(eigs[-1])))


def _apply_blocks(blocks, X, transpose: bool = False) -> np.ndarray:
    """W @ X, or W.T @ X, without forming W, for the stacked blocks of _stacked_blocks.

    Rows of size-1 clusters keep X's values, and each larger size is one
    batched product.  With no cluster larger than 1, W = I and X itself is
    returned (as float or complex).  The product works on a C-ordered copy of
    X, so the row gathers and scatters are contiguous also for a transposed
    view; a size gathers only its own rows, which no other size writes.
    """
    X = np.asarray(X)
    stacks = [(rows, F) for rows, F in blocks if rows.shape[1] > 1]
    if not stacks:
        return X.astype(np.result_type(X, float), copy=False)
    out = X.astype(np.result_type(X, float), order="C")
    for rows, F in stacks:
        if transpose:
            F = F.transpose(0, 2, 1)
        Xc = out[rows]
        out[rows] = (F @ Xc.reshape(rows.shape + (-1,))).reshape(Xc.shape)
    return out


def _congruence(blocks, G: np.ndarray) -> np.ndarray:
    """W^T G W for the block-diagonal W of _apply_blocks."""
    WtG = _apply_blocks(blocks, G, transpose=True)
    return _apply_blocks(blocks, WtG.T, transpose=True).T


@dataclass
class TraceBoundReport:
    per_cluster: list[tuple[float, int, float]]      # (trace, min |label|, ratio), sqrt scale
    sup_ratio: float
    theta_per_cluster: list[tuple[float, int, float]]
    theta_sup_ratio: float
    fitted_slope: float
    dtilde: float


def check_trace_bounds(system: DividedDifferenceSystem, dtilde: float) -> TraceBoundReport:
    """Trace growth of the blocks against min |label|^(2(1+d)) (and the
    squared-frequency blocks against min |label|^(2d)).

    The traces are row sums of the stacked blocks and of the stacked blocks
    at the nodes theta = sign(nu) nu^2; the rows are reported in cluster order.
    """
    if not (math.isfinite(dtilde) and dtilde >= 0):
        raise ValidationError(f"dtilde must be finite and >= 0, got {dtilde!r}")
    part = system.partition
    starts, traces, theta_traces, labels = [], [], [], []
    for rows, F in system.blocks:
        nu = part.frequencies[rows]
        Ft = dd_matrix(np.sign(nu) * nu ** 2)
        starts.append(rows[:, 0])
        traces.append(np.sum((F * F).reshape(len(rows), -1), axis=1))
        theta_traces.append(np.sum((Ft * Ft).reshape(len(rows), -1), axis=1))
        labels.append(np.min(np.abs(part.labels[rows]), axis=1))
    order = np.argsort(np.concatenate(starts))
    tr, trt, labs = (np.concatenate(a)[order].tolist() for a in (traces, theta_traces, labels))
    rows = [(t, lab, t / lab ** (2 * (1 + dtilde))) for t, lab in zip(tr, labs)]
    theta_rows = [(t, lab, t / max(lab ** (2 * dtilde), 1e-300)) for t, lab in zip(trt, labs)]
    ratios = np.array([r[2] for r in rows])
    if len(labs) >= 2 and np.all(ratios > 0):
        slope = loglog_fit(np.array(labs, dtype=float), ratios)[0]
    else:
        slope = math.nan
    return TraceBoundReport(per_cluster=rows, sup_ratio=float(max(r[2] for r in rows)),
                            theta_per_cluster=theta_rows,
                            theta_sup_ratio=float(max(r[2] for r in theta_rows)),
                            fitted_slope=slope, dtilde=dtilde)


# ---------------------------------------------------------------------------
# moment problem

@dataclass
class MomentSolution:
    control: TrigControl                  # const, then cos and sin at each alpha_k, k >= 1
    coefficients: np.ndarray              # the same, over the dictionary {1, cos alpha_k t, sin alpha_k t}
    residuals: np.ndarray                 # complex, per target equation
    gram_condition: float
    imag_moment_defect: float             # max |moment of Im u|: 0.0, the coefficients are real
    mode: str

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def solve_moment(lambdas, x, T: float, mode: str = "direct",
                 delta: float | None = None, M: int | None = None) -> MomentSolution:
    """Real control u on (0, T) with integral of u e^{i (lambda_k - lambda_1) t} = x_k.

    The control is represented over the real dictionary {1} U {cos, sin} at
    the shifted frequencies alpha.  The equations are solved on the centred
    window s = t - T/2 (_centred_system), for v(s) = u(s + T/2) and targets
    y_k = e^{-i alpha_k T/2} x_k; there the real Gram splits into the Gram of
    {1, cos alpha_j s}, for the Re equations, and that of {sin alpha_j s},
    for the Im equations at k >= 1.  Mode "direct" solves the two Grams;
    its gram_condition, the largest lambda_max over the smallest lambda_min
    of the two, is that of the real Gram on (0, T), since each frequency's
    (cos, sin) pair moves by a rotation.  Mode "dd_preconditioned" solves
    them in the divided-difference coordinates of the clusters of alpha
    (_solve_dd), which stay well conditioned when frequencies cluster.
    v's coefficients are rotated back to u's by the phases alpha_j T/2
    (_uncentred) and the residuals by e^{i alpha_k T/2}.  The coefficients
    are real either way, so Im u vanishes identically.
    Non-finite input raises ValidationError before any other check.
    Breakdown raises NumericalError: a Gram condition above CONDITION_LIMIT,
    or a residual above RESIDUAL_LIMIT * max(1, max |x|).
    """
    lam = np.asarray(lambdas, dtype=float)
    x = np.asarray(x, dtype=complex)
    require_finite("lambdas", lam)
    require_finite("x", x)
    K = lam.size
    if x.size != K:
        raise ValidationError("lambdas and targets must have equal length")
    if K < 1:
        raise ValidationError("moment problem size must be >= 1")
    if not (math.isfinite(T) and T > 0):
        raise ValidationError(f"horizon T must be finite and > 0, got {T!r}")
    if abs(x[0].imag) > 1e-12 * max(1.0, abs(x[0])):
        raise ValidationError("x_1 must be real (tangent-space condition)")
    if np.any(np.diff(lam) <= 0):
        raise ValidationError("frequencies must be strictly increasing (duplicates are infeasible)")
    if mode not in ("direct", "dd_preconditioned"):
        raise ValidationError(f"unknown mode {mode!r}")
    alpha = lam - lam[0]

    cos_gram, sin_gram, y, c, s = _centred_system(alpha, x, T)
    if mode == "direct":
        (a, b), cond = _solve_direct(cos_gram, sin_gram, y)
    else:
        (a, b), cond = _solve_dd(alpha, cos_gram, sin_gram, y, T, delta, M)
    # the gate runs before the control is built: a non-finite coefficient is a numerical
    # failure (exit 3), which TrigControl would report as invalid input
    residuals = -y
    residuals.real += cos_gram @ a
    residuals.imag[1:] += sin_gram @ b
    residuals *= c + 1j * s
    worst = float(np.max(np.abs(residuals)))
    limit = RESIDUAL_LIMIT * max(1.0, float(np.max(np.abs(x))))
    if not worst <= limit:
        raise NumericalError(
            f"moment residual {worst:.3g} above {limit:.3g} "
            f"({mode} solve, Gram condition {cond:.3g}): the solve lost "
            f"accuracy, most likely to nearly equal frequencies")
    coeffs = _uncentred(a, b, c, s)
    terms = list(zip(np.repeat(alpha[1:], 2).tolist(), ("cos", "sin") * (K - 1),
                     coeffs[1:].tolist()))
    return MomentSolution(control=TrigControl(horizon=T, const=float(coeffs[0]), terms=terms),
                          coefficients=coeffs, residuals=residuals, gram_condition=cond,
                          imag_moment_defect=0.0, mode=mode)


def _gram_condition(*grams) -> float:
    """Largest lambda_max over smallest lambda_min of Hermitian Grams, inf unless all are
    positive definite.  Empty Grams are skipped.

    Raises NumericalError above CONDITION_LIMIT.
    """
    eigs = [np.linalg.eigvalsh(G) for G in grams if G.size]
    lo, hi = min(e[0] for e in eigs), max(e[-1] for e in eigs)
    cond = float(hi / lo) if lo > 0 else math.inf
    if cond > CONDITION_LIMIT:
        raise NumericalError(
            f"moment system condition {cond:.3g} above {CONDITION_LIMIT:.0e}; "
            f"increase T (the Riesz window needs T > 2 pi / delta)")
    return cond


def _centred_system(alpha, x, T):
    """The moment equations on (-T/2, T/2): the cos and sin Grams, the targets
    y = e^{-i alpha T/2} x, and c, s = cos, sin of the phases alpha T/2.

    cos cos integrates to (S(+) + S(-)) / 2 (the constant is cos 0 s) and
    sin sin to (S(-) - S(+)) / 2 over j, k >= 1, with S(+) = S(alpha_k +
    alpha_j), S(-) = S(alpha_k - alpha_j) and S = centred_inner; cos sin
    integrates to 0.  One centred_inner call evaluates S(+) and S(-) on
    j >= k only.  alpha_k + alpha_j = alpha_j + alpha_k and alpha_j -
    alpha_k = -(alpha_k - alpha_j) in floating point, and S is even bit for
    bit, so the mirrored Grams are exactly those of the whole grid, and
    exactly symmetric.
    """
    K = alpha.size
    cos_gram, sin_gram = np.empty((K, K)), np.empty((K, K))
    upper = ~np.tri(K, k=-1, dtype=bool)          # j >= k in row k, column j
    ak = alpha[:, None]
    plus, minus = centred_inner(np.stack([(ak + alpha)[upper], (ak - alpha)[upper]]), T)
    cos_gram[upper] = cos_gram.T[upper] = 0.5 * (plus + minus)
    sin_gram[upper] = sin_gram.T[upper] = 0.5 * (minus - plus)
    phase = 0.5 * T * alpha
    c, s = np.cos(phase), np.sin(phase)
    y = (x.real * c + x.imag * s) + 1j * (x.imag * c - x.real * s)
    return cos_gram, sin_gram[1:, 1:], y, c, s


def _uncentred(a, b, c, s):
    """Coefficients over {1, cos alpha_k t, sin alpha_k t} of u(t) = v(t - T/2), from v's
    coefficients a (const and cos) and b (sin), rotated by the phases alpha_k T/2."""
    coeffs = np.empty(2 * a.size - 1)
    coeffs[0] = a[0]
    coeffs[1::2] = a[1:] * c[1:] - b * s[1:]
    coeffs[2::2] = a[1:] * s[1:] + b * c[1:]
    return coeffs


def _solve_direct(cos_gram, sin_gram, y):
    cond = _gram_condition(cos_gram, sin_gram)
    try:
        return (np.linalg.solve(cos_gram, y.real), np.linalg.solve(sin_gram, y.imag[1:])), cond
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"moment system singular: {exc}")


def _solve_dd(alpha, cos_gram, sin_gram, y, T, delta, M):
    """The two centred Grams solved in divided-difference coordinates.

    With coefficients a = W z for a real block-diagonal W, G a = b becomes
    (W^T G W) z = W^T b, solved with Jacobi (unit-diagonal) scaling, one per
    Gram; the condition number is the frame-bound ratio of the two scaled
    families together.  W comes from the clusters of alpha (_half_blocks)
    and is applied by stacked blocks, never formed.
    """
    halves = _half_blocks(build_partition(alpha, delta, M), T)
    scaled = []
    for G, blocks in zip((cos_gram, sin_gram), halves):
        H = _congruence(blocks, G)
        diag = H.diagonal()
        if not np.all(diag > 0):
            raise NumericalError("divided-difference Gram has a non-positive diagonal; increase T")
        scale = 1.0 / np.sqrt(diag)
        scaled.append((scale[:, None] * H * scale, scale))
    cond = _gram_condition(*(Hs for Hs, _ in scaled))
    out = []
    for (Hs, scale), blocks, b in zip(scaled, halves, (y.real, y.imag[1:])):
        try:
            z = np.linalg.solve(Hs, scale * _apply_blocks(blocks, b, transpose=True))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"divided-difference moment system singular: {exc}")
        out.append(_apply_blocks(blocks, scale * z))
    return out, cond


def _half_blocks(partition: ClusterPartition, T: float):
    """The stacked divided-difference blocks of a partition of alpha on the cos and on the
    sin Gram.

    Index k of the cos Gram is cos alpha_k s (the constant at k = 0), and it
    takes the clusters as they are.  Index k - 1 of the sin Gram is
    sin alpha_k s, so it takes them shifted down by one; sin 0 s does not
    exist, and the cluster holding alpha_0 = 0 takes the block over its
    nonzero alphas, stacked with the other clusters of its size.  Returns
    (cos blocks, sin blocks).
    """
    cos_blocks = _dd_blocks(partition, T)
    nonzero = [(max(s, 1), e) for s, e in partition.clusters if e > 1]
    sin_blocks = [(rows - 1, F) for rows, F in _stacked_blocks(partition.frequencies, nonzero)]
    return cos_blocks, sin_blocks


def verify_biorthogonality(system: DividedDifferenceSystem) -> tuple[float, float]:
    """Deviation of the finite-rank biorthogonal family from exactness.

    Returns (max |<xi_j, u_k> - delta_jk|, max |<w_k, e_j> - delta_kj|) where
    u is the Gram-inverse family in span(Xi) and w = F(v) u is its image
    biorthogonal to the raw exponentials.
    """
    G = system.gram
    n = G.shape[0]
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram matrix numerically singular: {exc}")
    residual = G @ Ginv
    residual.flat[::n + 1] -= 1.0                              # G Ginv - I, in place
    dev1 = float(np.max(np.abs(residual)))
    del residual

    # w_k = sum_m F[k, m] u_m biorthogonal to e_j: test on the raw Gram
    blocks = system.blocks
    E = exponential_gram(system.partition.frequencies, system.horizon)
    # <u_m, e_j>: u_m = sum_q Ginv[q, m] xi_q, xi in e-coords via W
    U_e = _apply_blocks(blocks, Ginv)                          # e-coordinates of the u family
    inner_ue = np.conjugate(U_e, out=U_e).T @ E                # <u_m, e_j>
    del U_e, E
    inner_we = _apply_blocks(blocks, inner_ue)                 # rows: w_k against e_j
    inner_we.flat[::n + 1] -= 1.0
    dev2 = float(np.max(np.abs(inner_we)))
    return dev1, dev2

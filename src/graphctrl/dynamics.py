"""Truncated propagation of the bilinear Schroedinger dynamics.

The state lives in the span of the first K eigenfunctions; the generator is
Lambda + u(t) B with Lambda diagonal and B real symmetric.  A step is the
Strang split step e^{-i Lambda dt/2} Q e^{-i u(t_mid) dt D} Q^T e^{-i Lambda dt/2}
with B = Q D Q^T (Strang, SIAM J. Numer. Anal. 1968): unitary, second order,
O(K^2) work, and the kick factors are formed in blocks of steps, so memory
does not grow with the step count.  A long single-frequency drive instead
runs powers of its one-period map.  The window of that map starts where the
drive is even, so the map is multiplied out from the steps of half a
period, and the powers between records come from repeated squaring.
propagate takes 1024 steps per period there, because simulate writes whole
states.  A resonant transfer reports only populations (the fidelity, the
boundary population, the norm drift), so it chooses its steps per period by
Strang step doubling on those: 256 after a coarse run at 128, then 512 and
1024 while the estimate max |p_n - p_{n/2}| / 3 over the recorded
populations is above POPULATION_TOL, with 1024 accepted at the cap.  B is
diagonalized once per system, on first use (GalerkinSystem.eig, kept with
the immutable system), and every stretch of steps shares that
factorization; the kick phases come from real cos and sin.  The free step,
the period map and its power between records are projected to the nearest
unitary by Newton-Schulz steps (Higham, Functions of Matrices, SIAM 2008,
section 8.3): one step of two K x K products on every input here, in place
of an SVD that costs about 10-33 of them; a defect ||U^H U - I||_F that is not finite or above 0.5 raises
NumericalError.

Controls are a graphctrl.moment.TrigControl (imported here) or a
piecewise-constant SampledControl; both give their moments, the integrals of
u(t) e^{i alpha t}, as one array over alpha.  Also here: the first-order
(linearized) response -i B[k, 0] times those moments at alpha_k = lambda_k -
lambda_1, used to validate moment controls; the bracket-closure dimension
count behind the finite-dimensional controllability criterion; and resonant
population-transfer synthesis.  A system may carry integer labels (lambda =
c label^2); its transition frequencies then collide only when exactly equal.

The closure is counted in closed form from the graph of admissible pairs:
su(c) on each connected component of c >= 2 modes, with the bracket depth
set by the largest distance between two connected modes; both come from
boolean reachability products, so no bracket matrix is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import potentials, spectrum
from .errors import NumericalError, ValidationError, require_finite, require_integers, require_range
from .moment import TrigControl, exp_inner

RESONANCE_TOL = 1e-8   # transition frequencies this close, relative to max(1, max|lambda|), collide
POPULATION_TOL = 1e-6  # a transfer's step-doubling bound on every population it records


def _read_only(a):
    """A read-only view of a: no copy, and a itself keeps its own flag."""
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GalerkinSystem:
    """Lambda + u(t) B on the first K modes.  Immutable: lam, B and int_labels are
    read-only views and cannot be rebound, so the factorization eig, computed
    on first use and kept, always belongs to B."""

    lam: np.ndarray        # ascending real eigenvalues
    B: np.ndarray          # real symmetric coupling matrix
    int_labels: np.ndarray | None = None   # K integers when lam = scale * label^2, else None

    def __post_init__(self):
        lam = _read_only(np.asarray(self.lam, dtype=float))
        B = _read_only(np.asarray(self.B, dtype=float))
        require_finite("eigenvalues", lam)
        require_finite("coupling matrix", B)
        K = lam.size
        if B.shape != (K, K):
            raise ValidationError("coupling matrix shape must match the eigenvalue count")
        if not np.allclose(B, B.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(B).max()))):
            raise ValidationError("coupling matrix must be symmetric")
        if np.any(np.diff(lam) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "B", B)
        if self.int_labels is not None:
            object.__setattr__(self, "int_labels", _read_only(
                require_integers("integer labels", self.int_labels, K)))

    @property
    def dim(self) -> int:
        return self.lam.size

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, Q) with B = Q diag(D) Q^T, read-only: one eigh per system."""
        D, Q = np.linalg.eigh(self.B)
        return _read_only(D), _read_only(Q)


# ---------------------------------------------------------------------------
# control signals

def resonant_pulse(amplitude: float, frequency: float, horizon: float) -> TrigControl:
    return TrigControl(horizon=horizon, terms=[(frequency, "cos", amplitude)])


@dataclass
class SampledControl:
    """Piecewise-constant control: samples[i] on [i dt, (i+1) dt)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValidationError("control samples must be a non-empty list of numbers")
        require_finite("control samples", self.samples)
        require_range("control sample step dt", self.dt, strict=True)

    @property
    def horizon(self) -> float:
        return self.samples.size * self.dt

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip((t / self.dt).astype(int), 0, self.samples.size - 1)
        return self.samples[idx]

    def moments(self, alpha):
        """Integral of u(t) e^{i alpha t} over (0, horizon), elementwise over alpha.

        Sample i contributes u_i e^{i alpha i dt} times the integral of
        e^{i alpha t} over one step.  The phases are formed one alpha at a
        time, so memory stays O(len(samples)) however many alphas are asked.
        """
        alpha = np.asarray(alpha, dtype=float)
        t = np.arange(self.samples.size) * self.dt
        sums = np.array([np.exp(1j * a * t) @ self.samples for a in alpha.ravel()])
        return sums.reshape(alpha.shape) * exp_inner(alpha, self.dt)

    @property
    def max_frequency(self) -> float:
        return math.pi / self.dt

    @property
    def period(self):
        return None

    def scaled(self, factor: float) -> "SampledControl":
        return SampledControl(samples=factor * self.samples, dt=self.dt)


# ---------------------------------------------------------------------------
# propagation

_KICK_BLOCK = 512   # steps whose kick factors are held in memory at once
_RECORDS = 129      # states a propagation records by default
_PERIOD_STEPS = 1024   # propagate's steps per drive period on the periodic path


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray      # (len(times), K) complex
    steps: int              # split steps taken
    period_steps: int | None = None   # steps per drive period on the periodic path

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.linalg.norm(self.states, axis=1) - 1.0)))

    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2


# Every stretch of steps takes its factors here, from the system's one factorization
# (GalerkinSystem.eig).  bench/tracing.py wraps this function by its four positional
# parameters and counts propagation steps as the number of midpoints u_mids passed: the
# fixed grid passes all its midpoints, but the periodic path's map passes only those of
# half a period, however many periods it runs
def _step_matrices(lam, factors, u_mids, dt):
    """Split-step factors: half = e^{-i lam dt/2}, and Q, D of B = Q diag(D) Q^T,
    with factors = (D, Q)."""
    D, Q = factors
    return np.exp(-0.5j * dt * lam), Q, D


def _free_step(half, Q):
    """W = Q^T e^{-i Lambda dt} Q projected to the nearest unitary (else the norm
    drifts ~10x faster over long grids); W is complex symmetric up to rounding.
    Its defect ||W^H W - I||_F is about 1e-14, so _polar_unitary takes one
    Newton-Schulz step: two K x K products."""
    return _polar_unitary((Q.T * half**2) @ Q)


def _kicks(u, D, dt):
    """The kick block e^{-i dt outer(u, D)}, from real cos and sin of theta = -dt outer(u, D).

    Bit for bit np.exp(-1j * dt * outer(u, D)), at about half the cost.  That
    complex product gives a zero phase as +0.0, so + 0.0 turns theta = -0.0
    into +0.0 and sin gives the same imaginary zero.
    """
    theta = -dt * np.multiply.outer(u, D) + 0.0
    kicks = np.empty(theta.shape, dtype=complex)
    kicks.real, kicks.imag = np.cos(theta), np.sin(theta)
    return kicks


def _kick_steps(a, W, D, u_mids, dt, rec_every=0):
    """Split steps a <- W (kick * a) on rows a in B's eigenbasis, kick = e^{-i u dt D}.

    Returns the final a and (step, a) after every rec_every-th and the last
    step.  The kicks are formed _KICK_BLOCK steps at a time.
    """
    recorded, n, Wt = [], len(u_mids), W.T
    for start in range(0, n, _KICK_BLOCK):
        for step, kick in enumerate(_kicks(u_mids[start:start + _KICK_BLOCK], D, dt), start=start + 1):
            a = (kick * a).dot(Wt)
            if rec_every and (step % rec_every == 0 or step == n):
                recorded.append((step, a))
    return a, recorded


def _split_evolve(lam, factors, u_mids, dt, psi, rec_every=0):
    """Apply the split steps with control midpoints u_mids to psi (a state, or rows of
    states); factors = (D, Q) are the system's eig.

    Returns the final psi and (step, state) after every rec_every-th and the
    last step; the steps run on a = Q^T half psi, and the recorded a are
    mapped back in one product.
    """
    half, Q, D = _step_matrices(lam, factors, u_mids, dt)
    a, recorded = _kick_steps((half * psi) @ Q, _free_step(half, Q), D, u_mids, dt, rec_every)
    back = half.conj()
    states = back * (np.array([r for _, r in recorded]).reshape(-1, *a.shape) @ Q.T)
    return back * (a @ Q.T), [(step, state) for (step, _), state in zip(recorded, states)]


_POLAR_TOL = 1e-8          # a Newton-Schulz step from this defect leaves one of O(1e-16)
_POLAR_MAX_STEPS = 50      # from a defect of 0.5 about 6 steps suffice; a singular U never converges


def _polar_unitary(U):
    """Nearest unitary (the polar factor of U); absorbs the roundoff of long step products.

    Newton-Schulz steps U <- U (3I - U^H U) / 2 (Higham, Functions of
    Matrices, SIAM 2008, section 8.3), written U - U E / 2 with the defect
    E = U^H U - I: two K x K products per step in place of an SVD.  The
    defect is measured as delta = ||E||_F, which bounds the spectral norm
    ||E||_2 that decides convergence (the largest entry of E can be K times
    smaller than ||E||_2).  A step from delta leaves O(delta^2); steps
    repeat while delta is above _POLAR_TOL, and every input here (a free
    step, a period map, a power of it) has delta between 1e-14 and 1e-12, so
    one step is enough.  With delta <= 0.5 every singular value of U lies in
    [0.70, 1.23], where the iteration converges; NumericalError when delta
    is not finite or above 0.5, or when it has not converged after
    _POLAR_MAX_STEPS steps.
    """
    diag = np.s_[::U.shape[0] + 1]
    for _ in range(_POLAR_MAX_STEPS):
        E = U.conj().T @ U
        E.flat[diag] -= 1.0
        delta = float(np.linalg.norm(E))
        if not delta <= 0.5:
            raise NumericalError(f"unitary projection needs a finite defect ||U^H U - I||_F "
                                 f"of at most 0.5, got {delta:.3g}")
        E *= 0.5
        U = U - U @ E
        if delta <= _POLAR_TOL:
            return U
    raise NumericalError(f"unitary projection has not converged: defect {delta:.3g} after "
                         f"{_POLAR_MAX_STEPS} Newton-Schulz steps")


def _require_steps(n_steps) -> int:
    if not n_steps >= 1:
        raise ValidationError(f"step count n_steps must be >= 1, got {n_steps!r}")
    return int(n_steps)


def choose_step_count(system: GalerkinSystem, control, horizon: float, n_steps: int | None):
    if n_steps is not None:
        return _require_steps(n_steps)
    comm = np.linalg.norm(system.lam[:, None] * system.B - system.B * system.lam)
    u_scale = float(np.max(np.abs(control(np.linspace(0, horizon, 257)))))
    # resolve the control oscillation and keep the commutator error of a step small
    n_osc = int(64 * max(1.0, control.max_frequency * horizon / (2 * math.pi)))
    n_comm = int(math.sqrt(max(comm * u_scale, 1e-12)) * horizon * 20)
    return max(512, n_osc, n_comm)


def _runs_periodic(control) -> bool:
    """A single-frequency drive longer than 8 periods runs powers of its period map."""
    return control.period is not None and control.horizon > 8 * control.period


def propagate(system: GalerkinSystem, psi0, control, n_steps: int | None = None,
              record: int = _RECORDS) -> Trajectory:
    """Unitary propagation of i psi' = (Lambda + u(t) B) psi by Strang split steps.

    An explicit n_steps runs that fixed grid.  Otherwise a single-frequency
    drive longer than 8 periods takes the periodic path at _PERIOD_STEPS steps
    per period (the states are the output, and fewer steps would move them:
    on star5 at K = 60, 256 steps per period leave a state error of 6e-5
    against 4e-6 at 1024), and other controls get choose_step_count steps.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    require_finite("initial state", psi0)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-12:
        raise ValidationError("initial state must be normalized")
    if n_steps is None and _runs_periodic(control):
        return _propagate_periodic(system, psi0, control, control.period, record, _PERIOD_STEPS)

    T = control.horizon
    n = choose_step_count(system, control, T, n_steps)
    dt = T / n
    rec_every = max(1, n // max(record - 1, 1))
    t_mid = (np.arange(n) + 0.5) * dt
    _, recorded = _split_evolve(system.lam, system.eig, control(t_mid), dt, psi0, rec_every)
    return Trajectory(np.array([0.0] + [s * dt for s, _ in recorded]),
                      np.array([psi0] + [state for _, state in recorded]), n)


def _period_map(system, control, period, t0, n_per_period):
    """The n_per_period split steps over [t0, t0 + period), as one unitary matrix.

    u is even about t0, so the kicks of the second half of the window mirror
    those of the first (n_per_period is even).  With X = W k_{h-1} ... W k_0
    the first h = n_per_period / 2 steps in B's eigenbasis, and W complex
    symmetric and unitary, the whole window is the time-symmetric composition
    W X^T conj(W) X (McLachlan & Quispel, Acta Numerica 2002): u is evaluated
    and multiplied out at h midpoints only.  The map is projected to the
    nearest unitary, its roundoff would otherwise grow into a norm drift: its
    defect ||M^H M - I||_F is about 1e-13, so that is one Newton-Schulz step of
    two K x K products (_polar_unitary), which raises NumericalError only on
    a non-finite map or one with defect above 0.5.
    """
    dt = period / n_per_period
    u_mids = control(t0 + (np.arange(n_per_period // 2) + 0.5) * dt)
    half, Q, D = _step_matrices(system.lam, system.eig, u_mids, dt)
    W = _free_step(half, Q)
    W = (W + W.T) / 2    # exactly symmetric, so X^T is the mirrored half; still unitary to O(eps^2)
    Xt, _ = _kick_steps(np.eye(system.dim, dtype=complex), W, D, u_mids, dt)
    return _polar_unitary(half.conj()[:, None] * (Q @ (W @ Xt @ W.conj() @ Xt.T) @ Q.T) * half)


def _propagate_periodic(system, psi0, control, period, record, n_per_period):
    """Powers of the one-period map: a transfer runs thousands of periods, too many to step.

    The period window starts at t0 = control.even_time, where u is even
    (_period_map); the lead-in [0, t0) and the rest of the horizon after the
    last whole period are stepped.  With r periods between records, M^r comes
    from repeated squaring, is projected to the nearest unitary and is applied
    once per record; M^(n_periods mod r) is applied once for the final state.
    """
    lam, eig, T = system.lam, system.eig, control.horizon
    t0 = control.even_time
    M = _period_map(system, control, period, t0, n_per_period)

    def step_through(start, length, psi):
        n = max(8, int(n_per_period * length / period))
        dts = length / n
        return _split_evolve(lam, eig, control(start + (np.arange(n) + 0.5) * dts), dts, psi)[0], n

    times, states, psi, steps = [0.0], [psi0], psi0, 0
    if t0 > 0:
        psi, steps = step_through(0.0, t0, psi)
    n_periods = int((T - t0) // period)
    rec_every = max(1, n_periods // max(record - 1, 1))
    M_rec = _polar_unitary(np.linalg.matrix_power(M, rec_every))    # by repeated squaring
    for p in range(rec_every, n_periods + 1, rec_every):
        psi = M_rec @ psi
        times.append(t0 + p * period)
        states.append(psi)
    if n_periods % rec_every:
        psi = np.linalg.matrix_power(M, n_periods % rec_every) @ psi
        times.append(t0 + n_periods * period)
        states.append(psi)
    steps += n_periods * n_per_period
    end = t0 + n_periods * period
    remainder = T - end
    if remainder > 1e-12 * T:
        psi, n_rem = step_through(end, remainder, psi)
        times.append(T)
        states.append(psi)
        steps += n_rem
    return Trajectory(np.array(times), np.array(states), steps, n_per_period)


def step_doubling_error(system: GalerkinSystem, psi0, control, traj: Trajectory) -> float:
    """Error estimate max|psi_n - psi_{n/2}| / 3 of traj's final state, on traj's path."""
    if traj.period_steps is None:
        coarse = propagate(system, psi0, control, n_steps=traj.steps // 2, record=2)
    else:
        coarse = _propagate_periodic(system, np.asarray(psi0, dtype=complex), control,
                                     control.period, 2, traj.period_steps // 2)
    return float(np.max(np.abs(traj.final - coarse.final))) / 3.0


def propagate_reversed(system: GalerkinSystem, psi0, control, n_steps: int) -> np.ndarray:
    """One pass of the reversed dynamics, generator -(Lambda + u(T - t) B).

    Split steps of the negated generator on the mirrored grid: reversed step i
    is the exact inverse of forward step n - 1 - i, so forward-then-reversed
    returns the initial state up to rounding.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    require_finite("initial state", psi0)
    n_steps = _require_steps(n_steps)
    T = control.horizon
    dt = T / n_steps
    t_mid = T - (np.arange(n_steps) + 0.5) * dt   # u(T - t) on the forward grid
    return _split_evolve(-system.lam, system.eig, -np.asarray(control(t_mid)), dt, psi0)[0]


def linearized_response(system: GalerkinSystem, control) -> np.ndarray:
    """First-order transition amplitudes from the ground mode.

    gamma_k = -i B[k, 0] * integral of u(t) e^{i (lambda_k - lambda_1) t}.
    """
    return -1j * system.B[:, 0] * control.moments(system.lam - system.lam[0])


def first_order_prediction(system: GalerkinSystem, control) -> np.ndarray:
    """Free evolution of the ground mode plus the linearized correction."""
    gamma = linearized_response(system, control)
    pred = gamma.copy()
    pred[0] += 1.0
    return np.exp(-1j * system.lam * control.horizon) * pred


# ---------------------------------------------------------------------------
# bracket closure

@dataclass
class LieClosureReport:
    n1: int
    admissible_pairs: list[tuple[int, int]]      # 1-based
    reached_dimension: int
    target_dimension: int
    generated: bool
    bracket_depth: int


def _coupled_gaps(system: GalerkinSystem, resonance_tol: float):
    """Coupled pairs j < k (0-based, row-major), their |gaps| and the tolerance
    within which two of those collide.

    |B_jk| > 1e-12 max(1, max|B|) is coupled.  The gaps are those of
    pair_gaps; they collide within resonance_tol max(1, max|lambda|), or only
    when equal with the system's integer labels (lambda = c label^2): tolerance 0.
    """
    require_range("resonance tolerance", resonance_tol, strict=False)
    B, lam, labels = system.B, system.lam, system.int_labels
    j, k, gap = potentials.pair_gaps(lam, labels)
    coupled = np.abs(B[j, k]) > 1e-12 * max(1.0, float(np.abs(B).max()))
    tol = 0 if labels is not None else resonance_tol * max(1.0, float(np.abs(lam).max()))
    return j[coupled], k[coupled], np.abs(gap[coupled]), tol


def admissible_pairs(system: GalerkinSystem,
                     resonance_tol: float = RESONANCE_TOL) -> list[tuple[int, int]]:
    """Coupled pairs (1-based, row-major) whose frequency collides with no other coupled pair.

    Float subtraction is monotone, so a gap collides with some other gap
    exactly when it collides with a neighbour in a stable sort of the gaps:
    one O(P log P) sort over the P coupled pairs, and no list of collisions.
    """
    j, k, gap, tol = _coupled_gaps(system, resonance_tol)
    order = np.argsort(gap, kind="stable")
    close = np.diff(gap[order]) <= tol
    degenerate = np.zeros(j.size, dtype=bool)
    degenerate[order[:-1][close]] = degenerate[order[1:][close]] = True
    return list(zip((j[~degenerate] + 1).tolist(), (k[~degenerate] + 1).tolist()))


def _bool_product(X, Y):
    """(X Y)[i, j] is True when X[i, m] and Y[m, j] for some m."""
    return (X.astype(float) @ Y.astype(float)) > 0


def _pair_graph(n, pairs):
    """Component labels of the pair graph on n modes and the largest distance
    D between two connected modes (0 without pairs).

    R(d), True at (i, j) when modes i and j are at most d pairs apart, obeys
    R(a + b) = R(a) R(b) as a boolean product.  R(1) is squared until it stops
    changing, which gives the reachability matrix R(D) after about log2 D
    products; D is then found by binary lifting over the powers R(2^i).  A
    mode's label is the lowest mode of its component.
    """
    R = np.eye(n, dtype=bool)
    j, k = np.array(list(zip(*pairs)), dtype=int).reshape(2, -1) - 1
    R[j, k] = R[k, j] = True
    powers = [R]                                   # powers[i] = R(2^i)
    while not np.array_equal(square := _bool_product(powers[-1], powers[-1]), powers[-1]):
        powers.append(square)
    reach = powers[-1]
    if not pairs:
        return reach.argmax(axis=1), 0
    near, d = np.eye(n, dtype=bool), 0             # R(d) with d the largest found short of R(D)
    for i in reversed(range(len(powers) - 1)):
        farther = _bool_product(near, powers[i])
        if not np.array_equal(farther, reach):
            near, d = farther, d + 2 ** i
    return reach.argmax(axis=1), d + 1


def lie_closure(system: GalerkinSystem, resonance_tol: float = RESONANCE_TOL) -> LieClosureReport:
    """Dimension of the real Lie algebra generated by the admissible rotations.

    The generators are the skew-Hermitian pair matrices at phases 0 and pi/2
    of every admissible pair.  On a connected component of the pair graph
    with c >= 2 modes they generate su(c), and generators of different
    components commute, so the algebra is the direct sum: its dimension is
    the sum of c^2 - 1 over those components, and it is su(n) exactly when
    the pair graph is connected (Altafini, J. Math. Phys. 43, 2002; Boscain,
    Caponigro, Chambrion & Sigalotti, Comm. Math. Phys. 311, 2012).

    bracket_depth counts the levels of the breadth-first bracket search
    (level 0 the generators, level d their brackets with the span gained at
    level d - 1).  Modes D pairs apart are first joined at level D - 1 and
    the diagonal at level 1, so the last gain is at level max(1, D - 1),
    with D the largest distance between two connected modes; a closure
    short of su(n) takes one more level, which gains nothing.
    """
    n = system.dim
    pairs = admissible_pairs(system, resonance_tol)
    labels, D = _pair_graph(n, pairs)
    sizes = np.bincount(labels)
    reached = int((sizes[sizes >= 2] ** 2 - 1).sum())
    generated = reached == n * n - 1
    return LieClosureReport(n1=n, admissible_pairs=pairs, reached_dimension=reached,
                            target_dimension=n * n - 1, generated=generated,
                            bracket_depth=max(1, D - 1) + (not generated) if pairs else 0)


# ---------------------------------------------------------------------------
# resonant transfers

@dataclass
class TransferResult:
    control: TrigControl | None
    fidelity: float
    norm_drift: float
    boundary_population: float
    period_steps: int | None        # steps per drive period chosen; None on the fixed grid
    error_estimate: float | None    # the step-doubling estimate that accepted them


# a coarse run, then the steps per period tried in turn; the last is the cap
_TRANSFER_PERIOD_STEPS = (128, 256, 512, _PERIOD_STEPS)


def _transfer_trajectory(system, psi0, control):
    """The trajectory of a transfer pulse and the step-doubling estimate e of its populations.

    A transfer reports populations only, so on the periodic path it takes
    the fewest steps per period n whose e = max |p_n - p_{n/2}| / 3, over
    every recorded time and mode, is at most POPULATION_TOL: n = 256 after a
    coarse run at 128, then 512 and 1024 while e is larger, and 1024 (what
    propagate takes) is accepted whatever e.  Every run shares the system's
    one eig.  A pulse of at most 8 periods takes propagate's fixed grid and
    has no estimate (None).
    """
    if not _runs_periodic(control):
        return propagate(system, psi0, control), None
    run = functools.partial(_propagate_periodic, system, psi0, control, control.period, _RECORDS)
    coarse = run(_TRANSFER_PERIOD_STEPS[0]).populations()
    for n in _TRANSFER_PERIOD_STEPS[1:]:
        traj = run(n)
        pops = traj.populations()
        err = float(np.max(np.abs(pops - coarse))) / 3.0
        if err <= POPULATION_TOL:
            break
        coarse = pops
    return traj, err


def resonant_transfer(system: GalerkinSystem, source: int, target: int,
                      amplitude: float) -> TransferResult:
    """Population transfer source -> target (1-based) by a resonant pulse.

    u(t) = amplitude * cos(|lambda_m - lambda_n| t) over the first-order
    pulse duration pi / (amplitude |B_mn|); the reported fidelity is
    |<target, psi(T)>|.  The steps per period are chosen by step doubling on
    the recorded populations (_transfer_trajectory).  An uncoupled or
    frequency-degenerate pair is refused; comparing its gap with every
    coupled gap decides as admissible_pairs does at RESONANCE_TOL.
    """
    K = system.dim
    if not (1 <= source <= K and 1 <= target <= K):
        raise ValidationError("mode index out of range")
    require_range("transfer amplitude", amplitude, strict=True)
    if source == target:
        return TransferResult(control=None, fidelity=1.0, norm_drift=0.0, boundary_population=0.0,
                              period_steps=None, error_estimate=None)
    m, nn = source - 1, target - 1
    lo, hi = min(m, nn), max(m, nn)
    j, k, gap, tol = _coupled_gaps(system, RESONANCE_TOL)
    pair = np.flatnonzero((j == lo) & (k == hi))
    if pair.size == 0:
        raise ValidationError(f"modes {source} and {target} are uncoupled (|B_mn| = "
                              f"{abs(system.B[m, nn]):.3g} is not above 1e-12 max(1, max|B|))")
    hit = np.abs(gap - gap[pair]) <= tol      # row-major, like the pairs
    hit[pair] = False
    if hit.any():
        colliding = list(zip((j[hit] + 1).tolist(), (k[hit] + 1).tolist()))
        raise ValidationError(
            f"transition {source}->{target} is frequency-degenerate among coupled pairs; "
            f"colliding pairs: {colliding}")
    omega = abs(system.lam[nn] - system.lam[m])
    T = math.pi / (amplitude * abs(system.B[m, nn]))
    u = resonant_pulse(amplitude, omega, T)
    psi0 = np.zeros(K, dtype=complex)
    psi0[m] = 1.0
    traj, err = _transfer_trajectory(system, psi0, u)
    pops = traj.populations()
    boundary = float(pops[:, -2:].max()) if K >= max(source, target) + 3 else 0.0
    fid = float(abs(traj.final[nn]))
    return TransferResult(control=u, fidelity=fid, norm_drift=traj.norm_drift,
                          boundary_population=boundary, period_steps=traj.period_steps,
                          error_estimate=err)


@dataclass
class SubsystemDemoReport:
    transfer: TransferResult
    family: str
    dropped_coupling_max: float       # coupling into the complement family
    truncation_boundary_max: float


def subsystem_transfer_demo(family: str, params: dict, source: int, target: int,
                            amplitude: float, num_modes: int | None = None) -> SubsystemDemoReport:
    """Transfer within a closed-form invariant subsystem.

    Builds the reduced basis, the matching coupling matrix (polynomial
    potential for the equilateral star, exchange operators otherwise),
    verifies that the coupling into the dropped complement vanishes, and
    runs the resonant transfer inside the truncation (default size: three
    times the highest index involved).
    """
    if num_modes is None:
        num_modes = 3 * max(source, target)
    basis = spectrum.explicit_subsystem(family, num_modes, **params)
    if family == "equilateral_star":
        L = float(params.get("length", 1.0))
        op = potentials.ControlOperator(
            per_edge={basis.edge_ids[0]: potentials.squared_shift_potential(L)})
        B = potentials.build_matrix(op, basis)
        dropped = spectrum.equilateral_dropped_modes(max(2, num_modes // 2),
                                                     int(params.get("n_edges", 3)), L)
        # B acts on edge 1 only, where the dropped family vanishes identically
        dropped_max = float(np.abs(potentials.coupling_block(op, dropped, basis)).max())
    else:
        B = potentials.build_exchange_matrix(basis)
        dropped_max = 0.0
    if dropped_max > 1e-10:
        raise NumericalError(
            f"coupling operator leaks out of the invariant subsystem (max {dropped_max:.3g})")
    system = GalerkinSystem(lam=basis.eigenvalues, B=B, int_labels=basis.int_labels)
    res = resonant_transfer(system, source, target, amplitude)
    return SubsystemDemoReport(transfer=res, family=family,
                               dropped_coupling_max=dropped_max,
                               truncation_boundary_max=res.boundary_population)

"""Two-layer diagonal linear network dynamics: the predictor is <w_+^2 - w_-^2, x>.

Discrete updates are exact minibatch SGD on the reparametrized risk, written in
multiplicative form, with optional loss-scaled Gaussian noise multiplying the
weights. The SDE integrator drives both weight signs with one shared Brownian
path, mirrored, which is what makes the hyperbolic closed form of the iterate
hold along the trajectory. The loss is the normalized empirical risk
L(beta) = (1/2n) sum_i (<beta, x_i> - y_i)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_math import Mat, RngStream, Trajectory, Vec, min_norm_solve, row_space_projector
from .lsq_dynamics import OptimizerConfig
from .problems import Dataset

# convergence detection for discrete and SDE runs
CONVERGED_LOSS = 1e-12
CONVERGED_STREAK = 100


class DivergenceError(RuntimeError):
    """A weight coordinate left the finite range; carries the failing step."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"non-finite iterate at step {step}" + (f": {detail}" if detail else ""))


@dataclass
class NoiseSchedule:
    """Added-noise model for the DLN updates.

    loss_scaled: sigma_t = 2 sigma sqrt(L(w_t)), the scalar schedule used by
    all bundled experiments. general: a deterministic table of matrices of
    shape (p, d) (constant) or (steps, p, d); only accepted when the squared
    Frobenius mass integrates to at most 1 over the run.
    """

    kind: str = "loss_scaled"
    sigma: float = 0.0
    matrices: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("loss_scaled", "general"):
            raise ValueError("kind must be 'loss_scaled' or 'general'")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.kind == "general":
            if self.matrices is None:
                raise ValueError("general schedule needs its matrix table")
            self.matrices = np.asarray(self.matrices, dtype=float)
            if self.matrices.ndim not in (2, 3) or not np.all(np.isfinite(self.matrices)):
                raise ValueError("matrix table must be finite with shape (p,d) or (T,p,d)")

    def matrix_at(self, step: int) -> np.ndarray:
        if self.matrices.ndim == 2:
            return self.matrices
        return self.matrices[min(step, self.matrices.shape[0] - 1)]

    def check_budget(self, h: float, steps: int) -> None:
        """Refuse general schedules whose noise mass exceeds the admissible budget."""
        if self.kind != "general":
            return
        if self.matrices.ndim == 2:
            mass = steps * h * float(np.sum(self.matrices**2))
        else:
            count = min(steps, self.matrices.shape[0])
            mass = h * float(np.sum(self.matrices[:count] ** 2))
            mass += max(0, steps - count) * h * float(np.sum(self.matrices[-1] ** 2))
        if mass > 1.0 + 1e-12:
            raise ValueError(f"general schedule mass {mass:.3g} exceeds the unit budget")


@dataclass
class DlnState:
    """Weight pair and running diagnostics of one DLN trajectory.

    loss_integral is the left Riemann sum of the loss, r_acc the accumulated
    out-of-row-span noise, noise_sq_integral the integrated squared schedule
    magnitude.
    """

    w_plus: Vec
    w_minus: Vec
    step: int = 0
    time: float = 0.0
    loss_integral: float = 0.0
    r_acc: Vec | None = None
    noise_sq_integral: float = 0.0

    def __post_init__(self):
        self.w_plus = np.asarray(self.w_plus, dtype=float)
        self.w_minus = np.asarray(self.w_minus, dtype=float)
        if self.w_plus.shape != self.w_minus.shape or self.w_plus.ndim != 1:
            raise ValueError("weight vectors must be 1-d with equal shapes")
        if self.r_acc is None:
            self.r_acc = np.zeros(self.w_plus.size)

    def beta(self) -> Vec:
        return self.w_plus * self.w_plus - self.w_minus * self.w_minus


def dln_init(alpha, d: int) -> DlnState:
    """Symmetric initialization w_+ = w_- = alpha, so beta starts at zero."""
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if a.size == 1:
        a = np.full(d, a[0])
    if a.shape != (d,) or np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("alpha must be positive, finite, and of length d")
    return DlnState(w_plus=a.copy(), w_minus=a.copy())


def dln_loss(beta: Vec, ds: Dataset) -> float:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ds.d,):
        raise ValueError("beta dimension mismatch")
    r = ds.Xbar @ beta - ds.Ybar
    return 0.5 * float(r @ r)


def _check_discrete(cfg: OptimizerConfig, ds: Dataset) -> None:
    if cfg.kind not in ("GD", "SGD", "NoisySGD"):
        raise ValueError(f"unsupported optimizer kind for this model: {cfg.kind!r}")
    if cfg.batch > ds.n:
        raise ValueError("batch exceeds dataset size")


def _batch_gradient(ds: Dataset, beta: Vec, rbar: Vec, cfg: OptimizerConfig, rng: RngStream) -> Vec:
    """Minibatch estimate of grad_beta L; full batch reuses the GD expression."""
    if cfg.kind == "GD" or cfg.batch == ds.n:
        return ds.Xbar.T @ rbar
    if cfg.batch == 1:
        i = int(rng.indices(ds.n, 1)[0])
        return ds.X[i] * (math.sqrt(ds.n) * rbar[i])
    idx = rng.indices(ds.n, cfg.batch)
    rows = ds.X[idx]
    return rows.T @ (rows @ beta - ds.Y[idx]) / cfg.batch


def dln_discrete_step(state: DlnState, ds: Dataset, cfg: OptimizerConfig,
                      sched: NoiseSchedule, rng: RngStream) -> DlnState:
    """One multiplicative update of the weight pair.

    w_{+} <- w_{+} (1 - 2 gamma a_t + gamma sigma_t Z_+), and mirrored with
    independent Z_- for w_{-}, where a_t is the minibatch gradient estimate
    and sigma_t comes from the schedule. GD drops both stochastic terms, SGD
    drops the Z term. Draw order: batch indices, then Z_+, then Z_-. This is
    the single-step reference that run_dln_discrete_ensemble reproduces row
    by row; r_acc is carried over unchanged.
    """
    _check_discrete(cfg, ds)
    w_p, w_m = state.w_plus, state.w_minus
    beta = w_p * w_p - w_m * w_m
    rbar = ds.Xbar @ beta - ds.Ybar
    loss = 0.5 * float(rbar @ rbar)
    if not math.isfinite(loss):
        raise DivergenceError(state.step)

    a = _batch_gradient(ds, beta, rbar, cfg, rng)
    drift = 2.0 * cfg.gamma * a
    mult_p = 1.0 - drift
    mult_m = 1.0 + drift

    noise_sq = 0.0
    if cfg.kind == "NoisySGD":
        if sched.kind == "loss_scaled":
            if sched.sigma > 0:
                sigma_t = 2.0 * sched.sigma * math.sqrt(loss)
                z_p = rng.normal(ds.d)
                z_m = rng.normal(ds.d)
                mult_p = mult_p + cfg.gamma * sigma_t * z_p
                mult_m = mult_m - cfg.gamma * sigma_t * z_m
                noise_sq = sigma_t * sigma_t
        else:
            mat = sched.matrix_at(state.step)
            z_p = rng.normal(mat.shape[0])
            z_m = rng.normal(mat.shape[0])
            mult_p = mult_p + cfg.gamma * (mat.T @ z_p)
            mult_m = mult_m - cfg.gamma * (mat.T @ z_m)
            noise_sq = float(np.sum(mat * mat))

    new_p = w_p * mult_p
    new_m = w_m * mult_m
    if not (np.all(np.isfinite(new_p)) and np.all(np.isfinite(new_m))):
        raise DivergenceError(state.step)
    return DlnState(
        w_plus=new_p,
        w_minus=new_m,
        step=state.step + 1,
        time=state.time + cfg.gamma,
        loss_integral=state.loss_integral + cfg.gamma * loss,
        r_acc=state.r_acc,
        noise_sq_integral=state.noise_sq_integral + cfg.gamma * noise_sq,
    )


def effective_alpha(alpha0: Vec, ds: Dataset, gamma: float, sigma: float,
                    loss_integral: float) -> Vec:
    """Decayed potential scale alpha0 . exp(-2 gamma (sigma^2 + diag(Xbar^T Xbar)) int L)."""
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
    if np.any(alpha0 <= 0) or loss_integral < 0:
        raise ValueError("need alpha0 > 0 and a nonnegative loss integral")
    col = np.sum(ds.Xbar * ds.Xbar, axis=0)
    if alpha0.size == 1:
        alpha0 = np.full(ds.d, alpha0[0])
    return alpha0 * np.exp(-2.0 * gamma * sigma * sigma * loss_integral) * np.exp(
        -2.0 * gamma * col * loss_integral
    )


def effective_init(alpha_inf: Vec, r_inf: Vec) -> Vec:
    """Reference point 2 alpha_inf^2 sinh(4 r_inf) of the limit Bregman problem."""
    alpha_inf = np.asarray(alpha_inf, dtype=float)
    if np.any(alpha_inf <= 0):
        raise ValueError("alpha_inf must be positive")
    return 2.0 * alpha_inf * alpha_inf * np.sinh(4.0 * np.asarray(r_inf, dtype=float))


def _dist_reference(ds: Dataset) -> Vec:
    return ds.beta_star if ds.beta_star is not None else min_norm_solve(ds.X, ds.Y)


# Ensemble kernels. Each row of a (rows, d) operand gets its own BLAS call:
# matmul over a stack of (n, d) @ (d, 1) items runs one gemv per item, and a
# stack of (1, n) @ (n, 1) items one dot per item, the same kernels a single
# row's `Xbar @ beta` and `r @ r` call. A (rows, d) @ (d, n) product would run
# one gemm, whose summation order differs from gemv in the last bits.

def _matvecs(M: np.ndarray, V: Mat) -> Mat:
    """Row i is M @ V[i], or M[i] @ V[i] for a stack of matrices M."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def _dots(V: Mat) -> Vec:
    """Entry i is V[i] @ V[i]."""
    return np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0]


class _Rows:
    """Per-row arrays of the rows still integrating; keep() drops the others."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask) -> None:
        self.__dict__.update({k: v[mask] for k, v in vars(self).items() if v is not None})


def _objects(items) -> np.ndarray:
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr


_COLUMNS = ("t", "loss", "dist_to_beta_l0_sq", "loss_integral", "r_acc_norm")


def _trajectory() -> Trajectory:
    traj = Trajectory(_COLUMNS)
    traj.meta["steps"] = []  # integer step index of every row
    return traj


def _record(traj: Trajectory, step: int, time: float, beta: Vec, loss: float,
            loss_integral: float, r_acc: Vec, ref: Vec) -> None:
    diff = beta - ref
    traj.append(time, loss, float(diff @ diff), loss_integral, float(np.linalg.norm(r_acc)))
    traj.meta["steps"].append(int(step))


class DiscreteRun(NamedTuple):
    """One row of a discrete ensemble: start state, optimizer, schedule, stream."""

    state: DlnState
    cfg: OptimizerConfig
    sched: NoiseSchedule
    rng: RngStream


def run_dln_discrete_ensemble(ds: Dataset, runs, steps: int, record_stride: int = 100,
                              P: Mat | None = None, early_stop: bool = True) -> list:
    """Step many discrete runs at once as the rows of one (rows, d) weight pair.

    Every row is bitwise the run that iterating dln_discrete_step from its
    start state would give: its stream draws in the same order and sizes, and
    the arithmetic is the same elementwise, with one gemv or dot call per row
    for each product. Rows must share gamma and batch; kind and schedule are
    per row. Each row gets a Trajectory of pre-step snapshots every
    record_stride steps plus the final iterate, with meta "steps" (integer
    step indices), "final_state", "converged" and "steps_run". When P is
    given, each loss-scaled noisy step adds
    sigma sqrt(gamma L) (I - P) sqrt(gamma) (Z_+ + Z_-) / 2 to the row's
    r_acc, the realized out-of-row-span noise. A row stops early once its
    loss sits at or below 1e-12 for 100 straight steps; the step that
    completes the streak is still applied.

    Returns one entry per row, in order. A row that leaves the finite range
    ends the list with its DivergenceError in place of a Trajectory, and the
    rows after it are dropped: the list stops where a sequential loop over the
    rows would have raised first.
    """
    runs = list(runs)
    if not runs:
        return []
    gamma, batch = runs[0].cfg.gamma, runs[0].cfg.batch
    for run in runs:
        _check_discrete(run.cfg, ds)
        if run.cfg.gamma != gamma or run.cfg.batch != batch:
            raise ValueError("ensemble rows must share gamma and batch")
        if run.state.w_plus.shape != (ds.d,):
            raise ValueError("state dimension does not match the dataset")
        if run.cfg.kind == "NoisySGD" and run.sched.kind == "general":
            run.sched.check_budget(gamma, steps)
    n, d = ds.n, ds.d
    X, Y, Xbar, Ybar, XbarT = ds.X, ds.Y, ds.Xbar, ds.Ybar, ds.Xbar.T
    ref = _dist_reference(ds)
    sqrt_n = math.sqrt(n)
    inc_scale = math.sqrt(gamma) * 0.5
    # noise per row: 0 none, 1 loss-scaled (sigma > 0), 2 general table
    noise = [0 if r.cfg.kind != "NoisySGD" else 2 if r.sched.kind == "general"
             else int(r.sched.sigma > 0) for r in runs]
    full = [r.cfg.kind == "GD" or batch == n for r in runs]
    # Rows are held full-batch first, then by noise branch, so that each
    # branch is a contiguous slice of the arrays: noisy rows are minibatch
    # rows unless every row is full-batch. s.row maps back to the caller's order.
    order = sorted(range(len(runs)), key=lambda r: (not full[r], noise[r]))
    runs_in = [runs[r] for r in order]
    s = _Rows(
        row=np.array(order),
        run=_objects(runs_in),
        full=np.array([full[r] for r in order]),
        noise=np.array([noise[r] for r in order]),
        sigma=np.array([r.sched.sigma for r in runs_in]),
        w_p=np.array([r.state.w_plus for r in runs_in]),
        w_m=np.array([r.state.w_minus for r in runs_in]),
        step0=np.array([r.state.step for r in runs_in]),
        time=np.array([r.state.time for r in runs_in], dtype=float),
        li=np.array([r.state.loss_integral for r in runs_in], dtype=float),
        nsq=np.array([r.state.noise_sq_integral for r in runs_in], dtype=float),
        r_acc=np.array([r.state.r_acc for r in runs_in], dtype=float),
        streak=np.zeros(len(runs), dtype=int),
    )
    trajs = [_trajectory() for _ in runs]
    out = [None] * len(runs)
    fail = len(runs)  # first row, in the caller's order, that diverged

    def finish(j: int, done: int, stopped: bool) -> None:
        state = DlnState(w_plus=s.w_p[j].copy(), w_minus=s.w_m[j].copy(),
                         step=int(s.step0[j]) + done, time=float(s.time[j]),
                         loss_integral=float(s.li[j]), r_acc=s.r_acc[j].copy(),
                         noise_sq_integral=float(s.nsq[j]))
        traj = trajs[s.row[j]]
        beta = state.beta()
        _record(traj, state.step, state.time, beta, dln_loss(beta, ds),
                state.loss_integral, state.r_acc, ref)
        traj.meta.update(final_state=state, converged=stopped, steps_run=done)
        out[s.row[j]] = traj

    def groups():
        """Slices of the full-batch, minibatch, loss-scaled and general rows,
        the minibatch row numbers, and each row's draws."""
        nf = int(s.full.sum())
        ls, gen = (np.flatnonzero(s.noise == z) for z in (1, 2))
        plan = [(run.rng, not f, z == 1) for run, f, z in zip(s.run, s.full, s.noise)]
        return (slice(0, nf), slice(nf, s.row.size),
                slice(ls[0], ls[-1] + 1) if ls.size else None,
                range(gen[0], gen[-1] + 1) if gen.size else (),
                np.arange(s.row.size - nf), plan)

    full, mini, ls, gen, mini_rows, plan = groups()
    picks = np.zeros((len(runs), batch), dtype=np.int64)
    z_p = np.empty((len(runs), d))
    z_m = np.empty((len(runs), d))
    k = 0
    # a diverging row computes with non-finite values until it is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps and s.row.size:
            beta = s.w_p * s.w_p - s.w_m * s.w_m
            rbar = _matvecs(Xbar, beta) - Ybar
            loss = 0.5 * _dots(rbar)
            if k % record_stride == 0:
                for j, row in enumerate(s.row):
                    _record(trajs[row], s.step0[j] + k, s.time[j], beta[j], loss[j],
                            s.li[j], s.r_acc[j], ref)

            # per-row draws, in dln_discrete_step's order: indices, Z_+, Z_-
            # (a general table's rows draw their Z below)
            for j, (rng, draws_idx, noisy) in enumerate(plan):
                if draws_idx:
                    picks[j] = rng.indices(n, batch)
                if noisy:
                    z_p[j] = rng.normal(d)
                    z_m[j] = rng.normal(d)

            if mini_rows.size:
                idx = picks[mini]
                if batch == 1:
                    i = idx[:, 0]
                    a = X[i] * (sqrt_n * rbar[mini][mini_rows, i])[:, None]
                else:
                    rows = X[idx]
                    a = _matvecs(rows.transpose(0, 2, 1),
                                 _matvecs(rows, beta[mini]) - Y[idx]) / batch
                if full.stop:
                    a = np.concatenate((_matvecs(XbarT, rbar[full]), a))
            else:
                a = _matvecs(XbarT, rbar)
            drift = 2.0 * gamma * a
            mult_p = 1.0 - drift
            mult_m = 1.0 + drift
            if ls is not None:
                sigma_t = 2.0 * s.sigma[ls] * np.sqrt(loss[ls])
                coef = (gamma * sigma_t)[:, None]
                mult_p[ls] += coef * z_p[ls]
                mult_m[ls] -= coef * z_m[ls]
                s.nsq[ls] += gamma * (sigma_t * sigma_t)
                if P is not None:
                    inc = inc_scale * (z_p[ls] + z_m[ls])
                    s.r_acc[ls] += (s.sigma[ls] * np.sqrt(gamma * loss[ls]))[:, None] * (
                        inc - _matvecs(P, inc))
            for j in gen:
                run = s.run[j]
                mat = run.sched.matrix_at(int(s.step0[j]) + k)
                mult_p[j] += gamma * (mat.T @ run.rng.normal(mat.shape[0]))
                mult_m[j] -= gamma * (mat.T @ run.rng.normal(mat.shape[0]))
                s.nsq[j] += gamma * float(np.sum(mat * mat))

            s.w_p = s.w_p * mult_p
            s.w_m = s.w_m * mult_m
            s.time = s.time + gamma
            s.li = s.li + gamma * loss
            keep = (np.isfinite(loss) & np.isfinite(s.w_p).all(1)
                    & np.isfinite(s.w_m).all(1))
            drop = not keep.all()
            if drop:
                for j in np.flatnonzero(~keep):
                    if s.row[j] < fail:
                        fail = s.row[j]
                        out[fail] = DivergenceError(int(s.step0[j]) + k)
                keep &= s.row < fail
            if early_stop:
                s.streak = (s.streak + 1) * (loss <= CONVERGED_LOSS)
                if s.streak.max() >= CONVERGED_STREAK:
                    for j in np.flatnonzero(keep & (s.streak >= CONVERGED_STREAK)):
                        finish(j, k + 1, True)
                        keep[j] = False
                        drop = True
            k += 1
            if drop:
                s.keep(keep)
                full, mini, ls, gen, mini_rows, plan = groups()
    for j in range(s.row.size):
        finish(j, k, False)
    return out[:fail + 1]


def run_dln_discrete(ds: Dataset, state: DlnState, cfg: OptimizerConfig,
                     sched: NoiseSchedule, steps: int, rng: RngStream,
                     record_stride: int = 100, P: Mat | None = None,
                     early_stop: bool = True):
    """One run of run_dln_discrete_ensemble; returns (final DlnState, Trajectory).

    Raises the run's DivergenceError if it leaves the finite range.
    """
    traj = run_dln_discrete_ensemble(ds, [DiscreteRun(state, cfg, sched, rng)], steps,
                                     record_stride=record_stride, P=P,
                                     early_stop=early_stop)[0]
    if isinstance(traj, DivergenceError):
        raise traj
    return traj.meta["final_state"], traj


# SDE noise draw-ahead. Loss-scaled runs hold at most DRAW_AHEAD steps of
# N(0, I_{n+d}) vectors at once, over all rows together. A general schedule
# alternates blocks of GENERAL_BLOCK steps of xi and of its own normals in
# each row's stream, so those rows draw whole blocks.
DRAW_AHEAD = 1024
GENERAL_BLOCK = 4096


def simulate_dln_sde_ensemble(ds: Dataset, alpha, sched: NoiseSchedule, gamma: float,
                              h: float, steps: int, rngs, record_stride: int = 100,
                              early_stop: bool = True) -> list:
    """Geometric Euler-Maruyama for the mirrored weight SDE, one row per stream.

    Each row integrates from the same start and schedule with its own stream
    and shared Brownian path, bitwise as simulate_dln_sde would alone. The
    scheme steps the logarithms of the weights, which stay positive in the
    exact SDE. Per step, with xi ~ N(0, I_{n+d}) and A = (Xbar | sigma I_d):
        c = 2 h Xbar^T rbar - 2 sqrt(gamma L) sqrt(h) A^T xi
        v = per-coordinate noise variance, 4 gamma L h (diag(A^T A))
        w_+ <- w_+ exp(-c - v/2),  w_- <- w_- exp(+c - v/2)
    The drift coefficient is the small-step limit of the discrete update, so
    the dual variable (1/4) log(w_+/w_-) descends the full loss gradient and
    the run dissipates at the same rate as the algorithm it models. Stepping
    in log space keeps the product w_+ w_- exactly on the decayed-scale law
    and never flips a weight sign, which a linear multiplier does at O(h).
    A row's trajectory records t, loss, squared distance to the planted
    vector, the loss integral, and ||r_acc||, with the integer step indices
    in meta["steps"]. meta["checkpoints"] keeps, at every recorded step, the
    iterate beta together with the linearly re-accumulated exponents (eta
    from the drift and data-noise block, delta from the isotropic block) so
    the hyperbolic closed form can be checked externally.

    Each row draws its xi ahead in chunks from its own stream. A loss-scaled
    stream is one sequence of normals however it is chunked, so the chunks
    hold DRAW_AHEAD steps over all rows together, whatever the row count.

    Returns one Trajectory per row, in order; a row that leaves the finite
    range ends the list with its DivergenceError, as for
    run_dln_discrete_ensemble.
    """
    if steps < 0 or h <= 0 or gamma <= 0:
        raise ValueError("need positive gamma, h and nonnegative steps")
    sched.check_budget(h, steps)
    rngs = list(rngs)
    if not rngs:
        return []
    init = dln_init(alpha, ds.d)
    general = sched.kind == "general"
    sigma = 0.0 if general else sched.sigma
    n, d = ds.n, ds.d
    Xbar, Ybar, XbarT = ds.Xbar, ds.Ybar, ds.Xbar.T
    P = row_space_projector(ds.X)
    ref = _dist_reference(ds)
    sqh = math.sqrt(h)
    # per-coordinate noise variance of the shared path is 4 gamma L h (diag + sigma^2)
    var_fac = 4.0 * gamma * h * (np.sum(Xbar * Xbar, axis=0) + sigma * sigma)
    nsq_fac = h * 4.0 * sigma * sigma
    R = len(rngs)
    s = _Rows(
        row=np.arange(R),
        rng=_objects(rngs),
        w_p=np.tile(init.w_plus, (R, 1)),
        w_m=np.tile(init.w_minus, (R, 1)),
        eta=np.zeros((R, d)),
        delta=np.zeros((R, d)),
        r_acc=np.zeros((R, d)),
        li=np.zeros(R),
        nsq=np.zeros(R),
        streak=np.zeros(R, dtype=int),
        xi=None,  # drawn noise chunk, (rows, steps, n + d)
        z=None,  # a general schedule's own normals, (rows, steps, p)
    )
    trajs = []
    for _ in range(R):
        traj = _trajectory()
        traj.meta["checkpoints"] = []
        trajs.append(traj)
    out = [None] * R
    fail = R
    last_recorded = -1

    def record(j: int, k: int, beta: Vec, loss: float) -> None:
        traj = trajs[s.row[j]]
        li = float(s.li[j])
        _record(traj, k, k * h, beta, loss, li, s.r_acc[j], ref)
        traj.meta["checkpoints"].append({
            "step": k, "time": k * h, "beta": beta.copy(), "eta": s.eta[j].copy(),
            "delta": s.delta[j].copy(), "loss_integral": li,
        })

    def finish(j: int, k: int, stopped: bool) -> None:
        w_p, w_m = s.w_p[j].copy(), s.w_m[j].copy()
        beta = w_p * w_p - w_m * w_m
        if last_recorded != k:
            rbar = Xbar @ beta - Ybar
            record(j, k, beta, 0.5 * float(rbar @ rbar))
        traj = trajs[s.row[j]]
        traj.meta.update(
            final_state=DlnState(w_plus=w_p, w_minus=w_m, step=k, time=k * h,
                                 loss_integral=float(s.li[j]), r_acc=s.r_acc[j].copy(),
                                 noise_sq_integral=float(s.nsq[j])),
            eta=s.eta[j].copy(), delta=s.delta[j].copy(), converged=stopped,
            steps_run=k)
        out[s.row[j]] = traj

    chunk = GENERAL_BLOCK if general else max(1, DRAW_AHEAD // R)
    k = 0
    while k < steps and s.row.size:
        j = k % chunk
        if j == 0:
            # the chunk is a row array, so it is compacted with the rows
            count = min(chunk, steps - k)
            s.xi = s.z = None  # release the spent chunk before drawing
            s.xi = np.empty((s.row.size, count, n + d))
            if general:
                s.z = np.empty((s.row.size, count, sched.matrices.shape[-2]))
            for i, rng in enumerate(s.rng):
                s.xi[i] = rng.normal((count, n + d))
                if general:
                    s.z[i] = rng.normal((count, sched.matrices.shape[-2]))

        beta = s.w_p * s.w_p - s.w_m * s.w_m
        rbar = _matvecs(Xbar, beta) - Ybar
        loss = 0.5 * _dots(rbar)
        keep = np.isfinite(loss)
        drop = not keep.all()
        if drop:
            for i in np.flatnonzero(~keep):
                if s.row[i] < fail:
                    fail = s.row[i]
                    out[fail] = DivergenceError(k)
            keep &= s.row < fail
        if k % record_stride == 0:
            for i in np.flatnonzero(keep):
                record(i, k, beta[i], loss[i])
            last_recorded = k
        if early_stop:
            s.streak = (s.streak + 1) * (loss <= CONVERGED_LOSS)
            if s.streak.max() >= CONVERGED_STREAK:
                for i in np.flatnonzero(keep & (s.streak >= CONVERGED_STREAK)):
                    finish(i, k, True)
                    keep[i] = False
                    drop = True
        if drop:
            s.keep(keep)
            rbar, loss = rbar[keep], loss[keep]
            if not s.row.size:
                break

        g = 2.0 * h * _matvecs(XbarT, rbar)
        root = np.sqrt(gamma * loss)
        amp = 2.0 * root * sqh
        xi = s.xi[:, j]
        m_x = amp[:, None] * _matvecs(XbarT, xi[:, :n])
        c = g - m_x
        v = var_fac * loss[:, None]
        s.eta = s.eta - g + m_x
        if sigma > 0:
            m_i = (amp * sigma)[:, None] * xi[:, n:]
            inc = sqh * xi[:, n:]
            s.r_acc = s.r_acc + (sigma * root)[:, None] * (inc - _matvecs(P, inc))
            c = c - m_i
            s.delta = s.delta + m_i
        if general:
            mat = sched.matrix_at(k)
            m_g = 2.0 * sqh * _matvecs(mat.T, s.z[:, j])
            c = c - m_g
            s.delta = s.delta + m_g
            s.r_acc = s.r_acc + 0.5 * (m_g - _matvecs(P, m_g))
            v = v + 4.0 * h * np.sum(mat * mat, axis=0)
            s.nsq = s.nsq + h * float(np.sum(mat * mat))
        fade = np.exp(-0.5 * v)
        grow = np.exp(-c)
        s.w_p = s.w_p * (fade * grow)
        s.w_m = s.w_m * (fade / grow)
        s.li = s.li + h * loss
        s.nsq = s.nsq + nsq_fac * loss
        k += 1

    for i in range(s.row.size):
        finish(i, k, False)
    return out[:fail + 1]


def simulate_dln_sde(ds: Dataset, alpha, sched: NoiseSchedule, gamma: float, h: float,
                     steps: int, rng: RngStream, record_stride: int = 100,
                     early_stop: bool = True) -> Trajectory:
    """One row of simulate_dln_sde_ensemble; raises its DivergenceError."""
    traj = simulate_dln_sde_ensemble(ds, alpha, sched, gamma, h, steps, [rng],
                                     record_stride=record_stride,
                                     early_stop=early_stop)[0]
    if isinstance(traj, DivergenceError):
        raise traj
    return traj

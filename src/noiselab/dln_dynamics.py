"""Two-layer diagonal linear network dynamics: the predictor is <w_+^2 - w_-^2, x>.

Discrete updates are exact minibatch SGD on the reparametrized risk, written in
multiplicative form, with optional loss-scaled Gaussian noise multiplying the
weights; an OptimizerConfig (kind, gamma, sigma, batch) fixes a discrete run,
and the SDE takes one sigma per row. The SDE integrator drives both
weight signs with one shared Brownian path, mirrored, which is what makes the
hyperbolic closed form of the iterate hold along the trajectory. The loss is
the normalized empirical risk L(beta) = (1/2n) sum_i (<beta, x_i> - y_i)^2.

Both models step many runs at once as the rows of one (rows, d) weight pair,
held in the caller's order, each row started at w_+ = w_- = alpha, through
one time loop, _drive. It owns the per-row records, the early stop,
divergence detection and the dropping of finished rows, and it makes every
draw of a step before the update, once per draw group (_Grouped.draw); each
model supplies only its draw plan and its update. An ensemble returns one
entry per row, in order: the row's Trajectory, or its DivergenceError if it
left the finite range; a failed row never stops the others.

Rows on equal streams draw once. A study runs every sigma cell on one seed
window (common random numbers), so a seed's rows start on equal streams.
Rows whose streams are distinct objects in equal states, with one draw plan
(batch indices or not, normals or not), form a group that draws once per
step and whose rows read the draws; each stream ends where its row's run
alone leaves it. One stream object passed for two rows is never grouped:
those rows draw from it in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import (
    RngStream, Rows, Trajectory, Vec, dots, matvecs, row_space_projector,
)
from .lsq_dynamics import OptimizerConfig, minibatch_gradients
from .problems import Dataset

# convergence detection for discrete and SDE runs
CONVERGED_LOSS = 1e-12
CONVERGED_STREAK = 100

# the optimizer kinds the discrete model (and so harness mode "discrete") takes
DISCRETE_KINDS = ("GD", "SGD", "NoisySGD")


class DivergenceError(RuntimeError):
    """The iterate or its loss left the finite range; carries the failing step."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"non-finite iterate at step {step}" + (f": {detail}" if detail else ""))


@dataclass
class DlnState:
    """Weight pair and running diagnostics of one DLN trajectory.

    loss_integral is the left Riemann sum of the loss, r_acc the out-of-row-span
    noise that the SDE accumulates, (1/2)(I - P) delta with P the projector onto
    the row span of X; a discrete run keeps the zero default. Both ensembles
    return each row's end state as meta["final_state"].
    """

    w_plus: Vec
    w_minus: Vec
    step: int = 0
    time: float = 0.0
    loss_integral: float = 0.0
    r_acc: Vec | None = None

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


def effective_alpha(alpha0: Vec, ds: Dataset, gamma: float, sigma: float,
                    loss_integral: float) -> Vec:
    """Decayed potential scale alpha0 . exp(-2 gamma (sigma^2 + diag(Xbar^T Xbar)) int L)."""
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
    if np.any(alpha0 <= 0) or loss_integral < 0:
        raise ValueError("need alpha0 > 0 and a nonnegative loss integral")
    col = np.sum(ds.Xbar * ds.Xbar, axis=0)
    return alpha0 * np.exp(-2.0 * gamma * sigma * sigma * loss_integral) * np.exp(
        -2.0 * gamma * col * loss_integral
    )


_COLUMNS = ("t", "loss", "dist_to_beta_l0_sq")


def _rows(alpha, d: int, rngs: list, idx: list, noisy: list, **arrays) -> Rows:
    """The rows of an ensemble, in the caller's order, each started at
    dln_init(alpha, d), with their streams, their draw plans (idx: draws batch
    indices, noisy: draws normals) and the model's own arrays; s.grp numbers
    the draw groups (module docstring).
    """
    start, rows, keys = dln_init(alpha, d), len(rngs), {}
    grp = [keys.setdefault((idx[r], noisy[r], rng.state_key())
                           if rngs.count(rng) == 1 else r, len(keys))
           for r, rng in enumerate(rngs)]
    return Rows(
        row=np.arange(rows),
        rng=np.array(rngs, dtype=object),
        grp=np.array(grp),
        idx=np.array(idx, dtype=bool),
        noisy=np.array(noisy, dtype=bool),
        time=np.zeros(rows),
        w_p=np.tile(start.w_plus, (rows, 1)),
        w_m=np.tile(start.w_minus, (rows, 1)),
        li=np.zeros(rows),
        **arrays,
    )


class _Grouped:
    """Draws once per group (see _rows): group g draws from the stream of its
    first row, and its rows read the draws at s.grp. The model holds n and
    batch, if its rows draw indices, and the draw buffers picks,
    (rows, batch), and z, (rows, normals per draw), which start as zeros."""

    def keep(self, mask) -> None:
        """Drop rows, each row's stream first taking its group's state."""
        self.sync()
        self.s.keep(mask)
        self.regroup()

    def regroup(self) -> None:
        """Renumber the groups held, and set each one's (stream, idx, noisy)."""
        s = self.s
        _, first, s.grp = np.unique(s.grp, return_index=True, return_inverse=True)
        self.plan = list(zip(s.rng[first], s.idx[first].tolist(), s.noisy[first].tolist()))

    def draw(self) -> None:
        """The draws of one step: each group draws batch indices into
        picks[g] if its plan has them, then normals into z[g] if it is noisy."""
        for g, (rng, idx, noisy) in enumerate(self.plan):
            if idx:
                self.picks[g] = rng.indices(self.n, self.batch)
            if noisy:
                rng.normal(out=self.z[g])

    def sync(self) -> None:
        """Each row's stream takes its group's state, where its run alone stands."""
        for rng, g in zip(self.s.rng, self.s.grp):
            lead = self.plan[g][0]
            if rng is not lead:
                rng.take_state(lead)


def _drive(ds: Dataset, model, steps: int, record_stride: int, early_stop: bool) -> list:
    """The time loop of both DLN ensembles; returns one entry per row, in the
    caller's order: its Trajectory, or, if the row failed, its DivergenceError.

    model.s holds the rows (see _rows). The model supplies only its draw
    plan and its update of step k, step(k, beta, rbar, loss), in place on
    model.s from the pre-step (rows, d) arrays and the draws that draw()
    made just before, and r_acc(j), if its rows carry one; as a _Grouped it
    drops rows with keep(mask), and its sync() leaves every stream where the
    row's run stands once the loop ends. Its
    stops_before_step fixes the convention: the discrete model judges a row
    after stepping it, the SDE judges the pre-step loss and stops a row
    unstepped; either way a row whose final loss is not finite fails where
    it ended. The row arrays named in model.snapshot are copied into
    meta["checkpoints"] at every record, and into meta at the end.
    """
    if steps < 0 or record_stride < 1:
        raise ValueError("need nonnegative steps and a record_stride of at least 1")
    s, drop_rows = model.s, model.keep
    ref = ds.beta_star if ds.beta_star is not None else ds.theta_ls()
    out = [Trajectory(_COLUMNS) for _ in s.row]
    for traj in out:
        traj.meta["steps"] = []  # integer step index of every row
    s.streak = np.zeros(len(out), dtype=int)

    def snapshot(j):
        return {key: getattr(s, key)[j].copy() for key in model.snapshot}

    def record(j, k, beta, loss):
        traj = out[s.row[j]]
        diff = beta - ref
        traj.append(s.time[j], loss, float(diff @ diff))
        traj.meta["steps"].append(k)
        if model.snapshot:
            traj.meta.setdefault("checkpoints", []).append({
                "step": k, "time": float(s.time[j]), "beta": beta.copy(),
                **snapshot(j), "loss_integral": float(s.li[j]),
            })

    def finish(j, done, stopped):
        beta = s.w_p[j] * s.w_p[j] - s.w_m[j] * s.w_m[j]
        loss = dln_loss(beta, ds)
        if not math.isfinite(loss):  # finite weights can still overflow the loss
            out[s.row[j]] = DivergenceError(done)
            return
        record(j, done, beta, loss)
        # only the SDE rows carry r_acc; a discrete row keeps DlnState's zeros
        r_acc = model.r_acc(j) if hasattr(model, "r_acc") else None
        state = DlnState(w_plus=s.w_p[j].copy(), w_minus=s.w_m[j].copy(),
                         step=done, time=float(s.time[j]),
                         loss_integral=float(s.li[j]), r_acc=r_acc)
        out[s.row[j]].meta.update(final_state=state, **snapshot(j), converged=stopped,
                                  steps_run=done)

    def settle(ok, k, done, loss):
        """Mask of the rows that go on past step k, or None if all do: a row
        not ok fails at k, and a row that completes its loss streak finishes
        after done steps."""
        drop = not ok.all()
        if drop:
            for j in np.flatnonzero(~ok):
                out[s.row[j]] = DivergenceError(k)
        if early_stop:
            s.streak = (s.streak + 1) * (loss <= CONVERGED_LOSS)
            if s.streak.max() >= CONVERGED_STREAK:
                for j in np.flatnonzero(ok & (s.streak >= CONVERGED_STREAK)):
                    finish(j, done, True)
                    ok[j] = False
                    drop = True
        return ok if drop else None

    Xbar, Ybar, before = ds.Xbar, ds.Ybar, model.stops_before_step
    k = 0
    # a diverging row computes with non-finite values until it is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps and s.row.size:
            beta = s.w_p * s.w_p - s.w_m * s.w_m
            rbar = matvecs(Xbar, beta) - Ybar
            loss = 0.5 * dots(rbar, rbar)
            ok = np.isfinite(loss)
            keep = settle(ok, k, k, loss) if before else None
            if k % record_stride == 0:
                for j in np.flatnonzero(ok):
                    record(j, k, beta[j], loss[j])
            if keep is not None:
                drop_rows(keep)
                if not s.row.size:
                    break
                beta, rbar, loss = beta[keep], rbar[keep], loss[keep]
            model.draw()
            model.step(k, beta, rbar, loss)
            if not before:
                ok &= np.isfinite(s.w_p).all(1) & np.isfinite(s.w_m).all(1)
                keep = settle(ok, k, k + 1, loss)
                if keep is not None:
                    drop_rows(keep)
            k += 1
        for j in range(s.row.size):
            finish(j, k, False)
    model.sync()
    return out


class _Discrete(_Grouped):
    """The multiplicative update of the weight pair, on every row at once.

    w_{+} <- w_{+} (1 - 2 gamma a_t + gamma sigma_t Z_+), and mirrored with
    independent Z_- for w_{-}, where a_t is minibatch_gradients' estimate at
    beta = w_+^2 - w_-^2, the one the least-squares step takes, and sigma_t =
    2 sigma sqrt(L(w_t)) scales the isotropic noise by the loss. GD drops
    both stochastic terms, SGD drops the Z term. Draw order per row: batch
    indices (none for a full batch), then Z_+, then Z_-.
    """

    stops_before_step = False
    snapshot = ()

    def __init__(self, ds: Dataset, alpha, cfgs: list, rngs: list):
        gamma, batch = cfgs[0].gamma, cfgs[0].batch
        for cfg in cfgs:
            if cfg.kind not in DISCRETE_KINDS:
                raise ValueError(f"unsupported optimizer kind for this model: {cfg.kind!r}")
            if cfg.gamma != gamma or cfg.batch != batch:
                raise ValueError("ensemble rows must share gamma and batch")
        if batch > ds.n:
            raise ValueError("batch exceeds dataset size")
        self.ds, self.gamma, self.n, self.batch = ds, gamma, ds.n, batch
        noisy = [cfg.kind == "NoisySGD" and cfg.sigma > 0 for cfg in cfgs]
        # a noise-free row is held with sigma 0: its Z term is a signed zero
        self.s = _rows(alpha, ds.d, rngs, [not cfg.full_batch(ds.n) for cfg in cfgs], noisy,
                       sigma=np.array([cfg.sigma if z else 0.0 for cfg, z in zip(cfgs, noisy)]))
        self.picks = np.zeros((len(cfgs), batch), dtype=np.int64)
        # Z_+ and Z_- of a group are the two halves of one draw of 2d normals
        self.z = np.zeros((len(cfgs), 2 * ds.d))
        self.regroup()

    def step(self, k, beta, rbar, loss) -> None:
        s, ds, gamma, idx, d = self.s, self.ds, self.gamma, self.s.idx, self.ds.d
        mini = np.count_nonzero(idx)
        if mini == idx.size:
            a = minibatch_gradients(ds, beta, rbar, self.picks[s.grp])
        elif not mini:
            a = minibatch_gradients(ds, beta, rbar)
        else:  # full-batch rows take the full gradient, the others their picks
            a, full = np.empty_like(beta), ~idx
            a[full] = minibatch_gradients(ds, beta[full], rbar[full])
            a[idx] = minibatch_gradients(ds, beta[idx], rbar[idx], self.picks[s.grp[idx]])
        drift = 2.0 * gamma * a
        sigma_t = 2.0 * s.sigma * np.sqrt(loss)
        coef = (gamma * sigma_t)[:, None]
        z = self.z[s.grp]
        s.w_p = s.w_p * (1.0 - drift + coef * z[:, :d])
        s.w_m = s.w_m * (1.0 + drift - coef * z[:, d:])
        s.time = s.time + gamma
        s.li = s.li + gamma * loss


def run_dln_discrete_ensemble(ds: Dataset, alpha, cfgs, rngs, steps: int,
                              record_stride: int = 100, early_stop: bool = True) -> list:
    """Step many discrete runs at once as the rows of one (rows, d) weight pair,
    one row per (cfg, rng) pair, each started at dln_init(alpha, ds.d).

    Every row is bitwise the run that iterating discrete_step_reference
    (tests/oracles.py) would give: its stream draws in the same order and
    sizes, and the arithmetic is the same elementwise, with one gemv or dot
    call per row for each product. Rows must share gamma and batch; kind and
    sigma are per row. Each row gets a Trajectory of pre-step snapshots every
    record_stride steps plus the final iterate, with meta "steps" (integer
    step indices), "final_state", "converged" and "steps_run". A row stops
    early once its loss sits at or below 1e-12 for 100 straight steps; the
    step that completes the streak is still applied.

    Returns one entry per row, in order. A row that leaves the finite range
    has its DivergenceError in place of a Trajectory, naming the step whose
    update (or final loss) left the range, the error its run alone raises;
    the other rows run on.
    Rows on equal streams with one draw plan draw once per step (module
    docstring), and each stream ends in the state its run alone leaves.
    """
    cfgs, rngs = list(cfgs), list(rngs)
    if len(cfgs) != len(rngs):
        raise ValueError("need one stream per optimizer config")
    if not cfgs:
        return []
    return _drive(ds, _Discrete(ds, alpha, cfgs, rngs), steps, record_stride, early_stop)


def run_dln_discrete(ds: Dataset, alpha, cfg: OptimizerConfig, steps: int,
                     rng: RngStream, record_stride: int = 100, early_stop: bool = True):
    """One run of run_dln_discrete_ensemble; returns (final DlnState, Trajectory).

    Raises the run's DivergenceError if it leaves the finite range.
    """
    traj = run_dln_discrete_ensemble(ds, alpha, [cfg], [rng], steps,
                                     record_stride=record_stride,
                                     early_stop=early_stop)[0]
    if isinstance(traj, DivergenceError):
        raise traj
    return traj.meta["final_state"], traj


class _Sde(_Grouped):
    """The geometric Euler-Maruyama step of simulate_dln_sde_ensemble, with
    one sigma per row; a sigma-0 row adds a signed zero isotropic term, which
    leaves delta at +0.0 and exp(-c) unchanged."""

    stops_before_step = True
    snapshot = ("eta", "delta")

    def __init__(self, ds: Dataset, alpha, sigmas: list, gamma: float, h: float,
                 rngs: list):
        R, d = len(rngs), ds.d
        self.gamma, self.h = gamma, h
        self.n, self.d, self.XbarT = ds.n, d, ds.Xbar.T
        self.P = row_space_projector(ds.X)
        self.sqh = math.sqrt(h)
        col = np.sum(ds.Xbar * ds.Xbar, axis=0)
        # every row draws one xi ~ N(0, I_{n+d}) per step, and no indices
        self.s = _rows(alpha, d, rngs, [False] * R, [True] * R,
                       sigma=np.array(sigmas, dtype=float),
                       # per-coordinate noise variance of the shared path is
                       # 4 gamma L h (diag + sigma^2)
                       var_fac=np.array([4.0 * gamma * h * (col + v * v) for v in sigmas]),
                       eta=np.zeros((R, d)), delta=np.zeros((R, d)))
        self.z = np.zeros((R, ds.n + d))
        self.regroup()

    def r_acc(self, j) -> Vec:
        """Row j's out-of-row-span noise: the isotropic increments sum to
        delta, and each adds half its (I - P) part to r_acc."""
        delta = self.s.delta[j]
        return 0.5 * (delta - self.P @ delta)

    def step(self, k, beta, rbar, loss) -> None:
        s, n, h, XbarT = self.s, self.n, self.h, self.XbarT
        g = 2.0 * h * matvecs(XbarT, rbar)
        amp = 2.0 * np.sqrt(self.gamma * loss) * self.sqh
        xi = self.z[:len(self.plan)]  # each group's xi of this step
        # each group's data-noise product once, read by its rows
        m_x = amp[:, None] * matvecs(XbarT, xi[:, :n])[s.grp]
        m_i = (amp * s.sigma)[:, None] * xi[s.grp, n:]
        c = g - m_x - m_i
        v = s.var_fac * loss[:, None]
        s.eta = s.eta - g + m_x
        s.delta = s.delta + m_i
        fade = np.exp(-0.5 * v)
        grow = np.exp(-c)
        s.w_p = s.w_p * (fade * grow)
        s.w_m = s.w_m * (fade / grow)
        s.li = s.li + h * loss
        s.time[:] = (k + 1) * h  # k h exactly, as the records state it


def simulate_dln_sde_ensemble(ds: Dataset, alpha, sigmas, gamma: float,
                              h: float, steps: int, rngs, record_stride: int = 100,
                              early_stop: bool = True) -> list:
    """Geometric Euler-Maruyama for the mirrored weight SDE, one row per
    (sigma, stream) pair.

    A row's sigma scales the isotropic block sigma I_d of its diffusion, which
    the loss multiplies like the data block. Each row integrates from the same
    start with its own sigma, stream and shared Brownian path, bitwise as
    simulate_dln_sde would alone, whatever the other rows' sigmas. The
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
    A row's trajectory records t, loss and the squared distance to the
    planted vector, with the integer step indices in meta["steps"].
    meta["checkpoints"] keeps, at every recorded step, the iterate beta
    together with the linearly re-accumulated exponents (eta from the drift
    and data-noise block, delta from the isotropic block) so the hyperbolic
    closed form can be checked externally. The final state's r_acc is
    (1/2)(I - P) delta, P the projector onto the row span of X, taken once
    when the row finishes.

    Each row draws one xi per step from its own stream, so its stream ends
    where its run alone leaves it, steps_run draws in. Rows on equal streams
    draw each xi and take its Xbar^T xi once (module docstring).

    Each step first judges the pre-step loss: a row stops, unstepped, once it
    sits at or below 1e-12 for 100 straight steps, and fails if it is not
    finite. Returns one entry per row, in order: its Trajectory, or, for a
    row that fails, its DivergenceError, as for run_dln_discrete_ensemble.
    """
    sigmas, rngs = list(sigmas), list(rngs)
    if len(sigmas) != len(rngs):
        raise ValueError("need one sigma per stream")
    if (steps < 0 or h <= 0 or gamma <= 0
            or not all(0 <= sigma < math.inf for sigma in sigmas)):
        raise ValueError("need positive gamma and h, finite nonnegative sigmas "
                         "and nonnegative steps")
    if not rngs:
        return []
    model = _Sde(ds, alpha, sigmas, gamma, h, rngs)
    return _drive(ds, model, steps, record_stride, early_stop)


def simulate_dln_sde(ds: Dataset, alpha, sigma: float, gamma: float, h: float,
                     steps: int, rng: RngStream, record_stride: int = 100,
                     early_stop: bool = True) -> Trajectory:
    """One row of simulate_dln_sde_ensemble; raises its DivergenceError."""
    traj = simulate_dln_sde_ensemble(ds, alpha, [sigma], gamma, h, steps, [rng],
                                     record_stride=record_stride,
                                     early_stop=early_stop)[0]
    if isinstance(traj, DivergenceError):
        raise traj
    return traj

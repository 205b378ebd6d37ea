"""Discrete optimizers and Euler-Maruyama integrators for linear least squares.

The loss convention everywhere is the normalized empirical risk
R(theta) = (1/2n) ||X theta - Y||^2 = (1/2) ||Xbar theta - Ybar||^2,
so gradients read Xbar^T (Xbar theta - Ybar) and the default step size
1/(1.3 ||Xbar Xbar^T||_2) is the right scale for every optimizer kind.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import groupby, pairwise
from types import SimpleNamespace

import numpy as np

from .core_math import PINV_CUTOFF, Mat, RngStream, Trajectory, Vec, matvecs
from .problems import Dataset

KINDS = ("GD", "SGD", "NoisySGD", "DPSGD")

# simulate_ou_under samples every OU_THIN-th iterate after its burn-in
OU_THIN = 10


@dataclass
class LsqState:
    theta: Vec
    step: int = 0
    time: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("non-finite iterate")


@dataclass
class OptimizerConfig:
    """One discrete optimizer: its kind and step size gamma.

    sigma is the added-noise scale (unused by GD/SGD), batch the minibatch
    size, clip the per-sample norm bound (DPSGD only, may be inf). The SDE
    integrators take their parameters as arguments instead.
    """

    kind: str
    gamma: float
    sigma: float = 0.0
    batch: int = 1
    clip: float = math.inf

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if not self.clip > 0:
            raise ValueError("clip must be positive (use inf to disable)")
        if self.kind == "DPSGD" and math.isinf(self.clip) and self.sigma > 0:
            raise ValueError("DPSGD noise scale C*sigma is undefined for clip=inf, sigma>0")

    def full_batch(self, n: int) -> bool:
        """Whether a step takes all n samples in natural order, drawing no
        indices: GD, or a batch of size n."""
        return self.kind == "GD" or self.batch == n


@dataclass
class EtaReport:
    """Averaged coupled-trajectory deviation record.

    eta_mean[k] is the Monte Carlo mean of ||theta - beta||^2 at times[k], and
    bound_rhs[k] = gamma * d * sigma^2 * loss_integral_mean[k] the matching
    deviation bound.
    """

    times: Vec
    eta_mean: Vec
    loss_integral_mean: Vec
    bound_rhs: Vec


def clip(g: Vec, C: float) -> Vec:
    """Rescale g, or each row of a (rows, d) array g, onto the ball of radius
    C when it is longer than C."""
    if not C > 0:
        raise ValueError("clip threshold must be positive")
    g = np.asarray(g, dtype=float)
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    return g * np.minimum(1.0, C / np.maximum(norms, 1e-300))


def minibatch_gradients(ds: Dataset, beta: Mat, rbar: Mat, picks=None,
                        C: float = math.inf) -> Mat:
    """One gradient estimate per row of the (rows, d) array beta, where
    rbar[j] = Xbar beta[j] - Ybar.

    With picks None it is the full gradient Xbar^T rbar[j]. Otherwise it is
    the mean over the samples picks[j] of the per-sample gradients
    x_i (<x_i, beta[j]> - y_i), each first clipped to norm C when C is
    finite; an unclipped single sample reads its residual off rbar.
    """
    if picks is None:
        return matvecs(ds.Xbar.T, rbar)
    batch = picks.shape[1]
    if batch == 1 and math.isinf(C):
        i = picks[:, 0]
        return ds.X[i] * (math.sqrt(ds.n) * rbar[np.arange(i.size), i])[:, None]
    rows = ds.X[picks]
    r = matvecs(rows, beta) - ds.Y[picks]
    if math.isinf(C):
        return matvecs(rows.transpose(0, 2, 1), r) / batch
    return clip(rows * r[:, :, None], C).sum(axis=1) / batch


def lsq_discrete_step(state: LsqState, ds: Dataset, cfg: OptimizerConfig, rng: RngStream) -> LsqState:
    """One update theta <- theta - gamma * g_tilde.

    g_tilde is minibatch_gradients' estimate: the full gradient (GD), a
    without-replacement minibatch gradient (SGD), the SGD gradient plus
    N(0, sigma^2/B^2 I) (NoisySGD), or the per-sample-clipped minibatch mean
    plus N(0, C^2 sigma^2 / B^2 I) (DPSGD). A full batch (cfg.full_batch)
    uses the dataset in natural order. Draw order within a step is fixed:
    indices first, then the Gaussian; absent terms draw nothing.
    """
    if cfg.batch > ds.n:
        raise ValueError("batch exceeds dataset size")
    theta = state.theta
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"non-finite iterate at step {state.step}")

    C = cfg.clip if cfg.kind == "DPSGD" else math.inf
    if not cfg.full_batch(ds.n):
        picks = rng.indices(ds.n, cfg.batch)[None]
    else:
        picks = None if math.isinf(C) else np.arange(ds.n)[None]
    beta = theta[None]
    g = minibatch_gradients(ds, beta, matvecs(ds.Xbar, beta) - ds.Ybar, picks, C)[0]
    if cfg.kind == "NoisySGD" and cfg.sigma > 0:
        g = g + (cfg.sigma / cfg.batch) * rng.normal(ds.d)
    elif cfg.kind == "DPSGD" and cfg.sigma > 0:
        g = g + (cfg.clip * cfg.sigma / cfg.batch) * rng.normal(ds.d)

    return LsqState(theta=theta - cfg.gamma * g, step=state.step + 1,
                    time=state.time + cfg.gamma)


def stationary_law_theory(ds: Dataset, gamma: float, eps: float, sigma: float) -> Mat:
    """Covariance of the limit law of the underparametrized Ornstein-Uhlenbeck
    iteration; its mean is the least-squares point ds.theta_ls().

    The covariance solves the Lyapunov equation A W + W A = 2 D with
    A = Xbar^T Xbar and D = (gamma eps^2 / 2) A + (sigma^2 / 2) I, which in
    closed form is (gamma eps^2 / 2) I + (sigma^2 / 2) A^{-1}.
    """
    if ds.regime != "under":
        raise ValueError("stationary law needs an underparametrized instance")
    if not all(0 <= v < math.inf for v in (gamma, eps, sigma)):
        raise ValueError("gamma, eps and sigma must be finite and nonnegative")
    A = ds.Xbar.T @ ds.Xbar
    lam, Q = np.linalg.eigh(A)
    if lam[0] <= 1e-12 * lam[-1]:
        raise ValueError("Xbar^T Xbar is singular")
    diag = 0.5 * gamma * eps * eps + 0.5 * sigma * sigma / lam
    cov = (Q * diag) @ Q.T
    return 0.5 * (cov + cov.T)


def simulate_ou_under(ds: Dataset, eps: float, sigmas, gamma: float, h: float,
                      steps: int, burn_in: int, rngs, record_stride: int = 100) -> list:
    """Euler-Maruyama with step h for d theta = -Xbar^T(Xbar theta - Ybar) dt
    + sqrt(gamma) eps Xbar^T dW + sigma dW~, one row per (sigma, rng) pair.

    Each row draws its noise xi from its own stream in blocks of 10,000 steps,
    the same draws in the same order whatever the row count; the data noise
    is d normals times R from Xbar = QR, since R^T R = A. Returns one
    (empirical mean, empirical covariance, trajectory) per row. Mean and
    covariance are time averages over every OU_THIN-th iterate from burn_in
    on. The trajectory records (t, ||theta||) every record_stride steps; its
    meta carries batch-means standard errors of the mean ("mean_se", 50
    batches), the sample count ("n_samples") and the final iterate
    ("final_theta").

    The Euler step theta <- theta T + h b + xi, with T = I - h A, is linear,
    so the chain jumps from stop to stop instead of taking one Python step
    per Euler step: theta_{k+g} = theta_k T^g + sum_{j<g} (h b + xi_{k+j})
    T^(g-1-j). Stops are block starts, sampled and recorded steps, steps,
    and every OU_THIN-th step before burn_in, so no jump is longer than
    OU_THIN. T^0..T^OU_THIN and the stacked powers [T^(OU_THIN-1); ...; T^0]
    take (2 OU_THIN + 1) d^2 floats besides the noise block. Within a block,
    the noise sums of a run of equal jumps are one matmul per row, and each
    jump is one (1, d) @ (d, d) product per row, so every row is bitwise
    what it would be alone. The jumps differ from stepping one step at a
    time only by roundoff.
    """
    if ds.regime != "under":
        raise ValueError("needs an underparametrized instance")
    if not (0 < gamma < math.inf and 0 < h < math.inf):
        raise ValueError("gamma and h must be positive and finite")
    if not all(0 <= v < math.inf for v in (eps, *sigmas)):
        raise ValueError("eps and sigmas must be finite and nonnegative")
    if not 0 <= burn_in < steps:
        raise ValueError("burn_in must be nonnegative and smaller than steps")
    if record_stride < 1:
        raise ValueError("record_stride must be at least 1")
    n_samples = (steps - burn_in + OU_THIN - 1) // OU_THIN
    if n_samples < 2:  # the batch-means standard error needs two
        raise ValueError("steps and burn_in must leave at least two samples")
    if len(sigmas) == 0 or len(sigmas) != len(rngs):
        raise ValueError("need one stream per sigma and at least one sigma")
    A = ds.Xbar.T @ ds.Xbar
    b = ds.Xbar.T @ ds.Ybar
    lam = np.linalg.eigvalsh(A)
    if lam[0] <= 0 or max(abs(1.0 - h * lam[0]), abs(1.0 - h * lam[-1])) >= 1.0:
        raise ValueError("unstable step size: spectral radius of I - h A is >= 1")

    d = ds.d
    rows = len(sigmas)
    T = np.eye(d) - h * A
    R = np.linalg.qr(ds.Xbar, mode="r")
    powers = [np.eye(d)]
    for _ in range(OU_THIN):
        powers.append(powers[-1] @ T)
    # [T^(OU_THIN-1); ...; T^0]: its last g blocks carry g steps' kicks
    stacked = np.concatenate(powers[OU_THIN - 1::-1])
    drift = [np.tile(h * b, g) @ stacked[(OU_THIN - g) * d:] for g in range(OU_THIN + 1)]
    # (rows, 1, d): one (1, d) @ (d, d) product per row, the one a row alone
    # makes; a (rows, d) @ (d, d) product would round rows differently
    theta = np.zeros((rows, 1, d))
    block = 10_000
    noise = np.empty((rows, min(block, steps), d))

    samples = np.empty((rows, n_samples, d))
    trajs = [Trajectory(("t", "theta_norm")) for _ in sigmas]

    stops = (k for k, _ in groupby(heapq.merge(
        range(0, steps, block), range(0, burn_in, OU_THIN), range(burn_in, steps, OU_THIN),
        range(0, steps, record_stride), (steps,))))
    si = 0
    for (_, g), jumps in groupby(pairwise(stops), lambda kk: (kk[0] // block, kk[1] - kk[0])):
        ks = [k for k, _ in jumps]
        j0 = ks[0] % block
        if j0 == 0:
            _draw_ou_noise(R, eps, sigmas, gamma, h, rngs, noise[:, :steps - ks[0]])
        segments = noise[:, j0:j0 + len(ks) * g].reshape(rows, len(ks), g * d)
        kicks = segments @ stacked[(OU_THIN - g) * d:] + drift[g]
        for k, kick in zip(ks, kicks.transpose(1, 0, 2)[:, :, None]):
            if k >= burn_in and (k - burn_in) % OU_THIN == 0:
                samples[:, si] = theta[:, 0]
                si += 1
            if k % record_stride == 0:
                for i, traj in enumerate(trajs):
                    traj.append(k * h, float(np.linalg.norm(theta[i])))
            theta = theta @ powers[g] + kick

    results = []
    for i, traj in enumerate(trajs):
        rs = samples[i]
        mean = rs.mean(axis=0)
        centered = rs - mean
        cov = (centered.T @ centered) / si
        n_batches = min(50, si)
        bounds = np.linspace(0, si, n_batches + 1).astype(int)
        batch_means = np.array([rs[a:c].mean(axis=0)
                                for a, c in zip(bounds[:-1], bounds[1:])])
        traj.meta["mean_se"] = batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)
        traj.meta["n_samples"] = si
        traj.meta["final_theta"] = theta[i, 0].copy()
        results.append((mean, cov, traj))
    return results


def _draw_ou_noise(R: Mat, eps: float, sigmas, gamma: float, h: float, rngs,
                   out: np.ndarray) -> None:
    """Fill the (rows, count, d) block out with the rows' increments, each row
    drawn from its own stream: data noise (d normals times R) first, then
    isotropic. A noise-free row gets zeros and draws nothing."""
    count, d = out.shape[1], R.shape[0]
    for i, (sigma, rng) in enumerate(zip(sigmas, rngs)):
        if eps > 0:
            noise = rng.normal((count, d)) @ R
            noise *= math.sqrt(h) * math.sqrt(gamma) * eps
            if sigma > 0:
                noise += (math.sqrt(h) * sigma) * rng.normal((count, d))
        elif sigma > 0:
            noise = (math.sqrt(h) * sigma) * rng.normal((count, d))
        else:
            noise = 0.0
        out[i] = noise


def eta_bound_rhs(gamma: float, d: int, sigma: float, loss_integral: float) -> float:
    """Deviation bound gamma * d * sigma^2 * integral of the loss."""
    if not (gamma >= 0 and d >= 0 and sigma >= 0 and loss_integral >= 0):
        raise ValueError("all bound inputs must be nonnegative")
    return gamma * d * sigma * sigma * loss_integral


def simulate_coupled_over(ds: Dataset, gamma: float, sigmas, steps: int,
                          n_traj: int, rng: RngStream, record_stride: int = 1) -> list:
    """Jointly integrate the clean SDE and one noisy copy per sigma.

    Every copy shares the clean path's Brownian increments of the data-noise
    term sqrt(gamma L(.)) Xbar^T dB, drawn from rng.child(2) as (n_traj, n)
    normals z; a copy with sigma > 0 adds sqrt(gamma L(beta)) sigma dB~, whose
    (n_traj, d) increments iota all noisy copies share, drawn from
    rng.child(1) as a run with that sigma alone draws them. Trajectories start
    at zero and are averaged pointwise; eta_t = ||theta_t - beta_t||^2. Step
    size is gamma. A copy whose loss integral is not finite at a recorded step
    raises, naming sigma and step.

    The paths step in Xbar's singular basis, Xbar = U diag(S) V^T: a path is
    its residual rho = U^T (Xbar theta - Ybar), an (n, n_traj) array, whose
    step is rho (1 - h S^2) + sqrt(h gamma L) S^2 U^T z with L = ||rho||^2 / 2.
    A noisy copy adds sigma sqrt(h gamma L) S V_par^T iota to rho and
    sigma sqrt(h gamma L) V_perp^T iota to its part w off Xbar's row span, so
    eta = ||(rho_clean - rho_copy) / S_par||^2 + ||w||^2. V_par keeps the
    directions whose singular value is above PINV_CUTOFF S_max; the others
    join V_perp, so a rank-deficient Xbar stays exact. The clean path is
    integrated once for all copies, a sigma-0 copy as its own path, and each
    returned report is bitwise what a run with that sigma alone gives.
    """
    if ds.regime != "over":
        raise ValueError("needs an overparametrized instance")
    trace = float(np.sum(ds.Xbar * ds.Xbar))
    if not 0 < gamma <= 1.0 / trace + 1e-12:
        raise ValueError("gamma must be positive and at most 1 / Tr(Xbar^T Xbar)")
    if n_traj < 1 or steps < 1 or record_stride < 1:
        raise ValueError("need at least one trajectory and one step, and a stride of 1 or more")
    if len(sigmas) == 0 or not all(0 <= v < math.inf for v in sigmas):
        raise ValueError("need at least one sigma, all finite and nonnegative")

    h = gamma
    sq = math.sqrt(h * gamma)
    shared, isotropic = rng.child(2), rng.child(1)
    noisy = any(sigma > 0 for sigma in sigmas)
    U, S, Vt = np.linalg.svd(ds.Xbar)
    k = int(np.sum(S > PINV_CUTOFF * S[0]))
    decay = (1.0 - h * S * S)[:, None]
    data_map = (S * S)[:, None] * U.T
    # one product gives S V_par^T iota (rows :k) and V_perp^T iota (rows k:)
    iso_map = np.concatenate((S[:k, None] * Vt[:k], Vt[k:]))
    start = np.repeat(-(U.T @ ds.Ybar)[:, None], n_traj, axis=1)
    times = [0.0]
    # the clean path first, then the copies, each with its own sigma
    paths = [SimpleNamespace(sigma=sigma, rho=start.copy(), w=np.zeros((ds.d - k, n_traj)),
                             loss_int=np.zeros(n_traj), eta=[0.0], li=[0.0], rhs=[0.0])
             for sigma in (0.0, *sigmas)]
    clean, *copies = paths
    kick, iso, tmp = np.empty((ds.n, n_traj)), np.empty((ds.d, n_traj)), np.empty((ds.d, n_traj))

    # a diverging copy overflows steps before a recorded step sees it; the
    # ValueError naming it is then its one report, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            np.matmul(data_map, shared.normal((n_traj, ds.n)).T, out=kick)
            if noisy:
                np.matmul(iso_map, isotropic.normal((n_traj, ds.d)).T, out=iso)
            for c in paths:
                loss = 0.5 * np.einsum("ij,ij->j", c.rho, c.rho)
                amp = sq * np.sqrt(loss)
                c.loss_int += h * loss
                c.rho *= decay
                c.rho += np.multiply(amp, kick, out=tmp[:ds.n])
                if c.sigma > 0:
                    np.multiply(c.sigma * amp, iso, out=tmp)
                    c.rho[:k] += tmp[:k]
                    c.w += tmp[k:]

            if step % record_stride == 0 or step == steps:
                times.append(step * h)
                for c in copies:
                    diff = np.divide(clean.rho[:k] - c.rho[:k], S[:k, None], out=tmp[:k])
                    eta = np.einsum("ij,ij->j", diff, diff) + np.einsum("ij,ij->j", c.w, c.w)
                    c.eta.append(float(np.mean(eta)))
                    c.li.append(float(np.mean(c.loss_int)))
                    if not math.isfinite(c.li[-1]):
                        raise ValueError(f"the sigma {c.sigma:g} copy diverged: non-finite "
                                         f"loss integral at step {step}")
                    c.rhs.append(eta_bound_rhs(gamma, ds.d, c.sigma, c.li[-1]))

    return [EtaReport(times=np.array(times), eta_mean=np.array(c.eta),
                      loss_integral_mean=np.array(c.li), bound_rhs=np.array(c.rhs))
            for c in copies]

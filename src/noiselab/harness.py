"""Experiment orchestration: bundled studies, multi-seed aggregation, file output.

The bundled studies are the rows of STUDIES. A run keeps its checks only when
its experiment is one of them, so a custom run grades nothing.
Every experiment is pure given its config, so reruns are byte-identical. The
runs of a DLN study are integrated together as the rows of one ensemble: all
cells of a discrete study, or the whole (sigma, seed) grid of the limit
pipeline, after which the limit problems of all its runs are solved as one
solver ensemble. Each row is bitwise what it would be alone, and every row is
reported, a failed one by its error. Results are read back in (kind, sigma,
seed) order, so the first failing run in that order is the one reported. The
lsq studies integrate their whole sigma grid in one pass: an ou study as the
rows of one OU ensemble, a coupling study with the clean path integrated once
for every sigma's noisy copy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core_math import RngStream, Trajectory
from .dln_dynamics import (
    DISCRETE_KINDS,
    DivergenceError,
    effective_alpha,
    run_dln_discrete,  # noqa: F401 -- perfbench/tracer.py wraps this name here
    run_dln_discrete_ensemble,
    simulate_dln_sde,  # noqa: F401 -- perfbench/tracer.py wraps this name here
    simulate_dln_sde_ensemble,
)
from .lsq_dynamics import (
    OU_THIN,
    OptimizerConfig,
    simulate_coupled_over,
    simulate_ou_under,
    stationary_law_theory,
)
from .mirror import (
    ConvergenceError,
    PotentialParams,
    mu_bound,
    prop3_check,
    solve_tilted,  # noqa: F401 -- perfbench/tracer.py wraps this name here
    solve_tilted_ensemble,
)
from .problems import (
    Dataset,
    default_step_size,
    gen_sparse_regression,
    gen_underparam_regression,
)

# the optimizer kinds each mode integrates; any other kind would fail mid-run
# or run another kind's dynamics under its label
MODE_KINDS = {
    "discrete": DISCRETE_KINDS,
    "sde": ("NoisySGD",),
    "ou": ("NoisySGD",),
    "coupling": ("NoisySGD",),
}
SIGMA_GRID = (0.0, 0.125, 0.25, 0.5, 1.0)
# the bundled studies: experiment id -> (the name `noiselab reproduce` takes,
# the config fields); a study runs in its own mode, a custom run in any
STUDIES = {
    "bias_order": ("bias-order", dict(
        n=40, d=100, s=5, dataset_seed=3, kinds=("GD", "SGD", "NoisySGD"), sigmas=(0.5,),
        alpha0=0.1, batch=1, mode="discrete", seeds=5, seed_base=5000, steps=200_000,
        stride=100)),
    "limit_distance": ("limit-distance", dict(
        n=40, d=100, s=5, dataset_seed=33, kinds=("NoisySGD",), sigmas=SIGMA_GRID,
        alpha0=0.1, mode="sde", seeds=10, seed_base=28_000, steps=200_000, stride=100)),
    "alpha_sweep": ("alpha-sweep", dict(
        n=40, d=100, s=5, dataset_seed=33, kinds=("NoisySGD",), sigmas=SIGMA_GRID,
        alpha0=0.1, batch=1, mode="discrete", seeds=5, seed_base=28_000, steps=200_000,
        stride=100)),
    "ou_stationary": ("ou", dict(
        n=50, d=5, dataset_seed=7, label_noise=0.5, sigmas=(0.0, 0.3), eps=0.5, mode="ou",
        seeds=1, seed_base=11, steps=1_100_000, burn_in=100_000, stride=1000)),
    "coupling_bound": ("coupling", dict(
        n=10, d=20, s=3, dataset_seed=53, sigmas=(0.0, 0.5), mode="coupling", seeds=1,
        seed_base=3, steps=400, n_traj=200, stride=1)),
}
STUDY_MODES = {name: fields["mode"] for name, (_, fields) in STUDIES.items()}
EXPERIMENTS = (*STUDIES, "custom")
ALPHA_SWEEP = (0.1, 0.01)
OUTDIR_ENV = "NOISELAB_OUTDIR"

# numerical accuracy floor of the limit pipeline: a run whose distance to the
# predicted minimizer is at or below this counts as matching the theory, which
# keeps the distance-versus-tilt verdict meaningful when the tilt vanishes
LIMIT_DISTANCE_FLOOR = 1e-4

# the largest eps, sigma and label_noise an ou study grades
OU_NOISE_MAX = 1e50


@dataclass
class ExperimentConfig:
    """Flat description of one experiment: instance, optimizer grid, budgets.

    kinds x sigmas spans the optimizer grid and seeds indexes the per-run
    streams RngStream(seed_base + i). Every (kind, sigma) cell runs the same
    seed window, so cells are compared on common random numbers, and the DLN
    ensembles draw once for the cell rows whose streams stand equal. mode
    selects the simulation machinery, the experiment id selects which
    summary checks gate the run.
    """

    experiment: str = "custom"
    n: int = 40
    d: int = 100
    s: int = 5
    dataset_seed: int = 0
    label_noise: float = 0.5
    kinds: tuple = ("NoisySGD",)
    sigmas: tuple = (0.5,)
    alpha0: float = 0.1
    batch: int = 1
    mode: str = "discrete"
    eps: float = 0.5
    burn_in: int = 0
    n_traj: int = 200
    seeds: int = 5
    seed_base: int = 0
    steps: int = 200_000
    stride: int = 100
    out: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.mode not in MODE_KINDS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != STUDY_MODES.get(self.experiment, self.mode):
            raise ValueError(f"{self.experiment} writes its checks in mode "
                             f"{STUDY_MODES[self.experiment]}, not {self.mode}")
        self.kinds = tuple(self.kinds)
        # + 0.0 turns -0.0 into 0.0, whose label "sigma0" the checks look up
        self.sigmas = tuple(float(v) + 0.0 for v in self.sigmas)
        for k in self.kinds:
            if k not in MODE_KINDS[self.mode]:
                raise ValueError(f"mode {self.mode} integrates kinds "
                                 f"{', '.join(MODE_KINDS[self.mode])}, not {k}")
        if not self.kinds or not self.sigmas:
            raise ValueError("kinds and sigmas must be nonempty grids")
        if not all(0 <= v < math.inf for v in self.sigmas):
            raise ValueError("sigmas must be finite and nonnegative")
        # each cell writes files named after its kind and sigma
        if (len(set(self.kinds)) < len(self.kinds)
                or len(set(self.sigmas)) < len(self.sigmas)):
            raise ValueError("kinds and sigmas must not repeat")
        if not (0 <= self.eps < math.inf and 0 <= self.label_noise < math.inf):
            raise ValueError("eps and label_noise must be finite and nonnegative")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be at least 1")
        # the sparse instance of the other modes plants s of the d coordinates
        if self.mode != "ou" and not 0 <= self.s <= self.d:
            raise ValueError("need 0 <= s <= d")
        if self.mode == "ou" and self.n <= self.d:
            raise ValueError("mode ou needs an underparametrized instance, n > d")
        if self.mode in ("coupling", "sde") and self.d < self.n:
            raise ValueError(f"mode {self.mode} needs an overparametrized instance, d >= n")
        # without noise the stationary law is a point mass: nothing to grade;
        # its relative error squares its entries, of order eps^2 + sigma^2, and
        # below 1.5e-154, the root of the smallest normal float, they underflow
        if self.mode == "ou" and any(self.eps * self.eps + v * v < 2.0**-511
                                     for v in self.sigmas):
            raise ValueError("mode ou has no noise to grade in a cell whose "
                             "eps^2 + sigma^2 is below 1.5e-154")
        # nor above 1e50: the covariance is of order eps^2, sigma^2 / lambda and,
        # over a short burn-in, label_noise^2; its relative error squares it again
        for name, v in (("eps", self.eps), ("sigmas", max(self.sigmas)),
                        ("label_noise", self.label_noise)):
            if self.mode == "ou" and v > OU_NOISE_MAX:
                raise ValueError(f"mode ou grades {name} up to {OU_NOISE_MAX:g}, not {v:g}")
        if self.seeds < 1 or self.stride < 1 or self.steps < 1:
            raise ValueError("seeds, stride, and steps must all be at least 1")
        if self.batch < 1 or self.n_traj < 1:
            raise ValueError("batch and n_traj must be at least 1")
        if self.mode == "discrete" and self.batch > self.n:
            raise ValueError("batch exceeds n")
        # an ou run needs two samples for its batch-means standard error
        if self.burn_in < 0 or (self.mode == "ou" and self.steps - self.burn_in <= OU_THIN):
            raise ValueError(f"burn_in must be nonnegative, and in mode ou leave more "
                             f"than {OU_THIN} steps")
        alpha0 = np.asarray(self.alpha0, dtype=float)
        if not np.all((alpha0 > 0) & (alpha0 < math.inf)):
            raise ValueError("alpha0 must be positive and finite")
        # the study checks read fixed cells of the grid
        if self.experiment == "bias_order" and (
                not {"GD", "SGD", "NoisySGD"} <= set(self.kinds) or len(self.sigmas) != 1):
            raise ValueError("bias_order compares GD, SGD and NoisySGD at one sigma")
        if self.experiment == "alpha_sweep" and len(self.kinds) != 1:
            raise ValueError("alpha_sweep grades one optimizer kind over its sigma grid")

    def outdir(self) -> str:
        return self.out or os.environ.get(OUTDIR_ENV, "") or "noiselab-out"


# flat key = value config files: every key is a config field, read as the type
# of its default; the two grids are comma-separated lists
_CASTS = {f.name: type(f.default) for f in fields(ExperimentConfig)}
_CASTS.update(kinds=lambda v: tuple(p.strip() for p in v.split(",") if p.strip()),
              sigmas=lambda v: tuple(float(p) for p in v.split(",") if p.strip()))


def parse_config(text: str) -> ExperimentConfig:
    """Parse 'key = value' lines; '#' starts a comment; unknown keys rejected."""
    kv = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key = value")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in _CASTS:
            raise ValueError(f"line {ln}: unknown key {key!r}")
        if key in kv:
            raise ValueError(f"line {ln}: duplicate key {key!r}")
        kv[key] = _CASTS[key](val)
    return ExperimentConfig(**kv)


def config_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(f"{p:g}" if isinstance(p, float) else str(p) for p in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, seed=None, sigma=None, alpha=None,
                    steps=None) -> ExperimentConfig:
    if seed is not None:
        cfg = replace(cfg, seed_base=int(seed))
    if sigma is not None:
        cfg = replace(cfg, sigmas=(float(sigma),))
    if alpha is not None:
        cfg = replace(cfg, alpha0=float(alpha))
    if steps is not None:
        cfg = replace(cfg, steps=int(steps))
    return cfg


def bundled_config(name: str, out: str = "") -> ExperimentConfig:
    """Default config of the bundled study with experiment id name."""
    if name not in STUDIES:
        raise ValueError(f"no bundled config named {name!r}")
    return ExperimentConfig(experiment=name, out=out, **STUDIES[name][1])


@dataclass
class RunRecord:
    """Everything one experiment produced: inputs, curves, scalars, verdicts."""

    config: ExperimentConfig
    aggregates: dict = field(default_factory=dict)   # label -> Trajectory(t, mean, std)
    per_seed: dict = field(default_factory=dict)     # label -> per-seed final scalars
    scalars: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return all(self.checks.values())

    def write(self) -> list:
        summary = {
            "experiment": self.config.experiment,
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(ExperimentConfig)},
            "per_seed": self.per_seed,
            "scalars": self.scalars,
            "checks": self.checks,
            "passed": self.passed(),
        }
        # serialized first: a NaN or an infinity raises before any file is written
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda o: o.tolist())
        out = self.config.outdir()
        os.makedirs(out, exist_ok=True)
        paths = []
        for label, traj in sorted(self.aggregates.items()):
            p = os.path.join(out, f"{label}.csv")
            traj.write_csv(p)
            paths.append(p)
        p = os.path.join(out, "summary.json")
        with open(p, "w", newline="\n") as fh:
            fh.write(text + "\n")
        paths.append(p)
        return paths


def aggregate(curves):
    """Pointwise mean and population std over equal-length curves.

    math.fsum rounds each sum correctly, so the result is independent of the
    input order down to the last bit. Each point is taken over its values
    scaled by 2^-e, e the exponent of their largest magnitude, which is exact
    and keeps every sum and square of values near 1e154 in range.
    """
    arrs = [np.asarray(c, dtype=float) for c in curves]
    if not arrs:
        raise ValueError("nothing to aggregate")
    length = arrs[0].shape[0]
    if any(a.ndim != 1 or a.shape[0] != length for a in arrs):
        raise ValueError("curves must be 1-d and of equal length")
    k = len(arrs)
    stacked = np.stack(arrs)
    e = np.frexp(np.max(np.abs(stacked), axis=0))[1]
    scaled = np.ldexp(stacked, -e)
    mean = np.empty(length)
    std = np.empty(length)
    for j in range(length):
        col = scaled[:, j]
        m = math.fsum(col) / k
        mean[j] = m
        std[j] = math.sqrt(math.fsum((v - m) ** 2 for v in col) / k)
    return np.ldexp(mean, e), np.ldexp(std, e)


def _spread(*groups) -> float:
    """Population std of one group of values, or the pooled std of several
    (the root of their mean variance), scaled as in aggregate."""
    e = np.frexp(max(np.max(np.abs(g)) for g in groups))[1]
    var = sum(np.var(np.ldexp(g, -e)) for g in groups) / len(groups)
    return float(np.ldexp(np.sqrt(var), e))


def trend_check(means, stds, direction: int):
    """Monotonicity judge: direction +1 expects non-decreasing, -1 non-increasing.

    Returns (ok, inversions). A single inversion is tolerated when its size
    stays within one std of the offending point; any larger jump, or more
    than one inversion, fails.
    """
    inversions = 0
    ok = True
    for i in range(1, len(means)):
        delta = (means[i] - means[i - 1]) * direction
        if delta < 0:
            inversions += 1
            if -delta > stds[i]:
                ok = False
    return ok and inversions <= 1, inversions


def _dataset_for(cfg: ExperimentConfig) -> Dataset:
    rng = RngStream(cfg.dataset_seed)
    if cfg.mode == "ou":
        return gen_underparam_regression(cfg.n, cfg.d, cfg.label_noise, rng)
    return gen_sparse_regression(cfg.n, cfg.d, cfg.s, rng)


def _grid_steps(steps: int, stride: int) -> list:
    grid = list(range(0, steps + 1, stride))
    if grid[-1] != steps:
        grid.append(steps)
    return grid


def _align(traj: Trajectory, column: str, steps: int, stride: int) -> np.ndarray:
    """A recorded curve on the step grid, holding its last value past an early
    stop: a run records each grid step before its last step, then its last."""
    vals = traj.column(column)
    rec = traj.meta["steps"]
    grid = _grid_steps(steps, stride)
    n = len(rec)
    if not (0 < n <= len(grid) and rec[:-1] == grid[:n - 1]
            and (n == 1 or rec[-2] < rec[-1]) and rec[-1] <= grid[n - 1]):
        raise ValueError(f"recorded steps do not follow the stride-{stride} grid")
    return np.concatenate((vals, np.full(len(grid) - n, vals[-1])))


def _curve(times, means, stds) -> Trajectory:
    """An output curve with columns (t, mean, std)."""
    traj = Trajectory(("t", "mean", "std"))
    for row in zip(times, means, stds):
        traj.append(*row)
    return traj


def _cell_label(kind: str, sigma: float, multi_kind: bool, multi_sigma: bool) -> str:
    parts = []
    if multi_kind or not multi_sigma:
        parts.append(kind)
    if multi_sigma:
        parts.append(f"sigma{sigma:g}")
    return "_".join(parts)


def _run_discrete(cfg: ExperimentConfig, record: RunRecord, ds: Dataset) -> None:
    gamma = default_step_size(ds)
    record.scalars["gamma"] = gamma
    times = [g * gamma for g in _grid_steps(cfg.steps, cfg.stride)]
    multi_kind = len(cfg.kinds) > 1
    multi_sigma = len(cfg.sigmas) > 1
    cells, opts, rngs = [], [], []
    for kind in cfg.kinds:
        for sigma in cfg.sigmas:
            cells.append(_cell_label(kind, sigma, multi_kind, multi_sigma))
            sig = sigma if kind == "NoisySGD" else 0.0
            opt = OptimizerConfig(kind=kind, gamma=gamma, sigma=sig, batch=cfg.batch)
            opts += [opt] * cfg.seeds
            rngs += [RngStream(cfg.seed_base + i) for i in range(cfg.seeds)]
    trajs = run_dln_discrete_ensemble(ds, cfg.alpha0, opts, rngs, cfg.steps,
                                      record_stride=cfg.stride)
    for c, label in enumerate(cells):
        dist_curves, loss_curves, cell_finals = [], [], []
        for i in range(cfg.seeds):
            traj = trajs[c * cfg.seeds + i]
            if isinstance(traj, DivergenceError):
                raise DivergenceError(
                    traj.step, f"{label} seed {cfg.seed_base + i}") from traj
            dist_curves.append(_align(traj, "dist_to_beta_l0_sq", cfg.steps, cfg.stride))
            loss_curves.append(_align(traj, "loss", cfg.steps, cfg.stride))
            cell_finals.append(float(dist_curves[-1][-1]))
        record.aggregates[f"dist_{label}"] = _curve(times, *aggregate(dist_curves))
        record.aggregates[f"loss_{label}"] = _curve(times, *aggregate(loss_curves))
        record.per_seed[label] = cell_finals
        record.scalars[f"final_dist_sq_mean_{label}"] = float(np.mean(cell_finals))
        record.scalars[f"final_dist_sq_std_{label}"] = _spread(cell_finals)

    if cfg.experiment == "bias_order":
        m = {k: record.scalars[f"final_dist_sq_mean_{k}"]
             for k in ("GD", "SGD", "NoisySGD")}
        pooled = _spread(record.per_seed["SGD"], record.per_seed["NoisySGD"])
        record.scalars["pooled_std_gap"] = pooled
        record.scalars["noisy_sgd_gap"] = m["SGD"] - m["NoisySGD"]
        record.checks["order_noisy_below_sgd"] = m["NoisySGD"] < m["SGD"]
        record.checks["order_sgd_below_gd"] = m["SGD"] < m["GD"]
        record.checks["gap_exceeds_pooled_std"] = m["SGD"] - m["NoisySGD"] > pooled
    elif cfg.experiment == "alpha_sweep":
        means = [record.scalars[f"final_dist_sq_mean_{label}"] for label in cells]
        stds = [record.scalars[f"final_dist_sq_std_{label}"] for label in cells]
        ok, inv = trend_check(means, stds, direction=-1)
        record.scalars["trend_inversions"] = inv
        record.checks["distance_non_increasing_in_sigma"] = ok


def _run_sde_pipeline(cfg: ExperimentConfig, record: RunRecord, ds: Dataset) -> None:
    """Limit pipeline, per run: integrate to convergence, read off the decayed
    scale and the accumulated tilt, solve the limit problem, compare.

    All (sigma, seed) runs integrate as one SDE ensemble, in (sigma, seed)
    order, and the limit problems of all runs are then solved as one solver
    ensemble. The pipeline reads only each run's final state and convergence,
    so the integrator records no steps in between. Failures are raised in
    (sigma, seed) order: the first run that diverges, does not converge, or
    whose limit problem fails is the one reported.
    """
    gamma = default_step_size(ds)
    record.scalars["gamma"] = gamma
    runs = [(sigma, cfg.seed_base + i) for sigma in cfg.sigmas for i in range(cfg.seeds)]
    trajs = simulate_dln_sde_ensemble(
        ds, cfg.alpha0, [sigma for sigma, _ in runs], gamma, gamma, cfg.steps,
        [RngStream(seed) for _, seed in runs], record_stride=cfg.steps)
    states, pots = [], []  # per run, in (sigma, seed) order
    failed = None  # (label, trajectory or DivergenceError) of the first failing run
    for (sigma, seed), traj in zip(runs, trajs):
        if isinstance(traj, DivergenceError) or not traj.meta["converged"]:
            failed = (f"sigma{sigma:g} seed {seed}", traj)
            break
        st = traj.meta["final_state"]
        states.append(st)
        pots.append(PotentialParams(
            effective_alpha(cfg.alpha0, ds, gamma, sigma, st.loss_integral)))
    preds = solve_tilted_ensemble(ds, pots, [None] * len(pots))
    for pred in preds:
        if isinstance(pred, ConvergenceError):
            raise pred
    if failed:
        label, traj = failed
        if isinstance(traj, DivergenceError):
            raise DivergenceError(traj.step, label) from traj
        raise RuntimeError(f"{label}: no convergence within {cfg.steps} steps")

    dist_means, dist_stds = [], []
    all_ok = True
    for c, sigma in enumerate(cfg.sigmas):
        tag = f"sigma{sigma:g}"
        dists, lhss, r_norms, mus = [], [], [], []
        for j in range(c * cfg.seeds, (c + 1) * cfg.seeds):
            st, pp, beta_pred = states[j], pots[j], preds[j]
            beta_inf = st.w_plus * st.w_plus - st.w_minus * st.w_minus
            radius = max(float(np.linalg.norm(beta_inf)),
                         float(np.linalg.norm(beta_pred)))
            mu = mu_bound(pp, radius)
            lhs, rhs, strict = prop3_check(beta_inf, beta_pred, st.r_acc, mu)
            all_ok = all_ok and bool(strict or rhs <= LIMIT_DISTANCE_FLOOR)
            dists.append(rhs)
            lhss.append(lhs)
            r_norms.append(float(np.linalg.norm(st.r_acc)))
            mus.append(mu)
        dist_means.append(float(np.mean(dists)))
        dist_stds.append(_spread(dists))
        record.per_seed[tag] = dists
        record.scalars[f"limit_distance_mean_{tag}"] = dist_means[-1]
        record.scalars[f"limit_distance_std_{tag}"] = dist_stds[-1]
        record.scalars[f"tilt_norm_mean_{tag}"] = float(np.mean(r_norms))
        record.scalars[f"tilt_over_mu_mean_{tag}"] = float(np.mean(lhss))
        record.scalars[f"mu_mean_{tag}"] = float(np.mean(mus))

    record.aggregates["limit_distance_vs_sigma"] = _curve(cfg.sigmas, dist_means, dist_stds)
    ok, inv = trend_check(dist_means, dist_stds, direction=+1)
    record.scalars["trend_inversions"] = inv
    record.checks["distance_non_decreasing_in_sigma"] = ok
    record.checks["tilt_bound_every_run"] = all_ok
    if 0.0 in cfg.sigmas:
        record.checks["zero_noise_distance_at_floor"] = (
            record.scalars["limit_distance_mean_sigma0"] <= LIMIT_DISTANCE_FLOOR)


def _run_ou(cfg: ExperimentConfig, record: RunRecord, ds: Dataset) -> None:
    gamma = default_step_size(ds)
    record.scalars["gamma"] = gamma
    A = ds.Xbar.T @ ds.Xbar
    lam, Q = np.linalg.eigh(A)
    # every sigma is one row of the same integration with step h = gamma, and
    # each row restarts the stream RngStream(seed_base)
    results = simulate_ou_under(ds, cfg.eps, cfg.sigmas, gamma, gamma, steps=cfg.steps,
                                burn_in=cfg.burn_in,
                                rngs=[RngStream(cfg.seed_base) for _ in cfg.sigmas],
                                record_stride=cfg.stride)
    theta_ls = ds.theta_ls()
    # no mean is resolved finer than the float spacing at the least-squares
    # point: noise below it leaves every batch mean equal and the SE at 0
    se_floor = max(1e-300, float(np.spacing(np.linalg.norm(theta_ls))))
    for sigma, (mean, cov, traj) in zip(cfg.sigmas, results):
        tag = f"sigma{sigma:g}"
        dev = np.abs(mean - theta_ls)
        se_units = float(np.max(dev / np.maximum(traj.meta["mean_se"], se_floor)))
        # reference law this study is graded against; its isotropic part is
        # sigma^2 / (4 lambda) per mode, half of what the flow law carries
        target = (Q * (0.5 * gamma * cfg.eps * cfg.eps + 0.25 * sigma * sigma / lam)) @ Q.T
        rel_target = float(np.linalg.norm(cov - target) / np.linalg.norm(target))
        law = stationary_law_theory(ds, gamma, cfg.eps, sigma)
        rel_law = float(np.linalg.norm(cov - law) / np.linalg.norm(law))
        record.scalars[f"mean_dev_se_units_{tag}"] = se_units
        record.scalars[f"cov_rel_frobenius_vs_target_{tag}"] = rel_target
        record.scalars[f"cov_rel_frobenius_vs_flow_law_{tag}"] = rel_law
        record.checks[f"mean_within_3se_{tag}"] = se_units <= 3.0
        record.checks[f"cov_within_15pct_{tag}"] = rel_target <= 0.15
        norms = traj.column("theta_norm")
        record.aggregates[f"theta_norm_{tag}"] = _curve(traj.column("t"), norms,
                                                        np.zeros(len(norms)))


def _run_coupling(cfg: ExperimentConfig, record: RunRecord, ds: Dataset) -> None:
    gamma = 1.0 / float(np.trace(ds.Xbar.T @ ds.Xbar))
    record.scalars["gamma"] = gamma
    reps = simulate_coupled_over(ds, gamma=gamma, sigmas=cfg.sigmas, steps=cfg.steps,
                                 n_traj=cfg.n_traj, rng=RngStream(cfg.seed_base),
                                 record_stride=cfg.stride)
    for sigma, rep in zip(cfg.sigmas, reps):
        tag = f"sigma{sigma:g}"
        zeros = np.zeros(len(rep.times))
        record.aggregates[f"eta_{tag}"] = _curve(rep.times, rep.eta_mean, zeros)
        record.aggregates[f"bound_{tag}"] = _curve(rep.times, rep.bound_rhs, zeros)
        if sigma == 0.0:
            record.checks["zero_noise_deviation_identically_zero"] = bool(
                np.all(rep.eta_mean == 0.0))
        else:
            ratio = rep.eta_mean[1:] / np.maximum(rep.bound_rhs[1:], 1e-300)
            record.scalars[f"max_eta_over_bound_{tag}"] = float(ratio.max())
            record.checks[f"deviation_within_bound_{tag}"] = bool(
                np.all(rep.eta_mean[1:] <= 1.1 * rep.bound_rhs[1:]))


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Execute one config end to end and write its outputs.

    Deterministic: the config fixes every random stream, so a rerun yields
    byte-identical files.
    """
    record = RunRecord(config=cfg)
    ds = _dataset_for(cfg)
    if ds.beta_star is not None:
        record.scalars["planted_norm_sq"] = float(ds.beta_star @ ds.beta_star)
    if cfg.mode == "discrete":
        _run_discrete(cfg, record, ds)
    elif cfg.mode == "sde":
        _run_sde_pipeline(cfg, record, ds)
    elif cfg.mode == "ou":
        _run_ou(cfg, record, ds)
    else:
        _run_coupling(cfg, record, ds)
    if cfg.experiment not in STUDIES:  # a custom run grades nothing
        record.checks.clear()
    record.write()
    return record


def run_alpha_sweep(out: str = "", seed=None, sigma=None, alpha=None, steps=None):
    """Bundled sweep over the initialization scales; returns one record each.

    An explicit alpha override narrows the sweep to that single scale.
    """
    alphas = ALPHA_SWEEP if alpha is None else (float(alpha),)
    records = []
    for alpha0 in alphas:
        cfg = bundled_config("alpha_sweep", out=out)
        cfg = replace(cfg, alpha0=alpha0,
                      out=os.path.join(cfg.outdir(), f"alpha{alpha0:g}"))
        cfg = apply_overrides(cfg, seed=seed, sigma=sigma, steps=steps)
        records.append(run_experiment(cfg))
    return records

"""The benchmark's workloads: bundled studies with benchmark budgets.

Each workload is an ordered list of studies. A study is one config file fed to
`noiselab run`; its timing is reported under the study's metric name, and two
configs may share a metric (the two initialization scales of alpha_sweep).
The workload seed shifts every study's seed_base by SEED_STRIDE * seed, so
seed 0 runs the bundled streams and other seeds run disjoint seed windows.
Dataset seeds stay at their bundled values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_SEED = 0
# larger than any study's seed count, so the windows of two seeds never overlap
SEED_STRIDE = 1000

# one step budget for the discrete DLN studies
DLN_SWEEP_STEPS = 2000

# The bundled DLN studies run batch-1 SGD up to sigma 1 at the step size
# 1 / (1.3 ||Xbar Xbar^T||). There some seed windows diverge within a few
# hundred steps or, in the SDE at sigma 1, take up to 13x the median number of
# steps to converge, so a study at an arbitrary seed raises or its cost is
# heavy-tailed. The benchmark runs the same studies at minibatch 4 and sigmas
# up to 0.5, where scans of 2000 seed windows (discrete) and 200 (SDE) found
# no divergence and no unconverged run.
DLN_BATCH = 4
DLN_SIGMAS = (0.0, 0.125, 0.25, 0.375, 0.5)


@dataclass(frozen=True)
class Study:
    name: str        # record directory and digest label
    metric: str      # per-study wall-time metric this study adds to
    bundle: str      # bundled config it starts from
    overrides: tuple  # (field, value) pairs applied on top of the bundle


WORKLOADS = {
    # the diagonal linear network end to end: the discrete loop in all three
    # step branches (GD, SGD, NoisySGD) with the most aggregation and output,
    # then the SDE to convergence at the full bundled step and seed budget,
    # each run ending in one solve_tilted call; no lsq code. One workload and
    # not two, so that each run is long enough to average out the machine's
    # speed drift (README.md, Steadiness).
    "dln": (
        Study("alpha_sweep_a0.1", "alpha_sweep_s", "alpha_sweep",
              (("alpha0", 0.1), ("steps", DLN_SWEEP_STEPS), ("batch", DLN_BATCH),
               ("sigmas", DLN_SIGMAS))),
        Study("alpha_sweep_a0.01", "alpha_sweep_s", "alpha_sweep",
              (("alpha0", 0.01), ("steps", DLN_SWEEP_STEPS), ("batch", DLN_BATCH),
               ("sigmas", DLN_SIGMAS))),
        Study("bias_order", "bias_order_s", "bias_order",
              (("steps", DLN_SWEEP_STEPS), ("batch", DLN_BATCH))),
        Study("limit_distance", "limit_distance_s", "limit_distance",
              (("sigmas", DLN_SIGMAS),)),
    ),
    # the lsq integrators two opposite ways: one d=5 row over many steps
    # (Python overhead) against n_traj rows over 400 BLAS steps; no DLN or
    # mirror code
    "lsq": (
        Study("ou_stationary", "ou_s", "ou_stationary",
              (("steps", 220_000), ("burn_in", 100_000))),
        Study("coupling_bound", "coupling_s", "coupling_bound",
              (("n_traj", 3000),)),
    ),
}

# Tiny budgets for the benchmark's own test: same studies and code paths,
# seconds instead of minutes. Checks may turn red here; only digests and
# metric names are tested at this budget.
TINY = {
    "alpha_sweep": (("steps", 300), ("seeds", 2)),
    "bias_order": (("steps", 300), ("seeds", 2)),
    "limit_distance": (("seeds", 1),),
    "ou_stationary": (("steps", 20_000), ("burn_in", 10_000)),
    "coupling_bound": (("n_traj", 50),),
}

# Checks that are red by design at the bundled step size (ROADMAP gate 01):
# reported under their own name, never counted as failures.
BY_DESIGN_RED = {
    "ou_stationary": ("cov_within_15pct_sigma0", "cov_within_15pct_sigma0.3"),
}

# Checks that grade a statistical trend over a few seeds at the bundled budget
# (ROADMAP gates 04, 05, 06 and the OU mean test of gate 01). At benchmark
# budgets and other seed windows they are draws, not statements about the
# program, so a red one is reported under its own name and not counted as a
# failure. Every other check states a bound that holds in every seed window
# (the tilt bound, the zero-noise limit, the coupling bound), and a red one is
# a failed study.
STATISTICAL = {
    "alpha_sweep": ("distance_non_increasing_in_sigma",),
    "bias_order": ("order_noisy_below_sgd", "order_sgd_below_gd",
                   "gap_exceeds_pooled_std"),
    "limit_distance": ("distance_non_decreasing_in_sigma",),
    "ou_stationary": ("mean_within_3se_sigma0", "mean_within_3se_sigma0.3"),
}

STUDY_METRICS = tuple(dict.fromkeys(
    study.metric for studies in WORKLOADS.values() for study in studies))


def study_configs(workload: str, seed: int, budget: str = "full"):
    """(Study, config text) pairs for one workload; out paths are relative."""
    from noiselab.harness import bundled_config, config_text

    pairs = []
    for study in WORKLOADS[workload]:
        cfg = bundled_config(study.bundle, out=f"records/{study.name}")
        cfg = replace(cfg, **dict(study.overrides))
        if budget == "tiny":
            cfg = replace(cfg, **dict(TINY[study.bundle]))
        cfg = replace(cfg, seed_base=cfg.seed_base + SEED_STRIDE * seed)
        pairs.append((study, config_text(cfg)))
    return pairs

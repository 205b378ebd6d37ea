"""Stochastic-optimization laboratory for least squares and diagonal linear networks.

Simulates discrete optimizers (GD, SGD, noisy SGD, per-sample-clipped noisy SGD)
and their SDE counterparts, then checks the runs against closed-form limits:
Ornstein-Uhlenbeck stationary laws, coupled-trajectory deviation bounds, and
mirror-descent limit points under the hyperbolic entropy.
"""

from .core_math import (
    RngStream,
    Trajectory,
    fmt17,
    min_norm_solve,
    row_space_projector,
    solve_lyapunov,
    spectral_norm,
)
from .problems import (
    Dataset,
    default_step_size,
    gen_sparse_regression,
    gen_underparam_regression,
)
from .mirror import (
    ConvergenceError,
    PotentialParams,
    bregman,
    mu_bound,
    phi_grad,
    phi_grad_inverse,
    phi_hessian_diag,
    phi_value,
    prop3_check,
    solve_tilted,
    solve_tilted_ensemble,
)
from .lsq_dynamics import (
    LsqState,
    OptimizerConfig,
    clip,
    eta_bound_rhs,
    lsq_discrete_step,
    minibatch_gradients,
    simulate_coupled_over,
    simulate_ou_under,
    stationary_law_theory,
)
from .dln_dynamics import (
    DivergenceError,
    DlnState,
    dln_init,
    dln_loss,
    effective_alpha,
    run_dln_discrete,
    run_dln_discrete_ensemble,
    simulate_dln_sde,
    simulate_dln_sde_ensemble,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    RunRecord,
    aggregate,
    apply_overrides,
    bundled_config,
    config_text,
    parse_config,
    run_alpha_sweep,
    run_experiment,
    trend_check,
)

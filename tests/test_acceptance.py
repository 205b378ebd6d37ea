"""Graded acceptance criteria, one test per criterion.

Each test prints and registers a single verdict line with the measured values
and the stated tolerance; the conftest summary hook echoes all lines at the
end of the run. Everything runs through the bundled experiment configs or the
public module API with fixed seeds, so the verdicts are reproducible bit for
bit.

Criterion 1 is expected to fail: the graded reference law for the station-
ary covariance is not the stationary law of the simulated chain at step size
h = gamma (the chain's own exact covariance sits ~37 percent away at sigma=0
and ~70 percent at sigma=0.3, far outside the 15 percent band), so the test
reports the deviation honestly instead of loosening the check.
"""

import math
import time

import numpy as np

from conftest import record_verdict
from noiselab import (
    OptimizerConfig,
    PotentialParams,
    RngStream,
    bregman,
    bundled_config,
    clip,
    default_step_size,
    effective_alpha,
    gen_sparse_regression,
    gen_underparam_regression,
    lsq_discrete_step,
    phi_grad,
    phi_grad_inverse,
    phi_value,
    row_space_projector,
    run_alpha_sweep,
    run_dln_discrete,
    run_experiment,
    simulate_dln_sde,
    solve_lyapunov,
    solve_tilted,
)
from noiselab.lsq_dynamics import LsqState
from oracles import em_stationary_cov, fd_grad, lyapunov_quadrature, min_norm_interpolator


def _grade(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    record_verdict(line)
    print(line)
    assert ok, line


def test_criterion_01_stationary_covariance(tmp_path):
    """Underparametrized stationary law: mean within 3 SE, covariance within
    15 percent relative Frobenius of the reference, one minute budget."""
    t0 = time.time()
    rec = run_experiment(bundled_config("ou_stationary", out=str(tmp_path)))
    wall = time.time() - t0

    # independent diagnosis: the exact stationary covariance of the simulated
    # chain, against the same reference the run is graded on
    ds = gen_underparam_regression(50, 5, 0.5, RngStream(7))
    A = ds.Xbar.T @ ds.Xbar
    lam, Q = np.linalg.eigh(A)
    gamma = rec.scalars["gamma"]
    chain_gap = {}
    for sigma in (0.0, 0.3):
        W = em_stationary_cov(A, gamma, gamma * 0.25 * A + sigma**2 * np.eye(5))
        ref = (Q * (0.5 * gamma * 0.25 + 0.25 * sigma**2 / lam)) @ Q.T
        chain_gap[sigma] = float(np.linalg.norm(W - ref) / np.linalg.norm(ref))

    ok = rec.passed() and wall <= 60.0
    _grade(1, "stationary mean and covariance", ok,
           f"cov rel dev {rec.scalars['cov_rel_frobenius_vs_target_sigma0']:.1%} "
           f"(sigma=0) / {rec.scalars['cov_rel_frobenius_vs_target_sigma0.3']:.1%} "
           f"(sigma=0.3) against 15% band; mean dev "
           f"{rec.scalars['mean_dev_se_units_sigma0']:.2f} / "
           f"{rec.scalars['mean_dev_se_units_sigma0.3']:.2f} SE against 3 SE; "
           f"the chain's own exact covariance sits {chain_gap[0.0]:.1%} / "
           f"{chain_gap[0.3]:.1%} from the reference at h=gamma, so the band "
           f"is unreachable by sampling; {wall:.1f}s of 60s")


def test_criterion_02_lyapunov_solver():
    """Continuous Lyapunov solves on 10 random SPD instances, d <= 20:
    residual below 1e-10 and agreement with direct quadrature below 1e-6."""
    gen = np.random.default_rng(2024)
    worst_res, worst_quad = 0.0, 0.0
    for _ in range(10):
        d = int(gen.integers(2, 21))
        Qm, _ = np.linalg.qr(gen.normal(size=(d, d)))
        B = (Qm * gen.uniform(0.1, 3.0, size=d)) @ Qm.T
        C = gen.normal(size=(d, d))
        D = 0.5 * (C @ C.T) + 0.05 * np.eye(d)
        W = solve_lyapunov(B, D)
        res = np.linalg.norm(B @ W + W @ B - 2.0 * D) / np.linalg.norm(D)
        quad = np.linalg.norm(W - lyapunov_quadrature(B, D)) / np.linalg.norm(W)
        worst_res = max(worst_res, float(res))
        worst_quad = max(worst_quad, float(quad))
    ok = worst_res <= 1e-10 and worst_quad <= 1e-6
    _grade(2, "Lyapunov residual and quadrature", ok,
           f"worst residual {worst_res:.2e} (tol 1e-10), worst quadrature "
           f"deviation {worst_quad:.2e} (tol 1e-6) over 10 SPD instances")


def test_criterion_03_deviation_bound(tmp_path):
    """Coupled-trajectory deviation stays within 1.1x its bound at every
    recorded time and vanishes identically without noise; two minute budget."""
    t0 = time.time()
    rec = run_experiment(bundled_config("coupling_bound", out=str(tmp_path)))
    wall = time.time() - t0
    ok = rec.passed() and wall <= 120.0
    _grade(3, "coupled deviation bound", ok,
           f"max eta/bound {rec.scalars['max_eta_over_bound_sigma0.5']:.4f} "
           f"(limit 1.1) over 400 steps x 200 trajectories; sigma=0 deviation "
           f"identically zero: {rec.checks['zero_noise_deviation_identically_zero']}; "
           f"{wall:.1f}s of 120s")


def test_criterion_04_implicit_bias_ordering(tmp_path):
    """Final validation distances order NoisySGD < SGD < GD across 5 seeds,
    with the noisy gap exceeding the pooled std; five minute budget."""
    t0 = time.time()
    rec = run_experiment(bundled_config("bias_order", out=str(tmp_path)))
    wall = time.time() - t0
    ok = rec.passed() and wall <= 300.0
    m = {k: rec.scalars[f"final_dist_sq_mean_{k}"] for k in ("GD", "SGD", "NoisySGD")}
    _grade(4, "implicit bias ordering", ok,
           f"final dist^2 GD {m['GD']:.4f} > SGD {m['SGD']:.4f} > NoisySGD "
           f"{m['NoisySGD']:.4f}; gap {rec.scalars['noisy_sgd_gap']:.4f} vs "
           f"pooled std {rec.scalars['pooled_std_gap']:.4f}; {wall:.1f}s of 300s")


def test_criterion_05_limit_distance_trend(tmp_path):
    """Distance to the predicted limit grows with the noise scale (at most one
    within-std inversion) and every run satisfies the distance-versus-tilt
    bound; fifteen minute budget."""
    t0 = time.time()
    rec = run_experiment(bundled_config("limit_distance", out=str(tmp_path)))
    wall = time.time() - t0
    ok = rec.passed() and wall <= 900.0
    means = [rec.scalars[f"limit_distance_mean_sigma{s:g}"]
             for s in rec.config.sigmas]
    _grade(5, "limit distance versus noise", ok,
           f"mean distances {['%.3g' % v for v in means]} over sigma grid "
           f"{list(rec.config.sigmas)}, {rec.scalars['trend_inversions']} "
           f"inversions (at most 1 within one std); tilt bound held in every "
           f"run (floor 1e-4 at sigma=0): {rec.checks['tilt_bound_every_run']}; "
           f"{wall:.1f}s of 900s")


def test_criterion_06_alpha_sweep(tmp_path):
    """At both initialization scales the validation distance is non-increasing
    in the noise scale, allowing one within-std inversion."""
    recs = run_alpha_sweep(out=str(tmp_path))
    ok = all(r.passed() for r in recs)
    rows = []
    for r in recs:
        means = [r.scalars[f"final_dist_sq_mean_sigma{s:g}"] for s in r.config.sigmas]
        rows.append(f"alpha0={r.config.alpha0:g}: {['%.3g' % v for v in means]} "
                    f"({r.scalars['trend_inversions']} inversions)")
    _grade(6, "initialization scale sweep", ok, "; ".join(rows))


def test_criterion_07_mirror_suite():
    """Potential toolbox: finite-difference gradient 1e-6, value/gradient
    roundtrip 1e-12, Bregman nonnegativity on 100 pairs, KKT residual 1e-6,
    large-scale limit within 1e-2 of min-norm, zero-noise pipeline 1e-4."""
    gen = np.random.default_rng(7)

    worst_fd = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 12))
        pp = PotentialParams(gen.uniform(0.05, 2.0, size=d))
        beta = gen.normal(size=d) * 3.0
        g = phi_grad(beta, pp)
        ref = fd_grad(lambda b: phi_value(b, pp), beta)
        worst_fd = max(worst_fd, float(np.linalg.norm(g - ref)
                                       / max(np.linalg.norm(ref), 1e-12)))

    worst_rt = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 12))
        pp = PotentialParams(gen.uniform(0.05, 2.0, size=d))
        beta = gen.normal(size=d) * 5.0
        back = phi_grad_inverse(phi_grad(beta, pp), pp)
        worst_rt = max(worst_rt, float(np.linalg.norm(back - beta)
                                       / max(np.linalg.norm(beta), 1e-12)))

    breg_ok = True
    for _ in range(100):
        d = int(gen.integers(2, 10))
        pp = PotentialParams(gen.uniform(0.05, 2.0, size=d))
        x, y = gen.normal(size=d) * 2.0, gen.normal(size=d) * 2.0
        if bregman(x, y, pp) < 0 or abs(bregman(x, x, pp)) > 1e-12:
            breg_ok = False

    ds = gen_sparse_regression(8, 20, 3, RngStream(21))
    P = row_space_projector(ds.Xbar)
    worst_kkt = worst_feas = 0.0
    for tilt in (None, 0.3 * np.sin(np.arange(20.0))):
        pp = PotentialParams(0.2)
        beta = solve_tilted(ds, pp, tilt, tol=1e-14)
        t = np.zeros(20) if tilt is None else tilt
        worst_kkt = max(worst_kkt, float(np.linalg.norm(
            (np.eye(20) - P) @ (phi_grad(beta, pp) - t))))
        worst_feas = max(worst_feas, float(np.linalg.norm(ds.Xbar @ beta - ds.Ybar)))

    big = solve_tilted(ds, PotentialParams(50.0))
    mn = min_norm_interpolator(ds.Xbar, ds.Ybar)
    large_dev = float(np.linalg.norm(big - mn) / np.linalg.norm(mn))

    # zero-noise end-to-end: the integrated run must land on the predicted
    # limit point up to the pipeline accuracy floor
    ds33 = gen_sparse_regression(40, 100, 5, RngStream(33))
    gamma = default_step_size(ds33)
    traj = simulate_dln_sde(ds33, 0.1, 0.0, gamma, gamma,
                            200_000, RngStream(28_000))
    st = traj.meta["final_state"]
    beta_inf = st.w_plus**2 - st.w_minus**2
    a_inf = effective_alpha(0.1, ds33, gamma, 0.0, st.loss_integral)
    pred = solve_tilted(ds33, PotentialParams(a_inf))
    pipe_dev = float(np.linalg.norm(beta_inf - pred))

    ok = (worst_fd <= 1e-6 and worst_rt <= 1e-12 and breg_ok
          and worst_kkt <= 1e-6 and worst_feas <= 1e-6
          and large_dev <= 1e-2 and pipe_dev <= 1e-4)
    _grade(7, "mirror potential suite", ok,
           f"fd grad {worst_fd:.2e} (tol 1e-6), roundtrip {worst_rt:.2e} "
           f"(tol 1e-12), bregman nonneg on 100 pairs: {breg_ok}, KKT "
           f"{worst_kkt:.2e} / feasibility {worst_feas:.2e} (tol 1e-6), "
           f"large-scale vs min-norm {large_dev:.2e} (tol 1e-2), zero-noise "
           f"pipeline distance {pipe_dev:.2e} (tol 1e-4)")


def test_criterion_08_degenerate_equivalences():
    """Zero-noise and full-batch degenerations reproduce their deterministic
    counterparts bitwise; clipping preserves norms to 1e-12."""
    ds = gen_sparse_regression(6, 10, 2, RngStream(3))
    gamma = default_step_size(ds)

    runs = []
    for kind in ("SGD", "NoisySGD"):
        opt = OptimizerConfig(kind=kind, gamma=gamma, sigma=0.0, batch=3)
        _, traj = run_dln_discrete(ds, 0.1, opt, 200, RngStream(5),
                                   record_stride=10, early_stop=False)
        runs.append(np.array(traj.rows))
    noisy_eq = bool(np.array_equal(runs[0], runs[1]))

    ds_u = gen_underparam_regression(20, 4, 0.5, RngStream(5))
    g_u = default_step_size(ds_u)
    paths = []
    for kind, batch in (("GD", 1), ("DPSGD", 20)):
        opt = OptimizerConfig(kind=kind, gamma=g_u, sigma=0.0, batch=batch,
                              clip=math.inf)
        state, rng = LsqState(theta=np.zeros(4)), RngStream(11)
        trace = []
        for _ in range(100):
            state = lsq_discrete_step(state, ds_u, opt, rng)
            trace.append(state.theta.copy())
        paths.append(np.array(trace))
    dpsgd_eq = bool(np.array_equal(paths[0], paths[1]))

    gen = np.random.default_rng(3)
    worst_clip = 0.0
    for _ in range(100):
        g = gen.normal(size=int(gen.integers(1, 30))) * 10.0 ** gen.integers(-3, 4)
        C = float(gen.uniform(0.01, 5.0))
        want = min(float(np.linalg.norm(g)), C)
        got = float(np.linalg.norm(clip(g, C)))
        worst_clip = max(worst_clip, abs(got - want) / max(want, 1e-300))
    ok = noisy_eq and dpsgd_eq and worst_clip <= 1e-12
    _grade(8, "degenerate equivalences", ok,
           f"NoisySGD(sigma=0) == SGD bitwise: {noisy_eq}; DPSGD(full batch, "
           f"no clip, sigma=0) == GD bitwise: {dpsgd_eq}; clip norm identity "
           f"dev {worst_clip:.2e} (tol 1e-12)")


def test_criterion_09_fine_step_identity():
    """At h = gamma/100 the integrated weights satisfy the closed-form
    hyperbolic identity within 1e-3 relative at 10+ checkpoints."""
    ds = gen_sparse_regression(5, 12, 2, RngStream(77))
    gamma = default_step_size(ds)
    traj = simulate_dln_sde(ds, 0.1, 0.5, gamma,
                            gamma / 100.0, 4000, RngStream(4),
                            record_stride=400, early_stop=False)
    ckpts = traj.meta["checkpoints"]
    worst = 0.0
    for ck in ckpts:
        a_t = effective_alpha(0.1, ds, gamma, 0.5, ck["loss_integral"])
        pred = 2.0 * a_t**2 * np.sinh(2.0 * (ck["eta"] + ck["delta"]))
        nrm = float(np.linalg.norm(ck["beta"]))
        if nrm > 0:
            worst = max(worst, float(np.linalg.norm(ck["beta"] - pred)) / nrm)
    ok = len(ckpts) >= 10 and worst <= 1e-3
    _grade(9, "fine-step hyperbolic identity", ok,
           f"worst rel deviation {worst:.2e} (tol 1e-3) across {len(ckpts)} "
           f"checkpoints at h = gamma/100")


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Rerunning a bundled experiment with an identical config reproduces
    every CSV and the summary byte for byte."""
    mismatches, checked = [], 0
    for name in ("coupling_bound", "limit_distance"):
        out = tmp_path / name
        cfg = bundled_config(name, out=str(out))
        run_experiment(cfg)
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        run_experiment(cfg)
        for p in sorted(out.iterdir()):
            checked += 1
            if first[p.name] != p.read_bytes():
                mismatches.append(f"{name}/{p.name}")
    ok = not mismatches and checked > 0
    _grade(10, "byte-identical reruns", ok,
           f"{checked} output files compared across 2 bundles, "
           f"mismatches: {mismatches or 'none'}")

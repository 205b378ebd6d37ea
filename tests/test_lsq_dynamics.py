"""Discrete optimizers and SDE integrators on the least-squares objective."""

import math
import warnings

import numpy as np
import pytest

from noiselab import (
    Dataset,
    LsqState,
    OptimizerConfig,
    RngStream,
    clip,
    default_step_size,
    eta_bound_rhs,
    gen_sparse_regression,
    gen_underparam_regression,
    lsq_discrete_step,
    minibatch_gradients,
    simulate_coupled_over,
    simulate_ou_under,
    solve_lyapunov,
    stationary_law_theory,
)
from noiselab.core_math import PINV_CUTOFF
from noiselab.lsq_dynamics import OU_THIN
from oracles import coupled_reference, em_stationary_cov, ou_reference


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def step_n(ds, cfg, rng, theta0, k):
    state = LsqState(theta=theta0, step=0, time=0.0)
    for _ in range(k):
        state = lsq_discrete_step(state, ds, cfg, rng)
    return state


class TestClip:
    def test_below_threshold_untouched(self):
        g = np.array([0.3, 0.4])
        assert np.array_equal(clip(g, 1.0), g)

    def test_rescaling(self):
        assert np.allclose(clip(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-15)

    def test_norm_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = rng.standard_normal(7) * rng.uniform(0.1, 5)
            C = rng.uniform(0.2, 3)
            assert abs(np.linalg.norm(clip(g, C)) - min(np.linalg.norm(g), C)) < 1e-12

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip(np.ones(2), 0.0)

    def test_rows_clipped_one_at_a_time(self):
        # a (rows, d) input clips each row as the 1-d call does, bit for bit;
        # the short row and the zero row pass untouched
        rng = np.random.default_rng(1)
        G = rng.standard_normal((6, 4)) * 3.0
        G[2] *= 1e-3
        G[4] = 0.0
        got = clip(G, 1.0)
        for g_row, got_row in zip(G, got):
            assert same_bits(got_row, clip(g_row, 1.0))
        assert same_bits(got[2], G[2]) and same_bits(got[4], G[4])
        assert np.all(np.linalg.norm(got, axis=1) <= 1.0 + 1e-12)


class TestDiscreteStep:
    def test_gd_scalar_case(self):
        # d = n = 1, X = (1), Y = (2), gamma = 1: one exact step lands on the solution
        ds = Dataset(X=np.array([[1.0]]), Y=np.array([2.0]), beta_star=np.array([2.0]))
        cfg = OptimizerConfig(kind="GD", gamma=1.0)
        state = step_n(ds, cfg, RngStream(0), np.zeros(1), 1)
        assert state.theta[0] == pytest.approx(2.0, abs=1e-14)

    def test_gd_converges_to_least_squares(self):
        ds = gen_underparam_regression(30, 4, 0.2, RngStream(9))
        cfg = OptimizerConfig(kind="GD", gamma=0.3)
        state = step_n(ds, cfg, RngStream(0), np.zeros(4), 4000)
        assert np.abs(state.theta - ds.theta_ls()).max() < 1e-10

    def test_sgd_step_is_unbiased(self):
        # average many one-step moves from a fixed point against -gamma * full gradient
        ds = gen_underparam_regression(20, 3, 0.0, RngStream(21))
        theta0 = np.ones(3)
        cfg = OptimizerConfig(kind="SGD", gamma=0.1, batch=5)
        rng = RngStream(2024)
        start = LsqState(theta=theta0, step=0, time=0.0)
        moves = np.array([(lsq_discrete_step(start, ds, cfg, rng).theta - theta0)
                          for _ in range(20000)])
        target = -cfg.gamma * ds.Xbar.T @ (ds.Xbar @ theta0 - ds.Ybar)
        se = moves.std(axis=0, ddof=1) / math.sqrt(len(moves))
        assert np.all(np.abs(moves.mean(axis=0) - target) <= 5.0 * se + 1e-12)

    def test_noisy_sgd_sigma_zero_equals_sgd(self):
        ds = gen_underparam_regression(15, 3, 0.1, RngStream(33))
        a = step_n(ds, OptimizerConfig(kind="SGD", gamma=0.2, batch=4),
                   RngStream(7), np.zeros(3), 50)
        b = step_n(ds, OptimizerConfig(kind="NoisySGD", gamma=0.2, sigma=0.0, batch=4),
                   RngStream(7), np.zeros(3), 50)
        assert np.array_equal(a.theta, b.theta)

    def test_dpsgd_degenerates_to_gd(self):
        # full batch, no clipping, no noise: bitwise identical to plain GD
        ds = gen_underparam_regression(12, 3, 0.1, RngStream(13))
        a = step_n(ds, OptimizerConfig(kind="GD", gamma=0.25),
                   RngStream(5), np.zeros(3), 40)
        b = step_n(ds, OptimizerConfig(kind="DPSGD", gamma=0.25, sigma=0.0,
                                       batch=12, clip=math.inf),
                   RngStream(5), np.zeros(3), 40)
        assert np.array_equal(a.theta, b.theta)

    def test_dpsgd_clipping_binds(self):
        # tiny clip bounds the move by gamma * C however large the residual is
        ds = gen_underparam_regression(10, 2, 0.0, RngStream(3))
        theta0 = 50.0 * np.ones(2)
        C = 0.01
        cfg = OptimizerConfig(kind="DPSGD", gamma=1.0, sigma=0.0, batch=10, clip=C)
        s = lsq_discrete_step(LsqState(theta=theta0), ds, cfg, RngStream(1))
        assert np.linalg.norm(s.theta - theta0) <= C + 1e-12

    def test_dpsgd_binding_clip_step_bitwise(self):
        # minibatch, clipping that binds on some samples, and added noise:
        # bitwise the per-sample clipping formula written out in full
        ds = gen_underparam_regression(12, 3, 0.3, RngStream(17))
        theta0 = np.array([4.0, -3.0, 2.5])
        cfg = OptimizerConfig(kind="DPSGD", gamma=0.1, sigma=0.7, batch=5, clip=1.5)
        got = lsq_discrete_step(LsqState(theta=theta0), ds, cfg, RngStream(8)).theta
        rng = RngStream(8)
        idx = rng._gen.choice(ds.n, 5, replace=False)  # numpy's draw, not the stream's own
        rows = ds.X[idx]
        per_sample = rows * (rows @ theta0 - ds.Y[idx])[:, None]
        norms = np.linalg.norm(per_sample, axis=1)
        assert norms.min() < 1.5 < norms.max()
        scale = np.minimum(1.0, 1.5 / np.maximum(norms, 1e-300))
        g = (per_sample * scale[:, None]).sum(axis=0) / 5
        g = g + (1.5 * 0.7 / 5) * rng.normal(3)
        assert same_bits(got, theta0 - 0.1 * g)

    def test_sgd_batch_one_step_bitwise(self):
        # a single sample's gradient reads its residual off Xbar theta - Ybar
        ds = gen_underparam_regression(12, 3, 0.3, RngStream(17))
        theta0 = np.array([4.0, -3.0, 2.5])
        cfg = OptimizerConfig(kind="SGD", gamma=0.1, batch=1)
        got = lsq_discrete_step(LsqState(theta=theta0), ds, cfg, RngStream(8)).theta
        i = RngStream(8)._gen.choice(ds.n, 1, replace=False)[0]
        rbar = ds.Xbar @ theta0 - ds.Ybar
        assert same_bits(got, theta0 - 0.1 * (ds.X[i] * (math.sqrt(ds.n) * rbar[i])))

    def test_dpsgd_noise_needs_finite_clip(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="DPSGD", gamma=0.1, sigma=0.5, batch=4, clip=math.inf)

    def test_batch_larger_than_n_rejected(self):
        ds = gen_underparam_regression(8, 2, 0.0, RngStream(1))
        cfg = OptimizerConfig(kind="SGD", gamma=0.1, batch=9)
        with pytest.raises(ValueError):
            lsq_discrete_step(LsqState(theta=np.zeros(2)), ds, cfg, RngStream(0))

    def test_step_and_time_advance(self):
        ds = gen_underparam_regression(8, 2, 0.0, RngStream(2))
        cfg = OptimizerConfig(kind="SGD", gamma=0.05, batch=2)
        state = step_n(ds, cfg, RngStream(0), np.zeros(2), 3)
        assert state.step == 3
        assert state.time == pytest.approx(0.15, rel=1e-12)


class TestMinibatchGradients:
    @staticmethod
    def instance(rows=5):
        ds = gen_underparam_regression(12, 3, 0.3, RngStream(17))
        beta = np.random.default_rng(4).standard_normal((rows, ds.d)) * 3.0
        return ds, beta, beta @ ds.Xbar.T - ds.Ybar

    @pytest.mark.parametrize("batch, C", [
        pytest.param(None, math.inf, id="full"),
        pytest.param(1, math.inf, id="batch1"),
        pytest.param(4, math.inf, id="batch4"),
        pytest.param(4, 2.0, id="batch4-clipped"),
    ])
    def test_stacked_rows_match_rows_alone(self, batch, C):
        ds, beta, rbar = self.instance()
        gen = np.random.default_rng(5)
        picks = None if batch is None else np.array(
            [gen.choice(ds.n, batch, replace=False) for _ in beta])
        got = minibatch_gradients(ds, beta, rbar, picks, C)
        assert got.shape == beta.shape
        for j in range(len(beta)):
            alone = minibatch_gradients(ds, beta[j:j + 1], rbar[j:j + 1],
                                        None if picks is None else picks[j:j + 1], C)
            assert same_bits(got[j], alone[0])
        if batch is None:
            assert np.allclose(got, rbar @ ds.Xbar, rtol=1e-12, atol=0.0)
        else:
            per = ds.X[picks] * (np.einsum("jbd,jd->jb", ds.X[picks], beta)
                                 - ds.Y[picks])[:, :, None]
            norms = np.linalg.norm(per, axis=2)
            if not math.isinf(C):
                assert norms.min() < C < norms.max()
            scale = np.minimum(1.0, C / norms)[:, :, None]
            assert np.allclose(got, (per * scale).mean(axis=1), rtol=1e-12, atol=0.0)

    def test_batch_one_agrees_with_stacked_formula(self):
        # the shortcut x_i (sqrt(n) rbar_i) is the formula x_i (<x_i, beta> - y_i)
        ds, beta, rbar = self.instance(rows=12)
        picks = np.arange(ds.n)[:, None]  # row j takes sample j
        got = minibatch_gradients(ds, beta, rbar, picks)
        want = ds.X * (np.einsum("jd,jd->j", ds.X, beta) - ds.Y)[:, None]
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= 1e-12 * np.linalg.norm(want, axis=1))


class TestStationaryLawTheory:
    def test_sigma_zero_isotropic(self):
        ds = gen_underparam_regression(50, 5, 0.5, RngStream(2))
        cov = stationary_law_theory(ds, gamma=0.1, eps=0.5, sigma=0.0)
        assert np.allclose(cov, (0.1 * 0.25 / 2) * np.eye(5), atol=1e-14)

    def test_identity_gram_closed_form(self):
        # Xbar^T Xbar = I exactly, so cov = (gamma eps^2 / 2 + sigma^2 / 2) I
        d = 3
        X = np.vstack([np.eye(d), np.eye(d)]) * np.sqrt(3.0)
        ds = Dataset(X=X, Y=np.zeros(2 * d), beta_star=None)
        cov = stationary_law_theory(ds, gamma=0.2, eps=1.0, sigma=0.4)
        want = (0.2 / 2 + 0.16 / 2) * np.eye(d)
        assert np.allclose(cov, want, atol=1e-12)

    def test_agrees_with_lyapunov_route(self):
        # independent route: solve A W + W A = 2 D for D = (gamma eps^2/2) A + (sigma^2/2) I
        ds = gen_underparam_regression(40, 4, 0.3, RngStream(31))
        gamma, eps, sigma = 0.15, 0.5, 0.3
        A = ds.Xbar.T @ ds.Xbar
        cov = stationary_law_theory(ds, gamma, eps, sigma)
        D = (gamma * eps**2 / 2.0) * A + (sigma**2 / 2.0) * np.eye(4)
        W = solve_lyapunov(A, D)
        assert np.abs(cov - W).max() < 1e-10

    def test_overparam_rejected(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(1))
        with pytest.raises(ValueError):
            stationary_law_theory(ds, 0.1, 0.5, 0.0)

    @pytest.mark.parametrize("gamma, eps, sigma", [
        (0.1, math.nan, 0.3), (0.1, 0.5, math.inf), (-0.1, 0.5, 0.3), (math.nan, 0.5, 0.3),
    ])
    def test_bad_parameters_rejected(self, gamma, eps, sigma):
        ds = gen_underparam_regression(20, 3, 0.1, RngStream(6))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stationary_law_theory(ds, gamma, eps, sigma)


class TestSimulateOuUnder:
    def test_deterministic_flow_reaches_least_squares(self):
        ds = gen_underparam_regression(30, 4, 0.2, RngStream(5))
        [(mean, cov, traj)] = simulate_ou_under(ds, 0.0, [0.0], 0.2, 0.2, steps=3000,
                                                burn_in=2500, rngs=[RngStream(0)])
        assert np.abs(mean - ds.theta_ls()).max() < 1e-6
        assert np.abs(cov).max() < 1e-8

    def test_scalar_variance_matches_law(self):
        # d = 1 with data noise only: stationary variance gamma eps^2 / 2
        ds = gen_underparam_regression(50, 1, 0.3, RngStream(8))
        lam = (ds.Xbar.T @ ds.Xbar).item()
        gamma = 0.4 / lam
        [(mean, cov, traj)] = simulate_ou_under(ds, 0.7, [0.0], gamma, gamma / 20,
                                                steps=400_000, burn_in=40_000,
                                                rngs=[RngStream(99)])
        want = gamma * 0.49 / 2
        assert abs(cov.item() - want) < 0.1 * want

    def test_empirical_cov_matches_discrete_chain_law(self):
        # the integrator chain has its own computable stationary covariance;
        # long-run averages must land on it even where it differs from the
        # continuous-time law
        ds = gen_underparam_regression(50, 5, 0.4, RngStream(12))
        A = ds.Xbar.T @ ds.Xbar
        gamma = 1.0 / (1.3 * float(np.linalg.eigvalsh(A)[-1]))
        h = gamma / 8
        eps, sigma = 0.5, 0.3
        [(mean, cov, traj)] = simulate_ou_under(ds, eps, [sigma], gamma, h, steps=600_000,
                                                burn_in=60_000, rngs=[RngStream(7)])
        Sigma = gamma * eps**2 * A + sigma**2 * np.eye(5)
        W = em_stationary_cov(A, h, Sigma)
        assert np.linalg.norm(cov - W) / np.linalg.norm(W) < 0.10
        se = traj.meta["mean_se"]
        assert np.all(np.abs(mean - ds.theta_ls()) <= 4.0 * se + 1e-12)

    @pytest.mark.parametrize("n, d", [(50, 5), (50, 1), (7, 6), (400, 30)])
    def test_data_noise_factor_squares_to_the_gram(self, n, d):
        # the data noise is d normals times R from Xbar = QR (the factor that
        # ou_reference uses too), of law N(0, R^T R) = N(0, Xbar^T Xbar).
        # Householder QR is exact for an Xbar moved by at most n d u ||Xbar||_F
        # in Frobenius norm, which moves R^T R by at most twice that times
        # ||Xbar||_F; forming R^T R and Xbar^T Xbar adds n u ||Xbar||_F^2 each
        ds = gen_underparam_regression(n, d, 0.5, RngStream(7))
        R = np.linalg.qr(ds.Xbar, mode="r")
        F2 = float(np.sum(ds.Xbar * ds.Xbar))
        assert R.shape == (d, d) and np.array_equal(R, np.triu(R))
        gap = np.linalg.norm(R.T @ R - ds.Xbar.T @ ds.Xbar)
        assert gap <= (2 * n * d + 2 * n) * 2.0**-53 * F2

    def test_unstable_step_rejected(self):
        ds = gen_underparam_regression(40, 4, 0.2, RngStream(3))
        A = ds.Xbar.T @ ds.Xbar
        bad = 2.5 / float(np.linalg.eigvalsh(A)[-1])
        with pytest.raises(ValueError, match="unstable step size"):
            simulate_ou_under(ds, 0.5, [0.0], 0.1, bad, steps=20, burn_in=0,
                              rngs=[RngStream(0)])

    def test_burn_in_must_leave_samples(self):
        ds = gen_underparam_regression(20, 2, 0.1, RngStream(4))
        with pytest.raises(ValueError):
            simulate_ou_under(ds, 0.5, [0.0], 0.1, 0.05, steps=100, burn_in=100,
                              rngs=[RngStream(0)])
        # a negative burn-in would average a sample taken before the start
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            simulate_ou_under(ds, 0.5, [0.0], 0.1, 0.05, steps=50, burn_in=-5,
                              rngs=[RngStream(0)])

    def test_fewer_than_two_samples_rejected(self):
        # one sample has no batch-means standard error
        ds = gen_underparam_regression(20, 2, 0.1, RngStream(4))
        with pytest.raises(ValueError, match="at least two samples"):
            simulate_ou_under(ds, 0.5, [0.0], 0.1, 0.05, steps=15, burn_in=10,
                              rngs=[RngStream(0)])
        [(_, _, traj)] = simulate_ou_under(ds, 0.5, [0.0], 0.1, 0.05, steps=21, burn_in=10,
                                           rngs=[RngStream(0)])
        assert traj.meta["n_samples"] == 2 and np.all(np.isfinite(traj.meta["mean_se"]))

    @pytest.mark.parametrize("change, message", [
        (dict(record_stride=-1), "at least 1"),
        (dict(record_stride=0), "at least 1"),
        (dict(gamma=0.0), "positive and finite"),
        (dict(h=math.nan), "positive and finite"),
        (dict(eps=math.nan), "finite and nonnegative"),
        (dict(sigmas=[0.3, -0.1]), "finite and nonnegative"),
        (dict(sigmas=[math.inf, 0.0]), "finite and nonnegative"),
    ])
    def test_bad_inputs_rejected(self, change, message):
        ds = gen_underparam_regression(20, 2, 0.1, RngStream(4))
        kw = dict(eps=0.5, sigmas=[0.0, 0.3], gamma=0.1, h=0.05, steps=100, burn_in=10,
                  rngs=[RngStream(0), RngStream(1)], record_stride=10)
        kw.update(change)
        with pytest.raises(ValueError, match=message):
            simulate_ou_under(ds, **kw)

    def test_array_sigmas_match_tuple_bitwise(self):
        # a numpy array of sigmas runs exactly as the same tuple does
        ds = gen_underparam_regression(20, 2, 0.1, RngStream(4))
        # the burn-in is off the sampling stride of 10
        runs = [simulate_ou_under(ds, 0.5, sigmas, 0.1, 0.05, steps=100, burn_in=13,
                                  rngs=[RngStream(0), RngStream(1)], record_stride=10)
                for sigmas in ((0.0, 0.5), np.array([0.0, 0.5]))]
        for (mean, cov, traj), (mean_a, cov_a, traj_a) in zip(*runs):
            assert same_bits(mean, mean_a)
            assert same_bits(cov, cov_a)
            assert same_bits(traj.rows, traj_a.rows)
            assert same_bits(traj.meta["mean_se"], traj_a.meta["mean_se"])
            assert same_bits(traj.meta["final_theta"], traj_a.meta["final_theta"])


def ou_roundoff(ds, gamma, eps, sigma, h, steps, rng):
    """Largest distance, by roundoff alone, between two runs of the OU Euler
    chain on rng's draws: ou_reference's step by step, and simulate_ou_under's
    jumps of g <= G = OU_THIN steps, theta T^g + sum_j (h b + xi_j) T^(g-1-j).

    With u = 2^-53, rho = ||T|| < 1, B = h ||b||, Xi the largest step noise
    norm (redrawn here as ou_reference draws it) and S = (B + Xi) / (1 - rho)
    a bound on the state, one update of either run rounds with a local error
    of at most 10 G^2 d^2 u (S + Xi + B): a computed T^g is within
    7 G d^2 u of T^g, and the products and sums add d, g d and 2 roundings.
    T shrinks each local error by rho per step, so a run stays within
    local / (1 - rho) of the exact chain, and the two runs within twice that.
    """
    A = ds.Xbar.T @ ds.Xbar
    lam = np.linalg.eigvalsh(A)
    rho = max(abs(1.0 - h * lam[0]), abs(1.0 - h * lam[-1]))
    B = h * np.linalg.norm(ds.Xbar.T @ ds.Ybar)
    R = np.linalg.qr(ds.Xbar, mode="r")
    xi = 0.0
    for start in range(0, steps, 10_000):
        count = min(10_000, steps - start)
        noise = np.zeros((count, ds.d))
        if eps > 0:
            noise += np.sqrt(h) * np.sqrt(gamma) * eps * (rng.normal((count, ds.d)) @ R)
        if sigma > 0:
            noise += np.sqrt(h) * sigma * rng.normal((count, ds.d))
        xi = max(xi, float(np.linalg.norm(noise, axis=1).max()))
    u, G = 2.0**-53, OU_THIN
    S = (B + xi) / (1.0 - rho)
    return 20.0 * G * G * ds.d**2 * u * (S + xi + B) / (1.0 - rho), S


class TestOuEnsembleMatchesOracle:
    """Every row of one OU ensemble is bitwise the same call with that row
    alone, and within roundoff of the step-by-step single-row loop
    (tests/oracles.py::ou_reference) run on the row's own stream."""

    @pytest.mark.parametrize("d, eps, sigmas, h_div, steps, burn_in, stride", [
        pytest.param(5, 0.5, (0.0,), 1, 3000, 1000, 100, id="eps-sigma0"),
        pytest.param(5, 0.5, (0.3,), 1, 3000, 1000, 100, id="eps-sigma"),
        pytest.param(5, 0.0, (0.0,), 1, 3000, 1000, 100, id="noise-free"),
        pytest.param(5, 0.0, (0.0, 0.4), 1, 3000, 1000, 100, id="noise-free-beside-noisy"),
        pytest.param(5, 0.5, (0.0, 0.3), 1, 23_457, 3000, 1000, id="crosses-blocks"),
        pytest.param(5, 0.0, (0.3, 0.0), 1, 5000, 1003, 100, id="burn-in-off-thin"),
        pytest.param(5, 0.5, (0.3, 0.0), 1, 2000, 500, 333, id="stride-not-dividing"),
        # h != gamma: the data-noise amplitude sqrt(h) sqrt(gamma) eps tells them apart
        pytest.param(5, 0.5, (0.0, 0.3), 8, 3000, 1000, 100, id="h-gamma-over-8"),
        pytest.param(1, 0.5, (0.3,), 1, 3000, 1000, 100, id="d1-one-row"),
        # every step a stop: jumps of one step
        pytest.param(5, 0.5, (0.0, 0.3), 1, 3000, 1000, 1, id="record-stride-1"),
        pytest.param(5, 0.5, (0.3, 0.0), 1, 3000, 0, 100, id="burn-in-0"),
        # a last noise block of one step, and three rows
        pytest.param(5, 0.5, (0.0, 0.3, 0.5), 1, 10_001, 1000, 100, id="steps-10001"),
    ])
    def test_rows_bitwise(self, d, eps, sigmas, h_div, steps, burn_in, stride):
        ds = gen_underparam_regression(50, d, 0.5, RngStream(7))
        gamma = default_step_size(ds)
        h = gamma / h_div
        rngs = [RngStream(11 + i) for i in range(len(sigmas))]
        got = simulate_ou_under(ds, eps, sigmas, gamma, h, steps, burn_in, rngs,
                                record_stride=stride)
        u = 2.0**-53
        for i, (sigma, (mean, cov, traj)) in enumerate(zip(sigmas, got)):
            [(mean_1, cov_1, traj_1)] = simulate_ou_under(
                ds, eps, [sigma], gamma, h, steps, burn_in, [RngStream(11 + i)],
                record_stride=stride)
            assert same_bits(mean, mean_1)
            assert same_bits(cov, cov_1)
            assert same_bits(traj.meta["mean_se"], traj_1.meta["mean_se"])
            assert same_bits(traj.meta["final_theta"], traj_1.meta["final_theta"])
            assert same_bits(traj.rows, traj_1.rows)

            ref_rng = RngStream(11 + i)
            ref = ou_reference(ds.Xbar, ds.Ybar, gamma, eps, sigma, h, steps,
                               burn_in, ref_rng, record_stride=stride, thin=OU_THIN)
            # the draws are the reference's: each stream ends where it does
            assert rngs[i].state_key() == ref_rng.state_key()
            delta, S = ou_roundoff(ds, gamma, eps, sigma, h, steps, RngStream(11 + i))
            N = ref["n_samples"]
            assert traj.meta["n_samples"] == N
            # sums over N samples (means) and N products (covariance) add
            # their own roundoff to the states' distance delta
            tol_mean = delta + 2 * N * u * S
            assert np.abs(mean - ref["mean"]).max() <= tol_mean
            assert np.abs(cov - ref["cov"]).max() <= 8 * S * tol_mean + 8 * N * u * S * S
            assert np.abs(traj.meta["mean_se"] - ref["mean_se"]).max() <= 4 * tol_mean
            assert np.linalg.norm(traj.meta["final_theta"] - ref["final_theta"]) <= delta
            assert traj.columns == ("t", "theta_norm")
            want = np.array([(t, norm) for t, _, norm in ref["rows"]])
            rows = np.asarray(traj.rows)
            assert same_bits(rows[:, 0], want[:, 0])
            assert np.abs(rows[:, 1] - want[:, 1]).max() <= delta + 2 * d * u * S


def coupled_roundoff(ds, gamma, sigma, steps, n_traj, rng, record_stride=1):
    """Per-record bounds, to first order in u = 2^-53, on how far apart two
    runs of the coupled chains on rng's draws report: coupled_reference's
    steps of theta in R^d, and simulate_coupled_over's steps of the residual
    rho = U^T (Xbar theta - Ybar), Xbar = U diag(S) V^T. Returns the bounds on
    eta_mean, loss_integral_mean and bound_rhs, one per recorded time.

    Write a path x (the clean theta, or the copy beta) in the basis V, split
    into the k directions whose singular value is kept and the rest; c =
    sqrt(h gamma), L = ||rho||^2 / 2 and rhohat = rho / ||rho||. The step
    x <- x - h Xbar^T r + c sqrt(L) (Xbar^T z + sigma iota) has the Jacobian

        J = [[I - h S^2 + (c / sqrt 2) a (S rhohat)^T, 0],
             [(c / sqrt 2) sigma V_perp^T iota (S rhohat)^T, I]],

    a = S U^T z + sigma V_par^T iota (sigma is 0 on the clean path), taken
    here along a float run of the chain on the same draws. A local error
    delta_j made by step j reaches step K through Phi = J_{K-1} ... J_{j+1},
    so a run stays within E_K = sum_j ||Phi||_F delta_j of the exact chain.

    Every quantity a step computes is a sum of at most m = n + d products,
    off by at most m u times the sum of their sizes, itself at most sqrt(m)
    times the product of their norms; the SVD's factors are exact for an
    Xbar moved by at most m u S_max, plus S_drop, the largest singular value
    taken as zero. With u' = u + S_drop / S_max, f = 1 + c S_max (S_max ||z||
    + sigma ||iota||), the factor by which a step enlarges an error in its
    residual, and kappa = S_max / S_min over the kept values, one step of
    either run errs by at most

        delta = 4 m^1.5 u' f (||x|| + (||Ybar|| + kappa ||rho||) / S_max),

    the kappa term being errors in the residual basis read in theta's units;
    the start rho = -U^T Ybar errs by that with f = 1 and x = 0. The two runs
    then lie within D = 2 E. A report adds its own roundoff: theta - beta
    is off by Delta = D_clean + D_copy + 4 u (kappa (||rho_clean|| +
    ||rho_copy||) / S_max + ||theta|| + ||beta||), so eta by 2 ||theta - beta||
    Delta + Delta^2 + 2 m u eta; the residual by D S_max + 2 m^1.5 u'
    (S_max ||x|| + ||Ybar|| + ||rho||), so L by ||rho|| times that plus its
    square over 2 and 2 m u L; the loss integral by h times the sum of the L
    bounds plus 2 K u times itself after K additions; each mean over
    trajectories by 2 n_traj u times its value; bound_rhs = gamma d sigma^2
    times the loss integral by that factor times its bound plus 6 u bound_rhs.
    """
    Xbar, Ybar = ds.Xbar, ds.Ybar
    n, d = Xbar.shape
    h, c, u, m = gamma, np.sqrt(gamma * gamma), 2.0**-53, n + d
    U, S, Vt = np.linalg.svd(Xbar)
    k = int(np.sum(S > PINV_CUTOFF * S[0]))
    s_max, kappa = S[0], S[0] / S[k - 1]
    u_eff = u + (S[k] if k < n else 0.0) / s_max
    y = np.linalg.norm(Ybar)
    shared, own = rng.child(2), rng.child(1)
    eye = np.broadcast_to(np.eye(d), (n_traj, 1, d, d))

    def norms(x):
        return np.linalg.norm(x, axis=1)

    def jacobian(r, za, iota, sig):
        # rows are trajectories; za = S U^T z in the kept directions
        rho = r @ U
        srho = (S[:k] * rho[:, :k] / norms(rho)[:, None])[:, None, :]
        J = np.zeros((n_traj, d, d))
        J[:, :k, :k] = np.diag(1.0 - h * S[:k] ** 2) + (
            c / np.sqrt(2) * (za + sig * (iota @ Vt[:k].T))[:, :, None] * srho)
        J[:, k:, :k] = c / np.sqrt(2) * sig * (iota @ Vt[k:].T)[:, :, None] * srho
        J[:, k:, k:] = np.eye(d - k)
        return J

    def local(x, r, f):
        return 4 * m**1.5 * u_eff * f * (norms(x) + (y + kappa * norms(r)) / s_max)

    def apart(p):
        # D: how far apart the two runs' path p may lie at the current step
        fro = np.sqrt(np.einsum("tcij,tcij->tc", props[p], props[p]))
        return 2 * np.sum(fro * weights[p], axis=1)

    paths = {"clean": 0.0, "copy": sigma}
    x = {p: np.zeros((n_traj, d)) for p in paths}
    # per path, the propagators (n_traj, errors, d, d) of the local errors so
    # far and the errors' bounds (n_traj, errors)
    props = {p: eye.copy() for p in paths}
    weights = {p: local(x[p], np.zeros((n_traj, n)) - Ybar, 1.0)[:, None] for p in paths}
    loss_int, li_err = np.zeros(n_traj), np.zeros(n_traj)
    tol_eta, tol_li, tol_rhs = [0.0], [0.0], [0.0]
    for step in range(1, steps + 1):
        z = shared.normal((n_traj, n))
        iota = own.normal((n_traj, d)) if sigma > 0 else np.zeros((n_traj, d))
        f = 1 + c * s_max * (s_max * norms(z) + sigma * norms(iota))
        za = S[:k] * (z @ U)[:, :k]
        # the copy's loss before the step enters the loss integral
        rb = norms(x["copy"] @ Xbar.T - Ybar)
        dr = apart("copy") * s_max + 2 * m**1.5 * u_eff * (s_max * norms(x["copy"]) + y + rb)
        li_err += h * (rb * dr + 0.5 * dr * dr + m * u * rb * rb)
        loss_int += h * 0.5 * rb * rb
        for p, sig in paths.items():
            r = x[p] @ Xbar.T - Ybar
            props[p] = np.concatenate((jacobian(r, za, iota, sig)[:, None] @ props[p], eye), axis=1)
            weights[p] = np.concatenate((weights[p], local(x[p], r, f)[:, None]), axis=1)
            amp = c * np.sqrt(0.5 * norms(r) ** 2)[:, None]
            x[p] = x[p] - h * (r @ Xbar) + amp * (z @ Xbar + sig * iota)
        if step % record_stride == 0 or step == steps:
            rho = {p: norms(x[p] @ Xbar.T - Ybar) for p in paths}
            gap = norms(x["clean"] - x["copy"])
            delta = apart("clean") + apart("copy") + 4 * u * (
                kappa * (rho["clean"] + rho["copy"]) / s_max + norms(x["clean"]) + norms(x["copy"]))
            eta_err = 2 * gap * delta + delta**2 + 2 * m * u * gap**2
            tol_eta.append(float(np.mean(eta_err) + 2 * n_traj * u * np.mean(gap**2)))
            li_tol = float(np.mean(li_err + 2 * step * u * loss_int)
                           + 2 * n_traj * u * np.mean(loss_int))
            tol_li.append(li_tol)
            rhs = gamma * d * sigma * sigma * float(np.mean(loss_int))
            tol_rhs.append(gamma * d * sigma * sigma * li_tol + 6 * u * rhs)
    return np.array(tol_eta), np.array(tol_li), np.array(tol_rhs)


def rank_deficient(factor):
    # the first sample again, times factor: Xbar has rank n - 1, and its
    # smallest singular value is about 1e-16 (factor 1) or exactly 0 (factor 0)
    ds = gen_sparse_regression(10, 20, 3, RngStream(53))
    return Dataset(X=np.vstack([ds.X, factor * ds.X[:1]]),
                   Y=np.append(ds.Y, factor * ds.Y[0]), beta_star=ds.beta_star)


class TestCoupledMatchesOracle:
    """Each sigma's report of one pass is bitwise its one-sigma call, and
    within coupled_roundoff's bound of the parent's per-sigma loop in R^d
    (tests/oracles.py::coupled_reference) run alone; a sigma-0 copy and the
    time-0 row report exact zeros."""

    @pytest.mark.parametrize("data, sigmas, steps, n_traj, stride", [
        pytest.param("10x20", (0.0, 0.5), 60, 4, 1, id="zero-and-noisy"),
        pytest.param("10x20", (0.3,), 50, 3, 1, id="one-noisy"),
        pytest.param("10x20", (0.5, 0.0, 0.25), 40, 5, 1, id="three-sigmas"),
        pytest.param("10x20", (0.0, 0.4), 50, 6, 7, id="stride-not-dividing"),
        pytest.param("10x20", (0.0, 0.5), 30, 1, 1, id="one-trajectory"),
        pytest.param("duplicate", (0.0, 0.5), 50, 4, 1, id="rank-deficient"),
        pytest.param("zero-sample", (0.0, 0.5), 50, 4, 1, id="zero-singular-value"),
        pytest.param("10x10", (0.0, 0.5), 50, 4, 1, id="d-equals-n"),
    ])
    def test_reports_bitwise(self, data, sigmas, steps, n_traj, stride):
        ds = {"10x20": lambda: gen_sparse_regression(10, 20, 3, RngStream(53)),
              "duplicate": lambda: rank_deficient(1.0),
              "zero-sample": lambda: rank_deficient(0.0),
              "10x10": lambda: gen_sparse_regression(10, 10, 3, RngStream(53))}[data]()
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        reps = simulate_coupled_over(ds, gamma, sigmas, steps, n_traj, RngStream(3),
                                     record_stride=stride)
        assert len(reps) == len(sigmas)
        for sigma, rep in zip(sigmas, reps):
            [alone] = simulate_coupled_over(ds, gamma, [sigma], steps, n_traj, RngStream(3),
                                            record_stride=stride)
            ref = coupled_reference(ds.Xbar, ds.Ybar, gamma, sigma, steps, n_traj,
                                    RngStream(3), record_stride=stride)
            tols = coupled_roundoff(ds, gamma, sigma, steps, n_traj, RngStream(3),
                                    record_stride=stride)
            assert same_bits(rep.times, ref["times"])
            for key, tol in zip(("eta_mean", "loss_integral_mean", "bound_rhs"), tols):
                assert same_bits(getattr(rep, key), getattr(alone, key)), key
                assert getattr(rep, key)[0] == 0.0, key
                assert np.all(np.abs(getattr(rep, key) - ref[key]) <= tol), key
            if sigma == 0:
                assert not rep.eta_mean.any() and not rep.bound_rhs.any()


class TestCoupledOver:
    def test_sigma_zero_coupling_is_exact(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(51))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        [rep] = simulate_coupled_over(ds, gamma=gamma, sigmas=[0.0], steps=200,
                                      n_traj=3, rng=RngStream(1))
        assert np.all(rep.eta_mean == 0.0)
        assert np.all(rep.bound_rhs == 0.0)

    def test_time_zero_row(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(52))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        [rep] = simulate_coupled_over(ds, gamma=gamma, sigmas=[0.4], steps=50,
                                      n_traj=2, rng=RngStream(2))
        assert rep.times[0] == 0.0
        assert rep.eta_mean[0] == 0.0
        assert rep.loss_integral_mean[0] == 0.0

    def test_deviation_bound_holds_with_slack(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(53))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        [rep] = simulate_coupled_over(ds, gamma=gamma, sigmas=[0.5], steps=400,
                                      n_traj=200, rng=RngStream(3))
        assert np.all(rep.eta_mean[1:] <= 1.1 * rep.bound_rhs[1:])

    def test_bound_rhs_column_consistent(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(55))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        [rep] = simulate_coupled_over(ds, gamma=gamma, sigmas=[0.3], steps=60,
                                      n_traj=4, rng=RngStream(4))
        want = np.array([eta_bound_rhs(gamma, ds.d, 0.3, li)
                         for li in rep.loss_integral_mean])
        assert np.allclose(rep.bound_rhs, want, rtol=1e-15, atol=0.0)

    def test_gamma_above_threshold_rejected(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(54))
        gamma = 1.5 / np.trace(ds.Xbar.T @ ds.Xbar)
        with pytest.raises(ValueError):
            simulate_coupled_over(ds, gamma=gamma, sigmas=[0.1], steps=10,
                                  n_traj=1, rng=RngStream(0))
        # a NaN or zero step would run and report NaN or all zeros
        for bad in (math.nan, 0.0):
            with pytest.raises(ValueError, match="gamma must be positive"):
                simulate_coupled_over(ds, gamma=bad, sigmas=[0.1], steps=10,
                                      n_traj=1, rng=RngStream(0))

    @pytest.mark.parametrize("sigmas", [[math.nan], [0.0, math.inf], [-0.1]])
    def test_bad_sigmas_rejected(self, sigmas):
        # sigma NaN would run its copy without noise and report eta 0
        ds = gen_sparse_regression(10, 20, 3, RngStream(54))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_coupled_over(ds, gamma=gamma, sigmas=sigmas, steps=10,
                                  n_traj=1, rng=RngStream(0))

    def test_array_sigmas_match_tuple_bitwise(self):
        # a numpy array of sigmas runs exactly as the same tuple does
        ds = gen_sparse_regression(10, 20, 3, RngStream(53))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        runs = [simulate_coupled_over(ds, gamma, sigmas, 20, 3, RngStream(3))
                for sigmas in ((0.0, 0.5), np.array([0.0, 0.5]))]
        for rep, rep_a in zip(*runs):
            for key in ("times", "eta_mean", "loss_integral_mean", "bound_rhs"):
                assert same_bits(getattr(rep, key), getattr(rep_a, key)), key

    def test_diverging_copy_names_its_sigma_and_step(self):
        # the sigma-30 copy's loss integral first leaves the finite range at
        # step 242; a record grid of stride 10 first sees it at step 250. The
        # ValueError is the only report: warnings are errors here
        ds = gen_sparse_regression(10, 20, 3, RngStream(53))
        gamma = 1.0 / np.trace(ds.Xbar.T @ ds.Xbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps = simulate_coupled_over(ds, gamma, [0.0, 30.0], 241, 3, RngStream(3))
            assert np.isfinite(reps[1].loss_integral_mean).all()
            for stride, step in ((1, 242), (10, 250)):
                with pytest.raises(ValueError, match=f"sigma 30 copy .* at step {step}$"):
                    simulate_coupled_over(ds, gamma, [0.0, 30.0], 400, 3, RngStream(3),
                                          record_stride=stride)

    def test_underparam_rejected(self):
        ds = gen_underparam_regression(20, 3, 0.1, RngStream(6))
        with pytest.raises(ValueError):
            simulate_coupled_over(ds, gamma=0.01, sigmas=[0.1], steps=10,
                                  n_traj=1, rng=RngStream(0))


class TestEtaBoundRhs:
    def test_zero_noise(self):
        assert eta_bound_rhs(0.1, 10, 0.0, 5.0) == 0.0

    def test_arithmetic(self):
        assert eta_bound_rhs(0.1, 10, 1.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_random_tuples(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = rng.uniform(0.01, 1)
            d = int(rng.integers(1, 30))
            s = rng.uniform(0, 2)
            li = rng.uniform(0, 10)
            assert eta_bound_rhs(g, d, s, li) == pytest.approx(g * d * s * s * li, rel=1e-14)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            eta_bound_rhs(-0.1, 10, 1.0, 2.0)
        with pytest.raises(ValueError):
            eta_bound_rhs(math.nan, 10, 1.0, 2.0)

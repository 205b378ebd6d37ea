"""Potential geometry and the constrained limit solver.

The closed forms here are small enough to check against finite differences
and two frozen scalars; the solver checks are exact KKT statements on seeded
instances rather than golden outputs.
"""

import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselab import (
    ConvergenceError,
    Dataset,
    PotentialParams,
    RngStream,
    bregman,
    bundled_config,
    default_step_size,
    effective_alpha,
    gen_sparse_regression,
    min_norm_solve,
    mu_bound,
    phi_grad,
    phi_grad_inverse,
    phi_hessian_diag,
    phi_value,
    prop3_check,
    row_space_projector,
    simulate_dln_sde_ensemble,
    solve_tilted,
    solve_tilted_ensemble,
)
from noiselab.harness import _dataset_for
from oracles import QUARTER_ASINH_ONE, TWO_SINH_ONE, fd_grad, tilted_reference


UNIT = PotentialParams(alpha=np.array([1.0]))


def test_frozen_gradient_point():
    # beta = 2, alpha = 1: grad = (1/4) asinh(1)
    g = phi_grad(np.array([2.0]), UNIT)
    assert abs(g[0] - QUARTER_ASINH_ONE) < 1e-15


def test_frozen_inverse_point():
    # u = 1/4, alpha = 1: inverse map gives 2 sinh(1)
    b = phi_grad_inverse(np.array([0.25]), UNIT)
    assert abs(b[0] - TWO_SINH_ONE) < 1e-14


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    alpha = PotentialParams(alpha=rng.uniform(0.05, 1.5, 6))
    beta = rng.standard_normal(6) * 2.0
    num = fd_grad(lambda b: phi_value(b, alpha), beta)
    ana = phi_grad(beta, alpha)
    assert np.abs(num - ana).max() <= 1e-6 * max(1.0, np.abs(ana).max())


def test_hessian_matches_grad_differences():
    rng = np.random.default_rng(11)
    alpha = PotentialParams(alpha=rng.uniform(0.1, 1.0, 4))
    beta = rng.standard_normal(4)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        num = (phi_grad(beta + e, alpha)[i] - phi_grad(beta - e, alpha)[i]) / (2 * h)
        assert abs(num - phi_hessian_diag(beta, alpha)[i]) < 1e-7


def test_grad_inverse_roundtrip():
    rng = np.random.default_rng(12)
    alpha = PotentialParams(alpha=rng.uniform(0.05, 2.0, 8))
    beta = rng.standard_normal(8) * 3.0
    back = phi_grad_inverse(phi_grad(beta, alpha), alpha)
    assert np.abs(back - beta).max() <= 1e-12 * max(1.0, np.abs(beta).max())


def test_grad_is_odd_and_monotone():
    alpha = PotentialParams(alpha=np.array([0.3]))
    bs = np.linspace(-4, 4, 41)
    gs = np.array([phi_grad(np.array([b]), alpha)[0] for b in bs])
    assert np.allclose(gs, -gs[::-1], atol=1e-15)
    assert np.all(np.diff(gs) > 0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_bregman_nonnegative(seed):
    rng = np.random.default_rng(seed)
    alpha = PotentialParams(alpha=rng.uniform(0.05, 1.5, 5))
    x = rng.standard_normal(5) * 2
    y = rng.standard_normal(5) * 2
    assert bregman(x, y, alpha) >= -1e-12


def test_bregman_zero_at_equal_points():
    alpha = PotentialParams(alpha=np.array([0.5, 0.2, 1.0]))
    x = np.array([1.0, -2.0, 0.3])
    assert abs(bregman(x, x, alpha)) < 1e-15


def test_mu_bound_formula_and_validity():
    alpha = PotentialParams(alpha=np.array([0.1, 0.5]))
    r = 2.0
    mu = mu_bound(alpha, r)
    assert np.isclose(mu, 1.0 / (4.0 * np.sqrt(r * r + 4 * 0.5**4)), rtol=1e-12)
    # a true lower bound for the hessian anywhere inside the ball
    for b in np.linspace(-r, r, 17):
        h = phi_hessian_diag(np.array([b, b]), alpha)
        assert np.all(h >= mu - 1e-15)


def test_prop3_check_report():
    lhs, rhs, ok = prop3_check(np.zeros(3), np.array([1.0, 0, 0]), np.array([0.5, 0, 0]), 0.25)
    assert np.isclose(lhs, 2.0)
    assert np.isclose(rhs, 1.0)
    assert ok


def test_potential_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(alpha=np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        PotentialParams(alpha=np.array([]))
    assert PotentialParams(alpha=np.array([0.3])).broadcast(4).shape == (4,)


class TestSolveTilted:
    def setup_method(self):
        self.ds = gen_sparse_regression(10, 25, 3, RngStream(41))

    def test_untilted_kkt(self):
        beta = solve_tilted(self.ds, PotentialParams(alpha=np.array([0.1])))
        r = self.ds.Xbar @ beta - self.ds.Ybar
        assert 0.5 * float(r @ r) <= 1e-12
        P = row_space_projector(self.ds.X)
        g = phi_grad(beta, PotentialParams(alpha=np.full(self.ds.d, 0.1)))
        assert np.linalg.norm(g - P @ g) <= 1e-6

    def test_tilted_kkt(self):
        tilt = 0.05 * RngStream(5).normal(self.ds.d)
        alpha = PotentialParams(alpha=np.array([0.2]))
        beta = solve_tilted(self.ds, alpha, tilt=tilt)
        P = row_space_projector(self.ds.X)
        g = phi_grad(beta, alpha) - tilt
        assert np.linalg.norm(g - P @ g) <= 1e-6
        assert np.max(np.abs(self.ds.X @ beta - self.ds.Y)) <= 1e-4

    def test_large_alpha_recovers_min_norm(self):
        beta = solve_tilted(self.ds, PotentialParams(alpha=np.array([100.0])))
        ref = min_norm_solve(self.ds.X, self.ds.Y)
        assert np.linalg.norm(beta - ref) <= 1e-2 * np.linalg.norm(ref)

    def test_small_alpha_is_sparser(self):
        d_at = {}
        for a in (0.1, 0.01):
            beta = solve_tilted(self.ds, PotentialParams(alpha=np.array([a])))
            d_at[a] = np.linalg.norm(beta - self.ds.beta_star)
        assert d_at[0.01] <= d_at[0.1] + 1e-6

    def test_budget_exhaustion_reports_diagnostics(self):
        with pytest.raises(ConvergenceError) as err:
            solve_tilted(self.ds, PotentialParams(alpha=np.array([0.1])), max_iters=3)
        assert err.value.loss > 0
        assert err.value.beta.shape == (self.ds.d,)


@contextmanager
def time_limit(seconds):
    """Fail the enclosed block with TimeoutError once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def solve_reference(ds, a, tilt, tol):
    """The sequential mirror-descent oracle on one problem, with its full budget."""
    a = np.broadcast_to(np.asarray(a, dtype=float), (ds.d,))
    tilt = np.zeros(ds.d) if tilt is None else tilt
    return tilted_reference(ds.Xbar, ds.Ybar, row_space_projector(ds.X),
                            default_step_size(ds), a, tilt, 1_000_000, tol)


def oracle_accuracy(ds, a, beta, ref, tol):
    """Largest distance between two points that both pass the solvers' test on
    one limit problem, loss (1/2)||Xbar b - Ybar||^2 <= tol and KKT residual
    ||(I - P)(phi'(b) - tilt)|| <= 1e-6: the accuracy the oracle promises at tol.

    phi'(beta) - phi'(ref) = H (beta - ref) with H the diagonal of phi'' at
    points between the two (mean value theorem per coordinate), so
    h_min <= H <= h_max, where h_max = 1 / (8 min a^2) and, with R the larger
    sup norm of the two points, h_min = 1 / (4 sqrt(R^2 + 4 max a^4)). Both
    points meet the KKT test, so phi'(beta) - phi'(ref) = Xbar^T w + e with
    ||e|| <= 2e-6 and e orthogonal to the row span; both meet the loss test,
    so rho = Xbar (beta - ref) has ||rho|| <= 2 sqrt(2 tol). Eliminating w:
    ||beta - ref|| <= sqrt(h_max / h_min) ||rho|| / s_min(Xbar) + ||e|| / h_min.
    """
    a = np.broadcast_to(np.asarray(a, dtype=float), (ds.d,))
    radius = max(np.abs(beta).max(), np.abs(ref).max())
    h_max = 1.0 / (8.0 * np.min(a) ** 2)
    h_min = 1.0 / (4.0 * np.sqrt(radius**2 + 4.0 * np.max(a) ** 4))
    s_min = np.linalg.svd(ds.Xbar, compute_uv=False)[-1]
    return np.sqrt(h_max / h_min) * 2.0 * np.sqrt(2.0 * tol) / s_min + 2e-6 / h_min


def assert_same_row(got, lone):
    """Bitwise equality of an ensemble row and its problem solved alone."""
    if isinstance(lone, ConvergenceError):
        assert isinstance(got, ConvergenceError)
        assert (str(got), got.loss, got.kkt_residual) == (str(lone), lone.loss, lone.kkt_residual)
        assert got.beta.tobytes() == lone.beta.tobytes()
    else:
        assert not isinstance(got, ConvergenceError), str(got)
        assert got.tobytes() == lone.tobytes()


class TestSolveTiltedEnsemble:
    """Every row of an ensemble is bitwise its problem solved alone (beta, or
    the failure's message, beta, loss and KKT residual), and every converged
    row lies within the mirror-descent oracle's own accuracy of the oracle."""

    def test_bundled_limit_problems(self):
        # decayed scales a_inf read off bundled limit_distance runs, as the
        # limit pipeline builds them
        cfg = bundled_config("limit_distance")
        ds = _dataset_for(cfg)
        gamma = default_step_size(ds)
        alphas = []
        for sigma in (0.0, 0.5):
            trajs = simulate_dln_sde_ensemble(
                ds, cfg.alpha0, [sigma] * 2, gamma, gamma, cfg.steps,
                [RngStream(cfg.seed_base + i) for i in range(2)])
            for traj in trajs:
                li = traj.meta["final_state"].loss_integral
                alphas.append(effective_alpha(cfg.alpha0, ds, gamma, sigma, li))
        assert len({a.tobytes() for a in alphas}) == 4
        out = solve_tilted_ensemble(ds, [PotentialParams(a) for a in alphas],
                                    [None] * len(alphas))
        for a, got in zip(alphas, out):
            assert_same_row(got, solve_tilted(ds, PotentialParams(a)))
            ref = solve_reference(ds, a, None, 1e-12)
            assert np.linalg.norm(got - ref) <= oracle_accuracy(ds, a, got, ref, 1e-12)

    def test_mixed_rows(self):
        # Rows that converge untilted and tilted, alpha 50 (one Newton step),
        # alpha 0.01 (cosh overflows in its line search; warnings are errors,
        # so those trials must stay silent), a start point that overflows and
        # alpha 1e-6, which needs more Newton steps than the budget. The
        # failing rows hold none of the others back.
        ds = gen_sparse_regression(10, 20, 3, RngStream(1))
        wave = np.sin(np.arange(20.0))
        overflow = np.zeros(20)
        overflow[0] = 200.0
        rows = [(0.1, None), (1.0, 1.0 * wave), (50.0, None), (0.1, overflow),
                (0.2, 0.3 * wave), (0.1, 3.0 * wave), (0.01, None), (1e-6, None)]
        max_iters, tol = 10, 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve_tilted_ensemble(ds, [PotentialParams(a) for a, _ in rows],
                                        [t for _, t in rows], max_iters, tol)
            for (a, tilt), got in zip(rows, out):
                assert_same_row(got, solve_tilted_ensemble(
                    ds, [PotentialParams(a)], [tilt], max_iters, tol)[0])
        start, budget = out[3], out[7]
        assert "start point" in str(start) and start.loss == np.inf
        assert not np.all(np.isfinite(start.beta))
        assert str(budget).endswith("after 10 Newton steps, above tol 1.0e-12")
        assert budget.loss > tol and np.all(np.isfinite(budget.beta))
        for (a, tilt), got in zip(rows[:3] + rows[4:7], out[:3] + out[4:7]):
            ref = solve_reference(ds, a, tilt, tol)
            assert np.linalg.norm(got - ref) <= oracle_accuracy(ds, a, got, ref, tol)

    def test_overflowing_start_fails_at_once(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(1))
        tilt = np.zeros(20)
        tilt[0] = 200.0
        with time_limit(10):
            with pytest.raises(ConvergenceError, match="start point") as err:
                solve_tilted(ds, PotentialParams(0.1), tilt=tilt, max_iters=1000)
        assert err.value.loss == np.inf

    def test_tol_below_the_roundoff_floor_fails_fast(self):
        # the loss of this problem cannot fall below about 1e-32 in float64, so
        # the solver must notice that its steps stopped helping long before
        # its budget is spent
        ds = gen_sparse_regression(10, 20, 3, RngStream(1))
        with time_limit(2):
            with pytest.raises(ConvergenceError, match="roundoff floor") as err:
                solve_tilted(ds, PotentialParams(0.1), tol=1e-40)
        assert 1e-40 < err.value.loss < 1e-28
        assert f"{err.value.loss:.3e}" in str(err.value)

    def test_armijo_fall_keeps_its_digits_at_default_tol(self):
        # D's fall taken as cosh 4u - cosh 4u0 cancels to roundoff at large
        # alpha, and this problem used to fail at loss 9.072e-12 with a false
        # "roundoff floor"; as a product of sinh factors it converges
        ds = gen_sparse_regression(40, 100, 5, RngStream(100))
        beta = solve_tilted(ds, PotentialParams(10.0))
        r = ds.Xbar @ beta - ds.Ybar
        assert 0.5 * float(r @ r) < 1e-28

    def test_no_false_roundoff_floor_above_1e_27(self):
        # 17 of these 60 problems used to stop on a false roundoff floor at
        # tol 1e-27; none reaches its true floor (about 1e-31) above tol
        alphas = [PotentialParams(a) for a in (1e-3, 1e-2, 0.1, 1.0, 10.0, 50.0)]
        for seed in range(100, 110):
            ds = gen_sparse_regression(40, 100, 5, RngStream(seed))
            for got in solve_tilted_ensemble(ds, alphas, [None] * 6, tol=1e-27):
                assert not isinstance(got, ConvergenceError), (seed, str(got))

    def test_rank_deficient_design_rejected(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(1))
        dup = Dataset(X=np.vstack([ds.X, ds.X[:1]]), Y=np.append(ds.Y, ds.Y[0]),
                      beta_star=ds.beta_star)
        with pytest.raises(ValueError, match="rank 10 < n = 11"):
            solve_tilted(dup, PotentialParams(0.1))

    def test_empty_and_zero_budget(self):
        ds = gen_sparse_regression(10, 20, 3, RngStream(1))
        assert solve_tilted_ensemble(ds, [], []) == []
        # no Newton step: the row fails at its start point beta(0) = 0
        got = solve_tilted_ensemble(ds, [PotentialParams(0.1)], [None], max_iters=0)[0]
        assert isinstance(got, ConvergenceError)
        assert str(got).endswith("after 0 Newton steps, above tol 1.0e-12")
        assert not got.beta.any()
        assert got.loss == pytest.approx(0.5 * float(ds.Ybar @ ds.Ybar), rel=1e-15)
        with pytest.raises(ConvergenceError) as err:
            solve_tilted(ds, PotentialParams(0.1), max_iters=0)
        assert_same_row(got, err.value)
        # a start point that meets tol needs no step
        beta = solve_tilted(ds, PotentialParams(0.1), max_iters=0, tol=got.loss)
        assert beta.tobytes() == got.beta.tobytes()

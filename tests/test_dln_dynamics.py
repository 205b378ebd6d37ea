"""Diagonal linear network updates, their SDE integrator, and the scale laws."""

import math

import numpy as np
import pytest

from noiselab import (
    Dataset,
    DivergenceError,
    DlnState,
    OptimizerConfig,
    RngStream,
    Trajectory,
    default_step_size,
    dln_init,
    dln_loss,
    effective_alpha,
    gen_sparse_regression,
    row_space_projector,
    run_dln_discrete,
    run_dln_discrete_ensemble,
    simulate_dln_sde,
    simulate_dln_sde_ensemble,
)
from noiselab import dln_dynamics
from oracles import QUARTER_ASINH_ONE, Diverged, discrete_step_reference, sde_reference


def tiny_instance(seed=3):
    """Overparametrized instance with a small planted two-sparse vector.

    The norm is kept well under 1 so single-sample runs at the default step
    size converge on every seed used below.
    """
    rng = RngStream(seed)
    X = rng.normal((6, 10))
    beta_star = np.zeros(10)
    beta_star[1] = 0.6
    beta_star[5] = -0.45
    return Dataset(X=X, Y=X @ beta_star, beta_star=beta_star)


class TestDlnInit:
    def test_scalar_broadcast(self):
        st = dln_init(0.1, 4)
        assert np.array_equal(st.w_plus, np.full(4, 0.1))
        assert np.array_equal(st.w_minus, np.full(4, 0.1))
        assert np.array_equal(st.beta(), np.zeros(4))

    def test_vector_alpha(self):
        a = np.array([0.1, 0.2, 0.3])
        st = dln_init(a, 3)
        assert np.array_equal(st.w_plus, a)
        st.w_plus[0] = 9.0
        assert a[0] == 0.1  # init must copy, not alias

    def test_rejections(self):
        with pytest.raises(ValueError):
            dln_init(0.0, 3)
        with pytest.raises(ValueError):
            dln_init(np.array([0.1, -0.2]), 2)
        with pytest.raises(ValueError):
            dln_init(np.ones(5), 3)

    def test_state_shape_mismatch(self):
        with pytest.raises(ValueError):
            DlnState(w_plus=np.ones(3), w_minus=np.ones(4))


class TestDlnLoss:
    def test_matches_normalized_risk(self):
        ds = tiny_instance()
        beta = RngStream(8).normal(10)
        res = ds.X @ beta - ds.Y
        assert dln_loss(beta, ds) == pytest.approx(float(res @ res) / (2 * ds.n), rel=1e-14)

    def test_zero_at_planted_vector(self):
        ds = tiny_instance()
        assert dln_loss(ds.beta_star, ds) <= 1e-28

    def test_shape_mismatch(self):
        ds = tiny_instance()
        with pytest.raises(ValueError):
            dln_loss(np.ones(4), ds)


class TestDiscreteStep:
    def test_gd_multiplier_formula(self):
        ds = tiny_instance()
        gamma = 0.05
        st = dln_init(0.3, ds.d)
        out, _ = run_dln_discrete(ds, 0.3, OptimizerConfig(kind="GD", gamma=gamma), 1,
                                  RngStream(0), early_stop=False)
        beta = st.beta()
        a = ds.Xbar.T @ (ds.Xbar @ beta - ds.Ybar)
        assert np.allclose(out.w_plus, st.w_plus * (1 - 2 * gamma * a), rtol=1e-15)
        assert np.allclose(out.w_minus, st.w_minus * (1 + 2 * gamma * a), rtol=1e-15)

    def test_gd_ignores_rng(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="GD", gamma=0.05)
        a, _ = run_dln_discrete(ds, 0.3, cfg, 1, RngStream(1), early_stop=False)
        b, _ = run_dln_discrete(ds, 0.3, cfg, 1, RngStream(2), early_stop=False)
        assert np.array_equal(a.w_plus, b.w_plus)

    def test_single_sample_gradient(self):
        # batch of one: the drawn row scaled by its denormalized residual
        ds = tiny_instance()
        gamma = 0.05
        st = dln_init(0.3, ds.d)
        probe = RngStream(42)
        out, _ = run_dln_discrete(ds, 0.3, OptimizerConfig(kind="SGD", gamma=gamma, batch=1),
                                  1, RngStream(42), early_stop=False)
        i = int(probe._gen.choice(ds.n, 1, replace=False)[0])
        beta = st.beta()
        res_i = float(ds.X[i] @ beta - ds.Y[i])
        a = ds.X[i] * res_i
        assert np.allclose(out.w_plus, st.w_plus * (1 - 2 * gamma * a), rtol=1e-12)

    def test_noisy_full_batch_multipliers(self):
        # batch = n draws no indices, so the two Gaussians are the whole stream
        ds = tiny_instance()
        gamma, sigma = 0.05, 0.4
        st = dln_init(0.3, ds.d)
        probe = RngStream(11)
        z_p = probe.normal(ds.d)
        z_m = probe.normal(ds.d)
        cfg = OptimizerConfig(kind="NoisySGD", gamma=gamma, sigma=sigma, batch=ds.n)
        out, _ = run_dln_discrete(ds, 0.3, cfg, 1, RngStream(11), early_stop=False)
        beta = st.beta()
        loss = dln_loss(beta, ds)
        a = ds.Xbar.T @ (ds.Xbar @ beta - ds.Ybar)
        sigma_t = 2 * sigma * math.sqrt(loss)
        want_p = st.w_plus * (1 - 2 * gamma * a + gamma * sigma_t * z_p)
        want_m = st.w_minus * (1 + 2 * gamma * a - gamma * sigma_t * z_m)
        assert np.allclose(out.w_plus, want_p, rtol=1e-13)
        assert np.allclose(out.w_minus, want_m, rtol=1e-13)

    def test_noisy_sigma_zero_equals_sgd(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        a, _ = run_dln_discrete(ds, 0.2, OptimizerConfig(kind="SGD", gamma=g, batch=1), 60,
                                RngStream(9), early_stop=False)
        b, _ = run_dln_discrete(ds, 0.2, OptimizerConfig(kind="NoisySGD", gamma=g,
                                                         sigma=0.0, batch=1), 60,
                                RngStream(9), early_stop=False)
        assert np.array_equal(a.w_plus, b.w_plus)
        assert np.array_equal(a.w_minus, b.w_minus)

    def test_loss_integral_one_step(self):
        ds = tiny_instance()
        gamma = 0.05
        st = dln_init(0.3, ds.d)
        loss0 = dln_loss(st.beta(), ds)
        out, _ = run_dln_discrete(ds, 0.3, OptimizerConfig(kind="GD", gamma=gamma), 1,
                                  RngStream(0), early_stop=False)
        assert out.loss_integral == pytest.approx(gamma * loss0, rel=1e-14)
        assert out.step == 1
        assert out.time == pytest.approx(gamma)

    def test_dpsgd_unsupported(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="DPSGD", gamma=0.05, clip=1.0)
        with pytest.raises(ValueError):
            run_dln_discrete(ds, 0.1, cfg, 1, RngStream(0), early_stop=False)

    def test_batch_too_large(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="SGD", gamma=0.05, batch=7)
        with pytest.raises(ValueError):
            run_dln_discrete(ds, 0.1, cfg, 1, RngStream(0), early_stop=False)

    def test_divergence_carries_step(self):
        # gamma far above stability: multipliers grow until a weight overflows
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="GD", gamma=50.0)
        with pytest.raises(DivergenceError) as exc:
            run_dln_discrete(ds, 1.0, cfg, 10_000, RngStream(0))
        assert exc.value.step >= 0

    def test_final_loss_overflow_fails_at_budget(self):
        # after 6 GD steps the weights are finite (w_+ near -5e95) but the
        # loss of the final iterate overflows: the run fails at step 6, as it
        # does when a seventh step judges that loss before stepping
        ds = gen_sparse_regression(1, 1, 1, RngStream(1))
        cfg = OptimizerConfig(kind="GD", gamma=default_step_size(ds))
        st, _ = run_dln_discrete(ds, 1.0, cfg, 5, RngStream(0), record_stride=1)
        assert math.isfinite(dln_loss(st.beta(), ds))
        for steps in (6, 7):
            with pytest.raises(DivergenceError) as exc:
                run_dln_discrete(ds, 1.0, cfg, steps, RngStream(0), record_stride=1)
            assert exc.value.step == 6


class TestDriver:
    def test_driver_matches_manual_loop(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        cfg = OptimizerConfig(kind="NoisySGD", gamma=g, sigma=0.3, batch=1)
        st, traj = run_dln_discrete(ds, 0.2, cfg, 57, RngStream(14), early_stop=False)
        manual = start_state(ds, 0.2)
        rng = RngStream(14)
        for _ in range(57):
            manual = reference_step(ds, manual, cfg, rng)
        assert np.array_equal(st.w_plus, manual.w_plus)
        assert np.array_equal(st.w_minus, manual.w_minus)
        assert st.loss_integral == manual.loss_integral

    def test_trajectory_rows(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="GD", gamma=0.02)
        st, traj = run_dln_discrete(ds, 0.2, cfg,
                                    25, RngStream(0), record_stride=10, early_stop=False)
        t = traj.column("t")
        assert t[0] == 0.0
        assert len(t) == 4  # steps 0, 10, 20 plus the final iterate
        assert t[-1] == pytest.approx(25 * 0.02)

    def test_early_stop_on_interpolation(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        cfg = OptimizerConfig(kind="SGD", gamma=g, batch=1)
        st, traj = run_dln_discrete(ds, 0.2, cfg, 200_000, RngStream(5))
        assert traj.meta["converged"]
        assert traj.meta["steps_run"] < 200_000
        assert dln_loss(st.beta(), ds) <= 1e-10

    def test_sgd_converges_across_seeds(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        cfg = OptimizerConfig(kind="NoisySGD", gamma=g, sigma=0.25, batch=1)
        hits = 0
        for seed in range(8):
            st, traj = run_dln_discrete(ds, 0.2, cfg, 200_000, RngStream(100 + seed))
            hits += dln_loss(st.beta(), ds) <= 1e-8
        assert hits >= 7


def start_state(ds, alpha):
    """w_+ = w_- = alpha, built in plain numpy for the reference."""
    w = np.broadcast_to(np.asarray(alpha, dtype=float), (ds.d,))
    return DlnState(w_plus=w.copy(), w_minus=w.copy())


def reference_step(ds, state, cfg, rng):
    """discrete_step_reference on a DlnState; divergence raises DivergenceError."""
    try:
        out = discrete_step_reference(ds.X, ds.Y, ds.Xbar, ds.Ybar, vars(state), cfg.kind,
                                      cfg.gamma, cfg.sigma, cfg.batch, rng)
    except Diverged as exc:
        raise DivergenceError(exc.step) from None
    return DlnState(**out)


def sequential_discrete(ds, alpha, cfg, seed, steps, record_stride, early_stop=True):
    """The discrete loop's contract, built by iterating discrete_step_reference
    from alpha on the stream RngStream(seed).

    Returns (rows, step indices, final state, converged, steps run); a
    diverging step, or a final iterate whose loss is not finite, raises its
    DivergenceError.
    """
    state, rng = start_state(ds, alpha), RngStream(seed)
    rows, rec = [], []

    def record(st):
        beta = st.beta()
        diff = beta - ds.beta_star
        rows.append(tuple(float(v) for v in (st.time, dln_loss(beta, ds), diff @ diff)))
        rec.append(st.step)

    streak, done, stopped = 0, 0, False
    for k in range(steps):
        prev = state
        loss = dln_loss(prev.beta(), ds)
        state = reference_step(ds, prev, cfg, rng)
        if k % record_stride == 0:
            record(prev)
        done = k + 1
        if early_stop:
            streak = streak + 1 if loss <= 1e-12 else 0
            if streak >= 100:
                stopped = True
                break
    if not math.isfinite(dln_loss(state.beta(), ds)):
        raise DivergenceError(done)
    record(state)
    return rows, rec, state, stopped, done


def assert_same_discrete(traj, ref):
    rows, rec, state, stopped, done = ref
    assert traj.rows == rows
    assert traj.meta["steps"] == rec
    st = traj.meta["final_state"]
    assert np.array_equal(st.w_plus, state.w_plus)
    assert np.array_equal(st.w_minus, state.w_minus)
    assert np.array_equal(st.r_acc, state.r_acc)
    assert (st.step, st.time, st.loss_integral) == (
        state.step, state.time, state.loss_integral)
    assert traj.meta["converged"] == stopped
    assert traj.meta["steps_run"] == done


def grid_runs(ds, batch, kinds=("GD", "SGD", "NoisySGD"), sigmas=(0.0, 0.3),
              seeds=(1, 2)):
    """(optimizer config, stream seed) of every run of a kind x sigma x seed grid."""
    g = default_step_size(ds)
    return [(OptimizerConfig(kind=kind, gamma=g, sigma=sigma, batch=batch), seed)
            for kind in kinds for sigma in sigmas for seed in seeds]


def run_grid(ds, alpha, runs, steps, **kw):
    return run_dln_discrete_ensemble(ds, alpha, [cfg for cfg, _ in runs],
                                     [RngStream(seed) for _, seed in runs], steps, **kw)


# per-coordinate start scales for the tiny instance's 10 coordinates
VECTOR_ALPHA = np.linspace(0.1, 0.25, 10)


class TestDiscreteEnsemble:
    # budgets chosen so that, with early stop, rows stop at several different
    # steps while at least one row runs out of steps; stride "stop" is the
    # steps_run of a stopped row, so that row stops exactly on the record grid.
    # The "mixed-order" grid puts the GD rows between minibatch rows and the
    # noise-free rows after noisy ones, in the caller's order.
    @pytest.mark.parametrize("batch,steps,stride,alpha,grid", [
        pytest.param(1, 5500, 50, 0.2, {}, id="1-5500"),
        pytest.param(4, 3160, 50, 0.2, {}, id="4-3160"),
        pytest.param(1, 5500, "stop", 0.2, {}, id="1-5500-stop"),
        pytest.param(4, 3160, "stop", 0.2, {}, id="4-3160-stop"),
        pytest.param(1, 5500, 50, VECTOR_ALPHA, {}, id="1-5500-vector-alpha"),
        pytest.param(4, 3160, 50, 0.2,
                     dict(kinds=("NoisySGD", "GD", "SGD"), sigmas=(0.3, 0.0)),
                     id="4-3160-mixed-order")])
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_rows_match_sequential_steps(self, batch, steps, stride, alpha, grid,
                                         early_stop):
        ds = tiny_instance()
        runs = grid_runs(ds, batch, **grid)
        if stride == "stop":
            first = run_grid(ds, alpha, runs, steps, record_stride=50)
            stride = next(t.meta["steps_run"] for t in first if t.meta["converged"])
        out = run_grid(ds, alpha, runs, steps, record_stride=stride, early_stop=early_stop)
        assert len(out) == 12
        for traj, (cfg, seed) in zip(out, runs):
            assert_same_discrete(traj, sequential_discrete(ds, alpha, cfg, seed, steps,
                                                           stride, early_stop))
        stops = {t.meta["steps_run"] for t in out if t.meta["converged"]}
        if early_stop:
            assert len(stops) >= 3
            assert not all(t.meta["converged"] for t in out)
        else:
            assert stops == set()

    def test_every_row_reports_its_own_outcome(self):
        # row 1 diverges at step 72, row 2 already at step 11: each failed
        # row carries its own run's error, and the rows around them, row 3
        # after both included, are bitwise their runs alone
        ds = tiny_instance()
        runs = (grid_runs(ds, 1, kinds=("SGD",), sigmas=(0.0,), seeds=(1,))
                + grid_runs(ds, 1, kinds=("NoisySGD",), sigmas=(3.0,), seeds=(1, 0))
                + grid_runs(ds, 1, kinds=("SGD",), sigmas=(0.0,), seeds=(2,)))
        out = run_grid(ds, 0.2, runs, 300, record_stride=50)
        assert len(out) == len(runs)
        steps = []
        for traj, (cfg, seed) in zip(out, runs):
            try:
                ref = sequential_discrete(ds, 0.2, cfg, seed, 300, 50)
            except DivergenceError as exc:
                assert isinstance(traj, DivergenceError) and traj.step == exc.step
                with pytest.raises(DivergenceError) as alone:
                    run_dln_discrete(ds, 0.2, cfg, 300, RngStream(seed))
                assert alone.value.step == exc.step
                steps.append(exc.step)
            else:
                assert_same_discrete(traj, ref)
        assert [isinstance(t, DivergenceError) for t in out] == [False, True, True, False]
        assert steps[1] < steps[0]

    def test_rows_must_share_gamma_and_batch(self):
        ds = tiny_instance()
        runs = grid_runs(ds, 1, kinds=("SGD",), sigmas=(0.0,)) + grid_runs(ds, 4)
        with pytest.raises(ValueError):
            run_grid(ds, 0.2, runs, 10)
        cfgs = [cfg for cfg, _ in grid_runs(ds, 1)]
        with pytest.raises(ValueError, match="one stream per"):
            run_dln_discrete_ensemble(ds, 0.2, cfgs, [RngStream(0)] * (len(cfgs) - 1), 10)
        # a zero stride is refused before any step, not at the first record
        for stride in (0, -1):
            with pytest.raises(ValueError, match="record_stride"):
                run_dln_discrete_ensemble(ds, 0.2, cfgs, [RngStream(0)] * len(cfgs), 10,
                                          record_stride=stride)
        # a negative step count is refused, not run as zero steps
        with pytest.raises(ValueError, match="nonnegative steps"):
            run_dln_discrete_ensemble(ds, 0.2, cfgs, [RngStream(0)] * len(cfgs), -5)
        with pytest.raises(ValueError, match="nonnegative steps"):
            run_dln_discrete(ds, 0.2, cfgs[0], -5, RngStream(0))


def sde_oracle(ds, alpha, sigma, gamma, h, steps, seed, stride, early_stop=True):
    return sde_reference(ds.Xbar, ds.Ybar, ds.beta_star, row_space_projector(ds.X),
                         alpha, sigma, gamma, h, steps, RngStream(seed), stride,
                         early_stop)


def r_acc_rel_error(got, want):
    """Relative Euclidean error of an r_acc; 0 where both are zero."""
    err = float(np.linalg.norm(got - want))
    return err / float(np.linalg.norm(want)) if err else 0.0


def assert_same_sde(traj, ref):
    assert traj.rows == ref["rows"]
    assert traj.meta["steps"] == ref["steps"]
    assert len(traj.meta["checkpoints"]) == len(ref["checkpoints"])
    for got, want in zip(traj.meta["checkpoints"], ref["checkpoints"]):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
    st = traj.meta["final_state"]
    for key in ("w_plus", "w_minus"):
        assert np.array_equal(getattr(st, key), ref[key]), key
    # r_acc is (1/2)(I - P) delta, taken once; the oracle sums it step by step
    assert r_acc_rel_error(st.r_acc, ref["r_acc"]) <= 1e-12
    assert np.array_equal(traj.meta["eta"], ref["eta"])
    assert np.array_equal(traj.meta["delta"], ref["delta"])
    assert st.loss_integral == ref["loss_integral"]
    assert traj.meta["converged"] == ref["converged"]
    assert traj.meta["steps_run"] == ref["steps_run"] == st.step


class TestSdeEnsemble:
    # the runs converge after about 3300 to 3700 steps; stride "stop" is
    # the steps_run of row 0: its early stop, or else the
    # whole budget of 4000 steps, falls on the record grid
    @pytest.mark.parametrize("sigma,stride", [
        pytest.param(0.0, 70, id="0.0"), pytest.param(0.5, 70, id="0.5"),
        pytest.param(0.0, "stop", id="0.0-stop"), pytest.param(0.5, "stop", id="0.5-stop")])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_rows_match_sequential_loop(self, sigma, stride, early_stop):
        ds = tiny_instance()
        g = default_step_size(ds)
        seeds = (0, 1, 2, 3)

        def ensemble(stride):
            return simulate_dln_sde_ensemble(ds, 0.2, [sigma] * len(seeds), g, g,
                                             4000, [RngStream(s) for s in seeds],
                                             record_stride=stride, early_stop=early_stop)

        if stride == "stop":
            stride = ensemble(70)[0].meta["steps_run"]
        out = ensemble(stride)
        assert len(out) == len(seeds)
        for traj, seed in zip(out, seeds):
            assert_same_sde(traj, sde_oracle(ds, 0.2, sigma, g, g, 4000, seed, stride,
                                             early_stop))
        if early_stop:
            assert len({t.meta["steps_run"] for t in out}) == len(seeds)
            assert all(t.meta["converged"] for t in out)
        if sigma > 0:
            assert np.linalg.norm(out[0].meta["final_state"].r_acc) > 0

    def test_every_row_reports_its_own_outcome(self):
        # at h = 10 gamma seed 7 diverges at step 1443 and seed 1 at step 2:
        # each failed row carries its own run's step, whatever the order
        ds = tiny_instance()
        g = default_step_size(ds)
        seeds = (0, 7, 1)
        refs = []
        for seed in seeds:
            try:
                refs.append(sde_oracle(ds, 0.2, 0.5, g, 10 * g, 2000, seed, 100))
            except Diverged as exc:
                refs.append(exc.step)
        assert isinstance(refs[0], dict) and refs[2] < refs[1]
        out = simulate_dln_sde_ensemble(ds, 0.2, [0.5] * len(seeds), g, 10 * g,
                                        2000, [RngStream(s) for s in seeds])
        assert len(out) == len(seeds)
        assert_same_sde(out[0], refs[0])
        for traj, seed, step in zip(out[1:], seeds[1:], refs[1:]):
            assert isinstance(traj, DivergenceError) and traj.step == step
            with pytest.raises(DivergenceError) as exc:
                simulate_dln_sde(ds, 0.2, 0.5, g, 10 * g, 2000, RngStream(seed))
            assert exc.value.step == step


def assert_same_run(traj, alone):
    """Two trajectories of either model are bitwise the same run: records,
    step indices, checkpoints, final state and every other meta entry."""

    def equal(a, b):
        if isinstance(a, DlnState):
            a, b = vars(a), vars(b)
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
        if isinstance(a, list):
            return len(a) == len(b) and all(map(equal, a, b))
        return np.array_equal(a, b)

    assert traj.rows == alone.rows
    assert traj.meta.keys() == alone.meta.keys()
    for key, want in alone.meta.items():
        assert equal(traj.meta[key], want), key


class TestSdePerRowSigma:
    """Rows with their own sigmas, held in the caller's order, are each
    bitwise the run simulate_dln_sde makes alone."""

    @pytest.mark.parametrize("early_stop", [True, False])
    def test_rows_match_lone_runs(self, early_stop):
        # sigma-0 rows sit between noisy rows in the caller's order
        for sigmas in ((0.5, 0.0, 0.25, 0.0), (0.0, 0.3, 0.0, 0.5)):
            self.check_rows_match_lone_runs(sigmas, early_stop)

    def check_rows_match_lone_runs(self, sigmas, early_stop):
        ds = tiny_instance()
        g = default_step_size(ds)
        seeds = (0, 1, 2, 3)
        rngs = [RngStream(s) for s in seeds]
        out = simulate_dln_sde_ensemble(ds, 0.2, sigmas, g, g, 4000, rngs,
                                        record_stride=70, early_stop=early_stop)
        assert len(out) == len(seeds)
        for traj, rng, sigma, seed in zip(out, rngs, sigmas, seeds):
            alone = RngStream(seed)
            assert_same_run(traj, simulate_dln_sde(ds, 0.2, sigma, g, g, 4000, alone,
                                                   record_stride=70,
                                                   early_stop=early_stop))
            # the stream ends where the run alone leaves it: one xi per step
            drawn = RngStream(seed)
            drawn.normal((traj.meta["steps_run"], ds.n + ds.d))
            assert rng.state_key() == alone.state_key() == drawn.state_key()
        runs = [t.meta["steps_run"] for t in out]
        if early_stop:
            # rows stop at different steps while the others go on drawing
            assert len(set(runs)) == len(seeds)
            assert all(t.meta["converged"] for t in out)
        else:
            assert runs == [4000] * len(seeds)
        for traj, sigma in zip(out, sigmas):
            r_acc = traj.meta["final_state"].r_acc
            assert np.linalg.norm(r_acc) > 0 if sigma > 0 else not r_acc.any()

    def test_every_row_reports_its_own_outcome(self):
        # at h = 10 gamma the sigma-0 run of seed 7 diverges at step 1394, and
        # later rows sooner: sigma 0.5 seed 1 at step 2, sigma 0 seed 3 at
        # step 3; every row carries its own run's outcome
        ds = tiny_instance()
        g = default_step_size(ds)
        sigmas, seeds = (0.5, 0.0, 0.0, 0.5, 0.0), (0, 8, 7, 1, 3)
        refs = []
        for sigma, seed in zip(sigmas, seeds):
            try:
                refs.append(simulate_dln_sde(ds, 0.2, sigma, g, 10 * g, 2000,
                                             RngStream(seed)))
            except DivergenceError as exc:
                refs.append(exc.step)
        assert all(isinstance(r, Trajectory) for r in refs[:2])
        assert all(isinstance(r, int) for r in refs[2:]) and max(refs[3:]) < refs[2]
        out = simulate_dln_sde_ensemble(ds, 0.2, sigmas, g, 10 * g, 2000,
                                        [RngStream(s) for s in seeds])
        assert len(out) == len(seeds)
        assert_same_run(out[0], refs[0])
        assert_same_run(out[1], refs[1])
        for traj, step in zip(out[2:], refs[2:]):
            assert isinstance(traj, DivergenceError) and traj.step == step

    def test_r_acc_is_taken_from_delta(self):
        # at h = 3 gamma rows 0, 1 and 4 stop early (steps 1373, 1349, 1595),
        # row 3 runs out of steps and row 2 diverges at step 2467: each
        # finished row's r_acc is (1/2)(I - P) delta of its own final delta,
        # bitwise, and within 1e-12 of the summed oracle
        ds = tiny_instance()
        g = default_step_size(ds)
        P = row_space_projector(ds.X)
        sigmas, seeds = (1.0, 0.0, 4.0, 1.0, 0.0), (0, 0, 5, 2, 1)
        out = simulate_dln_sde_ensemble(ds, 0.2, sigmas, g, 3 * g, 3000,
                                        [RngStream(s) for s in seeds])
        assert [isinstance(t, DivergenceError) for t in out] == [False, False, True,
                                                                  False, False]
        assert out[2].step == 2467
        assert [out[j].meta["converged"] for j in (0, 1, 3, 4)] == [True, True, False, True]
        for j in (0, 1, 3, 4):
            traj, sigma = out[j], sigmas[j]
            st, delta = traj.meta["final_state"], traj.meta["delta"]
            assert np.array_equal(st.r_acc, 0.5 * (delta - P @ delta))
            assert np.linalg.norm(st.r_acc) > 0 if sigma > 0 else not st.r_acc.any()
            ref = sde_oracle(ds, 0.2, sigma, g, 3 * g, 3000, seeds[j], 100)
            assert_same_sde(traj, ref)

    def test_loop_ends_with_the_last_row(self, monkeypatch):
        # the loop steps the ensemble once per step of its longest row, and
        # never on zero rows once the last one has stopped
        calls = []
        step = dln_dynamics._Sde.step

        def counted(model, k, beta, rbar, loss):
            calls.append(loss.size)
            step(model, k, beta, rbar, loss)

        monkeypatch.setattr(dln_dynamics._Sde, "step", counted)
        ds = tiny_instance()
        g = default_step_size(ds)
        out = simulate_dln_sde_ensemble(ds, 0.2, (0.5, 0.0), g, g, 6000,
                                        [RngStream(0), RngStream(1)])
        runs = [t.meta["steps_run"] for t in out]
        assert all(t.meta["converged"] for t in out) and runs[0] != runs[1]
        assert len(calls) == max(runs)
        assert min(calls) == 1

    def test_bad_sigmas(self):
        ds = tiny_instance()
        with pytest.raises(ValueError, match="one sigma per stream"):
            simulate_dln_sde_ensemble(ds, 0.2, [0.1], 0.1, 0.01, 10,
                                      [RngStream(0), RngStream(1)])
        for sigmas in ([0.1, -0.1], [math.nan, 0.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="sigma"):
                simulate_dln_sde_ensemble(ds, 0.2, sigmas, 0.1, 0.01, 10,
                                          [RngStream(0), RngStream(1)])


class TestSharedDraws:
    """Rows on equal streams draw once, and each row is still bitwise its run
    alone. The ensembles are built as the harness builds a study: every sigma
    cell runs the same seeds, each row on its own RngStream(seed)."""

    def test_discrete_cells_match_lone_runs(self):
        # each seed's sigma > 0 rows make one group; sigma 0 draws indices
        # only, so its row is a group of its own. Seed 3's first row (sigma
        # 1) stops first, at step 3125, and its other rows at 3186, 3458 and
        # 3875; seed 2's sigma-1.3 row diverges at step 24 while the rest of
        # its group runs on; seed 1's sigma-0 row runs out of steps
        ds = tiny_instance()
        runs = grid_runs(ds, 1, kinds=("NoisySGD",), sigmas=(1.0, 0.3, 0.6, 1.3, 0.0),
                         seeds=(3, 2, 1))
        cfgs, rngs = [cfg for cfg, _ in runs], [RngStream(seed) for _, seed in runs]
        model = dln_dynamics._Discrete(ds, 0.2, cfgs, [RngStream(seed) for _, seed in runs])
        assert len(model.plan) == 6
        out = run_dln_discrete_ensemble(ds, 0.2, cfgs, rngs, 5500, record_stride=50)
        outcomes = {}
        for traj, rng, (cfg, seed) in zip(out, rngs, runs):
            alone = RngStream(seed)
            try:
                _, ref = run_dln_discrete(ds, 0.2, cfg, 5500, alone, record_stride=50)
            except DivergenceError as exc:
                assert isinstance(traj, DivergenceError) and traj.step == exc.step
                outcomes[cfg.sigma, seed] = ("diverged", exc.step)
            else:
                assert_same_run(traj, ref)
                outcomes[cfg.sigma, seed] = (traj.meta["converged"], traj.meta["steps_run"])
            # the stream ends where the run alone leaves it
            assert rng.state_key() == alone.state_key()
        assert [outcomes[sigma, 3] for sigma in (1.0, 1.3, 0.6, 0.3)] == [
            (True, 3125), (True, 3186), (True, 3458), (True, 3875)]
        assert outcomes[1.3, 2] == ("diverged", 24)
        assert outcomes[0.0, 1] == (False, 5500)

    def test_sde_cells_match_lone_runs(self):
        # every SDE row draws alike, so each seed's rows make one group. Seed
        # 7's first row (sigma 1) stops first, at step 974, its others at
        # 1521 and 1617, and its sigma-4 row runs out of steps; seed 5's
        # sigma-4 row diverges at step 2467
        ds = tiny_instance()
        g = default_step_size(ds)
        cells, seeds, steps = (1.0, 0.5, 0.0, 4.0), (7, 5), 3000
        runs = [(sigma, seed) for sigma in cells for seed in seeds]
        rngs = [RngStream(seed) for _, seed in runs]
        out = simulate_dln_sde_ensemble(ds, 0.2, [sigma for sigma, _ in runs], g, 3 * g,
                                        steps, rngs, record_stride=70)
        outcomes = {}
        for traj, rng, (sigma, seed) in zip(out, rngs, runs):
            alone = RngStream(seed)
            try:
                ref = simulate_dln_sde(ds, 0.2, sigma, g, 3 * g, steps, alone,
                                       record_stride=70)
            except DivergenceError as exc:
                assert isinstance(traj, DivergenceError) and traj.step == exc.step
                ended = exc.step
                outcomes[sigma, seed] = ("diverged", ended)
            else:
                assert_same_run(traj, ref)
                ended = traj.meta["steps_run"]
                outcomes[sigma, seed] = (traj.meta["converged"], ended)
            # the stream ends where the run alone leaves it: one xi for each
            # step the row took before it stopped or failed
            drawn = RngStream(seed)
            drawn.normal((ended, ds.n + ds.d))
            assert rng.state_key() == alone.state_key() == drawn.state_key()
        assert [outcomes[sigma, 7] for sigma in cells] == [
            (True, 974), (True, 1521), (True, 1617), (False, 3000)]
        assert outcomes[4.0, 5] == ("diverged", 2467)

    @pytest.mark.parametrize("model", ["discrete", "sde"])
    def test_equal_streams_give_equal_rows_and_one_stream_serves_in_turn(self, model):
        ds = tiny_instance()
        g = default_step_size(ds)

        def ensemble(rngs):
            if model == "sde":
                return simulate_dln_sde_ensemble(ds, 0.2, [0.5, 0.5], g, g, 1500, rngs,
                                                 early_stop=False)
            cfg = OptimizerConfig(kind="NoisySGD", gamma=g, sigma=0.5, batch=1)
            return run_dln_discrete_ensemble(ds, 0.2, [cfg, cfg], rngs, 1500,
                                             early_stop=False)

        rngs = [RngStream(5), RngStream(5)]
        a, b = ensemble(rngs)
        assert_same_run(a, b)
        # both rows run to the end of the loop, and both streams end there
        assert rngs[0].state_key() == rngs[1].state_key() != RngStream(5).state_key()
        r = RngStream(5)
        a, b = ensemble([r, r])
        # one object held by two rows is never grouped: they draw in turn
        assert a.rows != b.rows


@pytest.fixture(scope="module")
def fine_run():
    ds = gen_sparse_regression(5, 12, 2, RngStream(77))
    gamma = default_step_size(ds)
    sigma = 0.5
    traj = simulate_dln_sde(ds, 0.1, sigma, gamma,
                            gamma / 100, 4000, RngStream(21),
                            record_stride=400, early_stop=False)
    return ds, gamma, sigma, traj


class TestSdeIntegrator:
    def test_hyperbolic_closed_form(self, fine_run):
        # beta_t = 2 alpha_t^2 sinh(2 eta_t + 2 delta_t) with alpha_t the
        # decayed scale, checked at every recorded step
        ds, gamma, sigma, traj = fine_run
        worst = 0.0
        for cp in traj.meta["checkpoints"]:
            a_t = effective_alpha(0.1, ds, gamma, sigma, cp["loss_integral"])
            pred = 2.0 * a_t * a_t * np.sinh(2.0 * (cp["eta"] + cp["delta"]))
            scale = max(1e-12, float(np.abs(cp["beta"]).max()))
            worst = max(worst, float(np.abs(pred - cp["beta"]).max()) / scale)
        assert worst < 1e-9

    def test_product_scale_law(self, fine_run):
        # w_+ w_- tracks the decayed alpha^2 exactly, noise cancels in the product
        ds, gamma, sigma, traj = fine_run
        st = traj.meta["final_state"]
        a_t = effective_alpha(0.1, ds, gamma, sigma, st.loss_integral)
        assert np.allclose(st.w_plus * st.w_minus, a_t * a_t, rtol=1e-10)

    def test_recorded_distance_column(self, fine_run):
        ds, gamma, sigma, traj = fine_run
        dist = traj.column("dist_to_beta_l0_sq")
        for row, cp in zip(dist, traj.meta["checkpoints"]):
            diff = cp["beta"] - ds.beta_star
            assert row == pytest.approx(float(diff @ diff), rel=1e-12, abs=1e-15)

    def test_r_acc_orthogonal_to_rows(self, fine_run):
        ds, gamma, sigma, traj = fine_run
        st = traj.meta["final_state"]
        P = row_space_projector(ds.X)
        assert np.linalg.norm(st.r_acc) > 0
        assert np.abs(P @ st.r_acc).max() < 1e-12

    def test_sigma_zero_flow_converges(self):
        ds = tiny_instance()
        gamma = default_step_size(ds)
        traj = simulate_dln_sde(ds, 0.2, 0.0, gamma, gamma, 150_000, RngStream(1))
        assert traj.meta["converged"]
        assert traj.column("loss")[-1] <= 1e-12
        st = traj.meta["final_state"]
        assert np.array_equal(st.r_acc, np.zeros(ds.d))

    def test_noisy_run_converges(self):
        ds = tiny_instance()
        gamma = default_step_size(ds)
        traj = simulate_dln_sde(ds, 0.2, 0.5, gamma, gamma, 300_000, RngStream(4))
        assert traj.column("loss")[-1] <= 1e-8

    def test_bad_arguments(self):
        ds = tiny_instance()
        with pytest.raises(ValueError):
            simulate_dln_sde(ds, 0.2, 0.0, 0.0, 0.01, 10, RngStream(0))
        with pytest.raises(ValueError):
            simulate_dln_sde(ds, 0.2, 0.0, 0.1, -0.01, 10, RngStream(0))
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                simulate_dln_sde(ds, 0.2, sigma, 0.1, 0.01, 10, RngStream(0))
        with pytest.raises(ValueError, match="record_stride"):
            simulate_dln_sde(ds, 0.2, 0.0, 0.1, 0.01, 10, RngStream(0), record_stride=0)


class TestScaleFormulas:
    def test_effective_alpha_formula(self):
        ds = tiny_instance()
        gamma, sigma, li = 0.1, 0.5, 2.3
        a0 = np.linspace(0.05, 0.2, ds.d)
        col = np.sum(ds.Xbar * ds.Xbar, axis=0)
        want = a0 * np.exp(-2 * gamma * sigma**2 * li) * np.exp(-2 * gamma * col * li)
        assert np.allclose(effective_alpha(a0, ds, gamma, sigma, li), want, rtol=1e-14)

    def test_effective_alpha_scalar_broadcast(self):
        ds = tiny_instance()
        out = effective_alpha(0.1, ds, 0.1, 0.0, 0.0)
        assert np.array_equal(out, np.full(ds.d, 0.1))

    def test_effective_alpha_zero_integral(self):
        ds = tiny_instance()
        a0 = np.full(ds.d, 0.07)
        assert np.array_equal(effective_alpha(a0, ds, 0.3, 1.0, 0.0), a0)

    def test_effective_alpha_rejections(self):
        ds = tiny_instance()
        with pytest.raises(ValueError):
            effective_alpha(0.0, ds, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            effective_alpha(0.1, ds, 0.1, 0.0, -1.0)

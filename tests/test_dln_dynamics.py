"""Diagonal linear network updates, their SDE integrator, and the scale laws."""

import math

import numpy as np
import pytest

from noiselab import (
    Dataset,
    DiscreteRun,
    DivergenceError,
    DlnState,
    NoiseSchedule,
    OptimizerConfig,
    RngStream,
    default_step_size,
    dln_discrete_step,
    dln_init,
    dln_loss,
    effective_alpha,
    effective_init,
    gen_sparse_regression,
    row_space_projector,
    run_dln_discrete,
    run_dln_discrete_ensemble,
    simulate_dln_sde,
    simulate_dln_sde_ensemble,
)
from oracles import QUARTER_ASINH_ONE, Diverged, sde_reference


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
    return Dataset(X=X, Y=X @ beta_star, Xbar=X / np.sqrt(6),
                   beta_star=beta_star, regime="over")


class TestNoiseSchedule:
    def test_defaults(self):
        sched = NoiseSchedule()
        assert sched.kind == "loss_scaled"
        assert sched.sigma == 0.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            NoiseSchedule(kind="white")

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSchedule(sigma=-0.1)

    def test_general_needs_matrices(self):
        with pytest.raises(ValueError):
            NoiseSchedule(kind="general")

    def test_general_rejects_nonfinite(self):
        M = np.full((2, 3), np.inf)
        with pytest.raises(ValueError):
            NoiseSchedule(kind="general", matrices=M)

    def test_budget_constant_table(self):
        M = np.ones((1, 5))  # squared mass 5 per step
        sched = NoiseSchedule(kind="general", matrices=M)
        sched.check_budget(0.01, 10)   # mass 0.5
        sched.check_budget(0.01, 20)   # mass 1.0, exactly on budget
        with pytest.raises(ValueError):
            sched.check_budget(0.01, 21)

    def test_budget_time_varying_table(self):
        # squared masses per slice: 4.0, 1.0, 0.04; the last slice persists
        M = np.stack([np.full((1, 4), 1.0), np.full((1, 4), 0.5), np.full((1, 4), 0.1)])
        sched = NoiseSchedule(kind="general", matrices=M)
        sched.check_budget(0.1, 3)     # 0.1 * (4 + 1 + 0.04) = 0.504
        sched.check_budget(0.1, 100)   # + 97 * 0.1 * 0.04 = 0.892
        with pytest.raises(ValueError):
            sched.check_budget(0.1, 200)  # 0.504 + 197 * 0.004 = 1.292

    def test_matrix_at_clamps(self):
        M = np.stack([np.full((1, 2), float(i)) for i in range(3)])
        sched = NoiseSchedule(kind="general", matrices=M)
        assert sched.matrix_at(0)[0, 0] == 0.0
        assert sched.matrix_at(2)[0, 0] == 2.0
        assert sched.matrix_at(50)[0, 0] == 2.0

    def test_matrix_at_constant(self):
        M = np.ones((2, 3))
        sched = NoiseSchedule(kind="general", matrices=M)
        assert sched.matrix_at(0) is sched.matrices
        assert sched.matrix_at(123) is sched.matrices


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
        out = dln_discrete_step(st, ds, OptimizerConfig(kind="GD", gamma=gamma),
                                NoiseSchedule(), RngStream(0))
        beta = st.beta()
        a = ds.Xbar.T @ (ds.Xbar @ beta - ds.Ybar)
        assert np.allclose(out.w_plus, st.w_plus * (1 - 2 * gamma * a), rtol=1e-15)
        assert np.allclose(out.w_minus, st.w_minus * (1 + 2 * gamma * a), rtol=1e-15)

    def test_gd_ignores_rng(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="GD", gamma=0.05)
        a = dln_discrete_step(dln_init(0.3, ds.d), ds, cfg, NoiseSchedule(), RngStream(1))
        b = dln_discrete_step(dln_init(0.3, ds.d), ds, cfg, NoiseSchedule(), RngStream(2))
        assert np.array_equal(a.w_plus, b.w_plus)

    def test_single_sample_gradient(self):
        # batch of one: the drawn row scaled by its denormalized residual
        ds = tiny_instance()
        gamma = 0.05
        st = dln_init(0.3, ds.d)
        st = dln_discrete_step(st, ds, OptimizerConfig(kind="GD", gamma=gamma),
                               NoiseSchedule(), RngStream(0))
        probe = RngStream(42)
        out = dln_discrete_step(st, ds, OptimizerConfig(kind="SGD", gamma=gamma, batch=1),
                                NoiseSchedule(), RngStream(42))
        i = int(probe.indices(ds.n, 1)[0])
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
        out = dln_discrete_step(st, ds, cfg, NoiseSchedule(sigma=sigma), RngStream(11))
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
        a = dln_init(0.2, ds.d)
        b = dln_init(0.2, ds.d)
        ra, rb = RngStream(9), RngStream(9)
        for _ in range(60):
            a = dln_discrete_step(a, ds, OptimizerConfig(kind="SGD", gamma=g, batch=1),
                                  NoiseSchedule(), ra)
            b = dln_discrete_step(b, ds, OptimizerConfig(kind="NoisySGD", gamma=g,
                                                         sigma=0.0, batch=1),
                                  NoiseSchedule(sigma=0.0), rb)
        assert np.array_equal(a.w_plus, b.w_plus)
        assert np.array_equal(a.w_minus, b.w_minus)

    def test_loss_integral_one_step(self):
        ds = tiny_instance()
        gamma = 0.05
        st = dln_init(0.3, ds.d)
        loss0 = dln_loss(st.beta(), ds)
        out = dln_discrete_step(st, ds, OptimizerConfig(kind="GD", gamma=gamma),
                                NoiseSchedule(), RngStream(0))
        assert out.loss_integral == pytest.approx(gamma * loss0, rel=1e-14)
        assert out.step == 1
        assert out.time == pytest.approx(gamma)

    def test_dpsgd_unsupported(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="DPSGD", gamma=0.05, clip=1.0)
        with pytest.raises(ValueError):
            dln_discrete_step(dln_init(0.1, ds.d), ds, cfg, NoiseSchedule(), RngStream(0))

    def test_batch_too_large(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="SGD", gamma=0.05, batch=7)
        with pytest.raises(ValueError):
            dln_discrete_step(dln_init(0.1, ds.d), ds, cfg, NoiseSchedule(), RngStream(0))

    def test_divergence_carries_step(self):
        # gamma far above stability: multipliers grow until a weight overflows
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="GD", gamma=50.0)
        st = dln_init(1.0, ds.d)
        with pytest.raises(DivergenceError) as exc:
            for _ in range(10_000):
                st = dln_discrete_step(st, ds, cfg, NoiseSchedule(), RngStream(0))
        assert exc.value.step >= 0


class TestDriver:
    def test_driver_matches_manual_loop(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        cfg = OptimizerConfig(kind="NoisySGD", gamma=g, sigma=0.3, batch=1)
        sched = NoiseSchedule(sigma=0.3)
        st, traj = run_dln_discrete(ds, dln_init(0.2, ds.d), cfg, sched, 57,
                                    RngStream(14), early_stop=False)
        manual = dln_init(0.2, ds.d)
        rng = RngStream(14)
        for _ in range(57):
            manual = dln_discrete_step(manual, ds, cfg, sched, rng)
        assert np.array_equal(st.w_plus, manual.w_plus)
        assert np.array_equal(st.w_minus, manual.w_minus)
        assert st.loss_integral == manual.loss_integral

    def test_trajectory_rows(self):
        ds = tiny_instance()
        cfg = OptimizerConfig(kind="GD", gamma=0.02)
        st, traj = run_dln_discrete(ds, dln_init(0.2, ds.d), cfg, NoiseSchedule(),
                                    25, RngStream(0), record_stride=10, early_stop=False)
        t = traj.column("t")
        assert t[0] == 0.0
        assert len(t) == 4  # steps 0, 10, 20 plus the final iterate
        assert t[-1] == pytest.approx(25 * 0.02)

    def test_early_stop_on_interpolation(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        cfg = OptimizerConfig(kind="SGD", gamma=g, batch=1)
        st, traj = run_dln_discrete(ds, dln_init(0.2, ds.d), cfg, NoiseSchedule(),
                                    200_000, RngStream(5))
        assert traj.meta["converged"]
        assert traj.meta["steps_run"] < 200_000
        assert dln_loss(st.beta(), ds) <= 1e-10

    def test_sgd_converges_across_seeds(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        cfg = OptimizerConfig(kind="NoisySGD", gamma=g, sigma=0.25, batch=1)
        hits = 0
        for seed in range(8):
            st, traj = run_dln_discrete(ds, dln_init(0.2, ds.d), cfg,
                                        NoiseSchedule(sigma=0.25), 200_000,
                                        RngStream(100 + seed))
            hits += dln_loss(st.beta(), ds) <= 1e-8
        assert hits >= 7

    def test_r_acc_stays_out_of_row_space(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        P = row_space_projector(ds.X)
        cfg = OptimizerConfig(kind="NoisySGD", gamma=g, sigma=0.4, batch=1)
        st, traj = run_dln_discrete(ds, dln_init(0.2, ds.d), cfg,
                                    NoiseSchedule(sigma=0.4), 5000, RngStream(3),
                                    P=P, early_stop=False)
        assert np.linalg.norm(st.r_acc) > 0
        assert np.abs(P @ st.r_acc).max() < 1e-12 * max(1.0, np.linalg.norm(st.r_acc))

    def test_r_acc_zero_without_noise(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        P = row_space_projector(ds.X)
        cfg = OptimizerConfig(kind="SGD", gamma=g, batch=1)
        st, traj = run_dln_discrete(ds, dln_init(0.2, ds.d), cfg, NoiseSchedule(),
                                    2000, RngStream(3), P=P, early_stop=False)
        assert np.array_equal(st.r_acc, np.zeros(ds.d))


def sequential_discrete(ds, run, steps, record_stride, P=None, early_stop=True):
    """The discrete loop's contract, built by iterating dln_discrete_step.

    A twin of the run's stream replays each step's draws, which recovers the
    step's normals for the r_acc sum. Returns (rows, step indices, final
    state, converged, steps run); a diverging step raises its DivergenceError.
    """
    state, cfg, sched, rng = run
    twin = RngStream(rng.seed, rng.path)
    r_acc = state.r_acc.copy()
    rows, rec = [], []

    def record(st):
        beta = st.beta()
        diff = beta - ds.beta_star
        rows.append(tuple(float(v) for v in (st.time, dln_loss(beta, ds), diff @ diff,
                                             st.loss_integral, np.linalg.norm(r_acc))))
        rec.append(st.step)

    streak, done, stopped = 0, 0, False
    for k in range(steps):
        prev = state
        loss = dln_loss(prev.beta(), ds)
        state = dln_discrete_step(prev, ds, cfg, sched, rng)
        if k % record_stride == 0:
            record(prev)
        if cfg.kind != "GD" and cfg.batch < ds.n:
            twin.indices(ds.n, cfg.batch)
        if cfg.kind == "NoisySGD" and sched.kind == "general":
            twin.normal(sched.matrices.shape[-2])
            twin.normal(sched.matrices.shape[-2])
        elif cfg.kind == "NoisySGD" and sched.sigma > 0:
            z_p, z_m = twin.normal(ds.d), twin.normal(ds.d)
            if P is not None:
                inc = math.sqrt(cfg.gamma) * 0.5 * (z_p + z_m)
                r_acc = r_acc + sched.sigma * math.sqrt(cfg.gamma * loss) * (inc - P @ inc)
        done = k + 1
        if early_stop:
            streak = streak + 1 if loss <= 1e-12 else 0
            if streak >= 100:
                stopped = True
                break
    state.r_acc = r_acc
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
    assert (st.step, st.time, st.loss_integral, st.noise_sq_integral) == (
        state.step, state.time, state.loss_integral, state.noise_sq_integral)
    assert traj.meta["converged"] == stopped
    assert traj.meta["steps_run"] == done


def grid_runs(ds, batch, kinds=("GD", "SGD", "NoisySGD"), sigmas=(0.0, 0.3),
              seeds=(1, 2)):
    g = default_step_size(ds)
    return [DiscreteRun(dln_init(0.2, ds.d),
                        OptimizerConfig(kind=kind, gamma=g, sigma=sigma, batch=batch),
                        NoiseSchedule(sigma=sigma), RngStream(seed))
            for kind in kinds for sigma in sigmas for seed in seeds]


class TestDiscreteEnsemble:
    # budgets chosen so that rows stop early at several different steps
    # while at least one row runs out of steps
    @pytest.mark.parametrize("batch,steps", [(1, 5500), (4, 3160)])
    @pytest.mark.parametrize("with_projector", [False, True])
    def test_rows_match_sequential_steps(self, batch, steps, with_projector):
        ds = tiny_instance()
        P = row_space_projector(ds.X) if with_projector else None
        out = run_dln_discrete_ensemble(ds, grid_runs(ds, batch), steps,
                                        record_stride=50, P=P)
        assert len(out) == 12
        for traj, run in zip(out, grid_runs(ds, batch)):
            assert_same_discrete(traj, sequential_discrete(ds, run, steps, 50, P))
        stops = {t.meta["steps_run"] for t in out if t.meta["converged"]}
        assert len(stops) >= 3
        assert not all(t.meta["converged"] for t in out)
        if with_projector:
            assert np.linalg.norm(out[-1].meta["final_state"].r_acc) > 0

    def test_general_schedule_rows(self):
        ds = tiny_instance()
        g = default_step_size(ds)
        M = 0.05 * np.stack([np.ones((2, ds.d)), np.full((2, ds.d), 0.5)])
        cfg = OptimizerConfig(kind="NoisySGD", gamma=g, batch=1)

        def runs():
            return [DiscreteRun(dln_init(0.2, ds.d), cfg,
                                NoiseSchedule(kind="general", matrices=M), RngStream(4)),
                    grid_runs(ds, 1, kinds=("NoisySGD",), sigmas=(0.3,), seeds=(5,))[0],
                    DiscreteRun(dln_init(0.2, ds.d), cfg,
                                NoiseSchedule(kind="general", matrices=M), RngStream(6))]

        out = run_dln_discrete_ensemble(ds, runs(), 300, record_stride=40,
                                        early_stop=False)
        for traj, run in zip(out, runs()):
            assert_same_discrete(traj, sequential_discrete(ds, run, 300, 40,
                                                           early_stop=False))
        assert out[0].meta["final_state"].noise_sq_integral > 0

    def test_first_failing_row_in_order_is_reported(self):
        # row 1 diverges at step 72, row 2 already at step 11: a sequential
        # loop over the rows raises for row 1, and so must the ensemble
        ds = tiny_instance()

        def runs():
            return (grid_runs(ds, 1, kinds=("SGD",), sigmas=(0.0,), seeds=(1,))
                    + grid_runs(ds, 1, kinds=("NoisySGD",), sigmas=(3.0,), seeds=(1, 0))
                    + grid_runs(ds, 1, kinds=("SGD",), sigmas=(0.0,), seeds=(2,)))

        steps = []
        for run in runs()[1:3]:
            with pytest.raises(DivergenceError) as exc:
                sequential_discrete(ds, run, 300, 50)
            steps.append(exc.value.step)
        assert steps[1] < steps[0]
        out = run_dln_discrete_ensemble(ds, runs(), 300, record_stride=50)
        assert len(out) == 2
        assert_same_discrete(out[0], sequential_discrete(ds, runs()[0], 300, 50))
        assert isinstance(out[1], DivergenceError)
        assert out[1].step == steps[0]
        run = runs()[1]
        with pytest.raises(DivergenceError) as exc:
            run_dln_discrete(ds, *run[:3], 300, run.rng)
        assert exc.value.step == steps[0]

    def test_rows_must_share_gamma_and_batch(self):
        ds = tiny_instance()
        runs = grid_runs(ds, 1, kinds=("SGD",), sigmas=(0.0,)) + grid_runs(ds, 4)
        with pytest.raises(ValueError):
            run_dln_discrete_ensemble(ds, runs, 10)


def sde_oracle(ds, alpha, sigma, gamma, h, steps, seed, stride, early_stop=True,
               matrices=None):
    return sde_reference(ds.Xbar, ds.Ybar, ds.beta_star, row_space_projector(ds.X),
                         alpha, sigma, gamma, h, steps, RngStream(seed), stride,
                         early_stop, matrices)


def assert_same_sde(traj, ref):
    assert traj.rows == ref["rows"]
    assert traj.meta["steps"] == ref["steps"]
    assert len(traj.meta["checkpoints"]) == len(ref["checkpoints"])
    for got, want in zip(traj.meta["checkpoints"], ref["checkpoints"]):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
    st = traj.meta["final_state"]
    for key in ("w_plus", "w_minus", "r_acc"):
        assert np.array_equal(getattr(st, key), ref[key]), key
    assert np.array_equal(traj.meta["eta"], ref["eta"])
    assert np.array_equal(traj.meta["delta"], ref["delta"])
    assert st.loss_integral == ref["loss_integral"]
    assert st.noise_sq_integral == ref["noise_sq_integral"]
    assert traj.meta["converged"] == ref["converged"]
    assert traj.meta["steps_run"] == ref["steps_run"] == st.step


class TestSdeEnsemble:
    # four rows draw their noise in chunks of 256 steps, where a single run
    # drew blocks of 4096; the runs converge after about 3300 to 3700 steps
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_rows_match_sequential_loop(self, sigma, early_stop):
        ds = tiny_instance()
        g = default_step_size(ds)
        seeds = (0, 1, 2, 3)
        out = simulate_dln_sde_ensemble(ds, 0.2, NoiseSchedule(sigma=sigma), g, g, 4000,
                                        [RngStream(s) for s in seeds], record_stride=70,
                                        early_stop=early_stop)
        assert len(out) == len(seeds)
        for traj, seed in zip(out, seeds):
            assert_same_sde(traj, sde_oracle(ds, 0.2, sigma, g, g, 4000, seed, 70,
                                             early_stop))
        if early_stop:
            assert len({t.meta["steps_run"] for t in out}) == len(seeds)
            assert all(t.meta["converged"] for t in out)
        if sigma > 0:
            assert np.linalg.norm(out[0].meta["final_state"].r_acc) > 0

    def test_general_schedule_keeps_block_interleave(self):
        # the general schedule draws xi and its own normals in alternating
        # blocks of 4096 steps; 5000 steps cross one block boundary
        ds = tiny_instance()
        g = default_step_size(ds)
        M = 0.004 * np.ones((2, ds.d))
        out = simulate_dln_sde_ensemble(ds, 0.2, NoiseSchedule(kind="general", matrices=M),
                                        g, 0.01, 5000, [RngStream(2), RngStream(3)],
                                        record_stride=500, early_stop=False)
        for traj, seed in zip(out, (2, 3)):
            assert_same_sde(traj, sde_oracle(ds, 0.2, 0.0, g, 0.01, 5000, seed, 500,
                                             False, M))

    def test_first_failing_row_in_order_is_reported(self):
        # at h = 10 gamma seed 7 diverges at step 1443 and seed 1 at step 2;
        # in the order (0, 7, 1) the sequential loop raises for seed 7
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
        out = simulate_dln_sde_ensemble(ds, 0.2, NoiseSchedule(sigma=0.5), g, 10 * g,
                                        2000, [RngStream(s) for s in seeds])
        assert len(out) == 2
        assert_same_sde(out[0], refs[0])
        assert isinstance(out[1], DivergenceError)
        assert out[1].step == refs[1]
        with pytest.raises(DivergenceError) as exc:
            simulate_dln_sde(ds, 0.2, NoiseSchedule(sigma=0.5), g, 10 * g, 2000,
                             RngStream(7))
        assert exc.value.step == refs[1]


@pytest.fixture(scope="module")
def fine_run():
    ds = gen_sparse_regression(5, 12, 2, RngStream(77))
    gamma = default_step_size(ds)
    sigma = 0.5
    traj = simulate_dln_sde(ds, 0.1, NoiseSchedule(sigma=sigma), gamma,
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
        traj = simulate_dln_sde(ds, 0.2, NoiseSchedule(), gamma, gamma, 150_000,
                                RngStream(1))
        assert traj.meta["converged"]
        assert traj.column("loss")[-1] <= 1e-12
        st = traj.meta["final_state"]
        assert np.array_equal(st.r_acc, np.zeros(ds.d))

    def test_noisy_run_converges(self):
        ds = tiny_instance()
        gamma = default_step_size(ds)
        traj = simulate_dln_sde(ds, 0.2, NoiseSchedule(sigma=0.5), gamma, gamma,
                                300_000, RngStream(4))
        assert traj.column("loss")[-1] <= 1e-8

    def test_general_budget_enforced(self):
        ds = tiny_instance()
        gamma = default_step_size(ds)
        M = np.ones((1, ds.d))  # mass 10 per unit time
        sched = NoiseSchedule(kind="general", matrices=M)
        with pytest.raises(ValueError):
            simulate_dln_sde(ds, 0.2, sched, gamma, 0.01, 100_000, RngStream(0))

    def test_general_schedule_runs(self):
        ds = tiny_instance()
        gamma = default_step_size(ds)
        M = 0.05 * np.ones((1, ds.d))  # mass 0.025 per unit time
        sched = NoiseSchedule(kind="general", matrices=M)
        traj = simulate_dln_sde(ds, 0.2, sched, gamma, 0.01, 2000, RngStream(2),
                                early_stop=False)
        assert math.isfinite(traj.column("loss")[-1])
        assert traj.meta["final_state"].noise_sq_integral > 0

    def test_bad_arguments(self):
        ds = tiny_instance()
        with pytest.raises(ValueError):
            simulate_dln_sde(ds, 0.2, NoiseSchedule(), 0.0, 0.01, 10, RngStream(0))
        with pytest.raises(ValueError):
            simulate_dln_sde(ds, 0.2, NoiseSchedule(), 0.1, -0.01, 10, RngStream(0))


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

    def test_effective_init_zero_tilt(self):
        out = effective_init(np.array([0.1, 0.2]), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_effective_init_frozen_point(self):
        # r = asinh(1)/4 turns the sinh into exactly 1
        out = effective_init(np.ones(1), np.array([QUARTER_ASINH_ONE]))
        assert out[0] == pytest.approx(2.0, rel=1e-14)

    def test_effective_init_odd(self):
        a = np.array([0.3, 0.7])
        r = np.array([0.2, -1.1])
        assert np.allclose(effective_init(a, r), -effective_init(a, -r), rtol=1e-15)

    def test_effective_init_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            effective_init(np.array([0.1, 0.0]), np.zeros(2))

"""Orchestration layer: aggregation, config parsing, determinism, CLI."""

import bisect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noiselab import (
    EXPERIMENTS,
    ConvergenceError,
    Dataset,
    DivergenceError,
    ExperimentConfig,
    OptimizerConfig,
    PotentialParams,
    RngStream,
    aggregate,
    apply_overrides,
    bundled_config,
    config_text,
    default_step_size,
    gen_sparse_regression,
    gen_underparam_regression,
    parse_config,
    run_dln_discrete,
    run_dln_discrete_ensemble,
    run_experiment,
    trend_check,
)
from noiselab import harness, mirror
from noiselab.cli import build_parser, main
from noiselab.core_math import Trajectory
from noiselab.harness import (
    MODE_KINDS,
    OUTDIR_ENV,
    STUDIES,
    STUDY_MODES,
    RunRecord,
    _align,
    _dataset_for,
    _grid_steps,
)


class TestAggregate:
    def test_two_constant_curves(self):
        mean, std = aggregate([np.full(4, 1.0), np.full(4, 3.0)])
        assert np.all(mean == 2.0)
        assert np.all(std == 1.0)

    def test_single_curve_has_zero_std(self):
        c = np.array([0.5, -1.25, 7.0])
        mean, std = aggregate([c])
        assert np.array_equal(mean, c)
        assert np.all(std == 0.0)

    def test_permutation_invariant_to_the_last_bit(self):
        # mixed magnitudes so that naive summation order would leak through
        gen = np.random.default_rng(11)
        curves = [gen.normal(size=30) * 10.0 ** gen.integers(-8, 8, size=30)
                  for _ in range(9)]
        ref_mean, ref_std = aggregate(curves)
        for _ in range(25):
            perm = gen.permutation(len(curves))
            mean, std = aggregate([curves[i] for i in perm])
            assert np.array_equal(mean, ref_mean)
            assert np.array_equal(std, ref_std)

    def test_unscaled_formula_to_the_last_bit(self):
        # the power-of-two scaling is exact: wherever nothing under- or
        # overflows, each point is the plain fsum formula's
        gen = np.random.default_rng(12)
        curves = [gen.normal(size=40) * 10.0 ** gen.integers(-30, 30, size=40)
                  for _ in range(7)]
        mean, std = aggregate(curves)
        for j, col in enumerate(np.stack(curves).T):
            m = math.fsum(col) / len(col)
            assert mean[j] == m
            assert std[j] == math.sqrt(math.fsum((v - m) ** 2 for v in col) / len(col))

    def test_huge_values_do_not_overflow(self):
        # the squares of 1e154 and the sum of two values near 1.7e308
        # overflow; the mean and std are finite, and are the values of the
        # same curves scaled down by 2^600, scaled back
        curves = [np.array([1e154, 1.5e308]), np.array([5e154, 1.7e308])]
        mean, std = aggregate(curves)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        small_mean, small_std = aggregate([np.ldexp(c, -600) for c in curves])
        assert np.array_equal(mean, np.ldexp(small_mean, 600))
        assert np.array_equal(std, np.ldexp(small_std, 600))
        assert mean[0] == pytest.approx(3e154, rel=1e-15)
        assert std[0] == pytest.approx(2e154, rel=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([np.zeros(3), np.zeros(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestTrendCheck:
    def test_clean_decrease(self):
        ok, inv = trend_check([4.0, 3.0, 1.0], [0.1, 0.1, 0.1], direction=-1)
        assert ok and inv == 0

    def test_one_inversion_within_std_tolerated(self):
        ok, inv = trend_check([4.0, 3.0, 3.2, 1.0], [0.1, 0.1, 0.5, 0.1],
                              direction=-1)
        assert ok and inv == 1

    def test_large_inversion_fails(self):
        ok, _ = trend_check([4.0, 3.0, 3.6, 1.0], [0.1, 0.1, 0.5, 0.1],
                            direction=-1)
        assert not ok

    def test_two_inversions_fail(self):
        ok, inv = trend_check([4.0, 4.1, 3.0, 3.1], [1.0, 1.0, 1.0, 1.0],
                              direction=-1)
        assert not ok and inv == 2

    def test_increasing_direction(self):
        ok, inv = trend_check([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], direction=+1)
        assert ok and inv == 0
        ok, _ = trend_check([0.0, 2.0, 1.0], [0.0, 0.0, 0.1], direction=+1)
        assert not ok


class TestConfig:
    def test_bundles_construct(self):
        for experiment, (_, study) in STUDIES.items():
            cfg = bundled_config(experiment)
            assert cfg.experiment == experiment
            assert cfg.mode == STUDY_MODES[experiment] == study["mode"]
        # the names `reproduce` takes are the table's five
        command = next(a for a in build_parser()._actions if a.dest == "command")
        name = next(a for a in command.choices["reproduce"]._actions if a.dest == "name")
        assert set(name.choices) == {rp for rp, _ in STUDIES.values()}
        assert len(name.choices) == len(STUDIES) == 5

    def test_unknown_bundle_rejected(self):
        with pytest.raises(ValueError):
            bundled_config("grand_tour")

    @pytest.mark.parametrize("kw", [
        dict(experiment="nope"),
        dict(mode="nope"),
        dict(kinds=("SGD", "ADAM")),
        dict(sigmas=(-0.5,)),
        dict(sigmas=()),
        dict(seeds=0),
        dict(stride=0),
        dict(steps=0),
        dict(batch=0),
        dict(n_traj=0),
        dict(alpha0=0.0),
        dict(mode="ou", burn_in=1000, steps=1000),
        dict(experiment="bias_order", kinds=("SGD", "NoisySGD")),
        dict(experiment="bias_order", kinds=("GD", "SGD", "NoisySGD"),
             sigmas=(0.25, 0.5)),
        dict(experiment="alpha_sweep", kinds=("SGD", "NoisySGD")),
        dict(batch=41),
        dict(s=-1),
        dict(s=101),
        dict(mode="coupling", n=0),
        dict(d=0, s=0),
        dict(mode="ou", n=50, d=5, label_noise=-0.5),
        dict(sigmas=(math.inf,)),
        dict(sigmas=(0.5, math.nan)),
        dict(eps=math.nan),
        dict(alpha0=math.inf),
        dict(alpha0=math.nan),
        dict(label_noise=math.nan),
        dict(experiment="limit_distance", mode="discrete"),
        dict(experiment="ou_stationary", mode="discrete"),
        # one sample after the burn-in: no standard error of the mean
        dict(experiment="ou_stationary", mode="ou", n=6, d=2, sigmas=(0.3,),
             steps=110, burn_in=100),
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("text, match", [
        pytest.param("mode = coupling\nn = 10\nd = 20\nsigmas = 0.5, 0.5\n",
                     "must not repeat", id="duplicate-sigma"),
        pytest.param("sigmas = -0, 0\n", "must not repeat", id="duplicate-zero-sigma"),
        pytest.param("kinds = SGD, NoisySGD, SGD\n", "must not repeat",
                     id="duplicate-kind"),
        pytest.param("mode = ou\nn = 50\nd = 5\neps = -0.5\n", "eps",
                     id="negative-eps"),
        pytest.param("mode = ou\nn = 5\nd = 5\n", "n > d", id="ou-not-under"),
        pytest.param("mode = coupling\nn = 20\nd = 10\n", "d >= n",
                     id="coupling-not-over"),
        pytest.param("experiment = limit_distance\nmode = sde\nn = 20\nd = 10\n", "d >= n",
                     id="sde-not-over"),
        pytest.param("mode = ou\nn = 50\nd = 5\neps = 0\nsigmas = 0, 0.3\n",
                     "no noise", id="ou-zero-noise-cell"),
        pytest.param("mode = ou\nn = 50\nd = 5\nsteps = 1000\nburn_in = 1000\n",
                     "burn_in", id="ou-burn-in-eats-steps"),
        pytest.param("mode = discrete\nkinds = SGD, DPSGD\nsigmas = 0\n",
                     "not DPSGD", id="discrete-dpsgd"),
        pytest.param("experiment = limit_distance\nmode = sde\nkinds = GD\n",
                     "not GD", id="sde-gd"),
        pytest.param("mode = ou\nn = 50\nd = 5\nkinds = SGD\n", "not SGD",
                     id="ou-sgd"),
        pytest.param("mode = coupling\nn = 10\nd = 20\nkinds = NoisySGD, DPSGD\n",
                     "not DPSGD", id="coupling-dpsgd"),
    ])
    def test_bad_config_rejected_at_validation(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_config(text)

    def test_lsq_edge_configs_accepted(self):
        # d == n is overparametrized; an OU cell with eps 0 and sigma > 0 is noisy
        parse_config("mode = coupling\nn = 10\nd = 10\n")
        parse_config("mode = ou\nn = 50\nd = 5\neps = 0\nsigmas = 0.3\n")

    def test_negative_zero_sigma_is_zero(self):
        cfg = parse_config("experiment = limit_distance\nmode = sde\nsigmas = -0, 0.5\n")
        assert [math.copysign(1.0, v) for v in cfg.sigmas] == [1.0, 1.0]
        assert "sigmas = 0,0.5" in config_text(cfg)

    def test_burn_in_ignored_outside_ou(self):
        cfg = ExperimentConfig(mode="coupling", burn_in=10_000, steps=400)
        assert cfg.steps == 400

    def test_outdir_precedence(self, monkeypatch):
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        assert ExperimentConfig(out="x").outdir() == "x"
        assert ExperimentConfig().outdir() == "noiselab-out"
        monkeypatch.setenv(OUTDIR_ENV, "envdir")
        assert ExperimentConfig().outdir() == "envdir"
        assert ExperimentConfig(out="x").outdir() == "x"


# values outside each field's range (a mode that may not be the study's own);
# each test case below puts one field at one of its values
ODD_VALUES = {
    "experiment": ("nope",), "mode": tuple(MODE_KINDS),
    "kinds": (("DPSGD",), ("SGD", "SGD"), ()),
    "sigmas": ((math.nan,), (math.inf,), (-0.5,), (0.5, 0.5), ()),
    "n": (0, -1), "d": (0, -1), "s": (13, -1), "batch": (13, 0),
    "label_noise": (math.nan, math.inf, -0.5), "alpha0": (math.nan, math.inf, 0.0, -0.1),
    "eps": (math.nan, math.inf, -0.5), "burn_in": (30, -1), "n_traj": (0, -1),
    "seeds": (0, -1), "steps": (0, -1), "stride": (0,),
}


@st.composite
def small_config_fields(draw):
    """Every field but out, at small values that fit the study's mode."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    mode = STUDY_MODES.get(experiment) or draw(st.sampled_from(tuple(MODE_KINDS)))
    kinds = MODE_KINDS[mode]
    if experiment != "bias_order":
        kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, unique=True,
                              max_size=1 if experiment == "alpha_sweep" else 3))
    if mode == "ou":
        n = draw(st.integers(2, 12))
        d = draw(st.integers(1, n - 1))
    else:
        n = draw(st.integers(1, 12))
        d = draw(st.integers(n if mode == "coupling" else 1, 12))
    steps = draw(st.integers(1, 30))
    return dict(
        experiment=experiment, mode=mode, kinds=kinds, n=n, d=d,
        sigmas=draw(st.lists(st.floats(0, 2), min_size=1, unique=True,
                             max_size=1 if experiment == "bias_order" else 3)),
        s=draw(st.integers(0, d)), dataset_seed=draw(st.integers(0, 3)),
        label_noise=draw(st.floats(0, 2)), alpha0=draw(st.floats(1e-3, 2)),
        batch=draw(st.integers(1, n)), eps=draw(st.floats(0, 2)),
        burn_in=draw(st.integers(0, steps - 1)), n_traj=draw(st.integers(1, 5)),
        seeds=draw(st.integers(1, 2)), seed_base=draw(st.integers(0, 5)),
        steps=steps, stride=draw(st.integers(1, 12)),
    )


@pytest.mark.parametrize("odd", [None, *ODD_VALUES])
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_is_rejected_or_runs(tmp_path, odd, data):
    """A config either fails validation with ValueError or runs: it returns a
    record, in which a study writes its checks, or ends in a run outcome."""
    fields = data.draw(small_config_fields())
    if odd:
        fields[odd] = data.draw(st.sampled_from(ODD_VALUES[odd]))
    try:
        cfg = ExperimentConfig(**fields, out=str(tmp_path / "run"))
    except ValueError:
        return
    try:
        rec = run_experiment(cfg)
    except (DivergenceError, ConvergenceError):
        return
    except RuntimeError as exc:
        assert "no convergence within" in str(exc)
        return
    assert bool(rec.checks) == (cfg.experiment in STUDIES)


class TestConfigFile:
    def test_roundtrip(self):
        cfg = bundled_config("limit_distance", out="some/dir")
        assert parse_config(config_text(cfg)) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nexperiment = custom\nsigmas = 0.1, 0.5 # grid\n")
        assert cfg.sigmas == (0.1, 0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("experiment = custom\ngama = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("steps = 10\nsteps = 20\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("steps 10\n")

    def test_bias_order_without_gd_rejected_before_any_step(self):
        with pytest.raises(ValueError, match="bias_order"):
            parse_config("experiment = bias_order\nkinds = SGD,NoisySGD\n")

    def test_kinds_list(self):
        cfg = parse_config("kinds = GD, SGD,NoisySGD\n")
        assert cfg.kinds == ("GD", "SGD", "NoisySGD")


class TestOverrides:
    def test_each_field(self):
        cfg = bundled_config("bias_order")
        out = apply_overrides(cfg, seed=7, sigma=0.25, alpha=0.5, steps=1234)
        assert out.seed_base == 7
        assert out.sigmas == (0.25,)
        assert out.alpha0 == 0.5
        assert out.steps == 1234

    def test_none_is_identity(self):
        cfg = bundled_config("coupling_bound")
        assert apply_overrides(cfg) == cfg


class TestAlign:
    def test_pads_real_rows_with_their_last_value(self):
        # GD stops early at step 3109; SGD and NoisySGD run all 4000 steps;
        # stride 7 divides neither
        rng = RngStream(3)
        X = rng.normal((6, 10))
        beta_star = np.zeros(10)
        beta_star[1], beta_star[5] = 0.6, -0.45
        ds = Dataset(X=X, Y=X @ beta_star, beta_star=beta_star)
        gamma = default_step_size(ds)
        cfgs = [OptimizerConfig(kind=kind, gamma=gamma, sigma=sigma)
                for kind, sigma in (("GD", 0.0), ("SGD", 0.0), ("NoisySGD", 0.3))]
        steps, stride = 4000, 7
        trajs = run_dln_discrete_ensemble(ds, 0.2, cfgs, [RngStream(1)] * 3, steps,
                                          record_stride=stride)
        assert [t.meta["steps_run"] for t in trajs] == [3109, 4000, 4000]
        grid = _grid_steps(steps, stride)
        for traj in trajs:
            vals, rec = traj.column("loss"), traj.meta["steps"]
            out = _align(traj, "loss", steps, stride)
            assert np.array_equal(
                out, np.concatenate((vals, np.full(len(grid) - len(vals), vals[-1]))))
            # each grid step holds the value recorded at the last step at or before it
            assert np.array_equal(out, [vals[bisect.bisect_right(rec, g) - 1] for g in grid])

    @pytest.mark.parametrize("rec", [
        pytest.param([0, 100, 200, 350], id="skips-300"),
        pytest.param([0, 200, 250], id="skips-100"),
        pytest.param([100, 200], id="no-step-0"),
        pytest.param([0, 100, 100], id="repeats-a-step"),
        pytest.param([0, 100, 200, 300, 400, 500, 600, 700], id="past-the-budget"),
    ])
    def test_records_off_the_grid_raise(self, rec):
        traj = Trajectory(("t", "v"))
        traj.meta["steps"] = rec
        for step in rec:
            traj.append(step * 0.1, float(step))
        with pytest.raises(ValueError, match="do not follow the stride-100 grid"):
            _align(traj, "v", steps=600, stride=100)


class TestFailureOrder:
    """A study reports the failure a run-by-run loop in (kind, sigma, seed)
    order would have hit first, though its rows are integrated together."""

    def test_discrete_divergence_of_first_failing_run(self, tmp_path):
        cfg = ExperimentConfig(experiment="custom", n=6, d=10, s=2, dataset_seed=3,
                               kinds=("NoisySGD",), sigmas=(0.5, 1.0), alpha0=0.1,
                               batch=1, seeds=4, seed_base=0, steps=400,
                               out=str(tmp_path))
        ds = _dataset_for(cfg)
        gamma = default_step_size(ds)
        failures = []
        for label, sigma in (("sigma0.5", 0.5), ("sigma1", 1.0)):
            for i in range(cfg.seeds):
                opt = OptimizerConfig(kind="NoisySGD", gamma=gamma, sigma=sigma, batch=1)
                try:
                    run_dln_discrete(ds, 0.1, opt, cfg.steps, RngStream(i))
                except DivergenceError as exc:
                    failures.append((exc.step, f"{label} seed {i}"))
        step, where = failures[0]
        assert min(failures)[0] < step  # a later run diverges sooner
        with pytest.raises(DivergenceError) as exc:
            run_experiment(cfg)
        assert exc.value.step == step
        assert str(exc.value) == f"non-finite iterate at step {step}: {where}"

    def test_final_loss_overflow_is_a_divergence(self, tmp_path):
        # the weights stay finite for the whole budget, but the loss of the
        # final iterate overflows: the run fails where it ended, and is never
        # graded with an infinite distance
        cfg = ExperimentConfig(experiment="alpha_sweep", n=1, d=1, s=1, dataset_seed=1,
                               kinds=("GD",), sigmas=(0.0,), alpha0=1.0, seeds=1,
                               seed_base=0, steps=6, stride=1, out=str(tmp_path))
        with pytest.raises(DivergenceError, match="^non-finite iterate at step 6: GD seed 0$"):
            run_experiment(cfg)

    def test_sde_non_convergence_before_later_divergence(self, tmp_path, monkeypatch):
        stalled = Trajectory(("t",))
        stalled.meta["converged"] = False

        def integrate(*args, **kwargs):
            return [stalled, DivergenceError(3)]

        monkeypatch.setattr(harness, "simulate_dln_sde_ensemble", integrate)
        cfg = ExperimentConfig(experiment="limit_distance", mode="sde", n=6, d=10, s=2,
                               sigmas=(0.5,), seeds=2, seed_base=40, steps=50,
                               out=str(tmp_path))
        with pytest.raises(RuntimeError, match="sigma0.5 seed 40: no convergence"):
            run_experiment(cfg)

    @pytest.mark.parametrize("first, later", [
        ("solver", "diverge"), ("solver", "stall"), ("diverge", "solver"),
        ("diverge", "stall"), ("stall", "solver"), ("stall", "diverge")])
    def test_limit_pipeline_reports_first_failing_cell(self, tmp_path, monkeypatch,
                                                       first, later):
        # Cells in (sigma, seed) order are (0, 40), (0, 41), (0.25, 40), (0.25, 41).
        # Cell 1 fails first and cell 2 fails differently; a run-by-run loop
        # would stop at cell 1. "solver": the limit problem cannot start (an
        # a_inf of 1e200 overflows); "diverge": the SDE run leaves the finite
        # range at step 7; "stall": it ends without converging.
        faults = {1: first, 2: later}
        sde_calls, alpha_calls = [], []
        real_sde, real_alpha = harness.simulate_dln_sde_ensemble, harness.effective_alpha

        def integrate(*args, **kwargs):
            sde_calls.append(args)
            trajs = real_sde(*args, **kwargs)
            for i, traj in enumerate(trajs):
                fault = faults.get(i)
                if fault == "diverge":
                    return trajs[:i] + [DivergenceError(7)]
                if fault == "stall":
                    traj.meta["converged"] = False
            return trajs

        def alpha(*args):
            a = real_alpha(*args)
            cell = len(alpha_calls)
            alpha_calls.append(cell)
            return np.full_like(a, 1e200) if faults.get(cell) == "solver" else a

        monkeypatch.setattr(harness, "simulate_dln_sde_ensemble", integrate)
        monkeypatch.setattr(harness, "effective_alpha", alpha)
        cfg = ExperimentConfig(experiment="limit_distance", mode="sde", n=6, d=10, s=2,
                               sigmas=(0.0, 0.25), seeds=2, seed_base=40, steps=50_000,
                               out=str(tmp_path))
        if first == "solver":
            with pytest.raises(ConvergenceError, match="start point"):
                run_experiment(cfg)
        elif first == "diverge":
            with pytest.raises(DivergenceError) as exc:
                run_experiment(cfg)
            assert str(exc.value) == "non-finite iterate at step 7: sigma0 seed 41"
            assert exc.value.step == 7
            assert isinstance(exc.value.__cause__, DivergenceError)
        else:
            with pytest.raises(RuntimeError,
                               match="^sigma0 seed 41: no convergence within 50000 steps$"):
                run_experiment(cfg)
        # the whole (sigma, seed) grid integrates as one SDE ensemble
        assert len(sde_calls) == 1

    def test_sde_budget_too_small_names_first_seed(self, tmp_path):
        cfg = ExperimentConfig(experiment="limit_distance", mode="sde", n=6, d=10, s=2,
                               sigmas=(0.0,), seeds=3, seed_base=40, steps=50,
                               out=str(tmp_path))
        with pytest.raises(RuntimeError, match="sigma0 seed 40: no convergence within 50"):
            run_experiment(cfg)


@pytest.fixture(scope="module")
def custom_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("custom")
    cfg = ExperimentConfig(experiment="custom", mode="discrete", n=6, d=10, s=2,
                           dataset_seed=3, kinds=("SGD", "NoisySGD"), sigmas=(0.3,),
                           alpha0=0.1, batch=6, seeds=2, seed_base=9, steps=400,
                           stride=100, out=str(out))
    return run_experiment(cfg), out


class TestRunExperiment:
    def test_custom_curve_layout(self, custom_record):
        rec, _ = custom_record
        assert sorted(rec.aggregates) == ["dist_NoisySGD", "dist_SGD",
                                          "loss_NoisySGD", "loss_SGD"]
        for traj in rec.aggregates.values():
            assert traj.columns == ("t", "mean", "std")
            assert len(traj.rows) == 5  # steps 0, 100, 200, 300, 400
        assert rec.per_seed["SGD"] and len(rec.per_seed["SGD"]) == 2
        assert rec.passed()  # custom runs carry no gating checks

    def test_files_written(self, custom_record):
        rec, out = custom_record
        names = sorted(p.name for p in out.iterdir())
        assert names == ["dist_NoisySGD.csv", "dist_SGD.csv",
                         "loss_NoisySGD.csv", "loss_SGD.csv", "summary.json"]
        text = (out / "dist_SGD.csv").read_text()
        assert text.splitlines()[0] == "t, mean, std"
        assert len(text.splitlines()) == 6

    def test_summary_snapshot(self, custom_record):
        rec, out = custom_record
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["config"]["dataset_seed"] == 3
        assert summary["config"]["kinds"] == ["SGD", "NoisySGD"]
        assert set(summary["checks"]) == set()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = bundled_config("coupling_bound", out=str(tmp_path))
        run_experiment(cfg)
        first = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        run_experiment(cfg)
        second = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_non_finite_summary_refused_before_writing(self, tmp_path):
        # JSON cannot hold a NaN or an infinity: the record refuses it before
        # it writes any file, its curves' CSVs included
        out = tmp_path / "rec"
        curve = Trajectory(("t", "mean", "std"))
        curve.append(0.0, 1.0, 0.0)
        for bad in (math.inf, -math.inf, math.nan):
            rec = RunRecord(config=ExperimentConfig(out=str(out)),
                            aggregates={"dist_SGD": curve}, scalars={"x": bad})
            with pytest.raises(ValueError, match="JSON"):
                rec.write()
            assert not out.exists()


def finite_summary(out) -> dict:
    """A record's summary.json, refusing the NaN and infinity literals."""
    def refuse(token):
        raise AssertionError(f"summary holds {token}")
    return json.loads((out / "summary.json").read_text(), parse_constant=refuse)


class TestOutOfRangeFigures:
    """Figures whose plain float formula under- or overflows: a config either
    runs and writes a finite record, or is rejected at validation."""

    def test_huge_per_seed_distances_spread_finitely(self, tmp_path):
        # per-seed distances 3.5e19 and 6.2e167: their squares overflow, their
        # std is half their difference
        cfg = ExperimentConfig(experiment="alpha_sweep", kinds=("SGD",), sigmas=(0.0,),
                               n=2, d=3, s=3, dataset_seed=3, alpha0=0.25, seeds=2,
                               seed_base=1, steps=7, out=str(tmp_path))
        run_experiment(cfg)
        summary = finite_summary(tmp_path)
        a, b = summary["per_seed"]["SGD"]
        assert b > 1e167 and a < 1e20
        assert summary["scalars"]["final_dist_sq_std_SGD"] == pytest.approx((b - a) / 2,
                                                                             rel=1e-15)
        lines = (tmp_path / "dist_SGD.csv").read_text().splitlines()
        assert "inf" not in lines[-1] and "nan" not in lines[-1]

    def test_discrete_spreads_near_1e154(self, tmp_path, monkeypatch):
        # each run ends at its cell's distances; the cell std, the pooled std
        # and the aggregate std all square values near 1e154
        finals = {"GD": (6e154, 6e154), "SGD": (1e154, 5e154), "NoisySGD": (1e154, 3e154)}
        cfg = ExperimentConfig(experiment="bias_order", kinds=("GD", "SGD", "NoisySGD"),
                               sigmas=(0.5,), n=6, d=10, s=2, seeds=2, steps=10,
                               stride=10, out=str(tmp_path))

        def integrate(ds, alpha, opts, rngs, steps, record_stride):
            trajs = []
            for kind in cfg.kinds:
                for dist in finals[kind]:
                    traj = Trajectory(("t", "loss", "dist_to_beta_l0_sq"))
                    traj.append(0.0, 1.0, 1.0)
                    traj.append(1.0, 0.5, dist)
                    traj.meta["steps"] = [0, steps]
                    trajs.append(traj)
            return trajs

        monkeypatch.setattr(harness, "run_dln_discrete_ensemble", integrate)
        run_experiment(cfg)
        scalars = finite_summary(tmp_path)["scalars"]
        assert scalars["final_dist_sq_std_GD"] == 0.0
        assert scalars["final_dist_sq_std_SGD"] == pytest.approx(2e154, rel=1e-15)
        assert scalars["final_dist_sq_std_NoisySGD"] == pytest.approx(1e154, rel=1e-15)
        assert scalars["pooled_std_gap"] == pytest.approx(math.sqrt(2.5) * 1e154, rel=1e-15)
        last = (tmp_path / "dist_SGD.csv").read_text().splitlines()[-1]
        assert [float(v) for v in last.split(",")][1:] == pytest.approx([3e154, 2e154],
                                                                         rel=1e-15)

    # configs whose relative covariance error was inf: at sigma 1e-100 and
    # 1e-160 the reference's squared entries underflow, and where sigma^2 or
    # eps^2 underflows the reference is 0
    OU_BASE = dict(experiment="ou_stationary", mode="ou", n=2, d=1, dataset_seed=0,
                   label_noise=0.0, eps=0.0, seeds=1, seed_base=0, steps=11,
                   burn_in=0, stride=1)

    @pytest.mark.parametrize("kw", [
        pytest.param(dict(sigmas=(1.5881938741247467e-230,)), id="sigma-squares-to-0"),
        pytest.param(dict(sigmas=(1e-100,)), id="sigma-1e-100"),
        pytest.param(dict(sigmas=(1e-160,)), id="sigma-1e-160"),
        pytest.param(dict(eps=1e-200, sigmas=(0.0,)), id="eps-squares-to-0"),
        pytest.param(dict(sigmas=(1e-100,), n=12, d=3, label_noise=0.5),
                     id="sigma-1e-100-n12-d3"),
    ])
    def test_ou_noise_too_small_to_grade_is_rejected(self, kw):
        with pytest.raises(ValueError, match="no noise"):
            ExperimentConfig(**{**self.OU_BASE, **kw})

    @pytest.mark.parametrize("kw", [
        pytest.param(dict(sigmas=(1.3e-77,)), id="sigma"),
        pytest.param(dict(eps=1.3e-77, sigmas=(0.0,)), id="eps"),
        pytest.param(dict(sigmas=(1.3e-77,), n=12, d=3, label_noise=0.5), id="n12-d3"),
    ])
    def test_ou_smallest_accepted_noise_writes_a_finite_record(self, tmp_path, kw):
        # eps^2 + sigma^2 of 1.69e-154, just above the 1.5e-154 floor
        run_experiment(ExperimentConfig(**{**self.OU_BASE, **kw, "out": str(tmp_path)}))
        scalars = finite_summary(tmp_path)["scalars"]
        assert all(v > 1e100 for k, v in scalars.items() if k.startswith("cov_rel"))


    # eps = 1e200 overflowed eps**2 after the whole integration, and
    # label_noise = 1e200 wrote an infinite covariance
    @pytest.mark.parametrize("kw, field", [
        pytest.param(dict(eps=1e200), "eps", id="eps-1e200"),
        pytest.param(dict(eps=0.5, label_noise=1e200), "label_noise", id="label-noise-1e200"),
        pytest.param(dict(sigmas=(0.0, 1e200)), "sigmas", id="sigma-1e200"),
        pytest.param(dict(eps=math.nextafter(1e50, math.inf)), "eps", id="eps-above-1e50"),
    ])
    def test_ou_noise_too_large_to_grade_is_rejected(self, kw, field):
        with pytest.raises(ValueError, match=f"mode ou grades {field} up to 1e"):
            ExperimentConfig(**{**self.OU_BASE, "eps": 0.5, "sigmas": (0.5,), **kw})

    # the instance of the configs above and the bundled ou instance, the
    # latter at a short budget
    OU_INSTANCES = {
        "n2-d1": dict(OU_BASE, eps=0.5, sigmas=(0.5,)),
        "bundled": dict(OU_BASE, n=50, d=5, dataset_seed=7, label_noise=0.5, eps=0.5,
                        sigmas=(0.0, 0.3), seed_base=11, steps=2000, burn_in=1000,
                        stride=100),
    }

    @pytest.mark.parametrize("instance", OU_INSTANCES)
    @pytest.mark.parametrize("kw", [
        pytest.param(dict(eps=1e50), id="eps"),
        pytest.param(dict(sigmas=(0.0, 1e50)), id="sigma"),
        pytest.param(dict(label_noise=1e50), id="label-noise"),
        pytest.param(dict(eps=1e50, sigmas=(0.0, 1e50), label_noise=1e50), id="all"),
        # noise far below the float spacing at the least-squares point
        # leaves every batch mean equal: the standard error is 0
        pytest.param(dict(eps=0.0, sigmas=(1.3e-77,), label_noise=1e50),
                     id="label-noise-over-least-noise"),
    ])
    def test_ou_largest_accepted_noise_writes_a_finite_record(self, tmp_path, instance, kw):
        run_experiment(ExperimentConfig(**{**self.OU_INSTANCES[instance], **kw,
                                           "out": str(tmp_path)}))
        scalars = finite_summary(tmp_path)["scalars"]
        assert all(math.isfinite(v) for v in scalars.values())


class TestCli:
    def test_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{run,reproduce,analyze}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", "ds.txt"])
        assert exc.value.code == 2

    def test_run_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "experiment = custom\nmode = discrete\nn = 6\nd = 10\ns = 2\n"
            "dataset_seed = 3\nkinds = NoisySGD\nsigmas = 0.3\nalpha0 = 0.1\n"
            f"batch = 6\nseeds = 1\nseed_base = 9\nsteps = 200\nstride = 100\n"
            f"out = {tmp_path / 'res'}\n")
        assert main(["run", str(cfgfile)]) == 0
        assert (tmp_path / "res" / "summary.json").exists()
        assert "experiment: custom" in capsys.readouterr().out

    def test_run_failing_checks_exits_nonzero(self, tmp_path, capsys):
        # tiny stationary-law study: the chain's step-size inflation puts the
        # empirical covariance far outside the graded 15 percent band
        cfgfile = tmp_path / "ou.cfg"
        cfgfile.write_text(
            "experiment = ou_stationary\nmode = ou\nn = 20\nd = 4\n"
            "dataset_seed = 5\nsigmas = 0\neps = 0.5\nseeds = 1\nseed_base = 2\n"
            f"steps = 20000\nburn_in = 2000\nstride = 1000\nout = {tmp_path / 'ou'}\n")
        assert main(["run", str(cfgfile)]) == 1
        assert "[FAIL] cov_within_15pct_sigma0" in capsys.readouterr().out

    def test_reproduce_coupling(self, tmp_path, capsys):
        assert main(["reproduce", "coupling", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[ok  ] deviation_within_bound_sigma0.5" in out
        assert (tmp_path / "eta_sigma0.5.csv").exists()

    def test_reproduce_with_overrides(self, tmp_path):
        assert main(["reproduce", "coupling", "--out", str(tmp_path),
                     "--steps", "200", "--sigma", "0.5"]) == 0
        rows = (tmp_path / "eta_sigma0.5.csv").read_text().splitlines()
        assert len(rows) == 202  # header plus steps 0..200

    def test_reproduce_alpha_sweep_single_sigma(self, tmp_path, capsys):
        # one sigma leaves one cell per scale, labelled by its kind; the
        # trend check grades that cell instead of looking up a sigma label
        assert main(["reproduce", "alpha-sweep", "--out", str(tmp_path),
                     "--sigma", "0.1", "--steps", "200"]) == 0
        for alpha in ("0.1", "0.01"):
            summary = json.loads((tmp_path / f"alpha{alpha}" / "summary.json").read_text())
            assert summary["config"]["sigmas"] == [0.1]
            assert summary["checks"] == {"distance_non_increasing_in_sigma": True}
            assert "final_dist_sq_mean_NoisySGD" in summary["scalars"]
        assert "[ok  ] distance_non_increasing_in_sigma" in capsys.readouterr().out

    def test_analyze_roundtrip(self, tmp_path, capsys):
        # analyze of a stored record prints what the run printed below its
        # header line, and exits as the record's `passed` says: a passing
        # coupling study, then a failing stationary-law study
        cfgfile = tmp_path / "ou.cfg"
        cfgfile.write_text(
            "experiment = ou_stationary\nmode = ou\nn = 20\nd = 4\n"
            "dataset_seed = 5\nsigmas = 0\neps = 0.5\nseeds = 1\nseed_base = 2\n"
            f"steps = 20000\nburn_in = 2000\nstride = 1000\nout = {tmp_path / 'ou'}\n")
        for argv, out, code, line in (
                (["reproduce", "coupling", "--out", str(tmp_path / "c"), "--steps", "100"],
                 tmp_path / "c", 0, "[ok  ] zero_noise_deviation_identically_zero"),
                (["run", str(cfgfile)], tmp_path / "ou", 1, "[FAIL] cov_within_15pct_sigma0")):
            assert main(argv) == code
            header, run_report = capsys.readouterr().out.split("\n", 1)
            assert header.startswith("experiment: ")
            assert main(["analyze", str(out)]) == code
            analyzed = capsys.readouterr().out
            assert analyzed == run_report
            assert line in analyzed

    @pytest.mark.parametrize("mode, instance", [
        ("ou", "n = 20\nd = 3\nsteps = 2000\nstride = 500\n"),
        ("sde", "n = 6\nd = 10\ns = 2\n"),
        ("coupling", "n = 6\nd = 10\ns = 2\nsteps = 50\nn_traj = 5\nstride = 10\n"),
    ], ids=("ou", "sde", "coupling"))
    def test_custom_run_grades_nothing(self, tmp_path, capsys, mode, instance):
        # the checks a study writes in this mode are not a custom run's
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"experiment = custom\nmode = {mode}\nsigmas = 0, 0.3\n"
                           f"seeds = 1\nseed_base = 1\n{instance}out = {tmp_path / 'c'}\n")
        assert main(["run", str(cfgfile)]) == 0
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert summary["checks"] == {} and summary["passed"] is True
        assert summary["scalars"]
        _, report = capsys.readouterr().out.split("\n", 1)
        assert report.startswith("{")  # no check lines before the scalars

    def test_env_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "experiment = custom\nmode = coupling\nn = 6\nd = 10\ns = 2\n"
            "dataset_seed = 3\nsigmas = 0\nseeds = 1\nseed_base = 1\n"
            "steps = 50\nn_traj = 5\nstride = 10\n")
        assert main(["run", str(cfgfile)]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()


def _command(tmp_path, *args):
    """python -m noiselab as a process, with the package's sources on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "noiselab", *args], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)


class TestCommand:
    """The command's exit codes: 0 every check passed, 1 a check failed, 2 a
    usage error, 3 a config rejected or a run that fails, in one stderr line."""

    def test_passing_run_reports_on_stdout(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            "experiment = coupling_bound\nmode = coupling\nn = 6\nd = 10\ns = 2\n"
            "sigmas = 0, 0.3\nsteps = 50\nn_traj = 5\nstride = 10\nout = c\n")
        proc = _command(tmp_path, "run", "c.cfg")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("experiment: coupling_bound  out: c\n")
        assert "[ok  ] deviation_within_bound_sigma0.3" in proc.stdout
        assert json.loads(proc.stdout[proc.stdout.index("{"):])["gamma"] > 0

    def test_failed_check_exits_1(self, tmp_path):
        (tmp_path / "ou.cfg").write_text(
            "experiment = ou_stationary\nmode = ou\nn = 20\nd = 4\n"
            "dataset_seed = 5\nsigmas = 0\neps = 0.5\nseeds = 1\nseed_base = 2\n"
            "steps = 20000\nburn_in = 2000\nstride = 1000\nout = ou\n")
        proc = _command(tmp_path, "run", "ou.cfg")
        assert (proc.returncode, proc.stderr) == (1, "")
        assert "[FAIL] cov_within_15pct_sigma0" in proc.stdout

    def test_usage_error_exits_2(self, tmp_path):
        proc = _command(tmp_path, "reproduce", "grand-tour")
        assert proc.returncode == 2 and "invalid choice" in proc.stderr

    @pytest.mark.parametrize("case", ["rejected", "diverging"])
    def test_failure_is_one_stderr_line(self, tmp_path, case):
        if case == "rejected":
            text = "experiment = bias_order\nkinds = SGD, NoisySGD\n"
            line = "noiselab: bias_order compares GD, SGD and NoisySGD at one sigma\n"
        else:
            # the bundled coupling study with a sigma-30 copy, which diverges
            text = config_text(replace(bundled_config("coupling_bound", out="c"),
                                       sigmas=(0.0, 30.0)))
            line = ("noiselab: the sigma 30 copy diverged: non-finite loss integral "
                    "at step 238\n")
        (tmp_path / "c.cfg").write_text(text)
        proc = _command(tmp_path, "run", "c.cfg")
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", line)

    @pytest.mark.parametrize("text, line", [
        ("{}", "noiselab: bad.json lacks checks, scalars, passed\n"),
        ("[1]", "noiselab: bad.json holds no JSON object\n"),
    ], ids=["empty-object", "not-an-object"])
    def test_analyze_names_a_malformed_summary(self, tmp_path, text, line):
        (tmp_path / "bad.json").write_text(text)
        proc = _command(tmp_path, "analyze", "bad.json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", line)


class TestBenchmarkHooks:
    def test_tracer_wraps_and_restores(self, tmp_path):
        """perfbench/tracer.py wraps harness and mirror names and reads the
        arguments and results of some; renaming any of them fails here, not
        only in the benchmark's own tests."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracer import Tracer

        names = ("run_dln_discrete", "simulate_dln_sde", "solve_tilted", "_align", "aggregate",
                 "simulate_ou_under", "simulate_coupled_over", "gen_sparse_regression")
        before = {name: getattr(harness, name) for name in names}
        write, loss_and_grad = RunRecord.write, mirror._loss_and_grad
        ds = gen_sparse_regression(6, 10, 2, RngStream(3))
        gamma = default_step_size(ds)
        ds_u = gen_underparam_regression(20, 3, 0.5, RngStream(4))
        gamma_u = default_step_size(ds_u)
        gamma_c = 1.0 / float(np.trace(ds.Xbar.T @ ds.Xbar))
        with Tracer().installed() as tracer:
            assert all(getattr(harness, name) is not fn for name, fn in before.items())
            assert mirror._loss_and_grad is not loss_and_grad
            harness.run_dln_discrete(ds, 0.1,
                                     OptimizerConfig(kind="GD", gamma=gamma), 5,
                                     RngStream(0), early_stop=False)
            harness.simulate_dln_sde(ds, 0.1, 0.0, gamma, gamma, 7, RngStream(0),
                                     early_stop=False)
            harness.solve_tilted(ds, PotentialParams(0.1), max_iters=3, tol=1.0)
            harness.simulate_ou_under(ds_u, 0.5, [0.0, 0.3], gamma_u, gamma_u, 40, 10,
                                      [RngStream(0), RngStream(0)])
            harness.simulate_coupled_over(ds, gamma_c, [0.0, 0.5], 9, 4, RngStream(0))
            assert RunRecord.write is not write
            harness.gen_sparse_regression(6, 10, 2, RngStream(3))
            traj = Trajectory(("t", "mean", "std"))
            traj.append(0.0, 1.0, 0.0)
            paths = RunRecord(config=ExperimentConfig(out=str(tmp_path)),
                              aggregates={"loss": traj}, scalars={"gamma": gamma}).write()
        assert all(getattr(harness, name) is fn for name, fn in before.items())
        assert RunRecord.write is write
        assert mirror._loss_and_grad is loss_and_grad
        assert len(paths) == 2
        assert tracer.counts["write_bytes"] == sum(os.path.getsize(p) for p in paths)
        assert "problems.dataset" in tracer.totals()
        assert tracer.counts["ou_steps"] == 40
        assert tracer.counts["coupled_row_steps"] == 4 * 9
        assert tracer.counts["discrete_steps"] == 5
        assert tracer.counts["sde_steps"] == 7
        assert tracer.counts["solve_iters"] >= 1

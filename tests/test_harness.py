"""Orchestration layer: aggregation, config parsing, determinism, CLI."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from noiselab import (
    DivergenceError,
    ExperimentConfig,
    NoiseSchedule,
    OptimizerConfig,
    RngStream,
    aggregate,
    apply_overrides,
    bundled_config,
    config_text,
    default_step_size,
    dln_init,
    parse_config,
    run_dln_discrete,
    run_experiment,
    trend_check,
)
from noiselab import harness
from noiselab.cli import main
from noiselab.core_math import Trajectory
from noiselab.harness import OUTDIR_ENV, _align, _dataset_for
from noiselab.problems import load_dataset


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
        for name in ("bias_order", "limit_distance", "alpha_sweep",
                     "ou_stationary", "coupling_bound"):
            cfg = bundled_config(name)
            assert cfg.experiment == name

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
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ExperimentConfig(**kw)

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
    def test_holds_final_value_past_early_stop(self):
        # rows are placed by their recorded step index, not by t
        traj = Trajectory(("t", "v"))
        traj.meta["steps"] = []
        for step, v in [(0, 1.0), (100, 2.0), (200, 3.0), (350, 4.0)]:
            traj.append(step * 0.1, v)
            traj.meta["steps"].append(step)
        out = _align(traj, "v", steps=600, stride=100)
        assert np.array_equal(out, [1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0])


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
                    run_dln_discrete(ds, dln_init(0.1, ds.d), opt, NoiseSchedule(sigma=sigma),
                                     cfg.steps, RngStream(i))
                except DivergenceError as exc:
                    failures.append((exc.step, f"{label} seed {i}"))
        step, where = failures[0]
        assert min(failures)[0] < step  # a later run diverges sooner
        with pytest.raises(DivergenceError) as exc:
            run_experiment(cfg)
        assert exc.value.step == step
        assert str(exc.value) == f"non-finite iterate at step {step}: {where}"

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


class TestCli:
    def test_generate_sparse(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        assert main(["generate", "--kind", "sparse", "--n", "8", "--d", "12",
                     "--s", "2", "--seed", "5", "--out", str(path)]) == 0
        ds = load_dataset(path)
        assert ds.n == 8 and ds.d == 12 and ds.regime == "over"
        assert "wrote sparse instance" in capsys.readouterr().out

    def test_generate_tall(self, tmp_path):
        path = tmp_path / "tall.npz"
        assert main(["generate", "--kind", "tall", "--n", "30", "--d", "4",
                     "--seed", "2", "--out", str(path)]) == 0
        assert load_dataset(path).regime == "under"

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
        main(["reproduce", "coupling", "--out", str(tmp_path), "--steps", "100"])
        capsys.readouterr()
        assert main(["analyze", str(tmp_path)]) == 0
        assert "zero_noise_deviation_identically_zero" in capsys.readouterr().out

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

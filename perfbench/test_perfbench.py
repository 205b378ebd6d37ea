"""Tests of the benchmark's own code, at tiny budgets.

Run from the repository root: python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--budget", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _digests(stdout):
    """{study: {traced flag: set of record digests}} from the per-repetition
    lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("rep "):
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            out.setdefault(line.split()[3], {}).setdefault(
                fields["traced"], set()).add(fields["sha256"])
    return out


def test_workloads_match_declaration():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_changes_no_output_byte(workload):
    spec = _spec()
    plain, traced = _bench(workload, 0), _bench(workload, 1)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr

    both = _digests(plain.stdout)
    for key, by_flag in _digests(traced.stdout).items():
        for flag, shas in by_flag.items():
            both.setdefault(key, {}).setdefault(flag, set()).update(shas)
    studies = {s.name for s in workloads.WORKLOADS[workload]}
    assert set(both) == studies
    for name, by_flag in both.items():
        assert set(by_flag) == {"0", "1"}, f"{name}: ran traced and untraced"
        shas = set().union(*by_flag.values())
        assert len(shas) == 1, f"{name}: record bytes differ across runs: {shas}"

    plain_res = json.loads(plain.stdout.splitlines()[-1])
    traced_res = json.loads(traced.stdout.splitlines()[-1])
    assert set(plain_res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced_res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for res in (plain_res, traced_res):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["attempted"] >= 2 * len(studies)


def test_named_checks_exist(tmp_path, monkeypatch):
    """Every check that workloads.py exempts is one its study writes."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from noiselab.harness import parse_config, run_experiment

    monkeypatch.chdir(tmp_path)
    for name in workloads.WORKLOADS:
        for study, text in workloads.study_configs(name, workloads.DEFAULT_SEED, "tiny"):
            checks = run_experiment(parse_config(text)).checks
            for table in (workloads.STATISTICAL, workloads.BY_DESIGN_RED):
                assert set(table.get(study.bundle, ())) <= set(checks), study.name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _bench("lsq", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()

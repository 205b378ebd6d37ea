"""noiselab benchmark: wall time of graded studies, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dln --seed 0 --seconds 60 --trace 0

Workloads (perfbench/workloads.py): dln and lsq. The workload
runs in one worker process as a closed loop with one client: each study
starts when the previous one has written its graded record, and whole
repetitions of the workload run until --seconds are used, at least two, so
that every record is compared with a rerun.

--trace 0 reports the end-to-end metrics, medians over repetitions:
  wall_s       all studies of one repetition, back to back
  setup_s      interpreter start, imports and config generation, up to the
               first study; the median of seven separately started processes
  peak_rss_mb  peak resident memory of the worker process
A study fails if it raises, records a non-finite scalar, turns a check red
that is neither red by design nor statistical (workloads.py), ends a discrete
run with its loss not far below the start, or writes a record whose digest
differs from that of another repetition or an earlier run of the same code
and seed (.perfbench/digests.json). Failures are counted in the result's
"failed" out of "attempted"; per-study times and fail_frac are printed as
lines above.

--trace 1 alternates untraced and traced repetitions. It reports the
per-layer numbers of the traced ones (perfbench/tracer.py), the per-study wall
times of the untraced ones, and trace_overhead_frac, the median over
consecutive (untraced, traced) pairs of traced over untraced wall time,
minus 1.

BLAS is pinned to one thread. Only the benchmark's own processes are
measured: no cache drops, no CPU pinning. Records and spans go to
.perfbench/ in the checkout; records are deleted at the end, spans are kept.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 7       # set-up-only processes
WORKER_TIMEOUT_S = 150  # a run must end within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def code_id(root: str) -> str:
    """Hash of the sources under src/, of the workload definitions and of the
    interpreter and numpy versions."""
    import numpy as np

    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    with open(os.path.join(HERE, "workloads.py"), "rb") as fh:
        h.update(fh.read())
    for dirpath, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(b"\0" + os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        import numpy as np
        facts["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        facts.setdefault("numpy", "unavailable")
    facts["thread_env"] = {k: "1" for k in THREAD_ENV}
    facts["measured"] = ("own processes only; BLAS pinned to 1 thread; "
                         "no cache drops, no CPU pinning")
    return facts


def spawn(args, env, cwd, timeout):
    """Start a worker and time it; the process is always reaped."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err}")
    return t0, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--budget", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long studies for the benchmark's own test")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "noiselab", "cli.py")):
        print("perfbench: run from the root of a noiselab checkout "
              "(src/noiselab not found)", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work)
    spans = os.path.join(base, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if args.trace and os.path.exists(spans):
        os.remove(spans)
    env = worker_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--budget", args.budget]
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            t0, out = spawn(common + ["--setup-only"], env, work, 10)
            setups.append(float(out.strip().splitlines()[-1]) - t0)
        result_path = os.path.join(work, "result.json")
        t0, _ = spawn(common + ["--seconds", str(args.seconds), "--trace",
                                str(args.trace), "--result", result_path,
                                "--spans", spans if args.trace else ""],
                      env, work, WORKER_TIMEOUT_S)
        with open(result_path) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = res["reps"]
    store = os.path.join(base, "digests.json")
    known = {}
    if os.path.exists(store):
        with open(store) as fh:
            known = json.load(fh)
    prefix = f"{code_id(root)}/{args.workload}/{args.budget}/seed{args.seed}"
    attempted = failed = 0
    by_design, statistical = set(), set()
    for rep in reps:
        for s in rep["studies"]:
            attempted += 1
            # same code and seed: the record must repeat byte for byte, in
            # this run (traced or not) and in every earlier one
            key = f"{prefix}/{s['name']}"
            if known.setdefault(key, s["digest"]) != s["digest"] and not s["failure"]:
                s["failure"] = "record digest differs from an earlier repetition or run"
            failed += bool(s["failure"])
            by_design.update(f"{s['name']}:{k}" for k in s["by_design_red"])
            statistical.update(f"{s['name']}:{k}" for k in s["statistical_red"])
    with open(store, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    study_s = {}
    for metric in workloads.STUDY_METRICS:
        per_rep = [sum(s["wall_s"] for s in r["studies"] if s["metric"] == metric)
                   for r in untraced]
        study_s[metric] = float(statistics.median(per_rep))
    wall = statistics.median(r["wall_s"] for r in untraced)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"budget={args.budget} reps={len(reps)} (traced {len(traced)})")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for rep in reps:
        for s in rep["studies"]:
            print(f"rep {rep['rep']} traced={int(rep['traced'])} {s['name']} "
                  f"{s['wall_s']:.4f} s sha256={s['digest']}"
                  + (f" FAILED: {s['failure']}" if s["failure"] else ""))
    print("by_design_red " + (", ".join(sorted(by_design)) or "none"))
    print("statistical_red " + (", ".join(sorted(statistical)) or "none"))
    for metric, value in study_s.items():
        if value:
            print(f"{metric} {value:.6f} s")
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} studies)")
    if args.trace:
        print(f"spans {os.path.relpath(spans, root)}")

    if args.trace:
        metrics = dict(res["layer"])
        metrics.update(study_s)
        metrics["trace_overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(reps[::2], reps[1::2]))
        units = layer_units
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = e2e_units
    if sorted(metrics) != sorted(units):
        print(f"perfbench: metric names {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

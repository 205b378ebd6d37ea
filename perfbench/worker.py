"""One benchmark process: set up, then run a workload's studies in a closed loop.

Started by run.py with the checkout's src/ on PYTHONPATH and the working
directory set to a scratch directory inside the checkout. Set-up is the
interpreter start, the imports and writing the config files; the stamp taken
when it ends (time.monotonic, a system-wide clock on Linux) lets run.py time
it from outside. With --setup-only the process prints that stamp and exits.

Otherwise it runs repetitions until --seconds are used: one repetition runs
every study of the workload in order, each through noiselab.cli.main(["run",
config]), and the next study starts only after the previous one has written
its graded record. With --trace 1 repetitions alternate untraced and traced.
Results go to --result as JSON, spans to --spans as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from noiselab import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# two repetitions give every record a rerun to compare digests with
MIN_REPS = 2
# a discrete study has trained when every cell's mean loss ends below this
# share of where it started; at the benchmark budgets it ends below 1e-4
LOSS_DROP = 1e-2


def record_digest(path: str, error: str) -> str:
    """sha256 over the record directory's file names and bytes, plus any error."""
    h = hashlib.sha256()
    h.update(error.encode())
    if os.path.isdir(path):
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(root, name)
                h.update(b"\0" + os.path.relpath(full, path).encode() + b"\0")
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _untrained(out: str) -> list:
    """Loss curves of a discrete study whose final mean is not far below the start."""
    bad = []
    for name in sorted(os.listdir(out)):
        if name.startswith("loss_") and name.endswith(".csv"):
            with open(os.path.join(out, name)) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            if not float(rows[-1][1]) < LOSS_DROP * float(rows[0][1]):
                bad.append(name[:-4])
    return bad


def grade(study, out: str, error: str):
    """(failure reason or '', by-design red checks, statistical red checks) of
    one finished study."""
    if error:
        return error.splitlines()[-1], [], []
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    by_design = workloads.BY_DESIGN_RED.get(study.bundle, ())
    statistical = workloads.STATISTICAL.get(study.bundle, ())
    red = sorted(k for k, v in summary["checks"].items() if not v)
    unexpected = [k for k in red if k not in by_design and k not in statistical]
    if unexpected:
        return "red check: " + ", ".join(unexpected), [], []
    if not (_finite(summary["scalars"]) and _finite(summary["per_seed"])):
        return "non-finite scalar", [], []
    untrained = _untrained(out)
    if untrained:
        return "loss did not drop: " + ", ".join(untrained), [], []
    return ("", [k for k in red if k in by_design],
            [k for k in red if k in statistical])


def run_rep(pairs, traced: bool, tr: tracing.Tracer, rep: int):
    """Run every study once; returns the repetition's record."""
    studies = []
    for study, path in pairs:
        out = os.path.join("records", study.name)
        shutil.rmtree(out, ignore_errors=True)
        error = ""
        tr.trace_id = f"rep{rep}/{study.name}"
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                if traced:
                    with tr.span("cli.main"):
                        cli.main(["run", path])
                else:
                    cli.main(["run", path])
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        failure, by_design, statistical = grade(study, out, error)
        studies.append({"name": study.name, "metric": study.metric, "wall_s": wall,
                        "digest": record_digest(out, error.splitlines()[-1] if error else ""),
                        "failure": failure, "by_design_red": by_design,
                        "statistical_red": statistical})
    return {"rep": rep, "traced": traced, "studies": studies,
            "wall_s": sum(s["wall_s"] for s in studies)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", default="")
    p.add_argument("--spans", default="")
    args = p.parse_args(argv)

    pairs = []
    os.makedirs("configs", exist_ok=True)
    for study, text in workloads.study_configs(args.workload, args.seed, args.budget):
        path = os.path.join("configs", study.name + ".txt")
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        pairs.append((study, path))
    setup_done = time.monotonic()
    if args.setup_only:
        print(repr(setup_done))
        return 0

    tr = tracing.Tracer()
    reps, layers = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tr.reset()
        if traced:
            with tr.installed():
                rep = run_rep(pairs, True, tr, len(reps))
            layers.append(tracing.layer_metrics(tr))
            if args.spans:
                with open(args.spans, "a") as fh:
                    for (name, t0, t1, parent, tid) in tr.spans:
                        fh.write(json.dumps({"trace": tid, "name": name, "start": t0,
                                             "end": t1, "parent": parent}) + "\n")
        else:
            rep = run_rep(pairs, False, tr, len(reps))
        reps.append(rep)
        elapsed = time.perf_counter() - start
        # stop before a repetition of average length would overrun the time
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break

    layer = {}
    if layers:
        layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    result = {
        "reps": reps,
        "layer": layer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

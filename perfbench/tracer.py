"""Spans and counters around calls into noiselab's layers, from outside src/.

Tracer.installed() swaps wrappers into the module globals that noiselab looks
up at call time (the integrators, solve_tilted, dataset generators and output
helpers that harness calls, the per-iteration helper of solve_tilted, and the
RngStream / Trajectory methods) and restores the originals on exit. Wrapped
calls pass their arguments and results through untouched, so a traced run
writes the same bytes as an untraced one.

Coarse calls become spans (name, start, end, parent, trace id) kept in memory.
Per-step calls (random draws, trajectory rows, solver iterations) only bump
counters, which keeps the tracer's own cost small; their time stays in the
self time of the span that made them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter

_clock = time.perf_counter

# per step or row: the matrix products the integrator loops do, each 2*n*d
# flops (discrete: Xbar@beta and the gradient; coupled: two residuals, two
# gradients and the shared-noise product); elementwise work is not counted
_DISCRETE_FLOPS = 4
_COUPLED_FLOPS = 10


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, trace id]
        self.child_s = []     # per span: time covered by its direct children
        self.counts = Counter()
        self.rng = [0, 0, 0.0]  # calls, values drawn, seconds
        self._stack = []
        self.trace_id = ""

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, self.trace_id])
        self.child_s.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            end = _clock()
            self.spans[idx][2] = end
            if parent >= 0:
                self.child_s[parent] += end - self.spans[idx][1]

    def totals(self):
        """name -> (total seconds, total self seconds) over all spans."""
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, self.child_s):
            tot, self_s = out.get(name, (0.0, 0.0))
            out[name] = (tot + end - start, self_s + end - start - child)
        return out

    def reset(self):
        self.spans.clear()
        self.child_s.clear()
        self.counts.clear()
        self.rng[:] = [0, 0, 0.0]

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if count is not None:
                        count(sig.bind(*args, **kwargs).arguments, None, exc)
                    raise
            if count is not None:
                count(sig.bind(*args, **kwargs).arguments, result, None)
            return result
        return wrapper

    def _rng(self, fn):
        acc = self.rng  # bound once: the per-draw cost is what tracing adds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            acc[2] += _clock() - t0
            acc[0] += 1
            acc[1] += getattr(result, "size", 1)
            return result
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_discrete(self, a, result, exc):
        c = self.counts
        c["discrete_runs"] += 1
        if exc is None:
            meta = result[1].meta
            steps = meta["steps_run"]
            c["discrete_early_stops"] += bool(meta["converged"])
        else:
            steps = getattr(exc, "step", 0)
        c["discrete_steps"] += steps
        c["discrete_flops"] += _DISCRETE_FLOPS * a["ds"].n * a["ds"].d * steps

    def _count_sde(self, a, result, exc):
        c = self.counts
        c["sde_runs"] += 1
        if exc is None:
            c["sde_steps"] += result.meta["steps_run"]
            c["sde_converged"] += bool(result.meta["converged"])

    def _count_ou(self, a, result, exc):
        self.counts["ou_steps"] += a["steps"]

    def _count_coupled(self, a, result, exc):
        rows = a["n_traj"] * a["steps"]
        self.counts["coupled_row_steps"] += rows
        self.counts["coupled_flops"] += _COUPLED_FLOPS * a["ds"].n * a["ds"].d * rows

    def _count_write(self, a, result, exc):
        if exc is None:
            self.counts["write_bytes"] += sum(os.path.getsize(p) for p in result)

    @contextlib.contextmanager
    def installed(self):
        from noiselab import cli, core_math, harness, mirror

        patches = [
            (cli, "run_experiment", self._spanned("harness.run_experiment",
                                                   cli.run_experiment)),
            (harness, "gen_sparse_regression",
             self._spanned("problems.dataset", harness.gen_sparse_regression)),
            (harness, "gen_underparam_regression",
             self._spanned("problems.dataset", harness.gen_underparam_regression)),
            (harness, "run_dln_discrete",
             self._spanned("dln_dynamics.discrete", harness.run_dln_discrete,
                           self._count_discrete)),
            (harness, "simulate_dln_sde",
             self._spanned("dln_dynamics.sde", harness.simulate_dln_sde,
                           self._count_sde)),
            (harness, "simulate_ou_under",
             self._spanned("lsq_dynamics.ou", harness.simulate_ou_under,
                           self._count_ou)),
            (harness, "simulate_coupled_over",
             self._spanned("lsq_dynamics.coupled", harness.simulate_coupled_over,
                           self._count_coupled)),
            (harness, "solve_tilted",
             self._spanned("mirror.solve_tilted", harness.solve_tilted)),
            (mirror, "_loss_and_grad",
             self._counted("solve_iters", mirror._loss_and_grad)),
            (harness, "_align", self._spanned("harness.align", harness._align)),
            (harness, "aggregate",
             self._spanned("harness.aggregate", harness.aggregate)),
            (harness.RunRecord, "write",
             self._spanned("harness.write", harness.RunRecord.write,
                           self._count_write)),
            (core_math.RngStream, "normal", self._rng(core_math.RngStream.normal)),
            (core_math.RngStream, "indices", self._rng(core_math.RngStream.indices)),
            (core_math.Trajectory, "append",
             self._counted("traj_rows", core_math.Trajectory.append)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced repetition, keyed by metric name."""
    t = tracer.totals()
    c = tracer.counts

    def total(name):
        return t.get(name, (0.0, 0.0))[0]

    def self_time(name):
        return t.get(name, (0.0, 0.0))[1]

    discrete_s, sde_s = total("dln_dynamics.discrete"), total("dln_dynamics.sde")
    ou_s, coupled_s = total("lsq_dynamics.ou"), total("lsq_dynamics.coupled")
    solve_s = total("mirror.solve_tilted")
    return {
        "core_math.rng_calls": tracer.rng[0],
        "core_math.rng_values": tracer.rng[1],
        "core_math.rng_s": tracer.rng[2],
        "core_math.traj_rows": c["traj_rows"],
        "problems.dataset_s": total("problems.dataset"),
        "dln_dynamics.discrete_steps": c["discrete_steps"],
        "dln_dynamics.discrete_s": discrete_s,
        "dln_dynamics.discrete_us_per_step": _per(discrete_s, c["discrete_steps"], 1e6),
        "dln_dynamics.discrete_early_stop_frac": _per(c["discrete_early_stops"],
                                                      c["discrete_runs"]),
        "dln_dynamics.discrete_gflops_computed": c["discrete_flops"] / 1e9,
        "dln_dynamics.sde_steps": c["sde_steps"],
        "dln_dynamics.sde_s": sde_s,
        "dln_dynamics.sde_us_per_step": _per(sde_s, c["sde_steps"], 1e6),
        "dln_dynamics.sde_converged_frac": _per(c["sde_converged"], c["sde_runs"]),
        "mirror.solve_calls": sum(1 for s in tracer.spans
                                  if s[0] == "mirror.solve_tilted"),
        "mirror.solve_iters": c["solve_iters"],
        "mirror.solve_s": solve_s,
        "mirror.solve_us_per_iter": _per(solve_s, c["solve_iters"], 1e6),
        "lsq_dynamics.ou_steps": c["ou_steps"],
        "lsq_dynamics.ou_s": ou_s,
        "lsq_dynamics.ou_us_per_step": _per(ou_s, c["ou_steps"], 1e6),
        "lsq_dynamics.coupled_row_steps": c["coupled_row_steps"],
        "lsq_dynamics.coupled_s": coupled_s,
        "lsq_dynamics.coupled_us_per_row_step": _per(coupled_s, c["coupled_row_steps"],
                                                     1e6),
        "lsq_dynamics.coupled_gflops_computed": c["coupled_flops"] / 1e9,
        "harness.align_s": total("harness.align"),
        "harness.aggregate_s": total("harness.aggregate"),
        "harness.write_s": total("harness.write"),
        "harness.write_bytes": c["write_bytes"],
        "harness.self_s": self_time("harness.run_experiment"),
        "cli.self_s": self_time("cli.main"),
    }

"""Command line front end: run configs, reproduce bundles, analyze records."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    STUDIES,
    apply_overrides,
    bundled_config,
    parse_config,
    run_alpha_sweep,
    run_experiment,
)

# reproduce name -> experiment id
_BUNDLES = {name: experiment for experiment, (name, _) in STUDIES.items()}


def _add_overrides(sp) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help="replace the base run seed")
    sp.add_argument("--sigma", type=float, default=None,
                    help="collapse the noise grid to this single scale")
    sp.add_argument("--alpha", type=float, default=None,
                    help="replace the initialization scale")
    sp.add_argument("--steps", type=int, default=None,
                    help="replace the step budget")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noiselab",
        description="Simulate noisy optimizers on regression instances and "
                    "grade the runs against their closed-form limits.")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run an experiment described by a config file")
    r.add_argument("config")
    _add_overrides(r)

    rp = sub.add_parser("reproduce", help="run one of the bundled studies")
    rp.add_argument("name", choices=sorted(_BUNDLES))
    rp.add_argument("--out", default="", help="output directory")
    _add_overrides(rp)

    a = sub.add_parser("analyze", help="report the checks of a stored summary")
    a.add_argument("record", help="summary.json path or its directory")

    return p


def _report(checks: dict, scalars: dict) -> None:
    """Print each check's verdict, then the scalars as sorted JSON."""
    for name in sorted(checks):
        mark = "ok  " if checks[name] else "FAIL"
        print(f"  [{mark}] {name}")
    print(json.dumps(scalars, indent=2, sort_keys=True))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "analyze":
        path = args.record
        if os.path.isdir(path):
            path = os.path.join(path, "summary.json")
        with open(path) as fh:
            summary = json.load(fh)
        if not isinstance(summary, dict):
            raise ValueError(f"{path} holds no JSON object")
        fields = {"checks": dict, "scalars": dict, "passed": bool}
        missing = [key for key in fields if key not in summary]
        if missing:
            raise ValueError(f"{path} lacks {', '.join(missing)}")
        wrong = [key for key, kind in fields.items() if not isinstance(summary[key], kind)]
        if wrong:
            raise ValueError(f"{path} has the wrong type for {', '.join(wrong)}")
        _report(summary["checks"], summary["scalars"])
        return 0 if summary["passed"] else 1

    if args.command == "run":
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        cfg = apply_overrides(cfg, seed=args.seed, sigma=args.sigma,
                              alpha=args.alpha, steps=args.steps)
        recs = [run_experiment(cfg)]
    elif _BUNDLES[args.name] == "alpha_sweep":  # the command left is reproduce
        recs = run_alpha_sweep(out=args.out, seed=args.seed, sigma=args.sigma,
                               alpha=args.alpha, steps=args.steps)
    else:
        cfg = bundled_config(_BUNDLES[args.name], out=args.out)
        cfg = apply_overrides(cfg, seed=args.seed, sigma=args.sigma,
                              alpha=args.alpha, steps=args.steps)
        recs = [run_experiment(cfg)]
    for rec in recs:
        print(f"experiment: {rec.config.experiment}  out: {rec.config.outdir()}")
        _report(rec.checks, rec.scalars)
    return 0 if all(r.passed() for r in recs) else 1


def entry(argv=None) -> int:
    """main as a command: a rejected config, an unreadable file or a failed run
    ends in one stderr line and exit 3 (1 is a failed check, 2 a usage error)."""
    try:
        return main(argv)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"noiselab: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())

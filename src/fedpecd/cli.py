"""Command-line interface: generate, validate, run, sweep."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import FedPecdError
from .harness import (
    PRESETS,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
    write_sweep_json,
)
from .protocol import VARIANTS, build_schedule, run_protocol

PAPER_SCALE = {"horizon": 2**17, "trials": 100, "agents": (50, 100, 150)}
DESK_SCALE = {"horizon": 2**13, "trials": 20, "agents": (10, 25, 50)}


def _add_protocol_flags(p: argparse.ArgumentParser):
    p.add_argument("--c", type=int, default=1, help="phase growth coefficient")
    p.add_argument("--n", type=int, default=2, help="phase growth base (> 1)")
    p.add_argument("--horizon", type=int, default=None, help="time horizon T")
    p.add_argument("--delta", type=float, default=0.1, help="confidence level")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def agent_counts(text: str) -> tuple[int, ...]:
    """The sweep's ``--agents``: comma-separated counts such as ``10,25,50``."""
    return tuple(int(x) for x in text.split(","))


def _check_writable(*paths):
    """Open each given output path once, so an unwritable one fails before any
    work.  Append mode never truncates a file; one it creates is removed."""
    for path in paths:
        if path is not None:
            made = not os.path.exists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if made:
                os.remove(path)


def _spec_from_args(args) -> SyntheticSpec:
    spec = PRESETS[args.preset](args.agents)
    overrides = {}
    if args.arms is not None:
        overrides["K"] = args.arms
    if args.dim is not None:
        overrides["d"] = args.dim
    if args.sigma is not None:
        overrides["sigma"] = args.sigma
    if args.perturbation is not None:
        overrides["perturbation"] = args.perturbation
    return replace(spec, **overrides) if overrides else spec


def cmd_generate(args) -> int:
    _check_writable(args.out)
    spec = _spec_from_args(args)
    scenario = generate_synthetic(spec, seed=args.seed, variant=args.variant)
    scenario.save(args.out)
    print(f"wrote {scenario.name} (K={scenario.K}, d={scenario.d}, "
          f"M={scenario.M}) to {args.out}")
    return 0


def cmd_validate(args) -> int:
    scenario = load_features(args.scenario)
    print(f"ok: {args.scenario} (K={scenario.K}, d={scenario.d}, M={scenario.M}, "
          f"sigma={scenario.sigma})")
    return 0


def cmd_run(args) -> int:
    _check_writable(args.trace_out, args.out_json)
    scenario = load_features(args.scenario)
    if args.agents is not None:
        scenario = scenario.restrict(args.agents)
    horizon = args.horizon if args.horizon is not None else DESK_SCALE["horizon"]
    schedule = build_schedule(args.c, args.n, scenario.K, horizon)
    trace = run_protocol(
        scenario,
        schedule,
        delta=args.delta,
        master_seed=args.seed,
        variant=args.variant,
        trace_path=args.trace_out,
    )
    summary = {
        "variant": trace.variant,
        "M": trace.m,
        "K": scenario.K,
        "horizon": horizon,
        "H": schedule.H,
        "alpha": trace.alpha,
        "final_avg_regret": trace.final_avg_regret,
        "checkpoints": [[r, x] for r, x in trace.checkpoints],
    }
    if args.meter:
        summary["scalars_up"] = trace.meter.scalars_up
        summary["scalars_down"] = trace.meter.scalars_down
        summary["scalars_total"] = trace.meter.total
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_sweep(args) -> int:
    scale = PAPER_SCALE if args.paper_scale else DESK_SCALE
    horizon = args.horizon if args.horizon is not None else scale["horizon"]
    trials = args.trials if args.trials is not None else scale["trials"]
    agents = args.agents or scale["agents"]
    _check_writable(args.out_csv, args.out_json)
    if args.scenario:
        source = load_features(args.scenario)
    else:
        source = PRESETS[args.preset](max(agents))
    result = run_sweep(
        source,
        variants=args.variants.split(","),
        agent_counts=agents,
        trials=trials,
        horizon=horizon,
        c=args.c,
        n=args.n,
        delta=args.delta,
        base_seed=args.seed,
        workers=args.workers,
    )
    if args.out_csv:
        write_sweep_csv(result, args.out_csv)
        print(f"wrote {args.out_csv}")
    if args.out_json:
        write_sweep_json(result, args.out_json)
        print(f"wrote {args.out_json}")
    if not args.out_csv and not args.out_json:
        print(json.dumps(sweep_summary(result), indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpecd",
        description="Federated phased-elimination bandit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic scenario file")
    g.add_argument("--preset", choices=PRESETS, default="synthetic")
    g.add_argument("--variant", choices=VARIANTS, default="hidden")
    g.add_argument("--agents", type=int, default=50)
    g.add_argument("--arms", type=int, default=None)
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--sigma", type=float, default=None)
    g.add_argument("--perturbation", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("validate", help="validate a scenario file")
    v.add_argument("--scenario", required=True)
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("run", help="run one protocol execution")
    r.add_argument("--scenario", required=True)
    r.add_argument("--variant", choices=VARIANTS, default="hidden")
    r.add_argument("--agents", type=int, default=None,
                   help="use only the first M agents of the scenario")
    r.add_argument("--trace-out", default=None, help="write a JSONL trace here")
    r.add_argument("--meter", action="store_true",
                   help="include communication-cost counters in the summary")
    r.add_argument("--out-json", default=None)
    _add_protocol_flags(r)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="multi-run sweep over variants and agent counts")
    s.add_argument("--scenario", default=None,
                   help="fixed scenario file (default: generate per trial)")
    s.add_argument("--preset", choices=PRESETS, default="synthetic")
    s.add_argument("--variants", default="exact,hidden")
    s.add_argument("--agents", type=agent_counts, default=None, help="comma-separated agent counts")
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out-csv", default=None)
    s.add_argument("--out-json", default=None)
    s.add_argument("--paper-scale", action="store_true",
                   help="T=2^17, 100 trials, M in {50,100,150}")
    _add_protocol_flags(s)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FedPecdError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Verbs:
    simulate      belief tracking experiments (safety probability over time)
    benchmark     estimator accuracy/runtime sweeps
    plan          closed-loop planning trials
    oracle-check  run the built-in consistency checks

Exit codes: 0 success, 2 configuration or usage error, 3 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    CONFIG_RULES,
    KINDS,
    ConfigError,
    ExperimentConfig,
    load_scenario,
    make_out,
    read_config,
    run_experiment,
    write_json,
)
from .oracles import run_oracle_checks
from .scenario import ScenarioError, check


def _kinds(verb: str) -> tuple:
    """The experiment kinds a verb runs."""
    return tuple(kind for kind, (runs, _) in KINDS.items() if runs == verb)


def _add_common(p: argparse.ArgumentParser, config_required: bool) -> None:
    p.add_argument(
        "--config",
        required=config_required,
        help="experiment config JSON (see README for the schema)",
    )
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgeo",
        description="Hybrid semantic-geometric belief estimation and planning",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in dict.fromkeys(verb for verb, _ in KINDS.values()):
        p = sub.add_parser(verb, help=f"run a {'/'.join(_kinds(verb))} experiment")
        _add_common(p, config_required=True)
        p.add_argument(
            "--methods",
            default=None,
            help="comma-separated subset of the config's methods to run",
        )
    p = sub.add_parser("oracle-check", help="run built-in consistency checks")
    _add_common(p, config_required=False)
    return parser


def _run_configured(args, allowed_kinds) -> int:
    config = ExperimentConfig.from_json(args.config)
    if config.kind not in allowed_kinds:
        raise ConfigError(
            f"verb expects kind in {allowed_kinds}, config has {config.kind!r}"
        )
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    if args.methods is not None:
        subset = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        bad = [m for m in subset if m not in config.methods]
        if bad:
            raise ConfigError(f"--methods {bad} not present in config methods")
        config.methods = subset
    config._validate()
    summary = run_experiment(config)
    print(json.dumps({k: summary[k] for k in ("kind", "files") if k in summary}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "oracle-check":
            if args.seed is not None:
                check({"seed": args.seed}, CONFIG_RULES, ConfigError)
            cfg = read_config(args.config) if args.config is not None else {}
            scenario = load_scenario(cfg.get("scenario", "oracle_small"))
            out = make_out(args.out) if args.out else None
            passed, checks = run_oracle_checks(
                scenario, seed=args.seed if args.seed is not None else 0
            )
            if out is not None:
                write_json(out / "oracle_check.json", [c.__dict__ for c in checks])
            return 0 if passed else 3
        return _run_configured(args, _kinds(args.verb))
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from pathlib import Path

from .harness import (
    BENCHMARK_KINDS,
    CONFIG_RULES,
    ESTIMATION_KINDS,
    PLANNING_KINDS,
    ConfigError,
    ExperimentConfig,
    load_scenario,
    read_config,
    run_experiment,
)
from .oracles import run_oracle_checks
from .scenario import ScenarioError, check

_VERB_KINDS = {
    "simulate": ESTIMATION_KINDS,
    "benchmark": BENCHMARK_KINDS,
    "plan": PLANNING_KINDS,
}


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
    for verb, kinds in _VERB_KINDS.items():
        p = sub.add_parser(verb, help=f"run a {'/'.join(kinds)} experiment")
        _add_common(p, config_required=True)
        p.add_argument(
            "--methods",
            default=None,
            help="comma-separated subset of the config's methods to run",
        )
    p = sub.add_parser("oracle-check", help="run built-in consistency checks")
    _add_common(p, config_required=False)
    return parser


def _make_out(out) -> Path:
    """Create the output directory; ConfigError when it cannot be made."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate
        raise ConfigError(f"cannot create out directory {out!r}: {exc}") from exc
    return path


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
    _make_out(config.out)
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
            out = _make_out(args.out) if args.out else None
            passed, checks = run_oracle_checks(
                scenario, seed=args.seed if args.seed is not None else 0
            )
            if out is not None:
                with open(out / "oracle_check.json", "w", encoding="utf-8") as fh:
                    json.dump([c.__dict__ for c in checks], fh, indent=2, default=str)
            return 0 if passed else 3
        return _run_configured(args, _VERB_KINDS[args.verb])
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

    slqr run --config <path|fixture> [--mode M] [--out DIR] [--seeds a,b,c]
    slqr check --config <path|fixture>
    slqr fixtures

Exit codes: 0 success, 1 config error, 2 solver/learner failure. The output
directory is taken from --out, else the SLQR_OUTPUT_DIR environment variable,
else the config's output_dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    MODES,
    fixture_names,
    fixture_path,
    load_config,
    resolve_config,
)
from .errors import ConfigError, SolverFailure, ValidationError
from .experiment import run_experiment

OUTPUT_DIR_ENV = "SLQR_OUTPUT_DIR"


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}")


def _check_output_dir(out: str) -> None:
    """ConfigError unless out is a directory or can be made one: the nearest
    path of out and its parents that exists must be a directory. Checked
    before any solve runs, as the outputs are written only after them."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output directory {out}: {path} is not a directory")
            return


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slqr",
        description="Average-cost LQR under multiplicative and additive noise: "
                    "model-based policy iteration and online model-free learning.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run the configured experiment")
    run.add_argument("--config", required=True,
                     help="config file path or shipped fixture name")
    run.add_argument("--mode", choices=MODES, help="override the config's mode")
    run.add_argument("--out", help="output directory override")
    run.add_argument("--seeds", help="comma-separated seed override, e.g. 0,1,2")

    check = sub.add_parser("check", help="validate a config and report dimensions")
    check.add_argument("--config", required=True,
                       help="config file path or shipped fixture name")

    sub.add_parser("fixtures", help="list shipped example configs")
    return parser


def _cmd_run(args) -> int:
    config = load_config(resolve_config(args.config))
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.seeds is not None:
        overrides["seeds"] = _parse_seeds(args.seeds)
    config = replace(config, **overrides)   # ExperimentConfig checks the result
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir
    _check_output_dir(out)

    try:
        summary = run_experiment(config, output_dir=out)
    except OSError as exc:   # the outputs, written after every solve
        raise ConfigError(f"output directory {out}: {exc}") from None
    print(f"wrote {out}/convergence.csv and {out}/summary.json")
    ref = summary["reference"]
    print(f"reference lambda* = {ref['lambda']:.6f}")
    if "model_based" in summary:
        mb = summary["model_based"]
        print(f"model_based: converged={mb['converged']} "
              f"iterations={mb['iterations']} lambda={mb['lambda']:.6f}")
    if "model_free" in summary:
        for seed, entry in sorted(summary["model_free"]["seeds"].items(),
                                  key=lambda kv: int(kv[0])):
            print(f"model_free seed {seed}: converged={entry['converged']} "
                  f"iterations={entry['iterations']} "
                  f"gain_error={entry['gain_error']:.4f} "
                  f"lambda={entry['lambda']:.6f}")
    return 0


def _cmd_check(args) -> int:
    path = resolve_config(args.config)
    config = load_config(path)
    model = config.model
    learner = "none" if config.learner is None else config.learner.cost_mode
    print(f"{path}: ok")
    print(f"mode={config.mode} n={model.state_dim} m={model.input_dim} "
          f"state_channels={len(model.state_noise)} "
          f"input_channels={len(model.input_noise)} "
          f"seeds={len(config.seeds)} learner={learner}")
    return 0


def _cmd_fixtures(_args) -> int:
    for name in fixture_names():
        print(f"{name}\t{fixture_path(name)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "check":
            return _cmd_check(args)
        return _cmd_fixtures(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailure, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

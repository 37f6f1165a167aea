"""Command-line entry point.

Subcommands: ``solve`` (stage 1 only), ``uq`` (everything after stage 1,
on a saved stage-1 file), ``run`` (full pipeline), ``report`` (metrics from
a saved band CSV).
Settings may come from a JSON config file; command-line flags override file
values, which override built-in defaults. Exit codes: 0 success,
1 numerical failure, 2 configuration error or an unreadable input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import experiment
from .errors import ConfigError, DeuqError
from .stage1 import atomic_write


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    p.add_argument("--preset", help="problem preset name")
    p.add_argument("--method", help="uncertainty method: bbb | flipout | nlm | der")
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-sizes", help="comma-separated layer widths, e.g. 32,32")
    p.add_argument("--activation")
    p.add_argument("--n-collocation", type=int)
    p.add_argument("--sampler")
    p.add_argument("--epochs-stage1", type=int)
    p.add_argument("--lr-stage1", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--dataset-grid", type=int)
    p.add_argument("--eps", type=float, help="fixed Gaussian likelihood scale")
    p.add_argument("--prior-std", type=float)
    p.add_argument("--der-lambda", type=float, help="evidence regularizer weight")
    p.add_argument("--n-mc-samples", type=int)
    p.add_argument("--epochs-stage2", type=int)
    p.add_argument("--lr-stage2", type=float)
    p.add_argument("--stage2-hidden-sizes", help="stage-2 head widths, e.g. 32,32")
    p.add_argument("--stage2-activation",
                   help="stage-2 head activation: rbf (default) | tanh | sin | softplus")
    p.add_argument("--eval-grid", type=int)
    p.add_argument("--lv-standard-form", action="store_true", default=None)
    p.add_argument("--no-reuse-stage1", dest="reuse_stage1", action="store_false", default=None)
    p.add_argument("--out", dest="output_dir", help="output directory for artifacts")


_FLAG_FIELDS = {f.name for f in dataclasses.fields(experiment.ExperimentConfig)}


def _add_coverage_k(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coverage-k", type=float, default=2.0)


def _file_value(key: str, value, flag: argparse.Action):
    """A config-file value checked with the type of its flag; a float flag
    also takes an integer, and a width flag a list of integers."""
    if isinstance(flag.const, bool):
        ok = isinstance(value, bool)
    elif flag.type in (int, float):
        ok = type(value) is int or (flag.type is float and type(value) is float)
        value = flag.type(value) if ok else value
    else:
        ok = isinstance(value, str) or (key.endswith("hidden_sizes") and isinstance(value, list)
                                        and all(type(w) is int for w in value))
    if not ok:
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")
    return value


def _widths(key: str, text: str) -> tuple:
    """Layer widths from a comma-separated list such as "32,32"."""
    try:
        return tuple(int(w) for w in text.split(",") if w)
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers, got {text!r}") from None


def _build_config(args: argparse.Namespace) -> experiment.ExperimentConfig:
    settings: dict = {}
    if args.config is not None:
        try:
            settings.update(json.loads(Path(args.config).read_text()))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}")
        unknown = set(settings) - _FLAG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        flags = argparse.ArgumentParser()
        _add_run_options(flags)
        _add_coverage_k(flags)  # `report`'s flag, for the coverage_k field
        flags = {a.dest: a for a in flags._actions}
        # a null leaves the field unset, like a flag that is not given
        settings = {key: _file_value(key, value, flags[key])
                    for key, value in settings.items() if value is not None}
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    for key in ("hidden_sizes", "stage2_hidden_sizes"):
        if isinstance(settings.get(key), str):
            settings[key] = _widths(key, settings[key])
    return experiment.ExperimentConfig(**settings)


def _print_artifacts(paths: experiment.RunArtifacts) -> None:
    print(f"band:   {paths.band_csv}")
    print(f"stage1: {paths.stage1_json}")
    print(f"report: {paths.report_json}")
    print(f"config: {paths.config_json}")


def _cmd_run(args) -> int:
    _print_artifacts(experiment.run(_build_config(args)))
    return 0


def _cmd_solve(args) -> int:
    config = _build_config(args)
    result = experiment.run_stage1(config)
    path = experiment.save_stage1(config, result)
    print(f"stage1: {path} (final mean squared residual "
          f"{result.loss_history[-1][1]:.3e})")
    return 0


def _cmd_uq(args) -> int:
    config = _build_config(args)
    result = experiment.load_stage1(config, args.stage1)
    if result is None:
        raise ConfigError(f"{args.stage1} is not a readable stage-1 file solved with this "
                          "config's stage-1 settings; solve again or pass its settings")
    _print_artifacts(experiment.run_uq(config, result, args.stage1))
    return 0


def _cmd_report(args) -> int:
    report = experiment.report_from_csv(args.band, args.coverage_k)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        atomic_write(args.out, text + "\n")
        print(f"report: {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deuq",
        description="Solve differential equations with neural networks and "
        "quantify the predictive uncertainty of the solution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: solve, fit, band, metrics")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_solve = sub.add_parser("solve", help="stage 1 only: deterministic solve")
    _add_run_options(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_uq = sub.add_parser("uq", help="stage 2, band and report on a saved stage-1 file")
    p_uq.add_argument("--stage1", type=Path, required=True, help="stage-1 JSON file")
    _add_run_options(p_uq)
    p_uq.set_defaults(func=_cmd_uq)

    p_rep = sub.add_parser("report", help="metrics from a saved band CSV")
    p_rep.add_argument("--band", type=Path, required=True)
    _add_coverage_k(p_rep)
    p_rep.add_argument("--out", type=Path)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DeuqError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

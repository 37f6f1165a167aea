"""Command-line entry point.

Subcommands: ``solve`` (stage 1 only), ``uq`` (everything after stage 1,
on a saved stage-1 file), ``run`` (full pipeline), ``report`` (metrics from
a saved band CSV).
``run``, ``solve`` and ``uq`` take one flag per ``ExperimentConfig`` field,
made from the field's name and type: ``--n-collocation`` for
``n_collocation``, ``--reuse-stage1``/``--no-reuse-stage1`` for a bool
field, and ``--out`` for ``output_dir``. Settings may also come from a JSON
config file holding an object of field names; flag and file values pass
the same check of the field's type, and flags override file values, which
override built-in defaults. Exit codes: 0 success, 1 numerical failure or
unwritable artifact, 2 configuration error or an unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from pathlib import Path

from . import experiment
from .errors import ConfigError, DeuqError
from .stage1 import atomic_write

# field name -> its type, with the None of an optional field dropped
_FIELD_TYPES = {name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
             for name, hint in typing.get_type_hints(experiment.ExperimentConfig).items()}

_HELP = {
    "preset": "problem preset name",
    "method": "uncertainty method: bbb | flipout | nlm | der",
    "hidden_sizes": "comma-separated layer widths, e.g. 32,32",
    "eps": "fixed Gaussian likelihood scale",
    "der_lambda": "evidence regularizer weight",
    "stage2_hidden_sizes": "stage-2 head widths, e.g. 32,32",
    "stage2_activation": "stage-2 head activation: rbf (default) | tanh | sin | softplus",
    "output_dir": "output directory for artifacts",
}


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    for name, kind in _FIELD_TYPES.items():
        flag = "--out" if name == "output_dir" else "--" + name.replace("_", "-")
        how = ({"action": argparse.BooleanOptionalAction} if kind is bool
               else {"type": kind if kind in (int, float) else str})
        p.add_argument(flag, dest=name, help=_HELP.get(name), **how)


def _setting(key: str, value):
    """A flag or config-file value as the type of field `key`. A float field
    also takes an integer, and a width field a list of integers or a
    comma-separated string such as "32,32"."""
    kind = _FIELD_TYPES[key]
    if kind is tuple and isinstance(value, str):
        try:
            return tuple(int(w) for w in value.split(",") if w)
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated integers, got {value!r}") from None
    if kind is tuple and isinstance(value, list) and all(type(w) is int for w in value):
        return tuple(value)
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")


def _file_settings(path: Path) -> dict:
    """The settings of a JSON config file, each checked by `_setting`; a
    null leaves its field unset, like a flag that is not given."""
    try:
        settings = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:  # missing, unreadable or not JSON
        raise ConfigError(f"config file {path} is not readable JSON: {e}") from None
    if not isinstance(settings, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    unknown = settings.keys() - _FIELD_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return {key: _setting(key, value) for key, value in settings.items() if value is not None}


def _build_config(args: argparse.Namespace) -> experiment.ExperimentConfig:
    settings = {} if args.config is None else _file_settings(args.config)
    for name in _FIELD_TYPES:
        value = getattr(args, name)
        if value is not None:
            settings[name] = _setting(name, value)
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
    p_rep.add_argument("--coverage-k", type=float, default=2.0)
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
    except (DeuqError, OSError) as e:  # a numerical failure, or an artifact not written
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

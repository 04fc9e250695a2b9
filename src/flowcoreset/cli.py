"""Command-line entry point for the flow-coreset pipeline.

Subcommands cover single pipeline stages (prepare, coreset, train, eval)
and the two packaged experiment grids (offline, stream) plus report
regeneration. Exit codes: 0 success, 1 config error, 2 data error,
3 numerical failure (a diagnostics JSON file is written next to the
output).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .coreset import compress, load_coreset, materialize, random_construct, save_coreset
from .data import (
    StandardizationParams,
    apply_standardization,
    fit_standardization,
    load_dataset,
    load_json,
)
from .errors import ConfigError, DataError, NumericalError
from .experiments import (
    ExperimentConfig,
    load_config,
    prepare_datasets,
    regenerate_report,
    run_offline,
    run_stream_experiment,
)
from .inference import (
    SAMPLER_DEFAULTS,
    WeightedBLRModel,
    accuracy,
    hmc_sample,
    load_posterior,
    save_posterior,
)
from .seeds import derive_seed

log = logging.getLogger("flowcoreset")

_MODE_FLAGS = {
    "pool": "pool_full",
    "coreset": "coreset_aggregate",
    "random": "random_aggregate",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data
    errors, so usage problems are routed through ConfigError instead."""

    def error(self, message):
        raise ConfigError(message)


def _count(text: str) -> int:
    """argparse type of a count flag: a whole number of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a count of at least 1, got {text!r}")
    return int(text)


def _configure(args) -> ExperimentConfig:
    overrides = {"rng_seed": args.seed, "budgets": getattr(args, "budgets", None)}
    return dataclasses.replace(load_config(args.config), **{
        key: value for key, value in overrides.items() if value is not None})


def _standardization_path(stem: str | Path) -> Path:
    return Path(stem).with_suffix(".std.json")


def cmd_prepare(args) -> int:
    config = _configure(args)
    written = prepare_datasets(config, args.out)
    for path in written:
        print(path)
    return 0


def cmd_coreset(args) -> int:
    data, _ = load_dataset(args.data)
    if args.method == "random":
        built = random_construct(data.n, min(args.budget, data.n), args.seed)
    else:
        _, _, (built,) = compress(
            data, (args.budget,), args.d, derive_seed(args.seed, "basis"),
            args.weighting, "batch0", method=args.method)
    save_coreset(built, args.out)
    diag = built.construction
    print(json.dumps({
        "method": args.method,
        "entries": built.size,
        "relative_error": diag.relative_error,
        "seconds": diag.wall_clock_seconds,
        "path": str(args.out),
    }))
    return 0


def cmd_train(args) -> int:
    data, _ = load_dataset(args.data)
    # `coreset` builds in the data file's own frame, so its rows are read
    # from the data standardized the same way.
    params = fit_standardization(data)
    std = apply_standardization(data, params)
    if args.coreset:
        built = load_coreset(args.coreset)
        model = WeightedBLRModel(
            *materialize(built, dict.fromkeys(built.batch_ids, std)))
    else:
        model = WeightedBLRModel.from_dataset(std)
    settings = {name: getattr(args, name) for name in SAMPLER_DEFAULTS}
    posterior = hmc_sample(model, rng_seed=args.seed, **settings)
    save_posterior(posterior, args.out)
    _standardization_path(args.out).write_text(
        json.dumps(params.to_dict()) + "\n")
    print(json.dumps({
        "n_draws": posterior.n_draws,
        "acceptance_rate": posterior.acceptance_rate,
        "step_size": posterior.step_size,
        "path": str(args.out),
    }))
    return 0


def cmd_eval(args) -> int:
    posterior = load_posterior(args.posterior)
    # The posterior was trained on standardized features; without its
    # frame the test rows cannot be classified in it.
    params = load_json(_standardization_path(args.posterior),
                       StandardizationParams.from_dict)
    data = apply_standardization(load_dataset(args.data)[0], params)
    draws = min(args.draws, posterior.n_draws)
    acc = accuracy(posterior, data, n_draws=draws)
    print(json.dumps({"accuracy": acc, "samples": data.n, "draws": draws}))
    return 0


def cmd_offline(args) -> int:
    config = _configure(args)
    report = run_offline(config, args.out)
    for condition, mean in report["grand_mean_accuracy"].items():
        if mean is None:
            log.info("%s: no successful trial", condition)
        else:
            log.info("%s: mean accuracy %.4f", condition, mean)
    print(Path(args.out) / "report.json")
    return 0


def cmd_stream(args) -> int:
    config = _configure(args)
    mode = _MODE_FLAGS[args.mode] if args.mode else None
    report, _ = run_stream_experiment(config, args.out, mode_override=mode)
    for arm in report["arms"]:
        last = arm["steps"][-1]
        log.info("%s budget=%s: final step accuracy %.4f",
                 arm["mode"], arm["budget"], last["mean_accuracy"])
    print(Path(args.out) / "stream_report.json")
    return 0


def cmd_report(args) -> int:
    for path in regenerate_report(args.run, fmt=args.format):
        print(path)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="flowcoreset",
                     description="Coreset-compressed Bayesian classification "
                                 "of network flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_budgets=True):
        p.add_argument("--config", required=True,
                       help="config JSON path or packaged name (sim1, sim2)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's root seed")
        if with_budgets:
            p.add_argument(
                "--budgets", default=None,
                type=lambda text: tuple(_count(part.strip())
                                        for part in text.split(",") if part.strip()),
                help="override budgets, e.g. 100,500,1000")

    p = sub.add_parser("prepare", help="materialize train/test datasets")
    add_config_flags(p, with_budgets=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("coreset", help="build one coreset from a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("giga", "fw", "random"),
                   default="giga")
    p.add_argument("--budget", type=_count, required=True)
    p.add_argument("--d", type=_count, default=500,
                   help="embedding dimension for giga/fw")
    p.add_argument("--weighting", choices=("laplace", "prior"),
                   default="laplace")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_coreset)

    p = sub.add_parser("train", help="sample a posterior, optionally "
                                     "weighted by a coreset")
    p.add_argument("--data", required=True)
    p.add_argument("--coreset", default=None)
    p.add_argument("--out", required=True, help="output stem for .npy/.json")
    p.add_argument("--seed", type=int, default=0)
    for name, default in SAMPLER_DEFAULTS.items():  # hmc_sample checks them
        p.add_argument("--" + name.replace("_", "-"), default=default,
                       type=int if isinstance(default, int) else float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="classify a test CSV with a posterior")
    p.add_argument("--posterior", required=True, help="stem used by train")
    p.add_argument("--data", required=True)
    p.add_argument("--draws", type=_count, default=1000)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("offline", help="run the offline experiment grid")
    add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("stream", help="run the streaming experiment grid")
    add_config_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=tuple(_MODE_FLAGS), default=None,
                   help="run a single reduction mode instead of the "
                        "config's list")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("report", help="regenerate reports from a run "
                                      "directory")
    p.add_argument("--run", required=True)
    p.add_argument("--format", choices=("csv", "json", "both"),
                   default="both")
    p.set_defaults(func=cmd_report)
    return parser


def _diagnostics_dir(args) -> Path:
    for attr in ("out", "run"):
        value = getattr(args, attr, None)
        if value:
            path = Path(value)
            return path if path.suffix == "" else path.parent
    return Path(".")


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 1
    except DataError as exc:
        log.error("data error: %s", exc)
        return 2
    except NumericalError as exc:
        target = _diagnostics_dir(args) if args is not None else Path(".")
        target.mkdir(parents=True, exist_ok=True)
        path = target / "numerical_failure.json"
        path.write_text(json.dumps(
            {"error": str(exc), "diagnostics": exc.diagnostics},
            indent=2, default=str) + "\n")
        log.error("numerical failure: %s (diagnostics at %s)", exc, path)
        return 3


if __name__ == "__main__":
    sys.exit(main())

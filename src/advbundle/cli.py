"""Command-line driver: synth data, train, run bundles, emit reports.

Exit codes: 0 success, 2 config error (an output directory that cannot be
made included), 3 data error (a dataset or model file that cannot be read or
written, and a ShapeError, data that does not fit the model, included), 4
numeric failure.
ADVBUNDLE_OUTPUT_DIR overrides the config's output directory; the
--output-dir flag overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bundler import BundleResult, bundle, complete
from .config import ExperimentConfig, load_experiment_config, with_output_dir
from .data import Dataset, load_dataset_csv, save_dataset_csv, synth_dataset
from .errors import (AttackFailedError, ConfigError, ContractError, DataError,
                     ShapeError, TrainingDivergedError)
from .models import probs_rows, save_model, train
from .reporting import (dump_candidates_csv, fmt, make_tables, norm_curve,
                        success_fail_curve, wat_gap_csv, wat_underestimation_report,
                        write_chosen_csv, write_norm_curve_csv, write_rates_csv,
                        write_sf_curve_csv, write_wat_gap_csv)
# perfbench/child.py wraps these names when it traces a run; nothing here calls them
from .bundler import reselect  # noqa: F401
from .models import predict  # noqa: F401

OUTPUT_DIR_ENV = "ADVBUNDLE_OUTPUT_DIR"

ARTIFACTS = ("rates.csv", "sf_curve.csv", "norm_curve.csv", "wat_gap.csv",
             "chosen.csv", "model.txt", "summary.txt")


def _load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset == "synthetic":
        return synth_dataset(config.synth_n, config.synth_d, config.synth_k,
                             config.synth_seed)
    return load_dataset_csv(config.csv_path)


def _summary_text(config: ExperimentConfig, dataset: Dataset, mat, wat, bundled,
                  result: BundleResult) -> str:
    lines = ["attack bundling experiment", ""]
    if config.dataset == "synthetic":
        lines.append(f"dataset: synthetic blobs n={config.synth_n} d={config.synth_d} "
                     f"k={config.synth_k} (seed {config.synth_seed})")
    else:
        lines.append(f"dataset: {config.csv_path} (n={len(dataset)}, d={dataset.dimension}, "
                     f"k={dataset.num_classes})")
    lines.append(f"model: {config.architecture} (train seed {config.train_seed})")
    crit = config.criterion.variant
    if config.criterion.threshold is not None:
        crit += f" t={fmt(config.criterion.threshold)}"
    cap = "unlimited" if config.max_units is None else str(config.max_units)
    lines.append(f"criterion: {crit}; budget: {cap} units/example; "
                 f"early_stop: {str(config.early_stop).lower()}")
    lines.append(f"root seed: {config.seed}")
    lines.append("")
    lines.append(f"clean error rate: {mat.clean_error * 100:.2f}%")
    lines.append("per-attack error rates:")
    for rate in mat.per_attack:
        note = "" if rate.complete else "  (incomplete column: lower bound)"
        lines.append(f"  {rate.attack_id:<16} {rate.error_rate * 100:7.2f}%{note}")
    lines.append(f"worst single attack: {wat.wat_max * 100:.2f}%")
    lines.append(f"bundled error rate:  {bundled.bundled_rate * 100:.2f}%")
    lines.append("")
    total_units = int(result.units_spent.sum())
    stopped = int(result.stopped_early.sum())
    lines.append(f"attack units spent: {total_units} total, "
                 f"{total_units / max(len(dataset), 1):.2f} per example; "
                 f"{stopped} examples stopped early")
    lines.append("")
    lines.append("artifacts: " + " ".join(ARTIFACTS))
    return "\n".join(lines) + "\n"


def _output_dir(config: ExperimentConfig) -> Path:
    """The config's output directory, refused before any work unless it is a
    directory or can be made one; nothing is created here."""
    outdir = Path(config.output_dir)
    nearest = next((p for p in (outdir, *outdir.parents) if p.exists()), outdir)
    if not nearest.is_dir():
        raise ConfigError(f"output directory {outdir} cannot be made: {nearest} is not a "
                          "directory")
    return outdir


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Train, bundle, and write the full artifact set to the output dir."""
    outdir = _output_dir(config)
    dataset = _load_dataset(config)
    model = train(dataset, config.architecture, config.train_params)

    primary = bundle(model, dataset, config.attacks, config.criterion, config.budget,
                     seed=config.seed, keep_candidates=config.dump_candidates)

    mat, wat, bundled_table = make_tables(primary)
    # both curves need every allowed attack run on every example
    full = complete(primary)
    sf = success_fail_curve(full, config.threshold_grid)
    curve = norm_curve(full, config.epsilon_grid)
    gap_rows = wat_underestimation_report(config.gap_ns)

    outdir.mkdir(parents=True, exist_ok=True)
    paths = {name: outdir / name for name in ARTIFACTS}
    save_model(paths["model.txt"], model)
    write_rates_csv(paths["rates.csv"], mat, wat, bundled_table)
    write_sf_curve_csv(paths["sf_curve.csv"], sf)
    write_norm_curve_csv(paths["norm_curve.csv"], curve)
    write_wat_gap_csv(paths["wat_gap.csv"], gap_rows)
    write_chosen_csv(paths["chosen.csv"], primary)
    if config.dump_candidates:
        dump_candidates_csv(outdir / "candidates.csv", primary)
        paths["candidates.csv"] = outdir / "candidates.csv"
    paths["summary.txt"].write_text(
        _summary_text(config, dataset, mat, wat, bundled_table, primary))
    return paths


def _resolve_output_dir(config: ExperimentConfig, flag_value: str | None) -> ExperimentConfig:
    if flag_value:
        return with_output_dir(config, flag_value)
    env_value = os.environ.get(OUTPUT_DIR_ENV)
    if env_value:
        return with_output_dir(config, env_value)
    return config


def _cmd_run(args) -> int:
    config = load_experiment_config(args.config)
    config = _resolve_output_dir(config, args.output_dir)
    paths = run_experiment(config)
    print(Path(paths["summary.txt"]).read_text(), end="")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # refused before the draw, not at the write
        raise DataError(f"cannot write dataset file {out}: it must be a file in an existing "
                        "directory")
    dataset = synth_dataset(args.n, args.d, args.k, args.seed)
    save_dataset_csv(args.out, dataset)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = load_experiment_config(args.config)
    config = _resolve_output_dir(config, args.output_dir)
    outdir = _output_dir(config)
    dataset = _load_dataset(config)
    model = train(dataset, config.architecture, config.train_params)
    outdir.mkdir(parents=True, exist_ok=True)
    model_path = outdir / "model.txt"
    save_model(model_path, model)
    correct = (probs_rows(model, dataset.features).argmax(axis=1) == dataset.labels).sum()
    print(f"trained {config.architecture} on {len(dataset)} examples; "
          f"clean error {(1 - correct / len(dataset)) * 100:.2f}%; saved to {model_path}")
    return 0


def _cmd_gap(args) -> int:
    print(wat_gap_csv(wat_underestimation_report(args.n)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advbundle",
        description="Evaluate classifier robustness by bundling adversarial attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="write a synthetic blob dataset as CSV")
    p_synth.add_argument("n", type=int)
    p_synth.add_argument("d", type=int)
    p_synth.add_argument("k", type=int)
    p_synth.add_argument("seed", type=int)
    p_synth.add_argument("out")
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", help="train the configured model and save it")
    p_train.add_argument("config")
    p_train.add_argument("--output-dir", default=None)
    p_train.set_defaults(func=_cmd_train)

    p_gap = sub.add_parser("gap", help="print the worst-attack underestimation table")
    p_gap.add_argument("n", type=int, nargs="+")
    p_gap.set_defaults(func=_cmd_gap)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, AttackFailedError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

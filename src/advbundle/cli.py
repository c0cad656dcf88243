"""Command-line driver: synth data, train, run bundles, emit reports.

`run` and `train` share one prologue (`_experiment`, then `_prepare`): the
config, with the --output-dir flag overriding its output directory and nothing
else changing where a run writes, then each artifact path, vetted before the
dataset loads, then the dataset and the trained model.

Exit codes: 0 success, 2 config error (an output directory that cannot be
made, a name in it the file system cannot hold, or an output file that is a
directory), 3 data error (a file that cannot be read or written, an output
directory the file system then refuses to make, a ShapeError, and a run out
of memory), 4 numeric failure. Every file, and `run`'s stdout, is UTF-8
whatever the locale.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bundler import BundleResult, bundle, complete
from .config import ExperimentConfig, load_experiment_config
from .data import Dataset, fmt, load_dataset_csv, save_dataset_csv, synth_dataset, write_lines
from .errors import (AttackFailedError, ConfigError, ContractError, DataError,
                     ShapeError, TrainingDivergedError)
from .models import probs_rows, save_model, train
from .reporting import (dump_candidates_csv, make_tables, norm_curve,
                        success_fail_curve, wat_gap_lines, wat_underestimation_report,
                        write_chosen_csv, write_norm_curve_csv, write_rates_csv,
                        write_sf_curve_csv, write_wat_gap_csv)
# perfbench/child.py wraps these names when it traces a run; nothing here calls them
from .bundler import reselect  # noqa: F401
from .models import predict  # noqa: F401

ARTIFACTS = ("rates.csv", "sf_curve.csv", "norm_curve.csv", "wat_gap.csv",
             "chosen.csv", "model.txt", "summary.txt")


def _load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset == "synthetic":
        return synth_dataset(config.synth_n, config.synth_d, config.synth_k,
                             config.synth_seed)
    return load_dataset_csv(config.csv_path)


def _summary_lines(config: ExperimentConfig, dataset: Dataset, mat, wat, bundled,
                   result: BundleResult) -> list[str]:
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
    return lines


def _experiment(args) -> ExperimentConfig:
    """The config file's experiment, writing to --output-dir if given, else to the
    config's output_dir."""
    config = load_experiment_config(args.config)
    return config if args.output_dir is None else replace(config, output_dir=args.output_dir)


def _prepare(config: ExperimentConfig, names: tuple[str, ...]):
    """The prologue of `run` and `train`: the path of each of `names` in the output
    directory, refused before any work unless `mkdir` and the writes can succeed
    (each path encodes in the file-system encoding and holds no NUL, each name to be
    made fits the file system, the nearest existing ancestor, a link counted as
    existing, is a directory and no artifact path is one), then the dataset and the
    model trained on it."""
    outdir = Path(config.output_dir)
    paths = {name: outdir / name for name in names}
    refused = f"output directory {outdir} cannot be made"
    try:
        if b"\0" in os.fsencode(outdir):
            raise ConfigError(f"{refused}: its name holds a NUL byte")
        nearest = next((p for p in (outdir, *outdir.parents) if os.path.lexists(p)), outdir)
        if not nearest.is_dir():
            raise ConfigError(f"{refused}: {nearest} is not a directory")
        limit = os.pathconf(nearest, "PC_NAME_MAX") if hasattr(os, "pathconf") else 255
        for name in (*outdir.parts[len(nearest.parts):], *names):
            if 0 < limit < len(os.fsencode(name)):  # -1: the file system sets no limit
                raise ConfigError(f"{refused}: a name in it is longer than {limit} bytes")
        for path in paths.values():  # the stat also refuses a path over the system's limit
            if path.is_dir():
                raise ConfigError(f"output file {path} cannot be written: it is a directory")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{refused}: its name is not {sys.getfilesystemencoding()} text") from exc
    except OSError as exc:
        raise ConfigError(f"{refused}: {exc.strerror}") from exc
    dataset = _load_dataset(config)
    return paths, dataset, train(dataset, config.architecture, config.train_params)


def _make_output_dir(config: ExperimentConfig) -> None:
    """Make the output directory; what `_prepare` cannot foresee (a read-only file
    system, a full disk, a permission) is a DataError naming it."""
    try:
        Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"output directory {config.output_dir} cannot be made: "
                        f"{exc.strerror or exc}") from exc


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Train, bundle, and write the full artifact set to the output dir."""
    names = ARTIFACTS + (("candidates.csv",) if config.dump_candidates else ())
    paths, dataset, model = _prepare(config, names)

    primary = bundle(model, dataset, config.attacks, config.criterion, config.budget,
                     seed=config.seed, keep_candidates=config.dump_candidates)

    mat, wat, bundled_table = make_tables(primary)
    # both curves need every allowed attack run on every example
    full = complete(primary)
    sf = success_fail_curve(full, config.threshold_grid)
    curve = norm_curve(full, config.epsilon_grid)
    gap_rows = wat_underestimation_report(config.gap_ns)

    _make_output_dir(config)
    save_model(paths["model.txt"], model)
    write_rates_csv(paths["rates.csv"], mat, wat, bundled_table)
    write_sf_curve_csv(paths["sf_curve.csv"], sf)
    write_norm_curve_csv(paths["norm_curve.csv"], curve)
    write_wat_gap_csv(paths["wat_gap.csv"], gap_rows)
    write_chosen_csv(paths["chosen.csv"], primary)
    if config.dump_candidates:
        dump_candidates_csv(paths["candidates.csv"], primary)
    write_lines(paths["summary.txt"],
                _summary_lines(config, dataset, mat, wat, bundled_table, primary))
    return paths


def _cmd_run(args) -> int:
    paths = run_experiment(_experiment(args))
    sys.stdout.flush()
    sys.stdout.buffer.write(paths["summary.txt"].read_bytes())
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    try:  # refused before the draw, not at the write; the stat refuses a name too long
        usable = out.parent.is_dir() and not out.is_dir()
    except OSError as exc:
        raise DataError(f"cannot write dataset file {out}: {exc.strerror}") from exc
    if not usable:
        raise DataError(f"cannot write dataset file {out}: it must be a file in an existing "
                        "directory")
    dataset = synth_dataset(args.n, args.d, args.k, args.seed)
    save_dataset_csv(args.out, dataset)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _experiment(args)
    paths, dataset, model = _prepare(config, ("model.txt",))
    _make_output_dir(config)
    save_model(paths["model.txt"], model)
    correct = (probs_rows(model, dataset.features).argmax(axis=1) == dataset.labels).sum()
    print(f"trained {config.architecture} on {len(dataset)} examples; "
          f"clean error {(1 - correct / len(dataset)) * 100:.2f}%; saved to {paths['model.txt']}")
    return 0


def _cmd_gap(args) -> int:
    print("\n".join(wat_gap_lines(wat_underestimation_report(args.n))))
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


_returned = False  # whether main has returned or raised in this process


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The first time `main` leaves in a process after parsing its arguments, by a
    return or an exception, it freezes the collector (`gc.freeze`): the command is
    done, the process is about to exit, and nothing it holds needs collecting, so
    finalization skips walking the heap. Every file `main` opens is closed by then.
    An embedding caller that keeps running may call `gc.unfreeze()`."""
    global _returned
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # not 2: the run may have trained and bundled before it
        print("data error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, AttackFailedError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    finally:
        if not _returned:
            _returned = True
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())

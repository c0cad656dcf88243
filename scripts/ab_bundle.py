#!/usr/bin/env python3
"""In-process A/B check of `bundle()` between two source trees, and of their import.

    python scripts/ab_bundle.py PARENT_SRC CHANGE_SRC [--pairs N] [--import-pairs M]

Each SRC is a directory holding the `advbundle` package (a checkout's `src/`)
or the package directory itself. Both trees are imported in one process,
under the package names `ab_parent` and `ab_change`. For each benchmark
workload at bench size and workload seed 0 (`perfbench/workloads.py`), each
side parses the config, builds the dataset, trains and bundles with its own
code. The script first asserts that both sides' models and every
`BundleResult` array both sides hold, the pool of every scored candidate
included, are byte-identical, and prints the arrays only one side holds (a
field one tree added); so are the single-example API's outputs on the first
`SINGLE_EXAMPLES` examples: `run_attack`'s candidates under each configured
attack, and `predict` and `input_gradient` at the clean inputs. It then
runs one untimed `bundle()` per side under `tracemalloc`, times N pairs of
`bundle()` calls, alternating which side goes first, and prints each side's
median, the quartiles of the per-pair time ratio change / parent, and each
side's peak of traced memory within its one `bundle()`.

Last it times M pairs of fresh interpreters, alternating which side goes
first, each with one tree on `PYTHONPATH`: each imports numpy, then
`advbundle.cli` under the clock, from bytecode cached in a temporary
directory (`sys.pycache_prefix`; one untimed pair writes it), as perfbench's
runs import it. It prints each side's median and quartiles and the number of
pairs the change won. The package directory must then be named `advbundle`.

It takes 15-30 s at the default 151 pairs, and about 15 s more at the default
21 import pairs, on a 2-core VM. It is a quick check before perfbench's
process-level pairs, not a replacement for them: it leaves out process start,
the numpy import and training.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# examples whose single-example outputs are compared; they are not timed
SINGLE_EXAMPLES = 8


# run in a fresh interpreter: seconds `import advbundle.cli` takes after numpy
IMPORT_TIMER = """import sys, time, numpy
sys.pycache_prefix, sys.dont_write_bytecode = sys.argv[1], False
start = time.perf_counter()
import advbundle.cli
print(time.perf_counter() - start)
"""


def _package_dir(src: str) -> Path:
    """The advbundle package directory src names: a checkout's `src/` or the package itself."""
    path = Path(src).resolve()
    if (path / "advbundle" / "__init__.py").exists():
        path = path / "advbundle"
    if not (path / "__init__.py").exists():
        raise SystemExit(f"no advbundle package at {src}")
    return path


def _load_package(name: str, src: str):
    """The advbundle package under src, imported as `name` with its submodules."""
    path = _package_dir(src)
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _load_workloads():
    spec = importlib.util.spec_from_file_location("ab_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _setup(package, text: str, name: str):
    """The bundle() arguments of one workload config, built by one side."""
    config = package.parse_experiment_config(text, name)
    dataset = importlib.import_module(package.__name__ + ".cli")._load_dataset(config)
    model = package.train(dataset, config.architecture, config.train_params)
    return (model, dataset, config.attacks, config.criterion, config.budget), config.seed


def _arrays(value, name: str = "result") -> dict[str, np.ndarray]:
    """Every array value holds, by its dotted path: walks a BundleResult's
    dataclass and named-tuple fields, so a new field is compared too."""
    if isinstance(value, np.ndarray):
        return {name: value}
    if hasattr(value, "_asdict"):
        items = value._asdict().items()
    elif dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    else:
        return {}
    named = {}
    for key, item in items:
        named.update(_arrays(item, f"{name}.{key}"))
    return named


def _check_identical(name: str, results: dict, models: dict) -> dict[str, list[str]]:
    """Stop unless the models and every array both results hold are byte-identical;
    return, by side, the arrays only that side's result holds."""
    for (W_a, b_a), (W_b, b_b) in zip(models["parent"].layers, models["change"].layers):
        if W_a.tobytes() != W_b.tobytes() or b_a.tobytes() != b_b.tobytes():
            raise SystemExit(f"{name}: the trained models differ")
    a, b = (_arrays(results[side]) for side in SIDES)
    for key in a.keys() & b.keys():
        if a[key].dtype != b[key].dtype or a[key].shape != b[key].shape \
                or a[key].tobytes() != b[key].tobytes():
            raise SystemExit(f"{name}: {key} differs")
    return {"parent": sorted(a.keys() - b.keys()), "change": sorted(b.keys() - a.keys())}


def _single_example_bytes(package, model, dataset, attacks) -> dict[str, bytes]:
    """The single-example API's outputs on the first `SINGLE_EXAMPLES` examples,
    by call: each attack's `run_attack` candidates, seeded with the example's
    index, and `predict` and `input_gradient` at the clean input."""
    run_attack = importlib.import_module(package.__name__ + ".attacks").run_attack
    out = {}
    for i in range(min(SINGLE_EXAMPLES, len(dataset))):
        example = dataset[i]
        out[f"predict[{i}]"] = package.predict(model, example.features).probabilities.tobytes()
        out[f"input_gradient[{i}]"] = package.input_gradient(model, example.features,
                                                             example.label).tobytes()
        for config in attacks:
            out[f"run_attack[{config.attack_id}, {i}]"] = b"".join(
                c.adversarial_input.tobytes() for c in run_attack(model, example, config, i, i))
    return out


def _check_single_example(name: str, packages: dict, args: dict) -> None:
    a, b = (_single_example_bytes(packages[side], *args[side][:3]) for side in SIDES)
    for key in a:
        if a[key] != b[key]:
            raise SystemExit(f"{name}: {key} differs")


def _peak_kib(package, args: tuple, seed: int) -> float:
    """Peak memory, in KiB, that tracemalloc traces within one bundle() call."""
    gc.collect()
    tracemalloc.start()
    try:
        package.bundle(*args, seed=seed)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def _time_pairs(packages: dict, args: dict, seeds: dict, pairs: int) -> dict[str, list]:
    times = {side: [] for side in SIDES}
    gc.collect()
    gc.disable()
    try:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                start = time.perf_counter()
                packages[side].bundle(*args[side], seed=seeds[side])
                times[side].append(time.perf_counter() - start)
            gc.collect()
    finally:
        gc.enable()
    return times


def _time_imports(srcs: dict, pairs: int) -> dict[str, list]:
    """Seconds each side's fresh interpreters took to import advbundle.cli after numpy."""
    roots = {}
    for side, src in srcs.items():
        package = _package_dir(src)
        if package.name != "advbundle":
            raise SystemExit(f"{package}: timing the import needs a directory named advbundle")
        roots[side] = str(package.parent)
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as cache:
        for i in range(pairs + 1):  # pair 0 writes the bytecode and is not timed
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, cache],
                                      env={**os.environ, "PYTHONPATH": roots[side]},
                                      capture_output=True, text=True, check=True)
                if i:
                    times[side].append(float(proc.stdout))
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=151,
                        help="timed bundle() pairs per workload (default 151)")
    parser.add_argument("--import-pairs", type=int, default=21,
                        help="timed pairs of fresh-interpreter imports (default 21)")
    opts = parser.parse_args()
    if opts.pairs < 1 or opts.import_pairs < 1:
        parser.error("--pairs and --import-pairs must be >= 1")
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree
    srcs = dict(zip(SIDES, (opts.parent_src, opts.change_src)))
    packages = {side: _load_package(f"ab_{side}", src) for side, src in srcs.items()}
    workloads = _load_workloads()
    for name, workload in workloads.WORKLOADS.items():
        text = workloads.config_text(workload, 0)
        args, seeds, results = {}, {}, {}
        for side in SIDES:
            args[side], seeds[side] = _setup(packages[side], text, name)
            results[side] = packages[side].bundle(*args[side], seed=seeds[side],
                                                  keep_candidates=True)
        only = _check_identical(name, results, {side: args[side][0] for side in SIDES})
        for side in SIDES:
            if only[side]:
                print(f"{name}: only {side} holds {', '.join(only[side])}; not compared")
        _check_single_example(name, packages, args)
        peaks = {side: _peak_kib(packages[side], args[side], seeds[side]) for side in SIDES}
        times = _time_pairs(packages, args, seeds, opts.pairs)
        ratio = np.array(times["change"]) / np.array(times["parent"])
        q1, q2, q3 = np.percentile(ratio, [25, 50, 75])
        wins = int(np.count_nonzero(ratio < 1.0))
        print(f"{name}: identical bytes; bundle() median parent "
              f"{np.median(times['parent']) * 1e3:.2f} ms, change "
              f"{np.median(times['change']) * 1e3:.2f} ms; change/parent quartiles "
              f"{q1:.3f} {q2:.3f} {q3:.3f}; change faster in {wins} of {opts.pairs}; "
              f"peak parent {peaks['parent']:.0f} KiB, change {peaks['change']:.0f} KiB")
    times = _time_imports(srcs, opts.import_pairs)
    ms = {side: np.percentile(times[side], [25, 50, 75]) * 1e3 for side in SIDES}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print("import: advbundle.cli after numpy, cached bytecode; "
          + "; ".join(f"{side} median {ms[side][1]:.2f} ms, quartiles {ms[side][0]:.2f} "
                      f"{ms[side][2]:.2f}" for side in SIDES)
          + f"; change faster in {wins} of {opts.import_pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

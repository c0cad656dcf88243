#!/usr/bin/env python3
"""A/B check of `train`, `bundle()`, the import and the exit between two source
trees, one tree per fresh process.

    python scripts/ab_bundle.py PARENT_SRC CHANGE_SRC [--pairs N]

Each SRC is a directory holding the `advbundle` package (a checkout's `src/`)
or the package directory itself, which must then be named `advbundle`. A
third side, the copy, runs the parent's tree again: two processes of one
tree differ by a few percent, so a change's ratio to the parent means
something only outside the copy's band.

Each of N rounds starts one fresh process per side, in the order parent,
change, copy rotated by the round's number. Every process imports its own
copy of its side's tree, made and compiled in a temporary directory before
the first round, so each has its own directory, bytecode and memory layout,
and the A/A side is measured exactly as the A/B side is. A process
  - times `import advbundle.cli` after numpy, from that bytecode;
  - for each benchmark workload at bench size and workload seed 0
    (`perfbench/workloads.py`), builds the config, dataset and model as the
    CLI does, and times the process's first `bundle()` of that workload on
    the wall clock, without a pool as `advbundle run` calls it: perfbench's
    `examples_per_s` divides by that call;
  - then bundles once with `keep_candidates=True` and takes the SHA-256
    of every array of the model and of the `BundleResult`, the candidate
    pool included, and of the single-example API's outputs on the first
    `SINGLE_EXAMPLES` examples (`run_attack` under each configured attack,
    `predict` and `input_gradient`);
  - takes the peak of traced memory (`tracemalloc`) within one `bundle()`;
  - times `TIMED_CALLS` calls of `train`, each followed by `bundle()`, on the
    wall clock and on the thread's CPU time (`time.thread_time`), which
    leaves out the time the host runs other work and the work BLAS hands to
    its own threads, and keeps each phase's median;
  - runs `advbundle.cli.main(["gap", "1"])` and stamps the clock as its last
    act; its exit time runs from that stamp until the script has reaped it.

The script stops, naming it, at the first entry in which a process's digests
differ from the first parent process's, and prints the entries only one side
holds (a field one tree added). For each workload it prints a head line with
the traced peaks, then a line for the first `bundle()`, then one line per
phase and clock; then a line for the
import and one for the exit. Each gives the parent's and the change's
median, the quartiles of the per-round ratio change / parent and the rounds
the change won, and the same for copy / parent beside them.

It takes 45-50 s at the default 18 rounds on a quiet 2-core VM, and longer
when the host is busy. It is a quick check beside perfbench's process-level
pairs, which remain the measure of record.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# round i runs them in this order rotated by i, so each side takes each place in
# turn; the copy is the parent tree again, the A/A control
SIDES = ("parent", "change", "copy")
CLOCKS = {"wall": time.perf_counter, "thread CPU": time.thread_time}
# timed calls of each phase in one process
TIMED_CALLS = 3
# examples whose single-example outputs are compared; they are not timed
SINGLE_EXAMPLES = 8

# a measured process: seconds `import advbundle.cli` takes after numpy; this
# script's `_measure` as one JSON line, with no bytecode written beside this
# script or perfbench's; one command; and the clock as its last act
# (perf_counter reads the system-wide CLOCK_MONOTONIC on Linux, so the script
# can subtract it from the time it reaped the process)
MEASURE = """import sys, time, numpy
start = time.perf_counter()
import advbundle.cli
took = time.perf_counter() - start
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import ab_bundle
ab_bundle._measure(took)
advbundle.cli.main(["gap", "1"])
print(time.perf_counter())
"""


def _package_dir(src: str) -> Path:
    """The advbundle package directory src names: a checkout's `src/` or the package itself."""
    path = Path(src).resolve()
    if (path / "advbundle" / "__init__.py").exists():
        path = path / "advbundle"
    if not (path / "__init__.py").exists():
        raise SystemExit(f"no advbundle package at {src}")
    if path.name != "advbundle":
        raise SystemExit(f"{path}: the package directory must be named advbundle")
    return path


def _load_workloads():
    spec = importlib.util.spec_from_file_location("ab_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


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


def _digests(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    """The SHA-256 of each array's dtype, shape and bytes, by name."""
    out = {}
    for name, array in arrays.items():
        digest = hashlib.sha256(f"{array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())
        out[name] = digest.hexdigest()
    return out


def _check_identical(name: str, parent: dict[str, str],
                     other: dict[str, str]) -> tuple[list[str], list[str]]:
    """Stop unless two processes' digests agree in every entry both hold;
    return the entries only the parent's holds and those only the other's holds."""
    for key in parent:
        if key in other and parent[key] != other[key]:
            raise SystemExit(f"{name}: {key} differs")
    return sorted(parent.keys() - other.keys()), sorted(other.keys() - parent.keys())


def _single_example_outputs(model, dataset, attacks) -> dict[str, np.ndarray]:
    """The single-example API's outputs on the first `SINGLE_EXAMPLES` examples,
    by call: each attack's `run_attack` candidates, seeded with the example's
    index, and `predict` and `input_gradient` at the clean input."""
    from advbundle import input_gradient, predict
    from advbundle.attacks import run_attack
    out = {}
    for i in range(min(SINGLE_EXAMPLES, len(dataset))):
        example = dataset[i]
        out[f"predict[{i}]"] = predict(model, example.features).probabilities
        out[f"input_gradient[{i}]"] = input_gradient(model, example.features, example.label)
        for config in attacks:
            out[f"run_attack[{config.attack_id}, {i}]"] = np.array(
                [c.adversarial_input for c in run_attack(model, example, config, i, i)])
    return out


def _peak_kib(call) -> float:
    """Peak memory, in KiB, that tracemalloc traces within one call."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def _time_calls(calls: dict) -> dict[str, float]:
    """Median seconds of `TIMED_CALLS` calls of each phase, in turn, by "phase clock"."""
    times = {f"{phase} {clock}": [] for phase in calls for clock in CLOCKS}
    gc.collect()
    gc.disable()
    try:
        for _ in range(TIMED_CALLS):
            for phase, call in calls.items():
                start = {clock: read() for clock, read in CLOCKS.items()}
                call()
                for clock, read in CLOCKS.items():
                    times[f"{phase} {clock}"].append(read() - start[clock])
            gc.collect()
    finally:
        gc.enable()
    return {key: float(np.median(values)) for key, values in times.items()}


def _measure(import_s: float) -> None:
    """Print, as one JSON line, what one fresh process reports of the
    advbundle tree it imported: see the module docstring."""
    import advbundle
    from advbundle.cli import _load_dataset
    workloads = _load_workloads()
    out = {"import": import_s}
    for name, workload in workloads.WORKLOADS.items():
        config = advbundle.parse_experiment_config(workloads.config_text(workload, 0), name)
        dataset = _load_dataset(config)
        trains = (dataset, config.architecture, config.train_params)
        model = advbundle.train(*trains)
        bundles = partial(advbundle.bundle, model, dataset, config.attacks, config.criterion,
                          config.budget, seed=config.seed)
        start = time.perf_counter()
        bundles(keep_candidates=False)
        first = {"first bundle() wall": time.perf_counter() - start}
        arrays = {**_arrays(model, "model"), **_arrays(bundles(keep_candidates=True)),
                  **_single_example_outputs(model, dataset, config.attacks)}
        out[name] = {"digests": _digests(arrays), "peak_kib": _peak_kib(bundles),
                     "times": {**first, **_time_calls({"train": partial(advbundle.train, *trains),
                                                       "bundle()": bundles})}}
    print(json.dumps(out))


def _copy(package: Path, tmp: str) -> str:
    """A new directory under tmp holding a copy of the package, as `advbundle`."""
    root = tempfile.mkdtemp(dir=tmp)
    shutil.copytree(package, Path(root, "advbundle"), ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(side: str, root: str, cwd: str) -> dict:
    """One fresh process's `_measure` of side's tree under root, with its exit
    time. It runs in cwd, whose '' entry on `sys.path` must hold no other
    advbundle."""
    proc = subprocess.run([sys.executable, "-c", MEASURE, str(ROOT / "scripts")],
                          env={**os.environ, "PYTHONPATH": root}, cwd=cwd,
                          capture_output=True, text=True)
    reaped = time.perf_counter()
    if proc.returncode:
        raise SystemExit(f"a {side} process failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {**json.loads(lines[0]), "exit": reaped - float(lines[-1])}


def _ratio_text(times: dict[str, list], side: str) -> str:
    """The quartiles of side's per-round time ratio to the parent, and the rounds it won."""
    ratio = np.array(times[side]) / np.array(times["parent"])
    q1, q2, q3 = np.percentile(ratio, [25, 50, 75])
    return (f"{side}/parent quartiles {q1:.3f} {q2:.3f} {q3:.3f}; {side} faster in "
            f"{np.count_nonzero(ratio < 1.0)} of {len(ratio)}")


def _ratio_line(what: str, times: dict[str, list]) -> str:
    """Each side's median in ms and the A/B and A/A ratios of `_ratio_text`."""
    return (f"{what}: median parent {np.median(times['parent']) * 1e3:.2f} ms, change "
            f"{np.median(times['change']) * 1e3:.2f} ms; {_ratio_text(times, 'change')}; "
            f"A/A {_ratio_text(times, 'copy')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=18,
                        help="rounds, each one fresh process per side (default 18)")
    opts = parser.parse_args()
    if opts.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent = _package_dir(opts.parent_src)
    trees = {"parent": parent, "change": _package_dir(opts.change_src), "copy": parent}
    workloads = list(_load_workloads().WORKLOADS)
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        rounds = [{side: _copy(tree, tmp) for side, tree in trees.items()}
                  for _ in range(opts.pairs)]
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        *(root for roots in rounds for root in roots.values())],
                       cwd=tmp, check=True)
        for i, roots in enumerate(rounds):
            for side in SIDES[i % 3:] + SIDES[:i % 3]:
                run = _run(side, roots[side], tmp)
                runs[side].append(run)
                for name in workloads:
                    only = _check_identical(name, runs["parent"][0][name]["digests"],
                                            run[name]["digests"])
                    if side == "change" and len(runs["change"]) == 1:
                        for holder, keys in zip(("parent", "change"), only):
                            if keys:
                                print(f"{name}: only {holder} holds {', '.join(keys)}; "
                                      "not compared", flush=True)
    for name in workloads:
        peaks = {side: np.median([run[name]["peak_kib"] for run in runs[side]])
                 for side in SIDES}
        print(f"{name}: identical bytes; bundle() traced peak parent {peaks['parent']:.0f} "
              f"KiB, change {peaks['change']:.0f} KiB")
        for key in runs["parent"][0][name]["times"]:
            print(_ratio_line(f"{name} {key}", {side: [run[name]["times"][key]
                                                       for run in runs[side]]
                                                for side in SIDES}))
    for what in ("import", "exit"):
        print(_ratio_line(what, {side: [run[what] for run in runs[side]] for side in SIDES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny generated workload (a few seconds).

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks that:

* the canonical desk-default config at full size is configs/default.cfg;
* BENCHMARK.json names exactly the workloads and metrics the benchmark emits;
* an untraced and a traced run emit every named metric;
* the output check catches a corrupted CSV and a bundled rate below WAT;
* span self times are non-negative and each root span's duration is the
  sum of the self times in its subtree;
* without the advbundle source the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from workloads import WORKLOADS, Workload, config_text  # noqa: E402

TINY = Workload(
    "tiny", "a few examples and a few PGD steps", full_n=12, bench_n=12,
    template="""\
synth_n = {n}
synth_d = 2
synth_k = 3
synth_seed = {synth_seed}
architecture = mlp1
hidden = 4
epochs = 5
train_seed = {train_seed}
criterion = max_confidence
threshold = 0.9
early_stop = false
seed = {seed}

[attack fgsm]
variant = fgsm
epsilon = 0.2

[attack pgd-cheap]
variant = pgd
epsilon = 0.2
step_size = 0.05
num_steps = 3
num_restarts = 2

[attack noise]
variant = uniform_noise
epsilon = 0.2
num_samples = 5
""")

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def check_canonical_config() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import advbundle as ab
    desk = WORKLOADS["desk-default"]
    generated = ab.parse_experiment_config(config_text(desk, 0, desk.full_n))
    expect(generated == ab.load_experiment_config(ROOT / "configs" / "default.cfg"),
           "desk-default at seed 0 and full size is configs/default.cfg")


def check_metric_names(spec: dict) -> None:
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = bench_run.bench(TINY, 1, 0.1, trace, ROOT)
        expect(result["correct"] and result["attempted"] > 0 and result["failed"] == 0,
               f"tiny {'traced' if trace else 'untraced'} run is correct")
        names = [m["name"] for m in spec[key]]
        expect(list(result["metrics"]) == names, f"every {key} metric is emitted, in order")
        units = {m["name"]: m["unit"] for m in spec[key]}
        expect(all(v["unit"] == units.get(k) for k, v in result["metrics"].items()),
               f"{key} units match BENCHMARK.json")
        if not trace:
            expect(all(v["value"] > 0 for v in result["metrics"].values()),
                   "end-to-end metrics are positive")


def check_output_check(work: Path) -> None:
    config = work / "tiny.cfg"
    config.write_text(config_text(TINY, 0))
    run = bench_run.run_process(ROOT, work, config, 0, traced=False)
    expect(run.ok, "tiny run exits 0")
    hashes, problems = bench_run.check_outputs(run.out_dir, None)
    expect(not problems and len(hashes) == len(bench_run.CHECKED), "clean outputs pass")
    again, problems = bench_run.check_outputs(run.out_dir, hashes)
    expect(not problems and again == hashes, "outputs match their own hashes")

    chosen = run.out_dir / "chosen.csv"
    chosen.write_text(chosen.read_text().replace(",0,", ",1,", 1))
    _, problems = bench_run.check_outputs(run.out_dir, hashes)
    expect(problems == ["chosen.csv differs from the expected bytes"],
           "a corrupted chosen.csv is caught")

    rates = run.out_dir / "rates.csv"
    lines = rates.read_text().splitlines()
    rates.write_text("\n".join(line if not line.startswith("BUNDLED,bundled,")
                               else "BUNDLED,bundled,-1.0" for line in lines) + "\n")
    _, problems = bench_run.check_outputs(run.out_dir, None)
    expect(any("BUNDLED,bundled" in p for p in problems), "bundled below WAT max is caught")

    rates.write_text("kind,attack_id,rate\ngarbage\n")
    _, problems = bench_run.check_outputs(run.out_dir, hashes)
    expect("rates.csv is not kind,attack_id,rate rows" in problems, "an unreadable rates.csv is caught")


def check_spans(work: Path) -> None:
    import numpy as np
    config = work / "tiny.cfg"
    run = bench_run.run_process(ROOT, work, config, 1, traced=True)
    expect(run.ok, "traced tiny run exits 0")
    spans = np.load(work / "marks1.npz")
    parent, dur = spans["parent"], spans["end"] - spans["start"]
    expect(bool(np.all(dur >= 0)), "span durations are non-negative")
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - children
    expect(bool(np.all(self_s >= -1e-9)), "span self times are non-negative")
    starts, ends = spans["start"], spans["end"]
    inside = (starts[has_parent] >= starts[parent[has_parent]]) & \
        (ends[has_parent] <= ends[parent[has_parent]])
    expect(bool(np.all(inside)), "child spans lie inside their parents")
    root_of = np.arange(len(parent))
    for _ in range(64):
        up = parent[root_of]
        root_of = np.where(up >= 0, up, root_of)
    roots = np.flatnonzero(~has_parent)
    sums = np.bincount(root_of, weights=self_s, minlength=len(dur))[roots]
    expect(bool(np.allclose(sums, dur[roots], rtol=0, atol=1e-9)),
           "self times sum to each root span")
    expect(len(set(spans["run"].tolist())) == 1, "spans carry one run id")
    root_names = {run.marks["span_names"][i] for i in spans["name"][roots]}
    expect(root_names == {"config.load", "cli.run_experiment"},
           "config.load and cli.run_experiment are the root spans")


def check_without_source(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "desk-default", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the source the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_canonical_config()
        check_metric_names(spec)
        check_output_check(work)
        check_spans(work)
        check_without_source(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ROOT / ".bench_out" / f"{TINY.name}-s1", ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""advbundle benchmark: run a workload as fresh `advbundle run` processes.

    python3 perfbench/run.py --workload desk-default --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark writes the workload's
config for the given seed, then starts one `advbundle run` process at a time
(through perfbench/child.py) until `--seconds` have passed, checks every
run's outputs, and prints one line per metric followed by a JSON result as
the last line of stdout. With `--trace 0` the JSON holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of one traced run.
Exit status: 0 on success, 1 when an output check fails, 2 when the checkout
has no advbundle source. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, config_text  # noqa: E402

clock = time.perf_counter

CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
CHECKED = ("rates.csv", "sf_curve.csv", "norm_curve.csv", "wat_gap.csv",
           "chosen.csv", "model.txt")
MIN_RUNS = 5
DEADLINE_S = 170  # a run, set-up included, ends within this; processes still running are killed

# duration of child.py's speed probe at the reference speed: about its time in
# the fast phases of a shared 2-core Xeon VM (Python 3.11)
PROBE_REF_S = 100e-6

# (name, unit, better) of the end-to-end metrics, in output order; times are
# host-normalised (see Run.normalised)
END_TO_END = (("run_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("examples_per_s", "1/s", "higher"), ("peak_rss_mb", "MB", "lower"))
# printed beside them, not reported: the same times by the wall clock, and the
# host slowdown they were divided by
WALL = (("run_wall_s", "s", "lower"), ("setup_wall_s", "s", "lower"),
        ("examples_per_wall_s", "1/s", "higher"), ("host_slowdown", "ratio", "lower"))

# every attack id any workload uses, in first-seen order
ATTACK_IDS = tuple(dict.fromkeys(
    aid for w in WORKLOADS.values() for aid in re.findall(r"\[attack (\S+)\]", w.template)))


class ProcessTimeout(Exception):
    pass


@dataclass
class Run:
    """One `advbundle run` process."""

    index: int
    exit_code: int
    exec_at: float
    run_s: float
    rss_mb: float
    marks: dict
    out_dir: Path
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def bundles(self) -> list[dict]:
        return self.marks.get("bundles", [])

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def setup_s(self) -> float:
        return self.bundles[0]["entry"] - self.exec_at

    def slowdown(self, start: float, end: float) -> float:
        """Mean duration of the speed probes that started in [start, end]
        (all of the process's probes if none did), over PROBE_REF_S."""
        took = [s for t, s in zip(self.marks["probe_at"], self.marks["probe_s"])
                if start <= t <= end]
        return statistics.fmean(took or self.marks["probe_s"]) / PROBE_REF_S

    def normalised(self, start: float, end: float) -> float:
        """Seconds from start to end at the reference speed: the wall time
        divided by the slowdown the probes measured in that interval."""
        return (end - start) / self.slowdown(start, end)

    @property
    def units(self) -> int:
        return sum(b["units"] for b in self.bundles)

    @property
    def failed_units(self) -> int:
        return sum(b["failed_units"] for b in self.bundles)


def _on_alarm(signum, frame):
    raise ProcessTimeout()


def run_process(root: Path, work: Path, config: Path, index: int, traced: bool,
                timeout_s: int = DEADLINE_S) -> Run:
    """Start one `advbundle run` process and wait for it to end, killing it
    after `timeout_s` seconds."""
    out_dir = work / f"out{index}"
    marks_path = work / f"marks{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("ADVBUNDLE_OUTPUT_DIR", None)
    cmd = [sys.executable, str(CHILD), str(marks_path), "1" if traced else "0", "--",
           "run", str(config), "--output-dir", str(out_dir)]
    with open(work / f"log{index}.txt", "wb") as log:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(max(timeout_s, 1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = clock()
        except ProcessTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = clock()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    run = Run(index, proc.returncode, t0, t1 - t0, usage.ru_maxrss / 1024.0, marks, out_dir)
    if run.exit_code != 0:
        tail = (work / f"log{index}.txt").read_text(errors="replace")[-2000:]
        run.problems.append(f"run {index} exited with {run.exit_code}:\n{tail}")
    elif not run.bundles:
        run.problems.append(f"run {index} never called bundle()")
    elif not marks.get("probe_s"):
        run.problems.append(f"run {index} recorded no speed probes")
    return run


def check_outputs(out_dir: Path, expected: dict[str, str] | None) -> tuple[dict[str, str], list[str]]:
    """Hash the checked artifacts and test them; returns (hashes, problems)."""
    hashes: dict[str, str] = {}
    problems: list[str] = []
    for name in CHECKED:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if "rates.csv" in hashes:
        rates = {}
        try:
            for line in (out_dir / "rates.csv").read_text().splitlines()[1:]:
                kind, aid, rate = line.split(",")
                rates[(kind, aid)] = float(rate)
        except ValueError:
            problems.append("rates.csv is not kind,attack_id,rate rows")
        bundled, wat = rates.get(("BUNDLED", "bundled")), rates.get(("WAT", "max"))
        if bundled is None or wat is None or not bundled >= wat:
            problems.append(f"rates.csv: BUNDLED,bundled {bundled} < WAT,max {wat}")
    if expected is not None:
        for name in CHECKED:
            if name in hashes and hashes[name] != expected.get(name):
                problems.append(f"{name} differs from the expected bytes")
    return hashes, problems


def percentile_beyond(values: list[float], better: str) -> tuple[int, float] | None:
    """The most extreme percentile, on the worse side, with at least ten
    samples beyond it; None when there are too few samples."""
    k = len(values)
    if k < 11:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    rank = k - 10
    return round(100 * rank / k), ordered[rank - 1]


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")},
        "loadavg": list(os.getloadavg()),
    }


def microbench(root: Path, model_path: Path) -> dict[str, float]:
    """Median per-call microseconds of public input_gradient and predict."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from advbundle import input_gradient, load_model, predict

    model = load_model(model_path)
    xs = np.random.default_rng(0).uniform(0.0, 1.0, size=(500, model.dimension))
    out = {}
    for key, call in (("grad_us", lambda x: input_gradient(model, x, 0)),
                      ("predict_us", lambda x: predict(model, x))):
        per_call = []
        for _ in range(7):
            t0 = clock()
            for x in xs:
                call(x)
            per_call.append((clock() - t0) / len(xs) * 1e6)
        out[key] = statistics.median(per_call)
    return out


def span_table(npz_path: Path, names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds (span minus children)."""
    import numpy as np
    spans = np.load(npz_path)
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - children
    table = {}
    for nid, label in enumerate(names):
        mask = name == nid
        table[label] = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                        "self_s": float(self_s[mask].sum())}
    return table


def layer_metrics(run: Run, untraced_run_s: list[float], micro: dict[str, float]) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    table = span_table(run.out_dir.parent / f"marks{run.index}.npz", run.marks["span_names"])
    counts = run.marks["counts"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(label):
        return table.get(label, zero)

    m: dict[str, tuple[float, str]] = {}
    for aid in ATTACK_IDS:
        s = span(f"attacks.run_attack.{aid}")
        m[f"attacks.{aid}.calls"] = (s["calls"], "count")
        m[f"attacks.{aid}.s"] = (s["s"], "s")
        m[f"attacks.{aid}.candidates"] = (counts.get(f"attacks.{aid}.candidates", 0), "count")
        m[f"attacks.{aid}.failed"] = (counts.get(f"attacks.{aid}.failed", 0), "count")
    m["attacks.grad_steps"] = (counts.get("attacks.grad_steps", 0), "count")
    m["attacks.validate_calls"] = (span("attacks.validate_candidate")["calls"], "count")
    m["attacks.validate_s"] = (span("attacks.validate_candidate")["s"], "s")

    bundles = run.bundles
    m["bundler.bundle_calls"] = (span("bundler.bundle")["calls"], "count")
    m["bundler.bundle_s"] = (span("bundler.bundle")["s"], "s")
    m["bundler.self_s"] = (span("bundler.bundle")["self_s"], "s")
    m["bundler.score_calls"] = (span("bundler.score")["calls"], "count")
    m["bundler.score_s"] = (span("bundler.score")["s"], "s")
    # each bundle() ends with one schedule() call that finds no work
    m["bundler.rounds"] = (span("bundler.schedule")["calls"] - span("bundler.bundle")["calls"],
                           "count")
    for key in ("units", "stopped_early", "candidates", "candidates_kept"):
        m[f"bundler.{key}"] = (sum(b[key] for b in bundles), "count")
    m["bundler.reselect_s"] = (span("bundler.reselect")["s"], "s")
    primary = bundles[0]["per_attack"]
    for aid in ATTACK_IDS:
        ran, chosen = primary.get(aid, (0, 0))
        m[f"bundler.{aid}.chosen_frac"] = (chosen / ran if ran else 0.0, "ratio")

    predict, clean = span("models.predict"), span("models.predict.clean")
    m["models.train_s"] = (span("models.train")["s"], "s")
    m["models.predict_calls"] = (predict["calls"] + clean["calls"], "count")
    m["models.predict_s"] = (predict["s"] + clean["s"], "s")
    m["models.clean_predict_calls"] = (clean["calls"], "count")
    m["models.grad_us"] = (micro["grad_us"], "us")
    m["models.predict_us"] = (micro["predict_us"], "us")

    m["data.synth_s"] = (span("data.synth_dataset")["s"], "s")
    m["config.load_s"] = (span("config.load")["s"], "s")
    m["seeding.derive_seed_calls"] = (span("seeding.derive_seed")["calls"], "count")
    m["seeding.derive_seed_s"] = (span("seeding.derive_seed")["s"], "s")

    m["reporting.tables_s"] = (span("reporting.tables")["s"], "s")
    m["reporting.sf_curve_s"] = (span("reporting.sf_curve")["s"], "s")
    m["reporting.norm_curve_s"] = (span("reporting.norm_curve")["s"], "s")
    m["reporting.write_s"] = (span("reporting.write")["s"], "s")
    m["reporting.bytes_written"] = (
        sum(p.stat().st_size for p in run.out_dir.iterdir() if p.is_file()), "bytes")
    m["cli.self_s"] = (span("cli.run_experiment")["self_s"], "s")

    untraced = statistics.median(untraced_run_s)
    traced = run.normalised(run.exec_at, run.exec_at + run.run_s)
    m["trace.run_s"] = (traced, "s")
    m["trace.untraced_run_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.spans"] = (sum(s["calls"] for s in table.values()), "count")
    return m


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          root: Path) -> tuple[dict, list[str]]:
    """Run one benchmark run; returns (result JSON, human-readable lines)."""
    set_up = clock()
    work = root / ".bench_out" / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "workload.cfg"
    config.write_text(config_text(workload, seed))
    compileall.compile_dir(str(root / "src"), quiet=1)
    env_before = environment()

    expected = None
    if seed == 0 and REFERENCE.exists():
        expected = json.loads(REFERENCE.read_text()).get(workload.name)

    # a traced run spends half its time on untraced runs, for the overhead
    budget, min_runs = (seconds / 2, 2) if trace else (seconds, MIN_RUNS)
    runs: list[Run] = []
    samples: dict[str, list[float]] = {name: [] for name, _, _ in END_TO_END + WALL}
    started = clock()

    def time_left() -> float:
        return DEADLINE_S - (clock() - set_up)

    def start(traced: bool) -> Run:
        run = run_process(root, work, config, len(runs), traced, int(time_left()))
        runs.append(run)
        _check(run, expected)
        return run

    # stop early on a box so slow that another process might hit the deadline
    while ((len(runs) < min_runs or clock() - started < budget)
           and (not runs or time_left() > 3 * max(r.run_s for r in runs))):
        run = start(traced=False)
        if not run.ok:
            break
        expected = expected or run.hashes
        n, end = run.bundles[0]["n"], run.exec_at + run.run_s
        samples["run_s"].append(run.normalised(run.exec_at, end))
        samples["setup_s"].append(run.normalised(run.exec_at, run.bundles[0]["entry"]))
        samples["examples_per_s"].append(
            n / sum(run.normalised(b["entry"], b["exit"]) for b in run.bundles))
        samples["peak_rss_mb"].append(run.rss_mb)
        samples["run_wall_s"].append(run.run_s)
        samples["setup_wall_s"].append(run.setup_s)
        samples["examples_per_wall_s"].append(
            n / sum(b["exit"] - b["entry"] for b in run.bundles))
        samples["host_slowdown"].append(run.slowdown(run.exec_at, end))
    traced_run = start(traced=True) if trace and runs[-1].ok else None
    elapsed = clock() - started

    attempted = failed = 0
    problems = []
    for run in runs:
        if run.ok:
            attempted += run.units
            failed += run.failed_units
        else:
            lost = max(run.units, 1)
            attempted += lost
            failed += lost
            problems += run.problems
    correct = not problems and all(samples.values())

    lines = [f"workload {workload.name} seed {seed}: {len(runs)} runs in {elapsed:.1f} s "
             f"({'traced' if trace else 'untraced'})",
             "env " + json.dumps({"before": env_before, "loadavg_after": list(os.getloadavg())})]
    lines += [f"problem: {p}" for p in problems]
    metrics: dict[str, dict] = {}
    for name, unit, better in END_TO_END + WALL:
        values = samples[name]
        if not values:
            continue
        tail = percentile_beyond(values, better)
        tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "p- (under 11 samples)"
        lines.append(f"{name:<16} median {statistics.median(values):<12.6g} {tail_text:<22} "
                     f"n={len(values):<3} {unit}")
        if not trace and (name, unit, better) in END_TO_END:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    frac = failed / attempted if attempted else 1.0
    lines.append(f"{'failed_frac':<16} {frac:.6g} ({failed} of {attempted} attack units) ratio")

    if trace and correct:
        micro = microbench(root, traced_run.out_dir / "model.txt")
        for name, (value, unit) in layer_metrics(traced_run, samples["run_s"], micro).items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<34} {value:<14.6g} {unit}")

    (work / "samples.json").write_text(json.dumps(samples))
    for run in runs:
        shutil.rmtree(run.out_dir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _check(run: Run, expected: dict[str, str] | None) -> None:
    if not run.ok:
        return
    run.hashes, problems = check_outputs(run.out_dir, expected)
    run.problems += [f"run {run.index}: {p}" for p in problems]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = HERE.parent
    if not (root / "src" / "advbundle" / "cli.py").is_file():
        print(f"no advbundle source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, lines = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

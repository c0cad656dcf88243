"""Run one `advbundle` CLI invocation under the benchmark's instrumentation.

    python3 perfbench/child.py MARKS TRACE -- <advbundle cli arguments>

The benchmark starts this file as a fresh process per run with
`PYTHONPATH=src`. It patches names in the advbundle module namespaces that
call them, runs `advbundle.cli.main`, and writes MARKS (JSON) at exit:

* TRACE=0 wraps only `advbundle.cli.bundle`. MARKS holds each call's entry
  and exit time and counts read off the returned `BundleResult`.
* TRACE=1 also records a span around every public call listed in
  `TRACED` and writes the spans next to MARKS, as ".npz", once the run is over.

Both modes also sample the speed of the CPU the run is on: every
`PROBE_PERIOD_S` of wall time a SIGALRM handler times a fixed pure-Python
loop, between two bytecodes of whatever the run is doing. MARKS holds each
probe's start time and duration; the parent divides them out of the run's
times (see perfbench/README.md, "Host-speed normalisation").

Times come from `time.perf_counter`, which on Linux reads the system-wide
CLOCK_MONOTONIC, so the parent can subtract its own exec timestamp.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from array import array
from pathlib import Path

clock = time.perf_counter

PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 3000

# (module that calls the function, name in that module, span name).
# run_attack spans get the attack id appended to the name; advbundle.cli.bundle
# is wrapped in main(), inside the marks every run takes.
TRACED = (
    ("advbundle.cli", "run_experiment", "cli.run_experiment"),
    ("advbundle.cli", "load_experiment_config", "config.load"),
    ("advbundle.cli", "synth_dataset", "data.synth_dataset"),
    ("advbundle.cli", "train", "models.train"),
    ("advbundle.cli", "reselect", "bundler.reselect"),
    ("advbundle.cli", "predict", "models.predict.clean"),
    ("advbundle.cli", "make_tables", "reporting.tables"),
    ("advbundle.cli", "wat_underestimation_report", "reporting.tables"),
    ("advbundle.cli", "success_fail_curve", "reporting.sf_curve"),
    ("advbundle.cli", "norm_curve", "reporting.norm_curve"),
    ("advbundle.cli", "save_model", "reporting.write"),
    ("advbundle.cli", "write_rates_csv", "reporting.write"),
    ("advbundle.cli", "write_sf_curve_csv", "reporting.write"),
    ("advbundle.cli", "write_norm_curve_csv", "reporting.write"),
    ("advbundle.cli", "write_wat_gap_csv", "reporting.write"),
    ("advbundle.cli", "write_chosen_csv", "reporting.write"),
    ("advbundle.reporting", "predict", "models.predict.clean"),
    ("advbundle.bundler", "schedule", "bundler.schedule"),
    ("advbundle.bundler", "run_attack", "attacks.run_attack"),
    ("advbundle.bundler", "validate_candidate", "attacks.validate_candidate"),
    ("advbundle.bundler", "score", "bundler.score"),
    ("advbundle.bundler", "predict", "models.predict"),
    ("advbundle.bundler", "derive_seed", "seeding.derive_seed"),
    ("advbundle.attacks", "derive_seed", "seeding.derive_seed"),
)


class Tracer:
    """Spans in columnar arrays; a stack gives each span its parent."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def save(self, path: Path) -> None:
        import numpy as np
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 run=np.full(len(self.name), self.run_id, dtype=np.int32))


class SpeedProbe:
    """Times `PROBE_LOOPS` iterations of a pure-Python loop every `PROBE_PERIOD_S`."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        self.at.append(t0)
        self.took.append(clock() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _span(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _run_attack_span(tracer: Tracer, fn):
    from advbundle.errors import AttackFailedError

    def traced(params, example, config, seed, example_index=0):
        aid = config.attack_id
        idx = tracer.open(f"attacks.run_attack.{aid}")
        try:
            cands = fn(params, example, config, seed, example_index)
        except AttackFailedError:
            tracer.count(f"attacks.{aid}.failed")
            raise
        finally:
            tracer.close(idx)
        tracer.count(f"attacks.{aid}.candidates", len(cands))
        if config.variant == "pgd":
            tracer.count("attacks.grad_steps", config.num_restarts * config.num_steps)
        elif config.variant == "fgsm":
            tracer.count("attacks.grad_steps", 1)
        return cands
    return traced


def _result_stats(result) -> dict:
    """Counts read off one BundleResult."""
    units = failed = candidates = 0
    per_attack: dict[str, list[int]] = {}
    for records in result.computation_log:
        for rec in records:
            units += 1
            entry = per_attack.setdefault(rec.attack_id, [0, 0])
            if rec.failed:
                failed += 1
            else:
                entry[0] += 1
                candidates += rec.restarts_run
    for cand, _ in result.chosen:
        if cand.attack_id in per_attack:
            per_attack[cand.attack_id][1] += 1
    kept = (sum(len(pool) for pool in result.all_candidates)
            if result.all_candidates is not None else 0)
    return {"units": units, "failed_units": failed, "candidates": candidates,
            "candidates_kept": kept, "stopped_early": int(result.stopped_early.sum()),
            "per_attack": per_attack}


def main() -> int:
    marks_path, trace = Path(sys.argv[1]), sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py MARKS TRACE -- <advbundle arguments>")
    cli_args = sys.argv[4:]
    probe = SpeedProbe()
    probe.start()

    import advbundle.cli as cli

    bundles: list[dict] = []
    tracer = Tracer(run_id=os.getpid()) if trace else None
    if tracer is not None:
        import importlib
        for module_name, attr, span_name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if attr == "run_attack":
                wrapped = _run_attack_span(tracer, fn)
            else:
                wrapped = _span(tracer, span_name, fn)
            setattr(module, attr, wrapped)

    real_bundle = cli.bundle
    inner_bundle = _span(tracer, "bundler.bundle", real_bundle) if tracer else real_bundle

    def marked_bundle(params, dataset, *args, **kwargs):
        entry = clock()
        result = inner_bundle(params, dataset, *args, **kwargs)
        leave = clock()
        bundles.append({"entry": entry, "exit": leave, "n": len(dataset),
                        **_result_stats(result)})
        return result

    cli.bundle = marked_bundle

    try:
        return cli.main(cli_args)
    finally:
        probe.stop()
        marks = {"bundles": bundles, "probe_at": list(probe.at), "probe_s": list(probe.took)}
        if tracer is not None:
            tracer.save(marks_path.with_suffix(".npz"))
            marks["span_names"] = tracer.names
            marks["counts"] = tracer.counts
        marks_path.write_text(json.dumps(marks))


if __name__ == "__main__":
    sys.exit(main())

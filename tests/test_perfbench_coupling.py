"""The benchmark's child process patches names in advbundle modules and reads
BundleResult fields; these tests fail when a refactor moves what it uses."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab
from advbundle import bundler

from conftest import binary_linear

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    # no __pycache__ under perfbench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_resolves(child):
    for module_name, attr, _ in child.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


def test_result_stats_reads_a_kept_candidate_bundle(child, mlp_on_small_blobs, small_blobs):
    attacks = [ab.AttackConfig("pgd", "pgd", epsilon=0.3, step_size=0.1, num_steps=5,
                               num_restarts=2),
               ab.AttackConfig("noise", "uniform_noise", epsilon=0.3, num_samples=3)]
    res = ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
                    ab.BudgetPolicy(early_stop=False), seed=0, keep_candidates=True)
    stats = child._result_stats(res)
    n = len(small_blobs)
    assert stats["units"] == 2 * n and stats["failed_units"] == 0
    assert stats["candidates"] == 5 * n
    assert stats["candidates_kept"] == 6 * n  # every candidate plus the clean input
    assert stats["stopped_early"] == 0
    chosen = int(np.count_nonzero(res.chosen_rows.attack_code))
    assert {a: counts[0] for a, counts in stats["per_attack"].items()} == {"pgd": n, "noise": n}
    assert sum(counts[1] for counts in stats["per_attack"].values()) == chosen


def _flip_every_example(params, config, clean, labels, seeds):
    flipped = clean.copy()
    flipped[:, 0] = 1.0 - flipped[:, 0]
    return flipped, np.full(len(flipped), -1)


def test_result_stats_counts_failed_units_and_early_stops(child):
    # round 1: "flaky" fails on example 0 (x0 = 0.35), fools example 1 (x0 = 0.65)
    # with 2 candidates (it stops early) and gives example 2 two unchanged
    # candidates; round 2 flips examples 0 and 2
    def flaky(params, config, clean, labels, seeds):
        adv = np.repeat(clean, 2, axis=0)  # two rows per example
        x0 = adv[:, 0].copy()
        adv[x0 == 0.65, 0] = 1.0 - 0.65
        return adv, np.where(x0 == 0.35, 0, -1)

    model = binary_linear([40.0, 0.0], bias=-20.0)  # class 1 iff x0 > 0.5
    ds = ab.Dataset([[0.35, 0.5], [0.65, 0.5], [0.4, 0.5]], [0, 1, 0], num_classes=2)
    attacks = [ab.AttackConfig("flaky", "flaky", epsilon=0.5, num_restarts=2),
               ab.AttackConfig("flip", "flip", epsilon=0.5)]
    res = ab.bundle(model, ds, attacks, ab.Criterion.misclassify(), seed=0,
                    runners={"flaky": flaky, "flip": _flip_every_example})
    # hand count of the candidate counts: -1 where the attack failed or never ran
    counts = np.array([[-1, 1], [2, -1], [2, 1]])
    ran = np.arange(2) < np.array([[2], [1], [2]])  # example i ran attacks[:units[i]]
    stats = child._result_stats(res)
    assert stats["units"] == ran.sum() == 5
    assert stats["failed_units"] == (ran & (counts < 0)).sum() == 1
    assert stats["candidates"] == counts[ran & (counts >= 0)].sum() == 6
    assert stats["stopped_early"] == 1
    # per attack: units that gave candidates, examples whose choice it made
    assert stats["per_attack"] == {"flaky": [2, 1], "flip": [2, 2]}


def test_schedule_is_called_once_per_round_plus_once(monkeypatch, mlp_on_small_blobs,
                                                     small_blobs):
    # run.py reports bundler.rounds as schedule calls minus bundle calls
    calls = []
    real = bundler.schedule

    def counting(*args):
        active = real(*args)
        calls.append(len(active))
        return active

    monkeypatch.setattr(bundler, "schedule", counting)
    attacks = [ab.AttackConfig(f"f{i}", "fgsm", epsilon=0.1 * (i + 1)) for i in range(3)]
    ab.bundle(mlp_on_small_blobs, small_blobs, attacks, ab.Criterion.misclassify(),
              ab.BudgetPolicy(early_stop=False), seed=0)
    assert calls == [len(small_blobs)] * 3 + [0]

    # every example's goal is met in round 1, so round 2 finds none active
    calls.clear()
    model = binary_linear([40.0, 0.0], bias=-20.0)  # class 1 iff x0 > 0.5
    ds = ab.Dataset([[0.35, 0.5], [0.65, 0.5]], [0, 1], num_classes=2)
    flips = [ab.AttackConfig(f"flip{i}", "flip", epsilon=0.5) for i in range(3)]
    res = ab.bundle(model, ds, flips, ab.Criterion.misclassify(), seed=0,
                    runners={"flip": _flip_every_example})
    assert calls == [2, 0]
    assert res.units_spent.tolist() == [1, 1] and res.stopped_early.all()


def test_benchmark_selftest_passes():
    # a few tiny benchmark runs, traced and untraced, through the benchmark's own
    # output check; they write only under the ignored .bench_out/ and remove what
    # they wrote
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest passed"), done.stdout

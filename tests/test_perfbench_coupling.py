"""The benchmark's child process patches names in advbundle modules and reads
BundleResult fields; these tests fail when a refactor moves what it uses."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


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

"""The benchmark's child process patches names in advbundle modules and reads
BundleResult fields; these tests fail when a refactor moves what it uses,
keeps an import for a name neither it nor the package uses, or lists a public
name the package does not define. The benchmark's workloads must also still
write its reference bytes, and they and `configs/default.cfg` must still cost
the engine the work pinned here."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab
from advbundle import attacks, bundler, models
from advbundle.cli import _load_dataset, run_experiment
from advbundle.config import parse_experiment_config

from conftest import binary_linear, openblas_core

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # no __pycache__ under perfbench/; dataclasses look their module up by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def child():
    return _load("child")


def test_bench_workloads_write_the_reference_bytes(tmp_path):
    # both workloads at bench size and workload seed 0, as the benchmark runs
    # them, must write the artifacts whose hashes it checks
    workloads = _load("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert sorted(reference) == sorted(workloads.WORKLOADS)
    for name, expected in reference.items():
        text = workloads.config_text(workloads.WORKLOADS[name], 0)
        config = replace(parse_experiment_config(text, name), output_dir=str(tmp_path / name))
        paths = run_experiment(config)
        got = {artifact: hashlib.sha256(paths[artifact].read_bytes()).hexdigest()
               for artifact in expected}
        assert got == expected, f"{name} (OpenBLAS core {openblas_core()})"


# The work each config's bundle costs the engine: per attack, its runner's calls
# (one per block) and examples, and its `grad_rows` calls and rows (PGD's steps
# over the rows not yet retired); then every `probs_rows` call and row, the
# clean pass included. A change that cuts work on purpose updates these.
WORK = {
    "default.cfg": {
        ("run", "pgd-cheap"): (1, 400), ("grad", "pgd-cheap"): (12, 2329),
        ("run", "pgd-expensive"): (1, 400), ("grad", "pgd-expensive"): (18, 4480),
        ("run", "noise"): (10, 400), ("probs",): (13, 41200)},
    "desk-default": {
        ("run", "pgd-cheap"): (1, 64), ("grad", "pgd-cheap"): (8, 382),
        ("run", "pgd-expensive"): (1, 64), ("grad", "pgd-expensive"): (17, 684),
        ("run", "noise"): (2, 64), ("probs",): (5, 6592)},
    "wide-pool": {
        ("run", "fgsm"): (1, 400), ("grad", "fgsm"): (1, 400),
        ("run", "noise"): (10, 400), ("probs",): (22, 40800)},
}


def test_bundles_do_the_pinned_work(monkeypatch):
    # row retirement, block batching and the piece loop each set some of these
    # counts; PGD's rows settle where the products' bits say, so a failure names
    # the OpenBLAS core, as the golden-byte tests do
    workloads = _load("workloads")
    configs = {"default.cfg": ab.load_experiment_config(PERFBENCH.parent / "configs"
                                                        / "default.cfg")}
    configs.update((name, parse_experiment_config(workloads.config_text(w, 0), name))
                   for name, w in workloads.WORKLOADS.items())
    assert sorted(configs) == sorted(WORK)
    attack_rows, grad_rows, probs_rows = bundler.attack_rows, attacks.grad_rows, bundler.probs_rows
    got, tally, running = {}, {}, [None]

    def add(key, rows):
        calls, total = tally.get(key, (0, 0))
        tally[key] = (calls + 1, total + rows)

    def run(params, config, clean, *rest):
        running[0] = config.attack_id
        add(("run", config.attack_id), len(clean))
        return attack_rows(params, config, clean, *rest)

    def grad(params, X, labels):
        add(("grad", running[0]), len(X))
        return grad_rows(params, X, labels)

    def probs(params, X):
        add(("probs",), len(X))
        return probs_rows(params, X)

    for name, config in configs.items():
        dataset = _load_dataset(config)
        model = ab.train(dataset, config.architecture, config.train_params)
        got[name] = tally = {}
        with monkeypatch.context() as patch:
            patch.setattr(bundler, "attack_rows", run)
            patch.setattr(attacks, "grad_rows", grad)
            patch.setattr(bundler, "probs_rows", probs)
            ab.bundle(model, dataset, config.attacks, config.criterion, config.budget,
                      seed=config.seed)
    assert got == WORK, f"OpenBLAS core {openblas_core()}"


def test_training_makes_two_full_data_passes(monkeypatch):
    # the initial loss's and the last epoch's: every epoch before the last
    # proves its logits finite from the weights, with no pass over the data
    workloads = _load("workloads")
    configs = {"default.cfg": ab.load_experiment_config(PERFBENCH.parent / "configs"
                                                        / "default.cfg")}
    configs.update((name, parse_experiment_config(workloads.config_text(w, 0), name))
                   for name, w in workloads.WORKLOADS.items())
    logits, passes = models._logits, {}

    def counted(layers, X, matmul):
        passes[name] += X is dataset.features
        return logits(layers, X, matmul)

    monkeypatch.setattr(models, "_logits", counted)
    for name, config in configs.items():
        dataset, passes[name] = _load_dataset(config), 0
        ab.train(dataset, config.architecture, config.train_params)
    assert passes == dict.fromkeys(configs, 2)


def test_every_traced_name_resolves(child):
    for module_name, attr, _ in child.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


def test_every_unused_import_is_a_name_the_benchmark_traces(child):
    # no linter runs on the package: an import marked unused must be kept for
    # the child to patch, or it is dead
    traced = {(module_name, attr) for module_name, attr, _ in child.TRACED}
    for path in sorted(Path(ab.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
                for alias in node.names:
                    pair = (f"advbundle.{path.stem}", alias.asname or alias.name)
                    assert pair in traced, f"{path.name}:{node.lineno} imports {pair[1]} unused"


def test_every_public_name_resolves():
    assert len(set(ab.__all__)) == len(ab.__all__)
    assert [name for name in ab.__all__ if not hasattr(ab, name)] == []


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

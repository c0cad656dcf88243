"""scripts/ab_bundle.py builds both sides the way the CLI does and compares
the digests of every array both BundleResults hold; these tests fail when a
refactor of the CLI or of BundleResult leaves it timing or comparing
something else."""

import dataclasses
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab

from conftest import binary_linear

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_bundle.py"


def test_ab_bundle_runs_one_pair_of_the_same_tree():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT / "src"), str(ROOT / "src"),
                           "--pairs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, imports, exits = proc.stdout.splitlines()
    timed = ["first bundle() wall", "train wall", "train thread CPU", "bundle() wall",
             "bundle() thread CPU"]
    assert [line.split(":")[0] for line in lines] == [
        f"{name}{phase}" for name in ("desk-default", "wide-pool")
        for phase in ["", *(f" {what}" for what in timed)]]
    heads, times = lines[::6], [line for i, line in enumerate(lines) if i % 6]
    assert all(re.fullmatch(r"[\w-]+: identical bytes; bundle\(\) traced peak parent \d+ KiB, "
                            r"change \d+ KiB", line) for line in heads)
    ratios = (r": median parent [\d.]+ ms, change [\d.]+ ms; "
              r"change/parent quartiles [\d.]+ [\d.]+ [\d.]+; change faster in [01] of 1; "
              r"A/A copy/parent quartiles [\d.]+ [\d.]+ [\d.]+; copy faster in [01] of 1")
    assert all(re.fullmatch(r"[\w-]+ [\w() ]+" + ratios, line) for line in times)
    assert re.fullmatch("import" + ratios, imports)
    assert re.fullmatch("exit" + ratios, exits)


def _toy_bundle():
    model = binary_linear([2.0, -1.0])
    data = ab.Dataset(np.array([[0.2, 0.6], [0.7, 0.4]]), [0, 1], num_classes=2)
    attack = ab.AttackConfig("noise", "uniform_noise", 0.1, num_samples=3)
    return ab.bundle(model, data, [attack], ab.Criterion.misclassify(), seed=5,
                     keep_candidates=True)


def test_ab_bundle_compares_every_array_field():
    script = runpy.run_path(str(SCRIPT), run_name="ab_bundle")
    result = _toy_bundle()
    named = script["_arrays"](result)
    for f in dataclasses.fields(result):
        if isinstance(getattr(result, f.name), np.ndarray):
            assert f"result.{f.name}" in named
    assert {"result.pool.adversarial_input", "result.chosen_rows.wrong_confidence",
            "result.outcome_matrix.entries"} <= named.keys()
    digests = script["_digests"](named)
    assert digests.keys() == named.keys()
    changed = dataclasses.replace(result, clean_confidence=result.clean_confidence / 2)
    with pytest.raises(SystemExit, match="result.clean_confidence differs"):
        script["_check_identical"]("toy", digests, script["_digests"](script["_arrays"](changed)))


def test_ab_bundle_compares_the_arrays_both_results_hold():
    # a tree that adds a result field is compared on the fields both hold; the
    # new field is reported, and a shared field that differs still stops it
    script = runpy.run_path(str(SCRIPT), run_name="ab_bundle")
    result = _toy_bundle()

    @dataclasses.dataclass(eq=False)
    class Grown(type(result)):
        extra: np.ndarray | None = None

    grown = Grown(**{f.name: getattr(result, f.name) for f in dataclasses.fields(result)},
                  extra=np.zeros(2))
    check = script["_check_identical"]

    def digest(value):
        return script["_digests"](script["_arrays"](value))

    assert check("toy", digest(result), digest(grown)) == ([], ["result.extra"])
    assert check("toy", digest(grown), digest(result)) == (["result.extra"], [])
    changed = dataclasses.replace(grown, units_spent=result.units_spent + 1)
    with pytest.raises(SystemExit, match="result.units_spent differs"):
        check("toy", digest(result), digest(changed))

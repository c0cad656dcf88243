import ast
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle import cli
from advbundle.cli import ARTIFACTS, main, run_experiment
from advbundle.data import MAX_CLASSES, MAX_SYNTH_D, MAX_SYNTH_N
from advbundle.errors import ConfigError

from conftest import openblas_core

FAST_CFG = """
dataset = synthetic
synth_n = 40
synth_d = 2
synth_k = 2
synth_seed = 3
architecture = softmax_linear
learning_rate = 0.2
epochs = 60
batch_size = 16
train_seed = 1
criterion = misclassify
early_stop = false
threshold_grid = 0.5:0.95:8
epsilon_grid = 0.0:0.3:7
gap_ns = 1,2,10
seed = 5
output_dir = {out}

[attack pgd]
variant = pgd
epsilon = 0.3
step_size = 0.1
num_steps = 15
num_restarts = 2
random_init = true

[attack noise]
variant = uniform_noise
epsilon = 0.3
num_samples = 10
"""


# every value within its bound, but one example's 100,000 noise rows of width 1,000
# need 763 MiB in the bundle, after training
HUGE_ATTACK_CFG = """
synth_n = 10
synth_d = 1000
architecture = softmax_linear
learning_rate = 0.001
epochs = 2
output_dir = {out}

[attack noise]
variant = uniform_noise
epsilon = 0.3
num_samples = 100000
"""


def write_cfg(tmp_path, text=None, name="exp.cfg", out="run_out"):
    cfg_path = tmp_path / name
    cfg_path.write_text((text or FAST_CFG).format(out=tmp_path / out))
    return cfg_path


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """`advbundle argv` in a child process whose address space is capped at
    1 GiB, so an allocation the program should refuse fails there."""
    limit = 1 << 30
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            f"from advbundle.cli import main; sys.exit(main({list(argv)!r}))")
    src = Path(ab.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


class TestRunCommand:
    def test_produces_full_artifact_set(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg)]) == 0
        outdir = tmp_path / "run_out"
        for name in ARTIFACTS:
            assert (outdir / name).exists(), name
        assert "bundled error rate" in capsys.readouterr().out

    def test_bundled_rate_dominates_in_rates_csv(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", str(cfg)])
        lines = (tmp_path / "run_out" / "rates.csv").read_text().splitlines()[1:]
        rates = {}
        for line in lines:
            kind, attack_id, rate = line.split(",")
            rates.setdefault(kind, {})[attack_id] = float(rate)
        assert rates["BUNDLED"]["bundled"] >= rates["WAT"]["max"] - 1e-12
        assert rates["WAT"]["max"] == max(v for k, v in rates["MAT"].items())

    def test_same_seed_gives_byte_identical_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", str(cfg), "--output-dir", str(tmp_path / "a")])
        main(["run", str(cfg), "--output-dir", str(tmp_path / "b")])
        for name in ARTIFACTS:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_empty_attack_list_reports_clean_error_only(self, tmp_path):
        text = FAST_CFG.split("[attack")[0]
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 0
        lines = (tmp_path / "run_out" / "rates.csv").read_text().splitlines()
        mat_rows = [l for l in lines if l.startswith("MAT,")]
        assert len(mat_rows) == 1 and mat_rows[0].startswith("MAT,none,")

    def test_the_environment_redirects_no_run_and_the_flag_overrides_the_config(
            self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("ADVBUNDLE_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "run_out" / "rates.csv").exists()
        assert not (tmp_path / "from_env").exists()
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "from_flag")]) == 0
        assert sorted(os.listdir(tmp_path / "from_flag")) == sorted(ARTIFACTS)
        assert not (tmp_path / "from_env").exists()

    def test_min_norm_criterion_single_bundle(self, tmp_path):
        text = FAST_CFG.replace("criterion = misclassify", "criterion = min_norm")
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 0
        curve_lines = (tmp_path / "run_out" / "norm_curve.csv").read_text().splitlines()
        rates = [float(l.split(",")[1]) for l in curve_lines[1:]]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("setting,units", [
        ("early_stop = false", 80),
        ("early_stop = false\nmax_units = 1", 40),  # capped below the attack count
        ("early_stop = true", 80),
        ("early_stop = false\ndump_candidates = true", 80),
    ], ids=["exhaustive", "capped", "early-stop", "dump-candidates"])
    def test_run_executes_each_unit_once(self, tmp_path, monkeypatch, setting, units):
        import advbundle.bundler as bundler
        import advbundle.cli as cli
        seen, completed, examples = [], [], []

        def recording(*args, **kwargs):
            result = ab.bundle(*args, **kwargs)
            seen.append((kwargs.get("keep_candidates", False), result))
            return result

        def completing(*args, **kwargs):
            completed.append(ab.complete(*args, **kwargs))
            return completed[-1]

        def counting(params, config, X, *rest):
            examples.append(len(X))
            return attack_rows(params, config, X, *rest)

        attack_rows = bundler.attack_rows
        monkeypatch.setattr(cli, "bundle", recording)
        monkeypatch.setattr(cli, "complete", completing)
        monkeypatch.setattr(bundler, "attack_rows", counting)
        text = FAST_CFG.replace("early_stop = false", setting)
        assert main(["run", str(write_cfg(tmp_path, text=text))]) == 0
        (keep, primary), = seen
        assert keep == ("dump_candidates" in setting)  # no pool kept for the curves
        assert primary.stopped_early.any() == ("early_stop = true" in setting)
        full, = completed
        assert (full is primary) == (not primary.stopped_early.any())
        assert not full.stopped_early.any()
        # 40 examples, 2 attacks: an early-stopped run ends at the exhaustive count
        assert sum(examples) == full.units_spent.sum() == units
        # the per-example spend and the summary report the primary
        outdir = tmp_path / "run_out"
        chosen = (outdir / "chosen.csv").read_text().splitlines()[1:]
        assert [int(line.rsplit(",", 1)[1]) for line in chosen] == primary.units_spent.tolist()
        assert f"{primary.units_spent.sum()} total" in (outdir / "summary.txt").read_text()

    def test_dump_candidates(self, tmp_path):
        text = FAST_CFG + "\n"
        text = text.replace("seed = 5", "seed = 5\ndump_candidates = true")
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 0
        lines = (tmp_path / "run_out" / "candidates.csv").read_text().splitlines()
        assert lines[0] == "example_index,attack_id,restart_index,x0,x1"
        # baseline + 2 pgd restarts + 10 noise samples per example
        assert len(lines) - 1 == 40 * (1 + 2 + 10)


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed 5\n")
        assert main(["run", str(cfg)]) == 2
        assert ":1:" in capsys.readouterr().err

    def test_bad_grid_fails_before_any_output(self, tmp_path, capsys):
        text = FAST_CFG.replace("threshold_grid = 0.5:0.95:8", "threshold_grid = 0.2:0.95:8")
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 2
        assert "threshold_grid" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_huge_grid_count_is_a_config_error(self, tmp_path):
        # linspace would need 7.5 GiB for 10**9 points; the parser refuses the count first
        grid = "threshold_grid = 0.5:0.99:1000000000"
        text = FAST_CFG.replace("threshold_grid = 0.5:0.95:8", grid)
        cfg = write_cfg(tmp_path, text=text)
        line = text.splitlines().index(grid) + 1
        done = run_capped("run", str(cfg))
        assert done.returncode == 2, done.stderr
        assert "config error:" in done.stderr and f":{line}:" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("key,old,new", [
        ("synth_n", "synth_n = 40", "synth_n = 1000000000"),  # 7.45 GiB of labels
        ("synth_d", "synth_d = 2", "synth_d = 100000000"),    # 2.24 GiB of class means
        ("hidden", "architecture = softmax_linear",           # 14.9 GiB of first-layer weights
         "architecture = mlp1\nhidden = 1000000000"),
    ], ids=["synth_n", "synth_d", "hidden"])
    def test_huge_data_or_model_size_is_a_config_error(self, tmp_path, key, old, new):
        # the config refuses each size before the dataset or the model is allocated
        cfg = write_cfg(tmp_path, text=FAST_CFG.replace(old, new))
        done = run_capped("train", str(cfg))
        assert done.returncode == 2, done.stderr
        assert "config error:" in done.stderr and f"{key} must be <= " in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("key,old", [("num_restarts", "num_restarts = 2"),
                                         ("num_samples", "num_samples = 10")])
    def test_huge_attack_size_is_a_config_error(self, tmp_path, key, old):
        # 10**8 rows for one example would need 1.49 GiB in the attack's first
        # block; the config refuses the size before training and names its line
        new = f"{key} = 100000000"
        text = FAST_CFG.replace(old, new)
        cfg = write_cfg(tmp_path, text=text)
        line = text.splitlines().index(new) + 1
        done = run_capped("run", str(cfg))
        assert done.returncode == 2, done.stderr
        assert "config error:" in done.stderr and f":{line}: {key} must be <= " in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("old", ["epochs = 60", "num_steps = 15"])
    def test_endless_training_or_attack_is_a_config_error(self, tmp_path, old):
        # 10**23 epochs or steps would run without end (run_capped's timeout
        # would fail the test); the config refuses the value before training
        new = old.split(" = ")[0] + " = 99999999999999999999999"
        text = FAST_CFG.replace(old, new)
        line = text.splitlines().index(new) + 1
        done = run_capped("run", str(write_cfg(tmp_path, text=text)))
        assert done.returncode == 2, done.stderr
        assert f"config error: {tmp_path / 'exp.cfg'}:{line}: {old.split()[0]} must be <= " \
            in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "run_out").exists()

    def test_huge_csv_label_is_a_data_error(self, tmp_path):
        # training's one-hot labels would need 14.9 GiB for k = 10**9 + 1 classes;
        # the reader refuses the label first and names its line
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1000000000\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = csv\ncsv_path = {data}\noutput_dir = {tmp_path / 'o'}\n")
        done = run_capped("train", str(cfg))
        assert done.returncode == 3, done.stderr
        assert "data error:" in done.stderr and f"{data}:3:" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    def test_huge_synth_sizes_are_refused_before_any_draw(self, tmp_path):
        # 7.45 GiB of labels for n = 10**9, 2.24 GiB of class means for d = 10**8:
        # synth refuses the sizes `run` refuses, with the config's bounds
        for args, bound in ((["1000000000", "2", "3"], f"n must be <= {MAX_SYNTH_N}"),
                            (["10", "100000000", "3"], f"d must be <= {MAX_SYNTH_D}")):
            done = run_capped("synth", *args, "0", str(tmp_path / "out.csv"))
            assert done.returncode == 2, done.stderr
            assert done.stderr.startswith(f"error: {bound}")
            assert "Traceback" not in done.stderr
            assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("n,k", [(MAX_CLASSES + 1, MAX_CLASSES + 1),
                                     (1000000, 1000000)])  # 7.28 TiB of one-hot labels
    def test_too_many_synth_classes_fail_at_their_line_before_the_draw(self, tmp_path,
                                                                       capsys, n, k):
        # synth_k had no bound: such a run drew the data, then trained on (n, k) arrays
        text = FAST_CFG.replace("synth_n = 40", f"synth_n = {n}").replace("synth_k = 2",
                                                                          f"synth_k = {k}")
        line = text.splitlines().index(f"synth_k = {k}") + 1
        with mock.patch.object(cli, "synth_dataset", wraps=cli.synth_dataset) as synth:
            assert main(["run", str(write_cfg(tmp_path, text=text))]) == 2
        assert capsys.readouterr().err == (f"config error: {tmp_path / 'exp.cfg'}:{line}: "
                                           f"synth_k must be <= {MAX_CLASSES}, got {k}\n")
        assert not synth.called
        assert not (tmp_path / "run_out").exists()

    def test_synth_refuses_more_classes_than_a_dataset_file_may_hold(self, tmp_path, capsys):
        # k = 20,000 once wrote a file that load_dataset_csv then refused at line 10,002
        out = tmp_path / "k.csv"
        assert main(["synth", "20000", "2", "20000", "0", str(out)]) == 2
        assert capsys.readouterr().err == f"error: k must be <= {MAX_CLASSES}, got 20000\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_running_out_of_memory_is_one_data_error_line(self, tmp_path, command):
        # each value is within its own bound, but under a 1 GiB address space numpy
        # cannot allocate what they ask for together: synth's (10**6, 10**4) draw, or a
        # bundle block after training. Exit 3, not 2, which means refused before training
        pytest.importorskip("resource")
        if command == "synth":
            argv = ("synth", "1000000", "10000", "3", "0", str(tmp_path / "big.csv"))
        else:
            argv = ("run", str(write_cfg(tmp_path, text=HUGE_ATTACK_CFG)))
        done = run_capped(*argv)
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("data error: out of memory: Unable to allocate ")
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert not (tmp_path / "big.csv").exists() and not (tmp_path / "run_out").exists()

    def test_bad_gap_ns_fails_before_any_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, text=FAST_CFG.replace("gap_ns = 1,2,10", "gap_ns = 1,0,10"))
        assert main(["run", str(cfg)]) == 2
        assert "gap_ns" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("old,new", [
        ("architecture = softmax_linear", "architecture = bogus"),
        ("epochs = 60", "epochs = 0"),
        ("learning_rate = 0.2", "learning_rate = -1"),
    ])
    def test_bad_model_key_fails_before_any_output(self, tmp_path, capsys, old, new):
        cfg = write_cfg(tmp_path, text=FAST_CFG.replace(old, new))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run_out").exists()

    def test_epsilon_with_an_infinite_draw_range_fails_before_training(self, tmp_path):
        # 2 * 1e308 overflows the noise draw's range; the config refuses it at its line
        text = FAST_CFG.replace("epsilon = 0.3", "epsilon = 1e308")
        line = text.splitlines().index("epsilon = 1e308") + 1
        done = run_capped("run", str(write_cfg(tmp_path, text=text)))
        assert done.returncode == 2, done.stderr
        assert f"config error: {tmp_path / 'exp.cfg'}:{line}: epsilon must be" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("old,new", [("synth_seed = 3", "synth_seed = -1"),
                                         ("train_seed = 1", "train_seed = -1")])
    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys, old, new):
        cfg = write_cfg(tmp_path, text=FAST_CFG.replace(old, new))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err
        assert not (tmp_path / "run_out").exists()

    def test_synth_negative_seed_is_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["synth", "10", "2", "3", "-5", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_variant_fails_before_any_output(self, tmp_path, capsys):
        text = FAST_CFG + "\n[attack mine]\nvariant = custom\nepsilon = 0.3\n"
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "custom" in err
        assert f":{text.splitlines().index('[attack mine]') + 1}:" in err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("field", [{"attacks": (ab.AttackConfig("x", "custom", 0.3),)},
                                       {"criterion": "misclassify"}],
                             ids=["no-runner", "criterion-str"])
    def test_a_config_built_in_code_is_refused_before_training(self, tmp_path, field):
        with mock.patch.object(cli, "train", wraps=cli.train) as train, \
                pytest.raises(ConfigError):
            run_experiment(ab.ExperimentConfig(output_dir=str(tmp_path / "out"), **field))
        assert not train.called
        assert not (tmp_path / "out").exists()

    def test_model_data_shape_mismatch_is_data_error(self, tmp_path, capsys, monkeypatch):
        import advbundle.cli as cli

        def train_on_doubled_dimension(dataset, architecture, hp):
            model = ab.train(dataset, architecture, hp)
            return ab.ModelParams(model.architecture, np.vstack([model.W1, model.W1]),
                                  model.b1)

        monkeypatch.setattr(cli, "train", train_on_doubled_dimension)
        assert main(["run", str(write_cfg(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "dimension" in err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["run", str(cfg), "--workers", "2"])
        assert info.value.code == 2

    def test_bad_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0.5,7.3,0\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = csv\ncsv_path = {data}\n"
                       f"output_dir = {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_divergent_training_is_numeric_failure(self, tmp_path):
        # overflow while training shows as the numeric failure alone, with no
        # raw numpy warning before it
        text = FAST_CFG.replace("learning_rate = 0.2", "learning_rate = 1e150")
        text = text.replace("architecture = softmax_linear", "architecture = mlp1")
        done = run_capped("run", str(write_cfg(tmp_path, text=text)))
        assert done.returncode == 4, done.stderr
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("numeric failure: training diverged at epoch 0")

    @pytest.mark.parametrize("value", ["0:inf:3", "-1e308:1e308:3"])
    def test_a_grid_of_non_finite_points_fails_at_its_line_with_no_warning(self, tmp_path,
                                                                         capsys, value):
        new = f"epsilon_grid = {value}"
        text = FAST_CFG.replace("epsilon_grid = 0.0:0.3:7", new)
        assert main(["run", str(write_cfg(tmp_path, text=text))]) == 2
        assert capsys.readouterr().err == \
            f"config error: {tmp_path / 'exp.cfg'}:{text.splitlines().index(new) + 1}: " \
            "epsilon_grid must hold no NaN\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_fails_at_its_line(self, tmp_path, capsys, value):
        text = FAST_CFG.replace("learning_rate = 0.2", f"learning_rate = {value}")
        line = text.splitlines().index(f"learning_rate = {value}") + 1
        assert main(["run", str(write_cfg(tmp_path, text=text))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {tmp_path / 'exp.cfg'}:{line}: learning_rate must be finite\n"
        assert not (tmp_path / "run_out").exists()


class TestUnusableFiles:
    """A file the run cannot read or write is refused with its exit code and a
    one-line message naming it, with no traceback, and before any work unless
    only the write itself can show it."""

    def _run(self, capsys, *argv):
        with mock.patch.object(cli, "synth_dataset", wraps=cli.synth_dataset) as synth, \
                mock.patch.object(cli, "train", wraps=cli.train) as train:
            code = main(list(argv))
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert not synth.called and not train.called
        return code, err

    def test_a_directory_or_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_bytes(b"seed = 1\n\xff\n")
        for path, reason in ((tmp_path, "cannot read"), (tmp_path / "bad.cfg", "not UTF-8")):
            code, err = self._run(capsys, "run", str(path))
            assert code == 2 and err.startswith(f"config error: {path}: {reason}")

    def test_a_directory_or_non_utf8_dataset_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_bytes(b"f0,label\n0.5,\xff\n")
        for data, reason in ((tmp_path, "cannot read"), (tmp_path / "bad.csv", "not UTF-8")):
            cfg = write_cfg(tmp_path, text=f"dataset = csv\ncsv_path = {data}\n"
                                           "output_dir = {out}\n")
            code, err = self._run(capsys, "run", str(cfg))
            assert code == 3 and err.startswith(f"data error: {data}: {reason}")
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("out", ["adir", "missing/data.csv", "afile/data.csv",
                                     "x" * 300 + ".csv"],
                             ids=["adir", "missing/data.csv", "afile/data.csv", "name-too-long"])
    def test_synth_refuses_an_unwritable_path_before_the_draw(self, tmp_path, capsys, out):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("x")
        code, err = self._run(capsys, "synth", "10", "2", "3", "0", str(tmp_path / out))
        assert code == 3 and err.startswith(f"data error: cannot write dataset file "
                                            f"{tmp_path / out}: ")

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("outdir", ["afile", "afile/sub"])
    def test_an_output_dir_that_cannot_be_made_is_refused_before_any_work(
            self, tmp_path, capsys, command, where, outdir):
        (tmp_path / "afile").write_text("x")
        path = tmp_path / outdir
        cfg = write_cfg(tmp_path, out=path if where == "config" else "run_out")
        argv = [command, str(cfg)] + (["--output-dir", str(path)] if where == "flag" else [])
        code, err = self._run(capsys, *argv)
        assert code == 2
        assert err == (f"config error: output directory {path} cannot be made: "
                       f"{tmp_path / 'afile'} is not a directory\n")
        assert (tmp_path / "afile").read_text() == "x"
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_an_output_dir_name_too_long_is_refused_before_any_work(
            self, tmp_path, capsys, command, where):
        path = tmp_path / "run_out" / ("x" * 300)
        cfg = write_cfg(tmp_path, out=path if where == "config" else "elsewhere")
        argv = [command, str(cfg)] + (["--output-dir", str(path)] if where == "flag" else [])
        code, err = self._run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"config error: output directory {path} cannot be made: ")
        assert not (tmp_path / "run_out").exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_an_empty_output_dir_flag_is_refused_before_any_work(self, tmp_path, capsys,
                                                                 command):
        # the flag was tested for truth, so an empty one wrote to the config's directory
        code, err = self._run(capsys, command, str(write_cfg(tmp_path)), "--output-dir", "")
        assert code == 2
        assert err == "config error: output_dir must be a non-empty path\n"
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize("outdir", ["out", "out/sub"])
    def test_an_output_dir_at_or_under_a_dangling_link_is_refused_before_any_work(
            self, tmp_path, capsys, command, outdir):
        # `mkdir` cannot make a directory where a link to nothing stands
        (tmp_path / "out").symlink_to(tmp_path / "nowhere" / "place")
        path = tmp_path / outdir
        code, err = self._run(capsys, command, str(write_cfg(tmp_path)), "--output-dir", str(path))
        assert code == 2
        assert err == (f"config error: output directory {path} cannot be made: "
                       f"{tmp_path / 'out'} is not a directory\n")
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "out"]

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_an_output_dir_the_file_system_refuses_is_a_data_error_naming_it(
            self, tmp_path, capsys, monkeypatch, command):
        # what the vetting cannot see: a read-only file system, a full disk, a permission
        def read_only(self, *args, **kwargs):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(self))

        monkeypatch.setattr(Path, "mkdir", read_only)
        code = main([command, str(write_cfg(tmp_path))])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (f"data error: output directory {tmp_path / 'run_out'} cannot be made: "
                       f"{os.strerror(errno.EROFS)}\n")

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_an_output_dir_name_holding_a_nul_byte_is_refused_before_any_work(
            self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, out="run\0out")
        code, err = self._run(capsys, command, str(cfg))
        assert code == 2
        assert err == (f"config error: output directory {tmp_path / 'run'}\0out cannot be "
                       "made: its name holds a NUL byte\n")
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_an_output_dir_name_the_locale_cannot_encode_is_refused_before_any_work(
            self, tmp_path, command):
        (tmp_path / "exp.cfg").write_bytes(
            TINY_CFG.replace("output_dir = out", "output_dir = out\u00e9").encode("utf-8"))
        env = {**os.environ, "PYTHONPATH": str(Path(ab.__file__).parent.parent),
               "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
        done = subprocess.run([sys.executable, "-m", "advbundle", command, "exp.cfg"],
                              cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.startswith(b"config error: output directory out")
        assert b"Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("command,name", [("run", name) for name in ARTIFACTS]
                             + [("run", "candidates.csv"), ("train", "model.txt")])
    def test_an_output_file_that_is_a_directory_is_refused_before_any_work(
            self, tmp_path, capsys, command, name):
        text = FAST_CFG.replace("seed = 5", "seed = 5\ndump_candidates = true")
        cfg = write_cfg(tmp_path, text=text)
        (tmp_path / "run_out" / name).mkdir(parents=True)
        code, err = self._run(capsys, command, str(cfg))
        assert code == 2
        assert err == (f"config error: output file {tmp_path / 'run_out' / name} cannot be "
                       "written: it is a directory\n")
        assert os.listdir(tmp_path / "run_out") == [name]

    @pytest.mark.parametrize("command", ["run", "train", "synth"])
    def test_a_full_disk_is_a_data_error_naming_the_file(self, tmp_path, capsys, command):
        real_open = open

        def full_disk(file, mode="r", **kwargs):
            if "w" in mode:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
            return real_open(file, mode, **kwargs)

        cfg = write_cfg(tmp_path)
        argv = {"run": ["run", str(cfg)], "train": ["train", str(cfg)],
                "synth": ["synth", "10", "2", "3", "0", str(tmp_path / "data.csv")]}[command]
        with mock.patch("advbundle.data.open", full_disk, create=True):
            code = main(argv)
        out, err = capsys.readouterr()
        first = tmp_path / "data.csv" if command == "synth" else tmp_path / "run_out" / "model.txt"
        assert code == 3 and out == ""
        assert err == f"data error: {first}: cannot write: {os.strerror(errno.ENOSPC)}\n"

    def test_a_non_ascii_attack_id_writes_the_same_bytes_under_an_ascii_locale(self, tmp_path):
        # every file is UTF-8 and stdout is summary.txt's bytes, whatever the locale says
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(TINY_CFG.replace("[attack pgd]", "[attack \u00e9]").encode("utf-8"))
        env = {**os.environ, "PYTHONPATH": str(Path(ab.__file__).parent.parent)}
        ascii_env = {**env, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
        runs = {name: subprocess.run([sys.executable, "-m", "advbundle", "run", str(cfg),
                                      "--output-dir", str(tmp_path / name)],
                                     env=run_env, capture_output=True, timeout=120)
                for name, run_env in (("ascii", ascii_env), ("default", env))}
        for done in runs.values():
            assert done.returncode == 0 and done.stderr == b"", done.stderr
        assert runs["ascii"].stdout == runs["default"].stdout
        assert runs["ascii"].stdout == (tmp_path / "ascii" / "summary.txt").read_bytes()
        assert "  \u00e9 ".encode("utf-8") in runs["ascii"].stdout
        assert sorted(os.listdir(tmp_path / "ascii")) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert (tmp_path / "ascii" / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes(), name


class TestOtherCommands:
    def test_synth_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["synth", "30", "3", "3", "9", str(out)]) == 0
        ds = ab.load_dataset_csv(out)
        assert len(ds) == 30 and ds.dimension == 3 and ds.num_classes == 3
        labels = ds.labels
        assert all((labels == c).sum() == 10 for c in range(3))

    def test_train_saves_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, text=TINY_CFG)
        assert main(["train", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        model = ab.load_model(tmp_path / "out" / "model.txt")
        assert model.architecture == "mlp1"
        ds = ab.synth_dataset(30, 2, 3, 7)
        wrong = sum(ab.predict(model, x).predicted_class != y
                    for x, y in zip(ds.features, ds.labels))
        assert 0 < wrong < len(ds)  # a clean error of 0% or 100% pins little
        assert capsys.readouterr().out == (
            f"trained mlp1 on 30 examples; clean error {wrong / len(ds) * 100:.2f}%; "
            f"saved to {tmp_path / 'out' / 'model.txt'}\n")

    def test_train_and_run_produce_same_model(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["train", str(cfg), "--output-dir", str(tmp_path / "t")])
        main(["run", str(cfg), "--output-dir", str(tmp_path / "r")])
        assert (tmp_path / "t" / "model.txt").read_bytes() == \
            (tmp_path / "r" / "model.txt").read_bytes()

    def test_gap_prints_exact_table(self, tmp_path, capsys):
        assert main(["gap", "1", "2", "10"]) == 0
        printed = capsys.readouterr().out
        out = printed.splitlines()
        assert out[0] == "n,wat,bundled,gap"
        assert out[1] == "1,1.0,1.0,0.0"
        assert out[2] == "2,0.5,1.0,0.5"
        assert out[3] == "10,0.1,1.0,0.9"
        # the run's wat_gap.csv (gap_ns = 1,2,10) holds the same bytes
        assert main(["run", str(write_cfg(tmp_path))]) == 0
        assert (tmp_path / "run_out" / "wat_gap.csv").read_bytes() == printed.encode()

    def test_gap_needs_no_n_by_n_matrix(self):
        # the diagonal matrix for n = 100000 would need 10 GB; the table needs none
        done = run_capped("gap", "100000")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "n,wat,bundled,gap\n100000,1e-05,1.0,0.99999\n"

    def test_run_experiment_api_returns_paths(self, tmp_path):
        cfg_text = FAST_CFG.format(out=tmp_path / "api_out")
        config = ab.parse_experiment_config(cfg_text)
        paths = run_experiment(config)
        assert set(ARTIFACTS) <= set(paths)
        for p in paths.values():
            assert p.exists()


TINY_CFG = """\
dataset = synthetic
synth_n = 30
synth_d = 2
synth_k = 3
synth_seed = 7
architecture = mlp1
hidden = 4
learning_rate = 0.3
epochs = 3
batch_size = 8
train_seed = 1
criterion = max_confidence
threshold = 0.9
max_units = none
early_stop = false
dump_candidates = false
threshold_grid = 0.5:0.99:5
epsilon_grid = 0.0:0.3:4
gap_ns = 1,2
seed = 0
output_dir = out
[attack pgd]
variant = pgd
epsilon = 0.3
step_size = 0.1
num_steps = 5
num_restarts = 1
random_init = true
[attack noise]
variant = uniform_noise
epsilon = 0.3
num_samples = 5
"""
_TINY_KEY_LINES = [i for i, line in enumerate(TINY_CFG.splitlines()) if " = " in line]
# no large integers: no run may allocate more than the tiny config does
_FUZZ_VALUES = ["-1", "nan", "inf", "1e400", "abc", "1:0:3", "", "1e308", "-0", "0", "+3",
                "1_0", "10^23", "none"]


def _run_mutated(work: Path, mutations: dict[int, str]) -> None:
    """Run TINY_CFG with the value on each line i in `mutations` replaced: a
    documented exit code and a one-line typed message, never a traceback or a
    warning, and a config error before any training."""
    lines = TINY_CFG.splitlines()
    for i, value in mutations.items():
        lines[i] = f"{lines[i].split(' = ')[0]} = {value}"
    cfg = work / "exp.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    stderr = io.StringIO()
    with mock.patch.object(cli, "train", wraps=cli.train) as train, \
            contextlib.redirect_stderr(stderr):
        code = main(["run", str(cfg), "--output-dir", str(work / "out")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue() and "Warning" not in stderr.getvalue()
    assert code != 2 or not train.called


# every one-key mutation, learning_rate = 1e308 (trains until the weights overflow) included
@pytest.mark.parametrize("value", _FUZZ_VALUES)
@pytest.mark.parametrize("line", _TINY_KEY_LINES,
                         ids=[f"line{i + 1}-{TINY_CFG.splitlines()[i].split(' = ')[0]}"
                              for i in _TINY_KEY_LINES])
def test_config_with_one_key_mutated_exits_with_a_documented_code(tmp_path, line, value):
    _run_mutated(tmp_path, {line: value})


@given(st.dictionaries(st.sampled_from(_TINY_KEY_LINES), st.sampled_from(_FUZZ_VALUES),
                       min_size=2, max_size=3))
@settings(max_examples=100, deadline=None)
def test_mutated_config_exits_with_a_documented_code(tmp_path_factory, mutations):
    _run_mutated(tmp_path_factory.mktemp("fuzz"), mutations)


_TINY_HEADER_LINES = [i for i, line in enumerate(TINY_CFG.splitlines()) if line.startswith("[")]


@pytest.mark.parametrize("attack_id", ["none", "a,b", 'a"b', "duplicate"])
@pytest.mark.parametrize("line", _TINY_HEADER_LINES,
                         ids=[f"line{i + 1}" for i in _TINY_HEADER_LINES])
def test_a_bad_attack_id_fails_at_its_header_before_training(tmp_path, line, attack_id):
    # `none` is the clean baseline's id, and a comma or a quote would break the
    # CSV rows that hold the id; a duplicate is reported at the later header
    lines = TINY_CFG.splitlines()
    at = line + 1
    if attack_id == "duplicate":
        other = next(i for i in _TINY_HEADER_LINES if i != line)
        attack_id, at = lines[other][len("[attack "):-1], max(_TINY_HEADER_LINES) + 1
    lines[line] = f"[attack {attack_id}]"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    stderr = io.StringIO()
    with mock.patch.object(cli, "train", wraps=cli.train) as train, \
            contextlib.redirect_stderr(stderr):
        code = main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 2 and not train.called
    assert stderr.getvalue().startswith(f"config error: {cfg}:{at}: ")
    assert len(stderr.getvalue().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so a check written as one would vanish
    paths = sorted(Path(ab.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_optimised_python_runs_every_check_and_writes_the_same_bytes(tmp_path):
    src = Path(ab.__file__).parent
    cfg = write_cfg(tmp_path, text=TINY_CFG)
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    for flags, out in (([], "plain"), (["-O"], "optimised")):
        subprocess.run([sys.executable, *flags, "-m", "advbundle", "run", str(cfg),
                        "--output-dir", str(tmp_path / out)],
                       env=env, check=True, capture_output=True)
    for name in ARTIFACTS:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "optimised" / name).read_bytes(), name


def test_default_config_writes_the_recorded_bytes(tmp_path):
    # the full-size default run, ten 4,000-row noise blocks included, must write
    # the artifacts whose SHA-256 the file records; the hashes hold for one
    # OpenBLAS core, as perfbench's reference does, so a failure names the core
    root = Path(__file__).resolve().parents[1]
    expected = json.loads((root / "tests" / "default_cfg_sha256.json").read_text())
    config = ab.load_experiment_config(root / "configs" / "default.cfg")
    paths = run_experiment(replace(config, output_dir=str(tmp_path)))
    got = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in expected}
    assert got == expected, f"OpenBLAS core {openblas_core()}"


def test_default_config_with_early_stop_writes_the_recorded_bytes(tmp_path):
    # the one run path where `complete` runs units: 311 examples stop early, and
    # the curves come from their completion, so only chosen.csv and rates.csv
    # differ from the exhaustive run's recorded bytes
    root = Path(__file__).resolve().parents[1]
    expected = json.loads((root / "tests" / "default_cfg_early_stop_sha256.json").read_text())
    exhaustive = json.loads((root / "tests" / "default_cfg_sha256.json").read_text())
    assert {name for name in expected if expected[name] != exhaustive[name]} == \
        {"chosen.csv", "rates.csv"}
    config = ab.load_experiment_config(root / "configs" / "default.cfg")
    config = replace(config, output_dir=str(tmp_path), early_stop=True)
    paths = run_experiment(config)
    got = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in expected}
    assert got == expected, f"OpenBLAS core {openblas_core()}"
    assert " 311 examples stopped early" in paths["summary.txt"].read_text()


def test_a_run_never_imports_numpy_ma(tmp_path):
    # on numpy 2, np.unique's first call imports numpy.ma: about 10 ms in every process
    fgsm = "\n[attack fgsm]\nvariant = fgsm\nepsilon = 0.3\n"
    early = FAST_CFG.replace("criterion = misclassify\nearly_stop = false",
                             "criterion = max_confidence\nthreshold = 0.6\nearly_stop = true")
    norm = FAST_CFG.replace("criterion = misclassify", "criterion = min_norm")
    cfgs = [write_cfg(tmp_path, text=text + fgsm, name=f"{name}.cfg", out=name)
            for name, text in (("early", early), ("norm", norm))]
    code = ("import sys; from advbundle.cli import main; "
            "codes = [main(['run', cfg]) for cfg in sys.argv[1:]]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(ab.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code, *map(str, cfgs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] False"
    # the early-stopped run also ran `complete` for its curves
    summary = (tmp_path / "early" / "summary.txt").read_text()
    assert " 0 examples stopped early" not in summary and "stopped early" in summary
    assert "criterion: min_norm" in (tmp_path / "norm" / "summary.txt").read_text()


# the freeze count after each of two `main(argv)` calls in one fresh process
FREEZE_PROBE = """import contextlib, gc, io, sys
from advbundle.cli import main
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
    print(code, gc.get_freeze_count())
"""


@pytest.mark.parametrize("argv,code", [(["gap", "1"], 0), (["run", "missing.cfg"], 2)])
def test_main_freezes_the_collector_once_when_it_returns(tmp_path, argv, code):
    # a fresh process, since `main` freezes once per process and this one has
    # called it already; a frozen heap is not walked at exit, and the second
    # call freezes nothing more
    env = {**os.environ, "PYTHONPATH": str(Path(ab.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    (first, frozen), (second, again) = (map(int, line.split())
                                        for line in done.stdout.splitlines())
    assert first == second == code
    assert frozen > 0 and again == frozen


def test_every_file_main_opens_is_closed_when_it_returns(tmp_path, capsys):
    # the freeze is safe only so: a frozen file object is never finalized, so a
    # write left to its finalizer would be lost at exit
    real_open, opened = io.open, []

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    cfg = write_cfg(tmp_path, text=TINY_CFG.replace("dump_candidates = false",
                                                    "dump_candidates = true"))
    with mock.patch("io.open", recording_open), mock.patch("builtins.open", recording_open):
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    # the config, each artifact and candidates.csv written, summary.txt read back
    assert len(opened) >= len(ARTIFACTS) + 3
    assert [fh.name for fh in opened if not fh.closed] == []

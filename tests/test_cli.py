import pytest

import advbundle as ab
from advbundle.cli import ARTIFACTS, main, run_experiment

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


def write_cfg(tmp_path, text=None, name="exp.cfg", out="run_out"):
    cfg_path = tmp_path / name
    cfg_path.write_text((text or FAST_CFG).format(out=tmp_path / out))
    return cfg_path


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

    def test_env_var_overrides_config_and_flag_overrides_env(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("ADVBUNDLE_OUTPUT_DIR", str(tmp_path / "from_env"))
        main(["run", str(cfg)])
        assert (tmp_path / "from_env" / "rates.csv").exists()
        main(["run", str(cfg), "--output-dir", str(tmp_path / "from_flag")])
        assert (tmp_path / "from_flag" / "rates.csv").exists()

    def test_min_norm_criterion_single_bundle(self, tmp_path):
        text = FAST_CFG.replace("criterion = misclassify", "criterion = min_norm")
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 0
        curve_lines = (tmp_path / "run_out" / "norm_curve.csv").read_text().splitlines()
        rates = [float(l.split(",")[1]) for l in curve_lines[1:]]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_is_numeric_failure(self, tmp_path, capsys):
        text = FAST_CFG.replace("learning_rate = 0.2", "learning_rate = 1e150")
        text = text.replace("architecture = softmax_linear", "architecture = mlp1")
        cfg = write_cfg(tmp_path, text=text)
        assert main(["run", str(cfg)]) == 4
        assert "numeric failure" in capsys.readouterr().err


class TestOtherCommands:
    def test_synth_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["synth", "30", "3", "3", "9", str(out)]) == 0
        ds = ab.load_dataset_csv(out)
        assert len(ds) == 30 and ds.dimension == 3 and ds.num_classes == 3
        labels = ds.labels()
        assert all((labels == c).sum() == 10 for c in range(3))

    def test_train_saves_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["train", str(cfg)]) == 0
        model = ab.load_model(tmp_path / "run_out" / "model.txt")
        assert model.architecture == "softmax_linear"
        assert "clean error" in capsys.readouterr().out

    def test_train_and_run_produce_same_model(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["train", str(cfg), "--output-dir", str(tmp_path / "t")])
        main(["run", str(cfg), "--output-dir", str(tmp_path / "r")])
        assert (tmp_path / "t" / "model.txt").read_bytes() == \
            (tmp_path / "r" / "model.txt").read_bytes()

    def test_gap_prints_exact_table(self, capsys):
        assert main(["gap", "1", "2", "10"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,wat,bundled,gap"
        assert out[1] == "1,1.0,1.0,0.0"
        assert out[2] == "2,0.5,1.0,0.5"
        assert out[3] == "10,0.1,1.0,0.9"

    def test_run_experiment_api_returns_paths(self, tmp_path):
        cfg_text = FAST_CFG.format(out=tmp_path / "api_out")
        config = ab.parse_experiment_config(cfg_text)
        paths = run_experiment(config)
        assert set(ARTIFACTS) <= set(paths)
        for p in paths.values():
            assert p.exists()

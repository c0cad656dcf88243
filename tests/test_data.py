import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab
from advbundle.data import MAX_SYNTH_D, MAX_SYNTH_N
from advbundle.errors import ContractError, DataError


class TestSynth:
    def test_balanced_labels(self):
        ds = ab.synth_dataset(4, 2, 2, seed=0)
        labels = ds.labels
        assert (labels == 0).sum() == 2
        assert (labels == 1).sum() == 2

    @pytest.mark.parametrize("seed", [0, 1, 99, 2024])
    def test_features_in_unit_interval(self, seed):
        ds = ab.synth_dataset(50, 3, 4, seed=seed)
        X = ds.features
        assert X.min() >= 0.0 and X.max() <= 1.0

    @pytest.mark.parametrize("n,d,message", [
        (10**9, 2, f"n must be <= {MAX_SYNTH_N}, got 1000000000"),  # 7.45 GiB of labels
        (10, 10**8, f"d must be <= {MAX_SYNTH_D}, got 100000000"),  # 2.24 GiB of class means
    ], ids=["n", "d"])
    def test_huge_sizes_are_refused_before_any_draw(self, n, d, message):
        # under a 1 GiB address space, an allocation would fail as a MemoryError
        limit = 1 << 30
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                "import advbundle as ab\n"
                "from advbundle.errors import ContractError\n"
                "try:\n"
                f"    ab.synth_dataset({n}, {d}, 3, 0)\n"
                "except ContractError as exc:\n"
                "    print(exc)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(ab.__file__).parent.parent),
               "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == message + "\n"

    def test_deterministic_per_seed(self):
        a = ab.synth_dataset(30, 2, 2, seed=5)
        b = ab.synth_dataset(30, 2, 2, seed=5)
        assert np.array_equal(a.features, b.features)
        c = ab.synth_dataset(30, 2, 2, seed=6)
        assert not np.array_equal(a.features, c.features)

    def test_separable_blobs_train_well(self):
        ds = ab.synth_dataset(2000, 2, 2, seed=1)
        # nearest-class-mean oracle shows the classes are separable
        X, y = ds.features, ds.labels
        means = np.stack([X[y == c].mean(axis=0) for c in range(2)])
        nearest = np.argmin(
            ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert np.mean(nearest != y) <= 0.05
        m = ab.train(ds, "softmax_linear",
                     ab.TrainParams(learning_rate=0.1, epochs=60, batch_size=64, seed=0))
        err = np.mean([ab.predict(m, x).predicted_class != label
                       for x, label in zip(X, y)])
        assert err <= 0.05

    def test_one_dimensional_supported(self):
        ds = ab.synth_dataset(20, 1, 2, seed=0)
        assert ds.dimension == 1

    @pytest.mark.parametrize("n,d,k", [(1, 2, 2), (5, 0, 2), (5, 2, 1)])
    def test_invalid_sizes_rejected(self, n, d, k):
        with pytest.raises(ContractError):
            ab.synth_dataset(n, d, k, seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = ab.synth_dataset(25, 3, 3, seed=2)
        path = tmp_path / "data.csv"
        ab.save_dataset_csv(path, ds)
        loaded = ab.load_dataset_csv(path)
        assert loaded.num_classes == ds.num_classes
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0.1,0.2,0\n0.9,0.8,1\n")
        ds = ab.load_dataset_csv(path)
        assert len(ds) == 2
        assert ds.dimension == 2

    def test_out_of_range_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,1.2,0\n")
        with pytest.raises(DataError):
            ab.load_dataset_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2,0.5\n")
        with pytest.raises(DataError):
            ab.load_dataset_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2,0\n0.1,0\n")
        with pytest.raises(DataError):
            ab.load_dataset_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ab.load_dataset_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("row", ["nan,0.2,1", "0.1,-0.2,1", "0.1,0.2,-1",
                                     "0.1,0.2,inf", "0.1,0.2,nan", "0.1,1", "0.1,0.2,10000"])
    def test_invalid_row_names_its_file_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.1,0.2,0\n{row}\n0.3,0.4,1\n")
        with pytest.raises(DataError, match=":3:"):
            ab.load_dataset_csv(path)

    def test_single_class_file_still_has_two_classes(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.1,0.2,0\n0.3,0.4,0\n")
        assert ab.load_dataset_csv(path).num_classes == 2


class TestTypes:
    def test_example_bounds_enforced(self):
        with pytest.raises(ContractError):
            ab.Example(np.array([0.5, 1.5]), 0)
        with pytest.raises(ContractError):
            ab.Example(np.array([np.nan, 0.5]), 0)

    def test_dataset_checks_dimensions_and_labels(self):
        with pytest.raises(ContractError):
            ab.Dataset([[0.5], [0.5, 0.5]], [0, 0], num_classes=2)
        with pytest.raises(ContractError):
            ab.Dataset([[0.5]], [3], num_classes=2)
        with pytest.raises(ContractError):
            ab.Dataset([[0.5]], [0], num_classes=1)
        with pytest.raises(ContractError, match="example 1"):
            ab.Dataset([[0.5], [1.5], [np.nan]], [0, 0, 0], num_classes=2)
        with pytest.raises(ContractError, match="example 2"):
            ab.Dataset([[0.5], [0.5], [np.nan]], [0, 0, 0], num_classes=2)
        with pytest.raises(ContractError, match="example 1"):
            ab.Dataset([[0.5], [0.5]], [0, -1], num_classes=2)
        with pytest.raises(ContractError):
            ab.Dataset([[0.5], [0.5]], [0], num_classes=2)
        with pytest.raises(ContractError):
            ab.Dataset([0.5, 0.5], [0, 0], num_classes=2)

    def test_dataset_arrays_are_read_only_copies(self):
        feats, labels = np.array([[0.25, 0.5], [0.75, 1.0]]), np.array([0, 1])
        ds = ab.Dataset(feats, labels, num_classes=2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1
        feats[0, 0], labels[0] = 0.0, 1
        assert ds.features[0, 0] == 0.25 and ds.labels[0] == 0
        assert ds.dimension == 2 and len(ds) == 2

    def test_item_is_an_example(self):
        ds = ab.synth_dataset(6, 3, 2, seed=0)
        ex = ds[4]
        assert isinstance(ex, ab.Example)
        assert np.array_equal(ex.features, ds.features[4]) and ex.label == ds.labels[4]

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab
from advbundle.data import (MAX_CLASSES, MAX_SYNTH_D, MAX_SYNTH_N, csv_lines, fmt, read_text,
                            write_lines)
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

    @pytest.mark.parametrize("args,message", [
        ((2, 2, 3, 0), "n must be >= k = 3, got 2"),
        ((5, 0, 2, 0), "d must be >= 1, got 0"),
        ((5, 2, 1, 0), "k must be >= 2, got 1"),
        # no dataset may hold more classes, so a CSV of this draw would not load
        ((20000, 2, MAX_CLASSES + 1, 0), f"k must be <= {MAX_CLASSES}, got {MAX_CLASSES + 1}"),
        ((5, 2, 2, -1), "seed must be >= 0, got -1"),
    ])
    def test_each_size_rule_names_its_argument(self, args, message):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            ab.synth_dataset(*args)

    def test_a_draw_with_the_most_classes_reads_back_unchanged(self, tmp_path):
        ds = ab.synth_dataset(MAX_CLASSES, 1, MAX_CLASSES, seed=0)
        ab.save_dataset_csv(tmp_path / "k.csv", ds)
        loaded = ab.load_dataset_csv(tmp_path / "k.csv")
        assert loaded.num_classes == ds.num_classes == MAX_CLASSES
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)


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

    # the last case's line 4 holds a non-numeric value, found while reading, but
    # line 3's bad label comes first in the file
    @pytest.mark.parametrize("row", ["nan,0.2,1", "0.1,-0.2,1", "0.1,0.2,-1",
                                     "0.1,0.2,inf", "0.1,0.2,nan", "0.1,1", "0.1,0.2,10000",
                                     "0.1,0.2,0.5\n0.1,x,1"])
    def test_invalid_row_names_its_file_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.1,0.2,0\n{row}\n0.3,0.4,1\n")
        with pytest.raises(DataError, match=":3:"):
            ab.load_dataset_csv(path)

    @pytest.mark.parametrize("label,reason", [
        ("-1", "label -1 is negative"), ("-1e300", "label must be an integer, got -1e+300"),
        ("0.5", "label must be an integer, got 0.5"), ("inf", "label must be an integer, got inf"),
        ("nan", "label must be an integer, got nan"),
        ("10000", "label 10000 >= MAX_CLASSES=10000"),
        ("1e20", "label must be an integer, got 1e+20")])
    def test_a_bad_label_names_its_line_and_reason(self, tmp_path, label, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.1,0.2,0\n0.1,0.2,{label}\n0.3,0.4,1\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: {reason}')}$"):
            ab.load_dataset_csv(path)

    def test_single_class_file_still_has_two_classes(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.1,0.2,0\n0.3,0.4,0\n")
        assert ab.load_dataset_csv(path).num_classes == 2


class TestFiles:
    def test_write_lines_writes_utf8_with_newline_ends(self, tmp_path):
        write_lines(tmp_path / "f.txt", iter(["\u00e9,1", "x"]))
        assert (tmp_path / "f.txt").read_bytes() == b"\xc3\xa9,1\nx\n"

    def test_read_text_keeps_line_ends(self, tmp_path):
        (tmp_path / "f.txt").write_bytes(b"a\r\nb\rc\n\xc3\xa9")
        assert read_text(tmp_path / "f.txt", DataError, "text file") == "a\r\nb\rc\n\u00e9"

    @pytest.mark.parametrize("kind", ["dataset", "config", "model"])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, kind):
        # with one, a headerless dataset lost its first row as a header, a config
        # read an unknown key '\ufeffdataset' and a model was "not a model file"
        data = ab.synth_dataset(20, 2, 3, seed=1)
        if kind == "dataset":
            text = "".join(f"{fmt(a)},{fmt(b)},{label}\n"
                           for (a, b), label in zip(data.features, data.labels))
            load = ab.load_dataset_csv
            parts = lambda d: (d.features.tobytes(), d.labels.tobytes(), d.num_classes)
        elif kind == "config":
            attack = ab.AttackConfig("f", "fgsm", 0.1)
            text = ab.serialize_experiment_config(ab.ExperimentConfig(synth_n=20,
                                                                      attacks=(attack,)))
            load, parts = ab.load_experiment_config, lambda config: config
        else:
            ab.save_model(tmp_path / "m.txt", ab.train(data, "mlp1", ab.TrainParams(
                0.1, 2, 4, seed=0, hidden=3)))
            text = (tmp_path / "m.txt").read_text(encoding="utf-8")
            load = ab.load_model
            parts = lambda m: [a.tobytes() for layer in m.layers for a in layer]
        (tmp_path / "plain").write_bytes(text.encode("utf-8"))
        (tmp_path / "bom").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert parts(load(tmp_path / "bom")) == parts(load(tmp_path / "plain"))

    def test_each_file_error_names_the_file(self, tmp_path):
        with pytest.raises(DataError, match=f"^model file not found: {re.escape(str(tmp_path / 'm.txt'))}$"):
            ab.load_model(tmp_path / "m.txt")
        with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))}: cannot write: "):
            write_lines(tmp_path, ["x"])
        with pytest.raises(DataError, match=": cannot write: .*surrogates not allowed"):
            write_lines(tmp_path / "f.txt", ["\ud800"])

    @pytest.mark.parametrize("save", [ab.save_dataset_csv, ab.save_model])
    def test_a_path_holding_a_nul_byte_is_a_data_error_naming_it(self, tmp_path, save):
        # open raises a bare ValueError for it, which each writer once let through
        path = str(tmp_path / "a\0b.txt")
        value = ab.synth_dataset(4, 2, 2, seed=0)
        if save is ab.save_model:
            value = ab.train(value, "softmax_linear", ab.TrainParams(0.1, 1, 4, seed=0))
        with pytest.raises(DataError, match=f"^{re.escape(path)}: cannot write: "):
            save(path, value)

    def test_csv_lines_writes_floats_shortest_and_the_rest_as_str(self):
        rows = [(1, "a", 0.1, np.float64(1e-05), float("inf"), True)]
        assert list(csv_lines(["n", "id", "x", "y", "z", "b"], rows)) == \
            ["n,id,x,y,z,b", "1,a,0.1,1e-05,inf,True"]


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

    def test_dataset_casts_whole_float_labels(self):
        ds = ab.Dataset([[0.1], [0.3]], [1.0, 0.0], num_classes=MAX_CLASSES)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

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

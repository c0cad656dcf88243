import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle.config import (_ATTACK_KEYS, _TOP_KEYS, MAX_EPOCHS, MAX_NUM_STEPS,
                              MAX_ROWS_PER_EXAMPLE, _parse_grid, _parse_int_list,
                              serialize_experiment_config)
from advbundle.bundler import check_unit_cap
from advbundle.data import MAX_CLASSES, MAX_SYNTH_D, MAX_SYNTH_N, check_synth
from advbundle.errors import ConfigError, ContractError
from advbundle.models import check_architecture
from advbundle.seeding import _check_seed

from conftest import binary_linear

MINIMAL = """
dataset = synthetic
synth_n = 50
seed = 3

[attack pgd-cheap]
variant = pgd
epsilon = 0.3
step_size = 0.1
num_steps = 40
"""

FULL = """
# desk-scale run
dataset = synthetic
synth_n = 100
synth_d = 2
synth_k = 3
synth_seed = 7
architecture = mlp1
hidden = 8
learning_rate = 0.25
epochs = 40
batch_size = 16
train_seed = 2
criterion = max_confidence
threshold = 0.9
max_units = 2
early_stop = true
threshold_grid = 0.5:0.95:10
epsilon_grid = 0.0,0.1,0.2,0.3
gap_ns = 1,2,10
seed = 11
output_dir = results
dump_candidates = false

[attack pgd-cheap]
variant = pgd
epsilon = 0.3          # budget
step_size = 0.1
num_steps = 40
num_restarts = 2
random_init = true

[attack noise]
variant = uniform_noise
epsilon = 0.3
num_samples = 25
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = ab.parse_experiment_config(MINIMAL)
        assert cfg.synth_n == 50
        assert cfg.seed == 3
        assert cfg.architecture == "mlp1"
        assert cfg.criterion == ab.Criterion.misclassify()
        assert len(cfg.attacks) == 1
        assert cfg.attacks[0].attack_id == "pgd-cheap"

    def test_negative_root_seed_is_accepted(self):
        # the root seed only feeds derive_seed, which masks it to 64 bits
        assert ab.parse_experiment_config("seed = -1\n").seed == -1

    def test_full_config(self):
        cfg = ab.parse_experiment_config(FULL)
        assert cfg.criterion == ab.Criterion.max_confidence(0.9)
        assert cfg.max_units == 2
        assert len(cfg.threshold_grid) == 10
        assert cfg.epsilon_grid == (0.0, 0.1, 0.2, 0.3)
        assert cfg.gap_ns == (1, 2, 10)
        assert [a.attack_id for a in cfg.attacks] == ["pgd-cheap", "noise"]
        assert cfg.attacks[0].num_restarts == 2

    def test_linspace_grid_equals_comma_grid(self):
        a = ab.parse_experiment_config("threshold_grid = 0.5:0.9:5\n")
        b = ab.parse_experiment_config("threshold_grid = 0.5,0.6,0.7,0.8,0.9\n")
        assert a.threshold_grid == pytest.approx(b.threshold_grid, abs=1e-15)

    def test_comments_and_blank_lines_ignored(self):
        cfg = ab.parse_experiment_config("# comment\n\nseed = 5  # trailing\n")
        assert cfg.seed == 5


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FULL])
    def test_parse_serialize_parse_is_identity(self, text):
        first = ab.parse_experiment_config(text)
        second = ab.parse_experiment_config(serialize_experiment_config(first))
        assert first == second

    def test_round_trip_with_restart_seeds_and_csv_source(self):
        cfg = ab.ExperimentConfig(
            dataset="csv", csv_path="data.csv",
            criterion=ab.Criterion.min_norm(),
            attacks=(ab.AttackConfig("p", "pgd", epsilon=0.25, step_size=0.05,
                                     num_steps=10, num_restarts=2,
                                     restart_seeds=(11, 22)),),
        )
        again = ab.parse_experiment_config(serialize_experiment_config(cfg))
        assert again == cfg


class TestErrors:
    def line_of(self, excinfo):
        return str(excinfo.value)

    @pytest.mark.parametrize("line", ["architecture = bogus", "hidden = 0", "epochs = 0",
                                      "batch_size = 0", "learning_rate = 0",
                                      "train_seed = -1"])
    def test_bad_model_or_training_key_fails_at_parse_time(self, line):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config(line + "\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config("seed = 1\nbogus = 2\n")
        assert ":2:" in self.line_of(info)

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config("seed 1\n")
        assert ":1:" in self.line_of(info)

    def test_bad_section_header(self):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("[pgd-cheap]\n")
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("[attack a b]\n")

    def test_duplicate_attack_id(self):
        text = "[attack a]\nvariant = fgsm\nepsilon = 0.3\n" \
               "[attack a]\nvariant = fgsm\nepsilon = 0.3\n"
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text)
        assert "duplicate" in self.line_of(info)

    def test_attack_field_error_names_section_line(self):
        text = "\n\n[attack a]\nvariant = pgd\nepsilon = 0.3\n"  # missing step_size
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text)
        assert ":3:" in self.line_of(info)

    def test_threshold_outside_valid_range(self):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("criterion = max_confidence\nthreshold = 0.2\n")

    def test_threshold_on_wrong_criterion(self):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("criterion = misclassify\nthreshold = 0.9\n")

    def test_unknown_criterion(self):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("criterion = strongest\n")

    @pytest.mark.parametrize("text,line,message", [
        ("seed = 1\ncriterion = max_confidence\nthreshold = 2\n", 3,
         "threshold must be a number in [0.5, 1) for max_confidence"),
        ("criterion = min_norm\nthreshold = 0.7\nseed = 1\n", 2,
         "threshold applies only to max_confidence, not min_norm"),
        ("seed = 1\ncriterion = bogus\n", 2,
         "criterion must be one of misclassify, max_confidence, min_norm, got 'bogus'"),
    ], ids=["max-confidence-threshold", "min-norm-threshold", "unknown"])
    def test_criterion_error_names_its_line(self, text, line, message):
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text, "exp.cfg")
        assert self.line_of(info) == f"exp.cfg:{line}: {message}"

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("epochs = soon\n")

    @pytest.mark.parametrize("text", ["seed = 1\nmax_units = lots\n",
                                      "seed = 1\nearly_stop = maybe\n",
                                      "seed = 1\nworkers = 2\n",
                                      "[attack a]\nvariant = pgd\nepsilon = 0.3\n"
                                      "num_steps = many\n"],
                             ids=["max_units", "early_stop", "workers", "attack_num_steps"])
    def test_bad_value_or_removed_key_names_its_line(self, text):
        last_line = text.count("\n")
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text)
        assert f":{last_line}:" in self.line_of(info)

    @pytest.mark.parametrize("line", ["threshold_grid = 0.4,0.6",
                                      "threshold_grid = 0.5:1.0:6",
                                      "threshold_grid = 0.5:0.99:10001",
                                      "threshold_grid = 0.9,0.6",
                                      "epsilon_grid = 0.3,0.1",
                                      "epsilon_grid = nan",
                                      "max_units = -1",
                                      "synth_seed = -1",
                                      "synth_k = 1",
                                      "synth_d = 0",
                                      "synth_n = 2\nsynth_k = 3"])
    def test_out_of_range_values_fail_at_parse_time(self, line):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config(line + "\n")

    @pytest.mark.parametrize("text,reason", [
        ("seed = 1\nthreshold_grid = 0.5:0.99:1000000000\n", "more than 10000 grid points"),
        ("seed = 1\nepsilon_grid = 0.0:0.3:x\n", "invalid literal for int() with base 10: 'x'"),
        ("[attack a]\nvariant = fgsm\nepsilon = 0.3q\n",
         "could not convert string to float: '0.3q'"),
        ("seed = 1\nepsilon_grid = 0.1:0.3:0\n", "needs a count of at least 1"),
        ("seed = 1\nthreshold_grid = 0.6:0.9:-2\n", "needs a count of at least 1"),
        ("seed = 1\nepsilon_grid = 0.1:0.3\n", "expected lo:hi:count, got 2"),
        ("seed = 1\nepsilon_grid = 0.1:0.2:0.3:4\n", "expected lo:hi:count, got 4"),
        ("seed = 1\nthreshold_grid = 0.6,nan,0.7\n", "threshold_grid must hold no NaN"),
        ("seed = 1\nepsilon_grid = 0.1,nan\n", "epsilon_grid must hold no NaN"),
    ], ids=["grid_count", "grid_count_format", "float_format", "grid_count_zero",
            "grid_count_negative", "grid_two_fields", "grid_four_fields", "threshold_grid_nan",
            "epsilon_grid_nan"])
    def test_bad_value_names_its_reason(self, text, reason):
        last_line = text.count("\n")
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text)
        assert f":{last_line}:" in self.line_of(info) and reason in self.line_of(info)

    @pytest.mark.parametrize("text,where", [
        ("seed = 1\nsynth_n = 2\nsynth_k = 3\n", "exp.cfg:2"),
        ("seed = 1\nsynth_k = 3\nsynth_n = 2\n", "exp.cfg:3"),
        ("seed = 1\nsynth_k = 700\n", "exp.cfg"),  # synth_n keeps its default, 600
        ("seed = 1\nmax_units = -1\n", "exp.cfg:2"),
        ("seed = 1\ngap_ns = 0\n", "exp.cfg:2"),
        ("seed = 1\nepsilon_grid = 0.3,0.1\n", "exp.cfg:2"),
        ("seed = 1\nlearning_rate = 0\n", "exp.cfg:2"),
        ("seed = 1\nepochs = 0\n", "exp.cfg:2"),
        ("seed = 1\nbatch_size = -1\n", "exp.cfg:2"),
        ("seed = 1\nhidden = 0\n", "exp.cfg:2"),
        ("seed = 1\narchitecture = bogus\n", "exp.cfg:2"),
        ("seed = 1\ntrain_seed = -1\n", "exp.cfg:2"),
        # attack-section checks name the line of their key too
        ("seed = 1\n[attack a]\nvariant = pgd\nepsilon = 0.3\nstep_size = -1\n"
         "num_steps = 1\n", "exp.cfg:5"),
        ("seed = 1\n[attack a]\nvariant = pgd\nepsilon = 0.3\nstep_size = 0.1\n"
         "num_steps = -1\n", "exp.cfg:6"),
        ("[attack a]\nvariant = uniform_noise\nepsilon = 0.3\nnum_samples = 0\n", "exp.cfg:4"),
        ("[attack a]\nvariant = fgsm\nepsilon = 1e308\n", "exp.cfg:3"),
        ("[attack a]\nvariant = pgd\nepsilon = 0.3\nstep_size = 0.1\nnum_steps = 1\n"
         "num_restarts = 0\n", "exp.cfg:6"),
    ], ids=["synth_n_first", "synth_n_last", "synth_n_default", "max_units", "gap_ns",
            "epsilon_grid", "learning_rate", "epochs", "batch_size", "hidden", "architecture",
            "train_seed", "step_size", "num_steps", "num_samples", "epsilon", "num_restarts"])
    def test_range_check_names_the_line_of_its_key(self, text, where):
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text, source="exp.cfg")
        assert self.line_of(info).startswith(f"{where}: ")

    @pytest.mark.parametrize("value", ["0", "1,2,0", "-3"])
    def test_gap_ns_below_one_fails_at_parse_time(self, value):
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(f"gap_ns = {value}\n")
        assert "gap_ns" in self.line_of(info)

    @pytest.mark.parametrize("variant,key", [("pgd", "num_restarts"),
                                             ("uniform_noise", "num_samples")])
    def test_rows_per_example_above_the_bound_name_their_line(self, variant, key):
        text = (f"[attack a]\nvariant = {variant}\nepsilon = 0.3\nstep_size = 0.1\n"
                f"num_steps = 1\n{key} = {{}}\nrandom_init = true\n")
        ab.parse_experiment_config(text.format(MAX_ROWS_PER_EXAMPLE))
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config(text.format(MAX_ROWS_PER_EXAMPLE + 1))
        assert f":6: {key} must be <= {MAX_ROWS_PER_EXAMPLE}" in self.line_of(info)

    @pytest.mark.parametrize("key,bound,line,text", [
        ("epochs", MAX_EPOCHS, 2, "seed = 1\nepochs = {}\n"),
        ("num_steps", MAX_NUM_STEPS, 4,
         "[attack a]\nvariant = pgd\nepsilon = 0.3\nnum_steps = {}\nstep_size = 0.1\n"),
    ])
    def test_epochs_and_num_steps_above_the_bound_name_their_line(self, key, bound, line,
                                                                  text):
        # both set how long a run takes; each bound sits far above its default
        assert bound >= 100 * {"epochs": 120, "num_steps": 1000}[key]
        ab.parse_experiment_config(text.format(bound))
        for value in (bound + 1, 10 ** 23):
            with pytest.raises(ConfigError) as info:
                ab.parse_experiment_config(text.format(value))
            assert f":{line}: {key} must be <= {bound}" in self.line_of(info)

    def test_fgsm_ignores_num_restarts_whatever_its_size(self):
        # fgsm makes one row per example whatever its restart fields say
        huge = 10 * MAX_ROWS_PER_EXAMPLE
        config = ab.parse_experiment_config(
            f"[attack f]\nvariant = fgsm\nepsilon = 0.3\nnum_restarts = {huge}\n")
        assert config.attacks[0].num_restarts == huge

    def test_fgsm_ignores_num_steps_whatever_its_size(self):
        # fgsm takes one step whatever its num_steps says, so only pgd is bounded
        huge = 10 ** 23
        config = ab.parse_experiment_config(
            f"[attack f]\nvariant = fgsm\nepsilon = 0.3\nnum_steps = {huge}\n")
        assert config.attacks[0].num_steps == huge

    @pytest.mark.parametrize("ids", [("a", "a"), ("none",)])
    def test_a_config_built_in_code_refuses_bad_attack_ids(self, ids):
        # as the parser does, so run_experiment never trains for a bundle() that refuses
        with pytest.raises(ConfigError):
            ab.ExperimentConfig(attacks=tuple(ab.AttackConfig(i, "fgsm", 0.3) for i in ids))

    @pytest.mark.parametrize("key,value", [
        ("dump_candidates", "no"), ("output_dir", 3), ("threshold_grid", (0.6, "0.7")),
        ("synth_n", "10"), ("gap_ns", 5), ("attacks", None), ("max_units", 2.5)])
    def test_a_config_built_in_code_names_a_field_of_the_wrong_kind(self, key, value):
        # a truthy string once turned dumping on, and a str synth_n raised a raw TypeError
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            ab.ExperimentConfig(**{key: value})

    def test_an_empty_output_dir_is_refused(self):
        # Path("") is the working directory, where a run once wrote every artifact
        for build in (lambda: ab.ExperimentConfig(output_dir=""),
                      lambda: replace(ab.ExperimentConfig(), output_dir="")):
            with pytest.raises(ConfigError, match="^output_dir must be a non-empty path$"):
                build()

    def test_many_attack_sections_parse_in_linear_time(self):
        # each section's id is checked once, against one set of the ids before it; a
        # list scan per check made 2,000 sections take nearly a minute, and re-checking
        # the whole list per section made 10,000 take over 10 s
        text = "".join(f"[attack a{i}]\nvariant = fgsm\nepsilon = 0.1\n" for i in range(10000))
        start = time.perf_counter()
        config = ab.parse_experiment_config(text)
        assert time.perf_counter() - start < 5.0
        assert [a.attack_id for a in config.attacks] == [f"a{i}" for i in range(10000)]

    def test_csv_requires_path(self):
        with pytest.raises(ConfigError):
            ab.parse_experiment_config("dataset = csv\n")

    def test_duplicate_global_key(self):
        with pytest.raises(ConfigError) as info:
            ab.parse_experiment_config("seed = 1\nseed = 2\n")
        assert ":2:" in self.line_of(info)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="^config file not found: "):
            ab.load_experiment_config(tmp_path / "none.cfg")


_ANY_KEY = st.sampled_from(sorted(_TOP_KEYS) + [f"attack.{k}" for k in sorted(_ATTACK_KEYS)])


@given(st.lists(st.tuples(_ANY_KEY, st.text(max_size=20)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_arbitrary_values_parse_or_raise_config_error(pairs):
    top = [f"{key} = {value}" for key, value in pairs if not key.startswith("attack.")]
    attack = [f"{key[7:]} = {value}" for key, value in pairs if key.startswith("attack.")]
    text = "\n".join(top + ["[attack a]", "variant = pgd", "epsilon = 0.3",
                             "step_size = 0.1", "num_steps = 2"] + attack) + "\n"
    try:
        ab.parse_experiment_config(text)
    except ConfigError:
        pass


def _accepts(call) -> bool:
    try:
        call()
    except (ConfigError, ContractError):
        return False
    return True


@pytest.fixture(scope="module")
def unstopped_result():
    # a bundle of no attacks: no example stops early, so both curves take it
    data = ab.Dataset([[0.2, 0.6], [0.7, 0.4]], [0, 1], num_classes=2)
    return ab.bundle(binary_linear([1.0, -1.0]), data, [], ab.Criterion.misclassify())


# each rule's edges, and any float
_EDGES = [0.5, 1.0, float(np.nextafter(0.5, 0.0)), float(np.nextafter(1.0, 0.0)), 0.0, -0.0,
          np.inf, -np.inf, np.nan, 1e308]
_POINT = st.sampled_from(_EDGES) | st.floats(allow_nan=True, allow_infinity=True)
_GRID = (st.lists(_POINT, min_size=1, max_size=6).map(lambda ts: ",".join(map(repr, ts)))
         | st.tuples(_POINT, _POINT, st.integers(1, 8)).map(
             lambda lhc: f"{lhc[0]!r}:{lhc[1]!r}:{lhc[2]}"))


@given(value=_GRID)
@settings(max_examples=300, deadline=None)
def test_parser_accepts_a_grid_exactly_when_its_curve_does(unstopped_result, value):
    grid = _parse_grid(value)
    for key, curve in (("threshold_grid", ab.success_fail_curve),
                       ("epsilon_grid", ab.norm_curve)):
        parsed = _accepts(lambda: ab.parse_experiment_config(f"{key} = {value}\n"))
        assert parsed == _accepts(lambda: curve(unstopped_result, grid)), key


@given(st.lists(st.integers(-3, 3) | st.integers(-10**30, 10**30), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_parser_accepts_gap_sizes_exactly_when_the_gap_table_does(sizes):
    value = ",".join(map(str, sizes))
    parsed = _accepts(lambda: ab.parse_experiment_config(f"gap_ns = {value}\n"))
    assert parsed == _accepts(lambda: ab.wat_underestimation_report(_parse_int_list(value)))


# the keys whose rules live in another module, each set in this order; synth_n leaves room
# for synth_k at its bound
_RULE_KEYS = {"synth_n": MAX_CLASSES, "synth_d": 2, "synth_k": 3, "synth_seed": 7,
              "train_seed": 1, "max_units": 2, "architecture": "mlp1"}
_CONSUMERS = {
    **dict.fromkeys(("synth_n", "synth_d", "synth_k", "synth_seed"), lambda v: check_synth(
        v["synth_n"], v["synth_d"], v["synth_k"], v["synth_seed"], prefix="synth_")),
    "train_seed": lambda v: _check_seed(v["train_seed"], "train_seed"),
    "max_units": lambda v: check_unit_cap(v["max_units"], "max_units"),
    "architecture": lambda v: check_architecture(v["architecture"]),
}


@pytest.mark.parametrize("key,at,past", [
    ("synth_n", MAX_SYNTH_N, MAX_SYNTH_N + 1), ("synth_n", 3, 2),  # 3 = synth_k
    ("synth_d", MAX_SYNTH_D, MAX_SYNTH_D + 1), ("synth_d", 1, 0),
    ("synth_k", MAX_CLASSES, MAX_CLASSES + 1), ("synth_k", 2, 1),
    ("synth_seed", 0, -1), ("train_seed", 0, -1), ("max_units", 0, -1),
    ("architecture", "softmax_linear", "svm"),
])
def test_a_value_past_its_bound_fails_at_its_line_with_its_consumers_message(key, at, past):
    # the config has no copy of these rules: it calls the consumer's own check with the
    # key's name, so the parser's message is that check's, at the key's line
    line = list(_RULE_KEYS).index(key) + 1
    text = "".join(f"{k} = {{{k}}}\n" for k in _RULE_KEYS)
    config = ab.parse_experiment_config(text.format(**{**_RULE_KEYS, key: at}))
    assert getattr(config, key) == at
    values = {**_RULE_KEYS, key: past}
    with pytest.raises(ContractError) as consumer:
        _CONSUMERS[key](values)
    assert str(consumer.value).startswith(f"{key} must be ")
    with pytest.raises(ConfigError) as info:
        ab.parse_experiment_config(text.format(**values), source="exp.cfg")
    assert str(info.value) == f"exp.cfg:{line}: {consumer.value}"

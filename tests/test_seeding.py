"""The block form of seed derivation gives, bit for bit, the seeds the
scalar `derive_seed` gives one by one."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle.attacks import _restart_seeds
from advbundle.bundler import _block_seeds

EDGES = [0, 2**63 - 1, 2**63, 2**64 - 1]
# derive_seed takes a root mod 2**64, so roots outside [0, 2**64) are valid too
ROOTS = st.one_of(st.sampled_from(EDGES), st.integers(-2**65, 2**66))
# ids of one 8-byte word, of several, and with multi-byte UTF-8
IDS = st.one_of(st.sampled_from(["pgd", "pgd-expensive", "bruit-é", "攻撃-θ-✓"]),
                st.text(min_size=1, max_size=24))


@given(root=ROOTS, idx=st.lists(st.integers(0, 10**6), max_size=16), attack_id=IDS)
@example(root=2**64 - 1, idx=[0, 1, 2**31], attack_id="a-long-attack-id-ü")
@settings(max_examples=200, deadline=None)
def test_block_seeds_equal_derive_seed_per_example(root, idx, attack_id):
    config = ab.AttackConfig(attack_id, "pgd", 0.3, step_size=0.1, num_steps=1)
    assert _block_seeds(root, idx, config) == [ab.derive_seed(root, i, attack_id)
                                               for i in idx]


@st.composite
def seeds_and_restarts(draw):
    """One seed per example: an int, or a sequence of per-restart seeds."""
    r = draw(st.integers(1, 4))
    seed = st.one_of(ROOTS, st.lists(st.integers(0, 2**64 - 1), min_size=r, max_size=r))
    return draw(st.lists(seed, max_size=8)), r


@given(seeds_and_restarts())
@example(([0, 2**63 - 1, 2**63, 2**64 - 1, 7], 3))  # above and below 2**63 in one block
@example(([2**63, [5, 6], 1], 2))
@settings(max_examples=200, deadline=None)
def test_restart_seeds_equal_derive_seed_per_restart(case):
    seeds, r = case
    expected = [s for seed in seeds
                for s in ([ab.derive_seed(seed, j) for j in range(r)]
                          if isinstance(seed, int) else seed)]
    got = _restart_seeds(seeds, r)
    assert got == expected and all(type(s) is int for s in got)


def test_numpy_integer_roots_match_python_ints():
    roots = [np.uint64(2**64 - 1), np.int64(-1), np.uint64(2**63)]
    assert _restart_seeds(roots, 2) == _restart_seeds([int(s) for s in roots], 2)

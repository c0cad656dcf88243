"""The block forms of seeding give, bit for bit, what the scalar forms give
one by one: `derive_seeds` the seeds of `derive_seed`, `pcg64_states` the
states numpy seeds from each seed, and `uniform_rows` the draws of a
Generator per seed."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import advbundle as ab
from advbundle.attacks import _restart_seeds
from advbundle.bundler import _block_seeds
from advbundle.errors import ContractError
from advbundle.seeding import make_rng, pcg64_states, uniform_rows

EDGES = [0, 2**63 - 1, 2**63, 2**64 - 1]
# derive_seed takes a root mod 2**64, so roots outside [0, 2**64) are valid too
ROOTS = st.one_of(st.sampled_from(EDGES), st.integers(-2**65, 2**66))
# ids of one 8-byte word, of several, and with multi-byte UTF-8; an AttackConfig
# refuses a comma, a double quote, a line break or a lone surrogate in its id
IDS = st.one_of(st.sampled_from(["pgd", "pgd-expensive", "bruit-é", "攻撃-θ-✓"]),
                st.text(st.characters(codec="utf-8", blacklist_characters=',"\r\n'),
                        min_size=1, max_size=24))


@given(root=ROOTS, idx=st.lists(st.integers(0, 10**6), max_size=16), attack_id=IDS,
       pinned=st.none() | st.lists(ROOTS, min_size=1, max_size=4))
@example(root=2**64 - 1, idx=[0, 1, 2**31], attack_id="a-long-attack-id-ü", pinned=None)
# pinned seeds above and below 2**63 in one config
@example(root=5, idx=[0, 7, 2**31], attack_id="pgd", pinned=[2**63 - 1, 2**63, 2**64 - 1, 0])
@settings(max_examples=200, deadline=None)
def test_block_seeds_equal_derive_seed_per_example(root, idx, attack_id, pinned):
    config = ab.AttackConfig(attack_id, "pgd", 0.3, step_size=0.1, num_steps=1,
                             num_restarts=len(pinned or [0]),
                             restart_seeds=None if pinned is None else tuple(pinned))
    expected = ([ab.derive_seed(root, i, attack_id) for i in idx] if pinned is None
                else [[ab.derive_seed(s, i) for s in pinned] for i in idx])
    assert _block_seeds(root, idx, config) == expected


@st.composite
def seeds_and_restarts(draw):
    """One seed per example, all of one form: ints, or sequences of
    per-restart seeds."""
    r = draw(st.integers(1, 4))
    seed = draw(st.sampled_from([
        ROOTS, st.lists(st.integers(0, 2**64 - 1), min_size=r, max_size=r)]))
    return draw(st.lists(seed, max_size=8)), r


@given(seeds_and_restarts())
@example(([0, 2**63 - 1, 2**63, 2**64 - 1, 7], 3))  # above and below 2**63 in one block
@example(([[2**63, 5], [6, 2**64 - 1]], 2))
@settings(max_examples=200, deadline=None)
def test_restart_seeds_equal_derive_seed_per_restart(case):
    seeds, r = case
    expected = [s for seed in seeds
                for s in ([ab.derive_seed(seed, j) for j in range(r)]
                          if isinstance(seed, int) else seed)]
    got = _restart_seeds(seeds, r)
    assert got == expected and all(type(s) is int for s in got)


WORDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("part", [None, "noise", 0, 2**63, 2**64 - 1, WORDS],
                         ids=["root-only", "str", "0", "2**63", "2**64-1", "array"])
def test_derive_seeds_on_arrays_equal_derive_seed(part):
    # roots and parts at the edges of uint64, a list part as a column that
    # broadcasts against the roots, against the scalar definition; the mix
    # leaves its input arrays as they were
    roots = np.array(WORDS, dtype=np.uint64)
    array_part = isinstance(part, list)
    parts = () if part is None else (roots[:, None] if array_part else part,)
    before = roots.copy()
    got = ab.seeding.derive_seeds(roots, *parts)
    assert np.array_equal(roots, before) and got.dtype == np.uint64
    if array_part:
        want = [[ab.derive_seed(r, p) for r in WORDS] for p in WORDS]
    else:
        want = [ab.derive_seed(r, *parts) for r in WORDS]
    assert got.tolist() == want


def test_numpy_integer_roots_match_python_ints():
    roots = [np.uint64(2**64 - 1), np.int64(-1), np.uint64(2**63)]
    assert _restart_seeds(roots, 2) == _restart_seeds([int(s) for s in roots], 2)


# PCG64 seeding: pcg64_states and uniform_rows against numpy's own seeding

# one to seven uint32 words: 2**128 and up run SeedSequence's extra-word mixing
PCG_EDGES = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**128 - 1, 2**128, 2**200]
PCG_SEEDS = st.one_of(st.sampled_from(PCG_EDGES), st.integers(0, 2**64 - 1),
                      st.integers(0, 2**200))


def numpy_state(seed):
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


@given(st.lists(PCG_SEEDS, max_size=12))
@example(PCG_EDGES)  # every width in one block
@example([2**200, 5])
@settings(max_examples=200, deadline=None)
def test_block_pcg64_states_equal_numpy_seeding(seeds):
    assert pcg64_states(seeds) == [numpy_state(s) for s in seeds]


def test_numpy_integer_seeds_match_python_ints():
    seeds = [np.uint64(2**64 - 1), np.int64(5), np.uint32(2**32 - 1)]
    assert pcg64_states(seeds) == [numpy_state(int(s)) for s in seeds]


@given(st.lists(PCG_SEEDS, max_size=6), st.sampled_from([(5,), (3, 2)]))
@example(PCG_EDGES, (5,))
@example(PCG_EDGES, (3, 2))
@example([], (5,))
@settings(max_examples=100, deadline=None)
def test_uniform_rows_draw_what_make_rng_draws(seeds, shape):
    got = uniform_rows(seeds, -1.0, 1.0, shape)
    want = [make_rng(s).uniform(-1.0, 1.0, size=shape) for s in seeds]
    assert got.shape == (len(seeds), *shape)
    assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()


def test_uniform_rows_refuse_the_range_make_rng_refuses():
    with pytest.raises(OverflowError):
        make_rng(3).uniform(-1e308, 1e308, (5,))
    with pytest.raises(OverflowError):
        uniform_rows([3, 4], -1e308, 1e308, (5,))


@pytest.mark.parametrize("seeds", [[-1], [3, -1], [2**70, -2**70], [1.5], [2, "7"]])
def test_bad_seeds_are_refused_as_make_rng_refuses_them(seeds):
    with pytest.raises(ContractError):
        pcg64_states(seeds)
    with pytest.raises(ContractError):
        uniform_rows(seeds, -1.0, 1.0, (5,))

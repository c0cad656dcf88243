"""Seed derivation for reproducible randomness.

Every random draw in the package comes from a numpy Generator in the state
`np.random.PCG64(seed)` starts from, for an integer seed; the attacks take
theirs from `derive_seed`. Deriving one seed per
(example, attack, restart) tuple means no draw depends on the order in
which tuples are visited, so early stopping leaves the other draws
unchanged and a restart split out into its own attack (with its
`restart_seeds` pinned) draws exactly what it drew inside the
multi-restart attack.

`derive_seeds` is the block form: the same mix on `uint64` arrays, so a
block of examples or restarts gets its seeds in one array pass, bit for bit
what `derive_seed` gives each of them. A block's seeds stay that array down
to the draw.

`make_rng` builds one seed's Generator for normal draws and permutations.
`uniform_rows` makes every uniform draw, a row per seed, bit for bit what
`make_rng(seed)` draws, from one Generator set to each seed's starting state
in turn; it alone resets a Generator. `pcg64_states` computes those states in
one array pass: numpy's `SeedSequence` hash on `uint32` columns, then
PCG64's set-seq seeding (O'Neill 2014, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation"). It reads a uint64 array's words through a view of it, and
packs Python integers of any width one by one; both share the hash and the
state assembly.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

from .errors import ContractError, is_int

_MASK = (1 << 64) - 1

# numpy's SeedSequence (pool of four uint32 words) and PCG64 seeding constants
_POOL = 4
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MAX_HALF_RANGE = np.finfo(np.float64).max / 2  # widest h of a [-h, h] draw: 2 * h is finite


def _mix(z):
    # splitmix64 finalizer; on a uint64 array the products wrap mod 2**64, as
    # the masks make them do on a Python int (a numpy scalar would warn)
    z = (z + 0x9E3779B97F4B7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _fold(part):
    if isinstance(part, np.ndarray):
        return _mix(part)
    if isinstance(part, str):
        h = _mix(len(part))
        data = part.encode("utf-8")
        for off in range(0, len(data), 8):
            h = _mix(h ^ int.from_bytes(data[off:off + 8], "little"))
        return h
    return _mix(int(part) & _MASK)


def derive_seed(root: int, *parts: int | str) -> int:
    """Hash (root, *parts) into a 64-bit seed, splitmix-style. The root and
    each part are taken mod 2**64; a root that is not an integer, or a part
    that is neither an integer nor a str, raises ContractError, as `int()`
    would truncate 1.9 and read True as 1."""
    if not is_int(root):
        raise ContractError(f"root must be an integer, got {root!r}")
    for part in parts:
        if not (is_int(part) or isinstance(part, str)):
            raise ContractError(f"each part must be an integer or a str, got {part!r}")
    return derive_seeds(int(root), *parts)


def seed_words(values: Sequence[int]) -> np.ndarray:
    """Integers as a uint64 array, each taken mod 2**64 as `derive_seed` takes
    its root. Built one by one: `np.array` of a list mixing values above and
    below 2**63 comes out as float64 and loses bits."""
    return np.fromiter((int(v) & _MASK for v in values), dtype=np.uint64, count=len(values))


def derive_seeds(root: int | np.ndarray, *parts: int | str | np.ndarray):
    """`derive_seed` elementwise over uint64 arrays, which broadcast together.

    root is an int or a uint64 array (see `seed_words`), each part an int, a
    str or a uint64 array; a str is folded once for the whole block. With an
    array among them the result is a uint64 array, each entry the
    `derive_seed` of its elements; without one, it is `derive_seed`.
    """
    state = _fold(root)
    for part in parts:
        state = _mix(state ^ _fold(part))
    return state


def _check_seed(seed, name: str = "seed") -> int:
    if not is_int(seed):
        raise ContractError(f"{name} must be an integer, got {seed!r}")
    if seed < 0:
        raise ContractError(f"{name} must be >= 0, got {seed}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_check_seed(seed)))


@cache
def _hash_consts(const: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of the first `calls` SeedSequence
    hashmix calls: a fixed sequence, whatever the data."""
    seq = [const]
    for _ in range(calls):
        seq.append(seq[-1] * mult & _MASK32)
    seq = np.array(seq, dtype=np.uint32)
    seq.flags.writeable = False  # cached: every caller shares it
    return seq[:-1, None], seq[1:, None]


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Hashmix of each row of words (or of its one row) with each row's constants."""
    words = words ^ xor
    words *= mult  # uint32 arrays wrap mod 2**32
    words ^= words >> 16
    return words


def _mix32(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x * _MIX_L
    z -= y * _MIX_R
    z ^= z >> 16
    return z


def pcg64_states(seeds: Sequence[int] | np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) `np.random.PCG64(seed)` starts from, for each seed.

    One pass over the block, a column per seed: `SeedSequence(seed)` hashes
    the seed's uint32 words into a pool of four, then `generate_state(4,
    uint64)` gives the high/low words of PCG64's initstate and initseq, and
    the set-seq seeding makes inc = 2 * initseq + 1 and state =
    (inc + initstate) * MULT + inc, mod 2**128.

    seeds is a 1-D uint64 array, such as `derive_seeds` gives, or a sequence
    of Python or numpy integers of any width. An array's two words are read
    through a view of it, with no per-seed check. A sequence is packed seed
    by seed: a seed of more than four words (2**128 or more) mixes its extra
    words into the pool, as `SeedSequence` does, and a seed `make_rng`
    refuses raises ContractError.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1:
        # row w holds word w of each seed; the pool hashes a missing word as
        # it hashes a zero one
        entropy = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
        entropy[:2] = seeds.astype("<u8", copy=False).view("<u4").reshape(-1, 2).T
        return _states(entropy)
    seeds = [_check_seed(s) for s in seeds]
    if not seeds:
        return []
    bits = np.array([s.bit_length() for s in seeds])
    width = max(_POOL, -(-int(bits.max()) // 32))
    entropy = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds),
                            dtype="<u4").reshape(len(seeds), width).T.astype(np.uint32)
    return _states(entropy, bits)


def _states(entropy: np.ndarray, bits: np.ndarray | None = None) -> list[tuple[int, int]]:
    """`pcg64_states` of the seeds whose little-endian uint32 words are the
    columns of entropy, at least `_POOL` rows; bits, each seed's bit length,
    is needed only beyond `_POOL` rows, where a seed mixes only the words it
    has."""
    width = len(entropy)
    xor, mult = _hash_consts(_INIT_A, _MULT_A, _POOL * width)
    pool = _hashmix(entropy[:_POOL], xor[:_POOL], mult[:_POOL])
    # each word mixes into every other one; it is fixed while it does, so the
    # other three take their consecutive hash constants in one step
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        k = _POOL + (_POOL - 1) * src
        pool[dst] = _mix32(pool[dst], _hashmix(pool[src], xor[k:k + _POOL - 1],
                                               mult[k:k + _POOL - 1]))
    for src in range(_POOL, width):
        k = _POOL * src
        mixed = _mix32(pool, _hashmix(entropy[src], xor[k:k + _POOL], mult[k:k + _POOL]))
        pool = np.where(bits > 32 * src, mixed, pool)
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    words = _hashmix(np.tile(pool, (2, 1)), xor, mult)
    states = []
    for hi, lo, seq_hi, seq_lo in np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist():
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        states.append((((inc + ((hi << 64) | lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def uniform_rows(seeds: Sequence[int] | np.ndarray, low: float, high: float,
                 shape: tuple) -> np.ndarray:
    """Row u is `make_rng(seeds[u]).uniform(low, high, shape)`, bit for bit.

    numpy draws `low + (high - low) * next_double`: each row is filled in
    place with `random(out=)`, numpy's `next_double` stream, and the block is
    scaled once. One Generator draws every row, each from the state
    `pcg64_states` gives its seed in one pass, set through one state dict
    that every row refills. seeds is as `pcg64_states` takes them."""
    out = np.empty((len(seeds), *shape))
    if not np.isfinite(high - low):  # numpy's own refusal, which scaling would skip
        raise OverflowError("high - low range exceeds valid bounds")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    start = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": start, "has_uint32": 0, "uinteger": 0}
    for row, (start["state"], start["inc"]) in zip(out, pcg64_states(seeds)):
        bit_generator.state = state  # the setter copies the two words out
        rng.random(out=row)
    out *= high - low
    out += low
    return out

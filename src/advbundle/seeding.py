"""Seed derivation for reproducible randomness.

Every random draw in the package comes from a numpy Generator seeded with
an integer produced by `derive_seed`. Deriving one seed per
(example, attack, restart) tuple means no draw depends on the order in
which tuples are visited, so early stopping leaves the other draws
unchanged and a restart split out into its own attack (with its
`restart_seeds` pinned) draws exactly what it drew inside the
multi-restart attack.

`derive_seeds` is the block form: the same mix on `uint64` arrays, so a
block of examples or restarts gets its seeds in one array pass, bit for bit
what `derive_seed` gives each of them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ContractError

_MASK = (1 << 64) - 1


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
    """Hash (root, *parts) into a 64-bit seed, splitmix-style."""
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


def make_rng(seed: int) -> np.random.Generator:
    if not isinstance(seed, (int, np.integer)):
        raise ContractError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))

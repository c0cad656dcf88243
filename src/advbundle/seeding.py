"""Seed derivation for reproducible randomness.

Every random draw in the package comes from a numpy Generator seeded with
an integer produced by `derive_seed`. Deriving one seed per
(example, attack, restart) tuple means no draw depends on the order in
which tuples are visited, so early stopping leaves the other draws
unchanged and a restart split out into its own attack (with its
`restart_seeds` pinned) draws exactly what it drew inside the
multi-restart attack.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    # splitmix64 finalizer
    z = (z + 0x9E3779B97F4B7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _fold(part: int | str) -> int:
    if isinstance(part, str):
        h = _mix(len(part))
        data = part.encode("utf-8")
        for off in range(0, len(data), 8):
            h = _mix(h ^ int.from_bytes(data[off:off + 8], "little"))
        return h
    return _mix(int(part) & _MASK)


def derive_seed(root: int, *parts: int | str) -> int:
    """Hash (root, *parts) into a 64-bit seed, splitmix-style."""
    state = _mix(int(root) & _MASK)
    for part in parts:
        state = _mix(state ^ _fold(part))
    return state


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))

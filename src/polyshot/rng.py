"""Deterministic seed derivation and counter-based generators.

Every stochastic step in the library draws from a numpy Philox-4x64-10
bit generator keyed by a 64-bit seed.  Child seeds are derived from a
master seed plus integer labels (degree, trial, point index, ...) with a
splitmix64 mixing chain, so results are independent of task scheduling:
any (master, labels...) pair names the same stream on every platform.
derive_seeds gives a row of such seeds, one per value of the last label, in
one pass, and derive_seed_grid a grid of them, one per value of each of the
last two labels (a degree's trials x points), in one more.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# initial hash state: first 64 fractional bits of pi
_H0 = 0x243F6A8885A308D3


def _splitmix64(z):
    """One splitmix64 step on a 64-bit int, or on each entry of a uint64 array
    (whose arithmetic wraps mod 2^64, as the masks do)."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(*labels: int) -> int:
    """Hash a master seed and integer labels into one 64-bit child seed."""
    h = _H0
    for part in labels:
        h = _splitmix64(h ^ (int(part) & _MASK64))
    return h


def derive_seeds(*labels) -> list[int]:
    """[derive_seed(*labels[:-1], part) for part in labels[-1]], bit for bit:
    the leading labels are hashed once, and the last step of the chain runs
    on a uint64 array of the parts.  Each part is masked to 64 bits as
    derive_seed masks it, so a negative part or one of more than 64 bits names
    the same seed."""
    *prefix, parts = labels
    return _splitmix64(_masked(parts) ^ derive_seed(*prefix)).tolist()


def derive_seed_grid(*labels) -> np.ndarray:
    """[derive_seeds(*labels[:-2], row, labels[-1]) for row in labels[-2]] as
    a uint64 array [rows, parts], bit for bit: the leading labels are hashed
    once, the rows in one uint64 pass and the grid in one more, each label
    masked to 64 bits as derive_seed masks it."""
    *prefix, rows, parts = labels
    heads = _splitmix64(_masked(rows) ^ derive_seed(*prefix))
    return _splitmix64(heads[:, None] ^ _masked(parts))


def _masked(parts) -> np.ndarray:
    """Integer labels masked to 64 bits, as a uint64 array."""
    return np.array([int(part) & _MASK64 for part in parts], dtype=np.uint64)


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def rekeyed(seeds):
    """generator(seed) for each seed in turn, as one Philox re-keyed in place:
    key [seed, 0], counter 0 and an empty buffer, the state Philox(seed) starts in."""
    bits = np.random.Philox(key=0)
    gen, state = np.random.Generator(bits), bits.state
    for seed in seeds:
        state["state"]["key"][0] = seed & _MASK64
        bits.state = state
        yield gen

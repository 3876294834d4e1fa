"""Deterministic 64-bit RNG primitives shared by every sampling component.

All environment and walk randomness flows through splitmix64, and this module
is the one home of its constants, of ``mix64`` and of the key scheme (each
with a vectorised twin: ``mix64_np``, ``root_key_np``, ``child_key_np``,
``derive_seed_np``).
The plain-C kernel ``_walk.c`` keeps its own copy of exactly these integer
operations, which is what makes it and the tests' Python reference
(tests/pykernel.py) produce bit-identical output for the same seeds, and of
``PCG64_MULT``, the multiplier of its PCG64 generator.

Substream discipline
--------------------
A node of the environment draws its offspring from a stream seeded by its own
64-bit key. The root key is ``mix64(env_seed ^ ROOT_SALT)`` and the key of the
j-th child (0-based) of a node with key ``k`` is ``mix64(k ^ (j+2)*GOLDEN)``.
Keys therefore depend only on (environment seed, path from the root), so two
consumers exploring the same environment in different orders see the same
quenched tree.

Experiment seeds use :func:`derive_seed`, chaining the same mixer over
(master seed, experiment label, trial index, role).

Generator seeding
-----------------
Every other draw (gamma, Poisson, uniform, bounded integer, multinomial)
comes from the library's PCG64 generator (`kernel.PCG64`), whose stream is
numpy's: :func:`pcg64_seed` is numpy's ``SeedSequence(seed)`` followed by
its PCG64 seeding, in plain-int arithmetic, so ``kernel.PCG64(seed)``
starts in the state of ``np.random.default_rng(seed)`` and no command
imports ``numpy.random``. PCG64 is O'Neill's 128-bit LCG with the XSL-RR
output (HMC-CS-2014-0905); numpy keeps both streams fixed across versions.
"""

from __future__ import annotations

import numpy as np

MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
ROOT_SALT = 0xD1B54A32D192ED03

TWO_NEG53 = 1.0 / (1 << 53)  # (z >> 11) * TWO_NEG53 is uniform on [0, 1)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective mixing of a 64-bit value."""
    x &= MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    x ^= x >> 31
    return x


def mix64_np(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` elementwise on a uint64 array (a new array)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def child_key(parent_key: int, j: int) -> int:
    """Key of the j-th (0-based) child of a node with key ``parent_key``."""
    return mix64(parent_key ^ (((j + 2) * GOLDEN) & MASK))


def child_key_np(parent_keys: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`child_key` elementwise: keys of the j[i]-th children of the
    nodes with keys parent_keys[i]."""
    with np.errstate(over="ignore"):
        return mix64_np(
            np.asarray(parent_keys, dtype=np.uint64)
            ^ (np.asarray(j) + 2).astype(np.uint64) * np.uint64(GOLDEN)
        )


def root_key(env_seed: int) -> int:
    return mix64((env_seed & MASK) ^ ROOT_SALT)


def root_key_np(env_seeds) -> np.ndarray:
    """:func:`root_key` elementwise on a sequence of environment seeds."""
    seeds = np.asarray(env_seeds, dtype=np.uint64).ravel()
    return mix64_np(seeds ^ np.uint64(ROOT_SALT))


def _label_hash(label: str) -> int:
    # FNV-1a over the UTF-8 bytes, then mixed
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK
    return mix64(h)


def derive_seed(master: int, experiment: str, trial: int, role: str) -> int:
    """Documented substream hash: master -> (experiment, trial, role) seed.

    role is conventionally one of {"env", "walk", "bootstrap"} but any label
    works; the chain is collision-resistant enough for Monte Carlo purposes.
    """
    x = mix64(master & MASK)
    x = mix64(x ^ _label_hash(experiment))
    x = mix64(x ^ ((trial & MASK) * GOLDEN) & MASK)
    x = mix64(x ^ _label_hash(role))
    return x


def derive_seed_np(master: int, experiment: str, trials, role: str) -> np.ndarray:
    """:func:`derive_seed` elementwise over an array of trial indices."""
    x = mix64(mix64(master & MASK) ^ _label_hash(experiment))
    t = np.asarray(trials, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = mix64_np(np.uint64(x) ^ t * np.uint64(GOLDEN))
    return mix64_np(x ^ np.uint64(_label_hash(role)))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): 32-bit hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4

# the LCG multiplier of PCG64 (PCG_DEFAULT_MULTIPLIER_128)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seed: int, n_words: int) -> list[int]:
    """``SeedSequence(seed).generate_state(n_words, np.uint32)``."""
    if seed < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {seed}")
    entropy = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v ^= h
        h = (h * _MULT_A) & _MASK32
        v = (v * h) & _MASK32
        return v ^ (v >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, h = [], _INIT_B
    for i in range(n_words):
        v = pool[i % _POOL] ^ h
        h = (h * _MULT_B) & _MASK32
        v = (v * h) & _MASK32
        out.append(v ^ (v >> 16))
    return out


def pcg64_seed(seed: int) -> tuple[int, int]:
    """The 128-bit (state, inc) of ``np.random.default_rng(seed)``'s PCG64:
    the four 64-bit words of ``SeedSequence(seed).generate_state(4,
    np.uint64)`` (each two 32-bit words, low first) give the initial state
    and sequence; PCG's srandom steps the LCG from state 0, adds the
    initial state and steps again. ValueError for a negative seed, as
    numpy raises it."""
    w = _seed_words(int(seed), 8)
    s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
    inc = (((i0 << 64 | i1) << 1) | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * PCG64_MULT + inc) & _MASK128, inc

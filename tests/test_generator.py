"""The library's generator `kernel.PCG64` against numpy's
`np.random.default_rng`, bit for bit: the state after seeding at edge
seeds, and the values and state after every draw of full-range uint64,
bounded int64 (odd and even ranges, and ranges just below and above 2^32,
which switch between 32- and 64-bit draws, with the 32-bit buffer carried
across calls) and multinomial rows."""

import numpy as np
import pytest

from gwalk import kernel

import oracles

SEEDS = [0, 1, 5, 12345, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1, 0xDEADBEEFCAFEBABE,
         2**160 + 3]


def _same(rng, ref):
    assert oracles.numpy_state(rng) == ref.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS, ids=hex)
def test_seeding_matches_numpy(seed):
    _same(kernel.PCG64(seed), np.random.default_rng(seed))
    _same(kernel.PCG64(np.uint64(seed % 2**64)), np.random.default_rng(np.uint64(seed % 2**64)))


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        kernel.PCG64(-1)


@pytest.mark.parametrize("seed", SEEDS, ids=hex)
def test_uint64_draws_match_numpy(seed):
    rng, ref = kernel.PCG64(seed), np.random.default_rng(seed)
    for n in (1, 5, 1000):
        got = rng.integers(0, 2**64, np.empty(n, dtype=np.uint64))
        assert got.tobytes() == ref.integers(0, 2**64, size=n, dtype=np.uint64).tobytes()
        _same(rng, ref)


# (low, high, size): odd, even, 2^32 - 1 and 2^32 + 1 values, a single value
# (no draw) and the whole int64 range; odd sizes leave the 32-bit buffer full
BOUNDED = [(0, 7, 3), (0, 8, 5), (0, 2**32 - 1, 7), (0, 2**32 + 1, 3), (1, 2, 4),
           (-5, 2**40, 9), (0, 2**32, 1), (-2**63, 2**63, 3), (0, 2**64, 1), (3, 1000, 2)]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_bounded_int64_draws_match_numpy(seed):
    """One generator runs every range in turn, twice, so the 32-bit draws'
    buffered half meets the next range's draws as numpy's does."""
    rng, ref = kernel.PCG64(seed), np.random.default_rng(seed)
    for low, high, n in BOUNDED * 2:
        dtype = np.uint64 if high == 2**64 else np.int64
        got = rng.integers(low, high, np.empty(n, dtype=dtype))
        want = ref.integers(low, high, size=n, dtype=dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (low, high)
        _same(rng, ref)
    shaped = rng.integers(1, 9, np.empty((4, 2), dtype=np.int64))
    assert shaped.tolist() == ref.integers(1, 9, size=(4, 2)).tolist()


@pytest.mark.parametrize("n, pvals", [
    (10, [0.2, 0.3, 0.1, 0.4]),
    (10**6, [0.2, 0.3, 0.1, 0.4]),
    (0, [0.5, 0.5]),
    (1000, [0.0, 0.999, 0.0, 0.001]),
    (40000, [0.99, 0.005, 0.004, 0.001, 0.0]),
])
def test_multinomial_rows_match_numpy(n, pvals):
    rng, ref = kernel.PCG64(11), np.random.default_rng(11)
    for size in (1, 200):
        got = rng.multinomial(n, pvals, size)
        want = ref.multinomial(n, pvals, size=size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        _same(rng, ref)


def test_bad_draws_are_refused_before_drawing():
    rng = kernel.PCG64(3)
    state = oracles.numpy_state(rng)
    bad = [lambda: rng.integers(5, 5, np.empty(2, dtype=np.int64)),
           lambda: rng.integers(-1, 5, np.empty(2, dtype=np.uint64)),
           lambda: rng.integers(0, 2**63 + 1, np.empty(2, dtype=np.int64)),
           lambda: rng.integers(0, 5, np.empty(2, dtype=np.int32)),
           lambda: rng.integers(0, 5, np.empty((2, 2), dtype=np.int64).T),
           lambda: rng.multinomial(-1, [0.5, 0.5], 2),
           lambda: rng.multinomial(5, [0.7, 0.7, 0.1], 2),
           lambda: rng.multinomial(5, [np.nan, 0.5], 2),
           lambda: rng.multinomial(5, [], 2)]
    for draw in bad:
        with pytest.raises(ValueError):
            draw()
    assert oracles.numpy_state(rng) == state

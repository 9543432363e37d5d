"""The stream bank against numpy: every row must be its spawned Generator."""

import re
import tracemalloc

import numpy as np
import pytest

from clockmux.clock import overhead_and_error
from clockmux.presets import study_set
from clockmux.streams import StreamBank
from clockmux.traces import generate_set

SEEDS = [0, 1, 2**32 + 5, 2**64 + 7]
ROW_COUNTS = [0, 1, 300]


def _generators(seed, n):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_match_numpy(seed, n):
    bank = StreamBank(seed, n)
    got = bank._walk(np.arange(n), 7)
    assert got.shape == (n, 7) and got.dtype == np.uint64
    for row, gen in zip(got, _generators(seed, n)):
        assert np.array_equal(row, gen.bit_generator.random_raw(7))


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_each_draw_matches_numpy_and_leaves_its_state(seed, n):
    bank, gens, rows = StreamBank(seed, n), _generators(seed, n), np.arange(n)
    assert bank.states(rows) == [g.bit_generator.state for g in gens]
    # the failed-row bytes draw on every third row, so the noise hand-off after
    # them starts from rows that have drawn different amounts
    phases = [
        ("plaintext", rows, lambda b, r: b.bytes(r, 16),
         lambda g: g.integers(0, 256, 16, dtype=np.uint8)),
        ("random(5)", rows, lambda b, r: b.random(r, 5), lambda g: g.random(5)),
        ("selections of 16", rows, lambda b, r: b.integers4(r, 16),
         lambda g: g.integers(0, 4, size=16, dtype=np.int8)),
        ("failed-row bytes", rows[::3], lambda b, r: b.bytes(r, 16),
         lambda g: g.integers(0, 256, 16, dtype=np.uint8)),
        ("noise", rows, lambda b, r: b.standard_normal(r, 50),
         lambda g: g.standard_normal(50)),
    ]
    for name, which, draw, numpy_draw in phases:
        got = draw(bank, which)
        want = [numpy_draw(gens[r]) for r in which]
        probe = numpy_draw(np.random.default_rng(0))
        assert got.shape == (len(which),) + probe.shape and got.dtype == probe.dtype, name
        for g_row, w_row in zip(got, want):
            assert np.array_equal(g_row, w_row), name
        assert bank.states(rows) == [g.bit_generator.state for g in gens], name


@pytest.mark.parametrize("size", [0, 1, 4, 12, 17])
def test_a_size_off_whole_words_raises_before_any_row_advances(size):
    bank, rows = StreamBank(3, 5), np.arange(5)
    before = bank.states(rows)
    for draw in (bank.bytes, bank.integers4):
        with pytest.raises(ValueError, match="positive multiple of 8"):
            draw(rows, size)
    assert bank.states(rows) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_passes_of_16_selections_equal_one_numpy_draw(seed):
    bank, gens, rows = StreamBank(seed, 7), _generators(seed, 7), np.arange(7)
    got = np.concatenate([bank.integers4(rows, 16) for _ in range(4)], axis=1)
    for g_row, gen in zip(got, gens):
        assert np.array_equal(g_row, gen.integers(0, 4, 64, np.int8))
    assert bank.states(rows) == [g.bit_generator.state for g in gens]


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seeds_raise_what_seed_sequence_raises(seed):
    with pytest.raises((ValueError, TypeError)) as want:
        np.random.SeedSequence(seed)
    fs = study_set(1).fs
    for call in (lambda: generate_set(fs, bytes(16), 4, seed=seed),
                 lambda: overhead_and_error(fs, n_encryptions=4, seed=seed)):
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            call()


def test_seeding_holds_few_words_per_stream():
    # a bank keeps 36 B a stream; seeding joins each hashed pair into its
    # state word as it goes and drops the spawn pools before the LCG step,
    # so its peak is 144 B a stream (240 B with all eight words held at once)
    n = 1 << 16
    StreamBank(1, 10)  # first-call allocations
    tracemalloc.start()
    try:
        StreamBank(7, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180 * n

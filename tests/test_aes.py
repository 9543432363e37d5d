"""Known-answer vectors, metric properties, and the last-round leakage model."""

import tracemalloc

import numpy as np
import pytest

from clockmux import aes

from aes_reference import _ref_round_keys, reference_decrypt

# ---------------------------------------------------------------------------
# FIPS-197 known-answer material
# ---------------------------------------------------------------------------

KAT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KAT_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

SCHEDULE_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SCHEDULE_LAST_RK = bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")


def test_key_expansion_zero_key_first_derived_word():
    ks = aes.expand_key(bytes(16))
    assert ks[1][:4] == bytes.fromhex("62636363")


def test_key_expansion_appendix_a_last_round_key():
    ks = aes.expand_key(SCHEDULE_KEY)
    assert ks[10] == SCHEDULE_LAST_RK


def test_key_expansion_round_zero_is_key():
    ks = aes.expand_key(SCHEDULE_KEY)
    assert ks[0] == SCHEDULE_KEY
    assert len(ks) == 11


def test_key_expansion_matches_reference_schedule():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(200):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        assert aes.expand_key(key) == tuple(bytes(rk) for rk in _ref_round_keys(key))


def test_encrypt_appendix_c_vector():
    states, cts = aes.encrypt_blocks_with_states(KAT_KEY, np.frombuffer(KAT_PT, np.uint8)[None])
    assert cts[0].tobytes() == KAT_CT
    assert states[10, 0].tobytes() == KAT_CT
    assert len(states) == 11


def test_first_state_is_initial_add_round_key():
    states, _ = aes.encrypt_blocks_with_states(KAT_KEY, np.frombuffer(KAT_PT, np.uint8)[None])
    assert states[0, 0].tobytes() == bytes(p ^ k for p, k in zip(KAT_PT, KAT_KEY))


def test_batch_round_trips_through_reference_inverse_cipher():
    rng = np.random.Generator(np.random.PCG64(7))
    pts = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
    _, cts = aes.encrypt_blocks_with_states(SCHEDULE_KEY, pts)
    for pt, ct in zip(pts, cts):
        assert reference_decrypt(SCHEDULE_KEY, ct.tobytes()) == pt.tobytes()


def test_round_trip_against_reference_inverse_cipher():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(1000):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        pt = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        _, cts = aes.encrypt_blocks_with_states(key, np.frombuffer(pt, np.uint8)[None])
        assert reference_decrypt(key, cts[0].tobytes()) == pt


def test_key_schedule_inversion_round_trips():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(50):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        last = aes.expand_key(key)[10]
        assert aes.key_from_last_round_key(last) == key


def test_bad_lengths_rejected():
    with pytest.raises(ValueError):
        aes.expand_key(b"\x00" * 15)
    with pytest.raises(ValueError):
        aes.encrypt_blocks_with_states(KAT_KEY, np.zeros((1, 17), np.uint8))


# ---------------------------------------------------------------------------
# Hamming metrics
# ---------------------------------------------------------------------------

def test_hamming_weight_values():
    assert aes.HW8[0x00] == 0
    assert aes.HW8[0xFF] == 8
    assert aes.HW8[0xA5] == 4


def test_hamming_distance_values():
    assert aes.HW8[0x0F ^ 0x3C] == 4
    pt = np.frombuffer(KAT_PT, np.uint8)
    assert aes.HW8[pt ^ pt].sum() == 0
    assert aes.HW8[np.zeros(16, np.uint8) ^ np.full(16, 0xFF, np.uint8)].sum() == 128


def test_hamming_distance_metric_properties_exhaustive():
    # All byte pairs: identity, symmetry; triangle inequality over all triples
    # via the weight table (HD(a,b) = HW(a^b), so check HW(x^y) <= HW(x)+HW(y)).
    v = np.arange(256, dtype=np.uint8)
    hd = aes.HW8[v[:, None] ^ v[None, :]].astype(np.int16)
    assert (np.diag(hd) == 0).all()
    assert (hd == hd.T).all()
    x = v[:, None]
    y = v[None, :]
    assert (aes.HW8[x ^ y].astype(np.int16)
            <= aes.HW8[x].astype(np.int16) + aes.HW8[y].astype(np.int16)).all()
    # triangle: HD(a,c) <= HD(a,b) + HD(b,c) reduces to the subadditivity above
    # with x = a^b, y = b^c, x^y = a^c, which the assertion covers for all pairs.


# ---------------------------------------------------------------------------
# Last-round leakage model
# ---------------------------------------------------------------------------

def test_shift_rows_maps_are_inverse_permutations():
    assert sorted(aes.SHIFT_ROWS_SRC) == list(range(16))
    assert sorted(aes.SHIFT_ROWS_IMAGE) == list(range(16))
    assert (aes.SHIFT_ROWS_SRC[aes.SHIFT_ROWS_IMAGE] == np.arange(16)).all()


def test_hypothesis_at_true_key_equals_round_state_distance():
    # With the correct final round key byte, the hypothesis must equal the
    # actual register-overwrite distance HD(states[9][p], states[10][p]).
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(100):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        pt = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        states, cts = aes.encrypt_blocks_with_states(key, np.frombuffer(pt, np.uint8)[None])
        last_rk = aes.expand_key(key)[10]
        for p in range(16):
            g = last_rk[int(aes.SHIFT_ROWS_IMAGE[p])]
            want = aes.HW8[states[9, 0, p] ^ states[10, 0, p]]
            assert aes.last_round_hypothesis(cts[0].tobytes(), p, g) == want


def test_hypothesis_range_and_bad_args():
    for g in (0, 127, 255):
        h = aes.last_round_hypothesis(KAT_CT, 3, g)
        assert 0 <= h <= 8
    with pytest.raises(ValueError):
        aes.last_round_hypothesis(KAT_CT, 16, 0)
    with pytest.raises(ValueError):
        aes.last_round_hypothesis(KAT_CT, 0, 256)


def test_hypothesis_matrix_matches_scalar_path():
    # every column a permutation of 0..255: for each position, both bytes it
    # reads take every value; every (trace, position, guess) cell is checked
    rng = np.random.Generator(np.random.PCG64(29))
    cts = np.stack([rng.permutation(256) for _ in range(16)], axis=1).astype(np.uint8)
    blocks = [ct.tobytes() for ct in cts]
    for p in range(16):
        m = aes.hypothesis_matrix(cts, p)
        assert m.dtype == np.uint8 and m.shape == (256, 256)
        ref = [[aes.last_round_hypothesis(b, p, g) for g in range(256)] for b in blocks]
        assert np.array_equal(m, ref)


def test_hypothesis_matrix_allocates_one_byte_per_cell():
    # the popcount runs in place: one (n, 256) uint8 array, no second scratch
    n = 20000
    cts = np.random.Generator(np.random.PCG64(37)).integers(0, 256, (n, 16), dtype=np.uint8)
    tracemalloc.start()
    try:
        h = aes.hypothesis_matrix(cts, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (n, 256)
    assert peak < 1.5 * n * 256


def test_round_distances_shapes_and_values():
    pts = np.frombuffer(KAT_PT, np.uint8)[None, :]
    states, _ = aes.encrypt_blocks_with_states(KAT_KEY, pts)
    d = aes.round_distances(states)
    assert d.shape == (10, 1)
    assert all(0 <= x <= 128 for x in d[:, 0])
    assert d[9, 0] == aes.HW8[states[9, 0] ^ states[10, 0]].sum()
    # every transition of a batch, against a bit count that does not use HW8
    pts = np.random.Generator(np.random.PCG64(31)).integers(0, 256, (8, 16), dtype=np.uint8)
    states, _ = aes.encrypt_blocks_with_states(KAT_KEY, pts)
    db = aes.round_distances(states)
    assert db.shape == (10, 8)
    assert (db == np.unpackbits(states[:-1] ^ states[1:], axis=-1).sum(axis=-1)).all()

"""Known-answer vectors, metric properties, and the last-round leakage model."""

import numpy as np
import pytest

from clockmux import aes

from aes_reference import reference_decrypt

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
    assert ks.round_keys[1][:4] == bytes.fromhex("62636363")


def test_key_expansion_appendix_a_last_round_key():
    ks = aes.expand_key(SCHEDULE_KEY)
    assert ks.round_keys[10] == SCHEDULE_LAST_RK


def test_key_expansion_round_zero_is_key():
    ks = aes.expand_key(SCHEDULE_KEY)
    assert ks.round_keys[0] == SCHEDULE_KEY
    assert len(ks.round_keys) == 11


def test_encrypt_appendix_c_vector():
    rt = aes.encrypt_with_states(KAT_KEY, KAT_PT)
    assert rt.ciphertext == KAT_CT
    assert rt.states[10] == KAT_CT
    assert len(rt.states) == 11


def test_first_state_is_initial_add_round_key():
    rt = aes.encrypt_with_states(KAT_KEY, KAT_PT)
    assert rt.states[0] == bytes(p ^ k for p, k in zip(KAT_PT, KAT_KEY))


def test_batch_matches_single_block_path():
    rng = np.random.Generator(np.random.PCG64(7))
    pts = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
    states, cts = aes.encrypt_blocks_with_states(SCHEDULE_KEY, pts)
    for i in range(pts.shape[0]):
        rt = aes.encrypt_with_states(SCHEDULE_KEY, pts[i].tobytes())
        assert rt.ciphertext == cts[i].tobytes()
        for rnd in range(11):
            assert rt.states[rnd] == states[rnd, i].tobytes()


def test_round_trip_against_reference_inverse_cipher():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(1000):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        pt = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        ct = aes.encrypt(key, pt)
        assert reference_decrypt(key, ct) == pt


def test_key_schedule_inversion_round_trips():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(50):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        last = aes.expand_key(key).round_keys[10]
        assert aes.key_from_last_round_key(last) == key


def test_bad_lengths_rejected():
    with pytest.raises(ValueError):
        aes.expand_key(b"\x00" * 15)
    with pytest.raises(ValueError):
        aes.encrypt_with_states(KAT_KEY, b"\x00" * 17)
    with pytest.raises(ValueError):
        aes.hamming_distance(b"\x00", b"\x00\x01")


# ---------------------------------------------------------------------------
# Hamming metrics
# ---------------------------------------------------------------------------

def test_hamming_weight_values():
    assert aes.hamming_weight(0x00) == 0
    assert aes.hamming_weight(0xFF) == 8
    assert aes.hamming_weight(0xA5) == 4


def test_hamming_distance_values():
    assert aes.hamming_distance(b"\x0f", b"\x3c") == 4
    assert aes.hamming_distance(KAT_PT, KAT_PT) == 0
    assert aes.hamming_distance(b"\x00" * 16, b"\xff" * 16) == 128


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
        rt = aes.encrypt_with_states(key, pt)
        last_rk = aes.expand_key(key).round_keys[10]
        for p in range(16):
            g = last_rk[int(aes.SHIFT_ROWS_IMAGE[p])]
            want = aes.hamming_distance(rt.states[9][p:p + 1],
                                        rt.states[10][p:p + 1])
            assert aes.last_round_hypothesis(rt.ciphertext, p, g) == want


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


def test_round_distances_shapes_and_values():
    rt = aes.encrypt_with_states(KAT_KEY, KAT_PT)
    d = aes.round_distances(rt)
    assert d.shape == (10,)
    assert all(0 <= x <= 128 for x in d)
    assert d[9] == aes.hamming_distance(rt.states[9], rt.states[10])
    # batch agrees
    pts = np.frombuffer(KAT_PT, np.uint8)[None, :]
    states, _ = aes.encrypt_blocks_with_states(KAT_KEY, pts)
    db = aes.round_distances(states)
    assert db.shape == (10, 1)
    assert (db[:, 0] == d).all()

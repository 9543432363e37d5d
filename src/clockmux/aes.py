"""AES-128 with exposed round states and the last-round distance leakage model.

Everything here is built for power-analysis work rather than bulk encryption:
``encrypt_blocks_with_states`` keeps all eleven intermediate states of a batch
so that round-to-round Hamming distances (``round_distances``) can drive a
leakage simulator, and ``hypothesis_matrix`` computes the classic final-round
register-overwrite distance used by the correlation attack, every key guess
at once (``last_round_hypothesis`` is its one-cell scalar form, through the
``HW8`` table).  Both batch paths count bits with ``np.bitwise_count``.

State convention: a block is 16 bytes in transmission order; byte ``i`` sits
in state row ``i % 4``, column ``i // 4`` (column-major), and the ShiftRows
index maps below are expressed on flat 16-byte arrays in that order.  Trace
and attack code share this convention.

Only 128-bit keys (10 rounds) are supported.  Encryption only; tests carry
their own independent inverse cipher as a round-trip oracle.
"""

from __future__ import annotations

import numpy as np

ROUNDS = 10

SBOX = np.array([
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
], dtype=np.uint8)

INV_SBOX = np.zeros(256, dtype=np.uint8)
INV_SBOX[SBOX] = np.arange(256, dtype=np.uint8)

# xtime (multiplication by 2 in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1)
XTIME = np.array([((v << 1) ^ 0x1B) & 0xFF if v & 0x80 else v << 1
                  for v in range(256)], dtype=np.uint8)

# Hamming weight of every byte value, counted without np.bitwise_count: the
# scalar reference (last_round_hypothesis) that hypothesis_matrix is tested on.
HW8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
# INV_SBOX[a ^ g] at [a, g] (64 KB): a trace's 256 guesses are one row gather.
_INV_SBOX_XOR = INV_SBOX[np.bitwise_xor.outer(np.arange(256), np.arange(256))]

# ShiftRows on flat column-major indices.  SHIFT_ROWS_SRC[j] is the index
# whose byte lands at position j; SHIFT_ROWS_IMAGE[i] is where position i's
# byte ends up.  Both are permutations, inverse to each other.
SHIFT_ROWS_SRC = np.array(
    [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)], dtype=np.intp)
SHIFT_ROWS_IMAGE = np.array(
    [4 * ((c - r) % 4) + r for c in range(4) for r in range(4)], dtype=np.intp)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _check_block(b: bytes, name: str) -> bytes:
    b = bytes(b)
    if len(b) != 16:
        raise ValueError(f"{name} must be 16 bytes, got {len(b)}")
    return b


def expand_key(key: bytes) -> tuple[bytes, ...]:
    """FIPS-197 key expansion for a 128-bit key: the eleven 16-byte round
    keys, the cipher key first."""
    key = _check_block(key, "key")
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [int(SBOX[v]) for v in t]
            t[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    return tuple(bytes(sum((words[4 * r + c] for c in range(4)), []))
                 for r in range(ROUNDS + 1))


def key_from_last_round_key(last_rk: bytes) -> bytes:
    """Invert the key schedule: recover the cipher key from round key 10.

    The expansion is bijective per round, so walking it backwards from any
    round key reproduces the original key.  Used to turn a recovered final
    round key back into the key the device was loaded with.
    """
    last_rk = _check_block(last_rk, "last_rk")
    w: list = [None] * 44
    for i in range(4):
        w[40 + i] = list(last_rk[4 * i:4 * i + 4])
    for i in range(39, -1, -1):
        t = list(w[i + 3])
        if (i + 4) % 4 == 0:
            t = t[1:] + t[:1]
            t = [int(SBOX[v]) for v in t]
            t[0] ^= _RCON[(i + 4) // 4 - 1]
        w[i] = [a ^ b for a, b in zip(w[i + 4], t)]
    return bytes(sum((w[i] for i in range(4)), []))


def _mix_columns(state: np.ndarray) -> np.ndarray:
    """MixColumns on an (n, 16) uint8 state batch."""
    s = state.reshape(-1, 4, 4)  # [block, column, row]
    a0, a1, a2, a3 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    b0, b1, b2, b3 = XTIME[a0], XTIME[a1], XTIME[a2], XTIME[a3]
    r0 = b0 ^ a1 ^ b1 ^ a2 ^ a3
    r1 = a0 ^ b1 ^ a2 ^ b2 ^ a3
    r2 = a0 ^ a1 ^ b2 ^ a3 ^ b3
    r3 = a0 ^ b0 ^ a1 ^ a2 ^ b3
    return np.stack([r0, r1, r2, r3], axis=-1).reshape(-1, 16)


def encrypt_blocks_with_states(key: bytes, plaintexts: np.ndarray):
    """Encrypt a batch of blocks, returning every intermediate state.

    Parameters
    ----------
    key : bytes
        16-byte cipher key.
    plaintexts : ndarray
        (n, 16) uint8 array of blocks.

    Returns
    -------
    states : ndarray
        (11, n, 16) uint8; ``states[0]`` is the initial AddRoundKey output,
        ``states[10]`` the ciphertexts.
    ciphertexts : ndarray
        (n, 16) uint8 view of ``states[10]``.
    """
    pts = np.asarray(plaintexts, dtype=np.uint8)
    if pts.ndim != 2 or pts.shape[1] != 16:
        raise ValueError("plaintexts must have shape (n, 16)")
    rks = [np.frombuffer(rk, dtype=np.uint8) for rk in expand_key(key)]
    states = np.empty((ROUNDS + 1, pts.shape[0], 16), dtype=np.uint8)
    s = pts ^ rks[0]
    states[0] = s
    for rnd in range(1, ROUNDS):
        s = SBOX[s]
        s = s[:, SHIFT_ROWS_SRC]
        s = _mix_columns(s)
        s = s ^ rks[rnd]
        states[rnd] = s
    s = SBOX[s]
    s = s[:, SHIFT_ROWS_SRC]
    s = s ^ rks[ROUNDS]
    states[ROUNDS] = s
    return states, states[ROUNDS]


def round_distances(states: np.ndarray) -> np.ndarray:
    """Full-state Hamming distance of each round transition: the (10, n)
    int64 distances of an (11, n, 16) uint8 batch of round states, each
    byte's flipped bits counted by ``np.bitwise_count``."""
    arr = np.asarray(states, dtype=np.uint8)
    if arr.shape[0] != ROUNDS + 1:
        raise ValueError("expected 11 round states")
    return np.bitwise_count(arr[:-1] ^ arr[1:]).sum(axis=-1, dtype=np.int64)


def last_round_hypothesis(ciphertext: bytes, byte_pos: int, key_guess: int) -> int:
    """Register-overwrite distance of round 10 at one byte position.

    Round 10 overwrites state byte ``byte_pos`` (holding the round-9 value)
    with the ciphertext byte at the same position.  The round-9 byte is
    reconstructed by undoing AddRoundKey and SubBytes on the ciphertext byte
    that ``byte_pos`` maps to under ShiftRows, using ``key_guess`` for the
    final round key byte at that ciphertext position.
    """
    ciphertext = _check_block(ciphertext, "ciphertext")
    if not 0 <= byte_pos < 16:
        raise ValueError("byte_pos must be in [0, 16)")
    if not 0 <= key_guess < 256:
        raise ValueError("key_guess must be a byte value")
    j = int(SHIFT_ROWS_IMAGE[byte_pos])
    prior = int(INV_SBOX[ciphertext[j] ^ key_guess])
    return int(HW8[prior ^ ciphertext[byte_pos]])


def hypothesis_matrix(ciphertexts: np.ndarray, byte_pos: int) -> np.ndarray:
    """(n, 256) matrix of last-round hypotheses for every key guess.

    Column g holds ``last_round_hypothesis(ct, byte_pos, g)`` for each trace.
    The guess indexes the final round key byte at position
    ``SHIFT_ROWS_IMAGE[byte_pos]``.  Each row is one gather from
    ``_INV_SBOX_XOR``, XORed with the ciphertext byte and counted in place
    by ``np.bitwise_count``, so the call allocates one (n, 256) byte array.
    """
    cts = np.asarray(ciphertexts, dtype=np.uint8)
    if cts.ndim != 2 or cts.shape[1] != 16:
        raise ValueError("ciphertexts must have shape (n, 16)")
    j = int(SHIFT_ROWS_IMAGE[byte_pos])
    h = _INV_SBOX_XOR.take(cts[:, j], axis=0)
    h ^= cts[:, byte_pos, None]
    return np.bitwise_count(h, out=h)

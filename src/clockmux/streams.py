"""Many PCG64 streams at once, one row each, held as uint64 limb arrays.

Row i of ``StreamBank(seed, n)`` is the stream of
``Generator(PCG64(SeedSequence(seed).spawn(n)[i]))``, reproduced bit for bit
with array operations: the NEP 19 spawn hash in uint32 arithmetic, PCG64
seeding, the 128-bit LCG step as a multiply in 32-bit limbs, and the XSL-RR
output.  Byte draws take whole 64-bit words, so no 32-bit half word is left
cached.  Each draw method names the ``Generator`` call it matches on every
listed row; ``tests/test_streams.py`` checks them against numpy.
"""

import numpy as np

_32, _M32 = np.uint64(32), np.uint64(0xFFFFFFFF)
#: PCG64's 128-bit LCG multiplier as 64-bit halves, and the low half's 32-bit limbs.
_MUL_HI, _MUL_LO = (np.uint64(h) for h in divmod(0x2360ED051FC65DA44385DF649FCCF645, 1 << 64))
_MUL_LO0, _MUL_LO1 = _MUL_LO & _M32, _MUL_LO >> _32
#: SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(value, const: int, mult: int):
    """SeedSequence's hash of uint32 words: the hashed words and the next constant."""
    nxt = const * mult & 0xFFFFFFFF
    value = (value ^ np.uint32(const)) * np.uint32(nxt)
    return value ^ value >> 16, nxt


def _n_words(entropy) -> int:
    """How many uint32 words SeedSequence makes of ``entropy``."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(map(_n_words, entropy))


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, ``state * MUL + inc`` mod 2**128, on (hi, lo) uint64 halves."""
    x0, x1 = lo & _M32, lo >> _32
    p00, p01, p10 = x0 * _MUL_LO0, x0 * _MUL_LO1, x1 * _MUL_LO0
    mid = (p00 >> _32) + (p01 & _M32) + (p10 & _M32)
    lo_carry = x1 * _MUL_LO1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    new_lo = lo * _MUL_LO + inc_lo
    return lo_carry + lo * _MUL_HI + hi * _MUL_LO + inc_hi + (new_lo < inc_lo), new_lo


def _xsl_rr(hi, lo):
    """PCG64's output: ``hi ^ lo`` rotated right by the state's top 6 bits."""
    rot = hi >> np.uint64(58)
    v = hi ^ lo
    return (v >> rot) | (v << (-rot & np.uint64(63)))


def _spawned_states(seed, n: int) -> list[np.ndarray]:
    """``generate_state(4, np.uint64)`` of each of ``SeedSequence(seed).spawn(n)``,
    as four uint64 arrays; only the joined words outlive the hashing."""
    ss = np.random.SeedSequence(seed)
    # child i's pool is the parent's mixed with spawn key word i; the hash
    # constant has passed 16 hashmixes, and 4 more per entropy word past 4
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, _n_words(ss.entropy) - 4), 1 << 32)
    const, key, pool = const & 0xFFFFFFFF, np.arange(n, dtype=np.uint32), []
    for word in ss.pool:
        h, const = _hash(key, const, _MULT_A)
        mixed = _MIX_L * np.full(n, word, np.uint32) - _MIX_R * h
        pool.append(mixed ^ mixed >> 16)
    # eight hashed uint32 words, each pair joined low first as it is hashed
    const, state = _INIT_B, []
    for i in range(0, 8, 2):
        lo, const = _hash(pool[i % 4], const, _MULT_B)
        hi, const = _hash(pool[i % 4 + 1], const, _MULT_B)
        state.append(lo.astype(np.uint64) | hi.astype(np.uint64) << _32)
    return state


class StreamBank:
    """The PCG64 streams of ``SeedSequence(seed).spawn(n)``, one row each.

    ``seed`` goes through ``np.random.SeedSequence``, so it raises what that
    raises.  Draws take ``rows``, an index array, and advance only those rows.
    """

    def __init__(self, seed, n: int):
        s0, s1, s2, s3 = _spawned_states(seed, n)
        # pcg64_set_seed: initial state (s0, s1), sequence (s2, s3)
        self.inc_hi = s2 << np.uint64(1) | s3 >> np.uint64(63)
        self.inc_lo = s3 << np.uint64(1) | np.uint64(1)
        lo = self.inc_lo + s1
        self.hi, self.lo = _step(self.inc_hi + s0 + (lo < s1), lo, self.inc_hi, self.inc_lo)
        self.uinteger = np.zeros(n, np.uint32)

    def _walk(self, rows, k: int) -> np.ndarray:
        """Each row's next ``k`` raw words; the rows advance past them."""
        inc, walk = (self.inc_hi[rows], self.inc_lo[rows]), [(self.hi[rows], self.lo[rows])]
        for _ in range(k):
            walk.append(_step(*walk[-1], *inc))
        self.hi[rows], self.lo[rows] = walk[-1]
        hi, lo = (np.stack(half, 1) for half in zip(*walk))
        return _xsl_rr(hi[:, 1:], lo[:, 1:])

    def random(self, rows, k: int) -> np.ndarray:
        """``random(k)``: (len(rows), k) float64."""
        return (self._walk(rows, k) >> np.uint64(11)) * 2.0 ** -53

    def bytes(self, rows, size: int) -> np.ndarray:
        """``integers(0, 256, size, np.uint8)`` for ``size`` a positive multiple
        of 8: the bytes of ``size // 8`` words, low byte first, as numpy's
        low-half-first 32-bit draws give them."""
        if size <= 0 or size % 8:
            raise ValueError(f"size must be a positive multiple of 8, got {size}")
        raw = self._walk(rows, size // 8)
        self.uinteger[rows] = raw[:, -1] >> _32  # numpy's state keeps it, spent
        return raw.astype("<u8").view(np.uint8)

    def integers4(self, rows, size: int) -> np.ndarray:
        """``integers(0, 4, size, np.int8)``: Lemire's method never rejects at
        range 4, so each value is the top 2 bits of one byte."""
        return (self.bytes(rows, size) >> 6).astype(np.int8)

    def standard_normal(self, rows, size: int) -> np.ndarray:
        """``standard_normal(size)`` from each row: numpy's own ziggurat, run on
        one generator that each row's state is handed to and taken back from."""
        bits = np.random.PCG64(0)
        gen = np.random.Generator(bits)
        out = np.empty((len(rows), size))
        ends = []
        for j, state in enumerate(self.states(rows)):
            bits.state = state
            out[j] = gen.standard_normal(size)  # faster than out=out[j]
            ends.append(bits.state["state"]["state"])
        self.hi[rows] = [s >> 64 for s in ends]
        self.lo[rows] = [s & 0xFFFFFFFFFFFFFFFF for s in ends]
        return out

    def states(self, rows) -> list[dict]:
        """The listed rows' states, as ``PCG64.state`` reports them."""
        cols = (a[rows].tolist() for a in (self.hi, self.lo, self.inc_hi, self.inc_lo,
                                           self.uinteger))
        return [{"bit_generator": "PCG64", "state": {"state": hi << 64 | lo, "inc": ih << 64 | il},
                 "has_uint32": 0, "uinteger": u} for hi, lo, ih, il, u in zip(*cols)]

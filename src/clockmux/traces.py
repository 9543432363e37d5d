"""Synthetic power traces driven by the randomized clock and AES round flips.

A trace is a fixed capture window sampled at ``base_period / oversampling``.
The first output edge of the (randomized) clock loads the state; each of the
following ``aes.ROUNDS`` edges clocks one AES round and deposits a triangular
pulse whose amplitude is ``amplitude * HD(state[k-1], state[k])`` over the full
128-bit state.  Gaussian noise is added on top.  Encryptions whose clock
produced a period below the error threshold are marked failed and report a
uniformly random ciphertext, mimicking a core that violated its timing margin.

Dual-core traces superpose two such renders on one sample grid: core 1 is
trigger-aligned (phase 0), core 2 runs its own base frequency (required to
be distinct) and a per-trace random base/source phase, as two free-running
clock domains would.  The stored ciphertext is core 1's.  ``generate_set``
is the only generator; it returns a ``TraceSet``, one row per trace.  Sets
made by hand call the ``TraceSet`` constructor.

Per-trace randomness comes from the PCG64 streams of
``SeedSequence(seed).spawn(n)``, one per trace, held together in one
``streams.StreamBank`` that reproduces numpy's streams bit for bit (the tests
check it against numpy).  Each stream draws in a fixed order (plaintext,
dual-core phases, core-1 clock, core-2 clock, failure ciphertext, noise),
although a set draws each step for many traces at once.  The noise draw
always happens, scaled by ``noise_sigma``, so different noise levels reuse
identical clocks and plaintexts.  A set is generated one row batch at a
time, by the batch rule the clock layer and the attack share,
``clock._row_batches``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import aes
from .clock import DEFAULT_ERROR_THRESHOLD_FACTOR, FrequencySet, _edges_until, _row_batches
from .streams import StreamBank

TRACE_MAGIC = b"CLKBTRC1"
TRACE_FORMAT_VERSION = 1
#: UTF-8 bytes a frequency-set label may take: its length is a u16 field.
MAX_LABEL_BYTES = 0xFFFF

#: Capture window length in base cycles per AES round (the randomized clock
#: can stretch an encryption well past the nominal 10 cycles; encryptions
#: that overrun the window lose their tail peaks and get filtered later).
WINDOW_CYCLES_PER_ROUND = 3

#: Pulse half-width as a fraction of the base period.
PULSE_HALF_WIDTH_FRACTION = 1.0 / 8.0


class TraceFormatError(Exception):
    """Base class for trace-file format violations."""


class TraceMagicError(TraceFormatError):
    pass


class TraceVersionError(TraceFormatError):
    pass


class TraceTruncatedError(TraceFormatError):
    pass


#: A set's per-row arrays; the first four are persisted and compared.
_ROW_FIELDS = ("samples", "plaintexts", "ciphertexts", "failed", "clock_edges")


@dataclass
class TraceSet:
    """A batch of traces captured under one configuration, one row each.

    Row i of ``samples`` (n, S) float32, ``plaintexts``/``ciphertexts``
    (n, 16) uint8 and ``failed`` (n,) bool is trace i, sampled every
    ``sample_period_s`` (derived from ``fs`` and ``oversampling``, not held).
    Generator-fresh sets also carry ``clock_edges``, the (n, cores, 11)
    round edge times in seconds, neither persisted nor compared.
    ``attack.filter_traces`` sets ``peaks`` on the set it keeps:
    ((threshold_k, detect_separation), flat positions row after row, per-row
    counts).  It derives from ``samples``: treat them as read-only.
    """

    samples: np.ndarray
    plaintexts: np.ndarray
    ciphertexts: np.ndarray
    failed: np.ndarray
    key: bytes
    fs: FrequencySet
    oversampling: int
    noise_sigma: float
    key2: bytes | None = None
    fs2: FrequencySet | None = None
    clock_edges: np.ndarray | None = None
    peaks: tuple | None = field(default=None, repr=False)

    def __len__(self):
        return len(self.failed)

    @property
    def core_count(self) -> int:
        return 2 if self.fs2 is not None else 1

    @property
    def sample_period_s(self) -> float:
        """The sample grid's period, the base period over the oversampling."""
        return self.fs.base_period_s / self.oversampling

    @property
    def traces(self) -> np.ndarray:
        """``samples``, one row per trace.  Its only reader is the benchmark
        tracer's row counter, ``len(ts.traces)``; ROADMAP item 1 switches that
        to ``len(ts)``, after which this property goes too."""
        return self.samples

    def take(self, rows, peaks: tuple | None = None) -> "TraceSet":
        """The set of ``rows`` (indices or a mask), carrying ``peaks``."""
        return replace(self, peaks=peaks, **{a: getattr(self, a)[rows] for a in _ROW_FIELDS
                                             if getattr(self, a) is not None})

    def failed_fraction(self) -> float:
        return int(np.count_nonzero(self.failed)) / len(self) if len(self) else 0.0

    def __eq__(self, other):
        if not isinstance(other, TraceSet):
            return NotImplemented
        same = ("key", "key2", "fs", "fs2", "oversampling", "noise_sigma")
        return (all(getattr(self, a) == getattr(other, a) for a in same)
                and self.samples.dtype == other.samples.dtype
                and all(np.array_equal(getattr(self, a), getattr(other, a))
                        for a in _ROW_FIELDS[:4]))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_pulses(edge_times_s: np.ndarray, amplitudes: np.ndarray,
                   n_samples: int, sample_period_s: float,
                   half_width_s: float) -> np.ndarray:
    """Deposit one triangular pulse per edge onto zero-initialized sample rows.

    Row i of the (m, edges) ``edge_times_s`` and ``amplitudes`` renders into
    row i of the (m, n_samples) result.  A pulse covers the grid samples
    within ``half_width_s`` of its edge; every pulse's samples are computed
    at once and deposited by one ``np.bincount`` in edge order, so a sample
    where pulses overlap sums them in edge order.
    """
    m = len(edge_times_s)
    lo = np.ceil((edge_times_s - half_width_s) / sample_period_s).astype(np.int64)
    hi = np.floor((edge_times_s + half_width_s) / sample_period_s).astype(np.int64)
    width = int((hi - lo).max(initial=-1)) + 1
    idx = lo[..., None] + np.arange(width)
    keep = (idx >= 0) & (idx < n_samples) & (idx <= hi[..., None])
    shape = idx.shape
    idx = idx[keep]
    e = np.broadcast_to(edge_times_s[..., None], shape)[keep]
    a = np.broadcast_to(amplitudes[..., None], shape)[keep]
    row = np.broadcast_to(np.arange(m)[:, None, None], shape)[keep]
    w = 1.0 - np.abs(idx * sample_period_s - e) / half_width_s
    np.clip(w, 0.0, None, out=w)
    return np.bincount(row * n_samples + idx, weights=a * w,
                       minlength=m * n_samples).reshape(m, n_samples)


def generate_set(fs: FrequencySet, key: bytes, n_traces: int, *,
                 noise_sigma: float = 0.0, oversampling: int = 16,
                 seed: int = 0, amplitude: float = 1.0,
                 error_threshold_factor: float = DEFAULT_ERROR_THRESHOLD_FACTOR,
                 window_cycles: int | None = None,
                 fs2: FrequencySet | None = None, key2: bytes | None = None,
                 ) -> TraceSet:
    """Generate a set of ``n_traces`` encryptions under ``key``, one row each.

    Each trace encrypts a fresh random block.  With ``fs2``/``key2`` a second
    core encrypts the same block on its own clock.  Every plaintext is drawn
    first, each from its trace's stream; every key then encrypts the whole set
    at once, and the arrays are filled one ``_row_batches`` batch of rows at
    a time, one draw at a time: core-2 phases (``random(5)`` is ``random()``
    then ``random(4)``), one ``_edges_until`` call per core, failed rows'
    ciphertexts, noise.  Each core's pulses are one ``_render_pulses`` call,
    rounded to float32 and summed, and the noise is added last.  Every step
    is row-wise, so the batch size moves no bit.
    """
    if n_traces < 0:
        raise ValueError("n_traces must be non-negative")
    if oversampling < 2:
        raise ValueError("oversampling must be at least 2 (Nyquist floor)")
    if (fs2 is None) != (key2 is None):
        raise ValueError("dual-core generation needs both fs2 and key2")
    if fs2 is not None and fs2.base_hz == fs.base_hz:
        raise ValueError("dual-core base clocks must have distinct frequencies")
    if window_cycles is None:
        window_cycles = WINDOW_CYCLES_PER_ROUND * aes.ROUNDS
    sp = fs.base_period_s / oversampling
    hw = fs.base_period_s * PULSE_HALF_WIDTH_FRACTION
    n_samples = int(round(window_cycles * fs.base_period_s / sp))
    bank = StreamBank(seed, n_traces)
    plaintexts = bank.bytes(np.arange(n_traces), 16)
    cores = [(fs, key)] if fs2 is None else [(fs, key), (fs2, key2)]
    encrypted = [aes.encrypt_blocks_with_states(k, plaintexts) for _, k in cores]
    dists = [amplitude * aes.round_distances(states).T.astype(np.float64)
             for states, _ in encrypted]
    samples = np.empty((n_traces, n_samples), np.float32)
    edges = np.empty((n_traces, len(cores), aes.ROUNDS + 1))
    failed = np.empty(n_traces, bool)
    # the failed flag and stored ciphertexts are core 1's, copied off the states they view
    ciphertexts = encrypted[0][1].copy()
    threshold = error_threshold_factor * fs.base_period_s
    for c0, c1 in _row_batches(n_traces, n_samples):
        chunk = np.arange(c0, c1)
        offsets = [()]  # core 1 is trigger-aligned
        if fs2 is not None:  # core 2 free-runs: a base phase, then four source phases
            offsets.append(np.split(bank.random(chunk, 5), [1], axis=1))
        for c, ((f, _), offset) in enumerate(zip(cores, offsets)):
            edges[c0:c1, c] = (_edges_until(f, bank, chunk, aes.ROUNDS + 1, *offset)
                               * f.base_period_s)
        failed[c0:c1] = (np.diff(edges[c0:c1, 0], axis=1) < threshold).any(axis=1)
        redraw = np.flatnonzero(failed[c0:c1]) + c0
        ciphertexts[redraw] = bank.bytes(redraw, 16)
        noise = bank.standard_normal(chunk, n_samples)
        clean = np.zeros((c1 - c0, n_samples))
        for c, d in enumerate(dists):
            render = _render_pulses(edges[c0:c1, c, 1:], d[c0:c1], n_samples, sp, hw)
            clean += render.astype(np.float32).astype(np.float64)
        noise *= noise_sigma  # in place, as is the sum: no further batch-sized arrays
        samples[c0:c1] = np.add(clean, noise, out=clean)
    return TraceSet(samples=samples, plaintexts=plaintexts, ciphertexts=ciphertexts,
                    failed=failed, key=bytes(key), fs=fs,
                    oversampling=int(oversampling), noise_sigma=float(noise_sigma),
                    key2=None if key2 is None else bytes(key2), fs2=fs2, clock_edges=edges)


def first_round_coincidence_fraction(ts: TraceSet) -> float:
    """Fraction of dual-core traces whose first-round pulses coincide.

    Ground truth from the clock edges: the two cores' first round edges
    (index 1; index 0 is the load edge) closer than half a sample period, so
    that their pulses land on the same sample.  Only generator-fresh sets
    carry the edges; file round-trips lose them.
    """
    if ts.core_count != 2:
        raise ValueError("coincidence is defined for dual-core sets")
    if ts.clock_edges is None or not len(ts):
        raise ValueError("no traces carry clock metadata")
    gap = np.abs(ts.clock_edges[:, 0, 1] - ts.clock_edges[:, 1, 1])
    return np.count_nonzero(gap < ts.sample_period_s / 2) / len(ts)


# ---------------------------------------------------------------------------
# Binary trace format
#
# Little-endian throughout.
#   magic            8s   "CLKBTRC1"
#   version          u32  1
#   core_count       u32  1 or 2
#   n_traces         u32
#   sample_period_s  f64
#   oversampling     u32
#   noise_sigma      f64
#   key              16s
#   fs               u16 label length + utf-8 label, f64 base_hz,
#                    4 x f64 fundamentals, f64 duty_cycle
#   [key2, fs2]      present iff core_count == 2
#   per trace: u8 failed, 16s plaintext, 16s ciphertext, u32 n_samples,
#              n_samples x f32 samples
#
# The traces of a set share n_samples: they are one ``_record_dtype`` array.
# Source phases, generation metadata and detected peaks are not persisted.
# The reader raises TraceFormatError for anything ``write_trace_set`` cannot
# produce: a label that is not UTF-8, frequency-set values FrequencySet
# rejects, a non-finite or non-positive sample period, oversampling below 2,
# a sample period other than the base period over the oversampling (the grid
# ``generate_set`` renders on), a trace count whose 37-byte minimum records
# do not fit in the file (checked before any record is parsed), traces with
# no samples, a sample count past the end of the file, traces with unequal
# sample counts, or a non-finite (NaN or inf) sample.  ``write_trace_set``
# refuses a set with such samples, or one whose header values do not fit
# their fields, with ValueError before it opens the file.
# ---------------------------------------------------------------------------

def _record_dtype(n_samples: int) -> np.dtype:
    return np.dtype([("failed", "u1"), ("plaintext", "u1", 16),
                     ("ciphertext", "u1", 16), ("n_samples", "<u4"),
                     ("samples", "<f4", (n_samples,))])


def _pack_core(key: bytes, fs: FrequencySet) -> bytes:
    """One core's key and frequency set, as the header stores them."""
    if len(key) != 16:
        raise ValueError(f"a key must be 16 bytes, got {len(key)}")
    label = fs.label.encode("utf-8")
    if len(label) > MAX_LABEL_BYTES:
        raise ValueError(f"label of {len(label)} UTF-8 bytes; the format holds "
                         f"{MAX_LABEL_BYTES}")
    return (key + struct.pack("<H", len(label)) + label
            + struct.pack("<6d", fs.base_hz, *fs.fundamentals, fs.duty_cycle))


def write_trace_set(ts: TraceSet, path) -> None:
    if len(ts) and not ts.samples.shape[1]:  # read_trace_set would refuse the file
        raise ValueError("a set's traces must hold at least one sample")
    records = np.empty(len(ts), _record_dtype(ts.samples.shape[1]))
    for name, column in zip(records.dtype.names, (ts.failed, ts.plaintexts, ts.ciphertexts,
                                                  ts.samples.shape[1], ts.samples)):
        records[name] = column
    bad = np.flatnonzero(~np.isfinite(records["samples"]).all(axis=1))
    if bad.size:  # so would it here
        raise ValueError(f"trace {bad[0]} has a non-finite sample")
    for name, value in (("n_traces", len(ts)), ("oversampling", ts.oversampling)):
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"{name} {value} does not fit the format's u32 field")
    header = (TRACE_MAGIC
              + struct.pack("<III", TRACE_FORMAT_VERSION, ts.core_count, len(ts))
              + struct.pack("<dId", ts.sample_period_s, ts.oversampling, ts.noise_sigma)
              + _pack_core(ts.key, ts.fs)
              + (_pack_core(ts.key2, ts.fs2) if ts.core_count == 2 else b""))
    with open(path, "wb") as f:
        f.write(header)
        records.tofile(f)


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TraceTruncatedError(f"truncated while reading {what} "
                                  f"(wanted {n} bytes, got {len(buf)})")
    return buf


def _unpack_fs(f) -> FrequencySet:
    (label_len,) = struct.unpack("<H", _read_exact(f, 2, "frequency-set label length"))
    label = _read_exact(f, label_len, "frequency-set label")
    vals = struct.unpack("<6d", _read_exact(f, 48, "frequency-set values"))
    try:  # a label that is not UTF-8 raises UnicodeDecodeError, a ValueError
        return FrequencySet(base_hz=vals[0], fundamentals=tuple(vals[1:5]),
                            label=label.decode("utf-8"), duty_cycle=vals[5])
    except ValueError as exc:
        raise TraceFormatError(f"invalid frequency set: {exc}") from None


def read_trace_set(path) -> TraceSet:
    with open(path, "rb") as f:
        magic = _read_exact(f, 8, "magic")
        if magic != TRACE_MAGIC:
            raise TraceMagicError(f"bad magic {magic!r}")
        version, core_count, n_traces = struct.unpack(
            "<III", _read_exact(f, 12, "header"))
        if version != TRACE_FORMAT_VERSION:
            raise TraceVersionError(f"unsupported version {version}")
        if core_count not in (1, 2):
            raise TraceFormatError(f"invalid core count {core_count}")
        sp, oversampling, noise_sigma = struct.unpack(
            "<dId", _read_exact(f, 20, "header"))
        if not (math.isfinite(sp) and sp > 0):
            raise TraceFormatError(f"invalid sample period {sp!r}")
        if oversampling < 2:
            raise TraceFormatError(f"invalid oversampling {oversampling} (minimum 2)")
        key = _read_exact(f, 16, "key")
        fs = _unpack_fs(f)
        if sp != fs.base_period_s / oversampling:  # generate_set's grid, bit for bit
            raise TraceFormatError(f"sample period {sp!r} s is not the base period "
                                   f"over oversampling {oversampling} "
                                   f"({fs.base_period_s / oversampling!r} s)")
        key2 = fs2 = None
        if core_count == 2:
            key2 = _read_exact(f, 16, "key2")
            fs2 = _unpack_fs(f)
        data = f.read()
    # a trace takes at least its flag, plaintext, ciphertext and count
    if 37 * n_traces > len(data):
        raise TraceTruncatedError(f"header claims {n_traces} traces, more than "
                                  f"the {len(data)} bytes left can hold")
    n_samples = struct.unpack_from("<I", data, 33)[0] if n_traces else 0
    if n_traces and not n_samples:
        raise TraceFormatError("trace 0 has no samples")
    if n_traces and 37 + 4 * n_samples > len(data):
        raise TraceTruncatedError(f"trace 0 claims {n_samples} samples, "
                                  f"past the end of the file")
    dtype = _record_dtype(n_samples)
    size = n_traces * dtype.itemsize
    # the count field of every record whose header is in the file
    counts = np.ndarray((min(n_traces, (len(data) - 37) // dtype.itemsize + 1),),
                        "<u4", memoryview(data)[33:], strides=(dtype.itemsize,))
    bad = np.flatnonzero(counts != n_samples)
    if bad.size:
        raise TraceFormatError(f"trace {bad[0]} has {counts[bad[0]]} samples and "
                               f"trace 0 {n_samples}; a set's traces must have "
                               f"equal counts")
    if len(data) < size:
        raise TraceTruncatedError(f"truncated while reading trace samples "
                                  f"(wanted {size} bytes, got {len(data)})")
    if len(data) > size:
        raise TraceFormatError("trailing bytes after final trace")
    records = np.frombuffer(data, dtype)
    samples = records["samples"].astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise TraceFormatError(f"trace {bad[0]} has a non-finite sample")
    return TraceSet(samples=samples, plaintexts=records["plaintext"].copy(), key=key, fs=fs,
                    ciphertexts=records["ciphertext"].copy(), failed=records["failed"] != 0,
                    oversampling=oversampling, noise_sigma=noise_sigma, key2=key2, fs2=fs2)

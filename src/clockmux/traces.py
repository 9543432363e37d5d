"""Synthetic power traces driven by the randomized clock and AES round flips.

A trace is a fixed capture window sampled at ``base_period / oversampling``.
The first output edge of the (randomized) clock loads the state; each of the
following ``rounds`` edges clocks one AES round and deposits a pulse whose
amplitude is ``amplitude * HD(state[k-1], state[k])`` over the full 128-bit
state.  Gaussian noise is added on top.  Encryptions whose clock produced a
period below the error threshold are marked failed and report a uniformly
random ciphertext, mimicking a core that violated its timing margin.

Dual-core traces superpose two such renders on one sample grid: core 1 is
trigger-aligned (phase 0), core 2 runs its own base frequency (required to
be distinct) and, by default, a per-trace random base/source phase, as two
free-running clock domains would.  The stored ciphertext is core 1's.

Per-trace randomness comes from PCG64 generators seeded by
``SeedSequence(seed).spawn(n)``; within a trace the draw order is fixed
(plaintext, dual-core phases, core-1 clock, core-2 clock, failure
ciphertext, noise) and the noise draw always happens, scaled by
``noise_sigma``, so different noise levels reuse identical clocks and
plaintexts.  A set draws every trace's plaintext first and encrypts them all
in one AES batch per key.  It then walks the traces in chunks: the draws
stay per trace, each from its own generator in the order above, and each
core's pulses for the whole chunk are rendered by one scatter.  Since AES
and rendering draw nothing, single- and dual-core traces, one at a time or
in sets, come out the same from this one path.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import aes
from .clock import (DEFAULT_ERROR_THRESHOLD_FACTOR, FrequencySet,
                    STALL_CAP_CYCLES_PER_EDGE, _edges_until)

TRACE_MAGIC = b"CLKBTRC1"
TRACE_FORMAT_VERSION = 1

#: Capture window length in base cycles per AES round (the randomized clock
#: can stretch an encryption well past the nominal 10 cycles; encryptions
#: that overrun the window lose their tail peaks and get filtered later).
WINDOW_CYCLES_PER_ROUND = 3

#: Pulse half-width as a fraction of the base period.
PULSE_HALF_WIDTH_FRACTION = 1.0 / 8.0

PULSE_SHAPES = ("triangular", "rectangular", "raised_cosine")

#: Traces rendered per scatter; bounds the render's working arrays.
_CHUNK_TRACES = 256


class TraceFormatError(Exception):
    """Base class for trace-file format violations."""


class TraceMagicError(TraceFormatError):
    pass


class TraceVersionError(TraceFormatError):
    pass


class TraceTruncatedError(TraceFormatError):
    pass


@dataclass
class PowerTrace:
    """One capture: samples plus the encryption it observed.

    ``clock_meta`` holds the per-core round edge times in seconds (load edge
    plus one per round) when the trace came from the generator; it is not
    persisted and is excluded from equality, as is ``ciphertext2`` (the dummy
    core's result, recomputable from key2 and the plaintext).  ``peak_memo``
    holds the attack's last detected peaks as ((threshold_k,
    detect_separation), peaks); it derives from ``samples`` (treat them as
    read-only once attacked), is never persisted, and is excluded from
    equality and repr.  The generator's ``samples`` (a float32 row) and
    ``clock_meta`` arrays are rows of matrices shared by the traces of one
    render chunk.
    """

    samples: np.ndarray
    sample_period_s: float
    plaintext: bytes
    ciphertext: bytes
    failed: bool
    core_count: int = 1
    ciphertext2: bytes | None = None
    clock_meta: tuple[np.ndarray, ...] | None = None
    peak_memo: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __eq__(self, other):
        if not isinstance(other, PowerTrace):
            return NotImplemented
        return (self.sample_period_s == other.sample_period_s
                and self.plaintext == other.plaintext
                and self.ciphertext == other.ciphertext
                and self.failed == other.failed
                and self.core_count == other.core_count
                and self.samples.dtype == other.samples.dtype
                and np.array_equal(self.samples, other.samples))


@dataclass
class TraceSet:
    """A batch of traces captured under one configuration."""

    traces: list[PowerTrace]
    key: bytes
    fs: FrequencySet
    oversampling: int
    noise_sigma: float
    key2: bytes | None = None
    fs2: FrequencySet | None = None

    def __len__(self):
        return len(self.traces)

    @property
    def core_count(self) -> int:
        return 2 if self.fs2 is not None else 1

    def failed_fraction(self) -> float:
        if not self.traces:
            return 0.0
        return sum(t.failed for t in self.traces) / len(self.traces)

    def ciphertext_matrix(self) -> np.ndarray:
        joined = bytearray(b"".join(t.ciphertext for t in self.traces))
        return np.frombuffer(joined, np.uint8).reshape(len(self.traces), 16)

    def __eq__(self, other):
        if not isinstance(other, TraceSet):
            return NotImplemented
        return (self.key == other.key and self.key2 == other.key2
                and self.fs == other.fs and self.fs2 == other.fs2
                and self.oversampling == other.oversampling
                and self.noise_sigma == other.noise_sigma
                and self.traces == other.traces)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_pulses(edge_times_s: np.ndarray, amplitudes: np.ndarray,
                   n_samples: int, sample_period_s: float,
                   half_width_s: float, pulse: str) -> np.ndarray:
    """Deposit one pulse per edge onto zero-initialized sample rows.

    Row i of the (m, edges) ``edge_times_s`` and ``amplitudes`` renders into
    row i of the (m, n_samples) result.  A pulse covers the grid samples
    within ``half_width_s`` of its edge; every pulse's samples are computed
    at once and deposited by one ``np.bincount`` in edge order, so a sample
    where pulses overlap sums them in edge order.
    """
    if pulse not in PULSE_SHAPES:
        raise ValueError(f"unknown pulse shape {pulse!r}")
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
    delta = np.abs(idx * sample_period_s - e) / half_width_s
    if pulse == "triangular":
        w = 1.0 - delta
    elif pulse == "rectangular":
        w = np.ones_like(delta)
    else:  # raised cosine
        w = 0.5 * (1.0 + np.cos(np.pi * delta))
    np.clip(w, 0.0, None, out=w)
    return np.bincount(row * n_samples + idx, weights=a * w,
                       minlength=m * n_samples).reshape(m, n_samples)


def _resolve_grid(fs: FrequencySet, oversampling: int, rounds: int,
                  window_cycles: int | None, sample_period_s: float | None,
                  pulse_half_width_s: float | None):
    if oversampling < 2:
        raise ValueError("oversampling must be at least 2 (Nyquist floor)")
    if window_cycles is None:
        window_cycles = WINDOW_CYCLES_PER_ROUND * rounds
    sp = fs.base_period_s / oversampling if sample_period_s is None else float(sample_period_s)
    hw = fs.base_period_s * PULSE_HALF_WIDTH_FRACTION if pulse_half_width_s is None \
        else float(pulse_half_width_s)
    n_samples = int(round(window_cycles * fs.base_period_s / sp))
    return sp, hw, n_samples


def _generate(cores, plaintexts: list[bytes], rngs, grid, *,
              noise_sigma: float, rounds: int, amplitude: float,
              error_threshold_factor: float, pulse: str) -> list[PowerTrace]:
    """Render one trace per (plaintext, generator) pair.

    ``cores`` lists (fs, key, offset) per core, where offset is core 2's
    (base phase, source phases) or None to draw it from each trace's
    generator; core 1 always runs at (0.0, None).  Every key encrypts the
    whole batch at once.  The traces are then taken ``_CHUNK_TRACES`` at a
    time.  Each generator of a chunk draws, in order: the drawn offsets, each
    core's clock, the failure ciphertext, and the noise (into its row of the
    chunk's noise matrix).  Each core's pulses for the chunk are then one
    ``_render_pulses`` call; its render is rounded to float32 and added to
    the chunk's clean signal, and the noise is added last.
    """
    if len({fs.base_hz for fs, _, _ in cores}) != len(cores):
        raise ValueError("dual-core base clocks must have distinct frequencies")
    sp, hw, n_samples = grid
    pts = np.frombuffer(b"".join(plaintexts), np.uint8).reshape(len(plaintexts), 16)
    cts, dists = [], []
    for _, key, _ in cores:
        states, ct = aes.encrypt_blocks_with_states(key, pts)
        cts.append(ct)
        dists.append(amplitude * aes.round_distances(states)[:rounds].astype(np.float64))
    cap = STALL_CAP_CYCLES_PER_EDGE * (rounds + 1)
    # the failed flag and the stored ciphertext are core 1's
    threshold = error_threshold_factor * cores[0][0].base_period_s
    traces = []
    for c0 in range(0, len(plaintexts), _CHUNK_TRACES):
        chunk = rngs[c0:c0 + _CHUNK_TRACES]
        edges = [np.empty((len(chunk), rounds + 1)) for _ in cores]
        noise = np.empty((len(chunk), n_samples))
        drawn = []
        for i, rng in enumerate(chunk):
            offsets = [off if off is not None else (float(rng.random()), tuple(rng.random(4)))
                       for _, _, off in cores]
            for (fs, _, _), (base_phase, source_phases), e in zip(cores, offsets, edges):
                e[i] = _edges_until(fs, rng, rounds + 1, cap, base_phase=base_phase,
                                    source_phases=source_phases) * fs.base_period_s
            failed = bool((np.diff(edges[0][i]) < threshold).any())
            ciphertext = cts[0][c0 + i].tobytes()
            if failed:
                ciphertext = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
            rng.standard_normal(out=noise[i])
            drawn.append((failed, ciphertext))
        clean = np.zeros((len(chunk), n_samples))
        for e, d in zip(edges, dists):
            amps = d[:, c0:c0 + len(chunk)].T
            render = _render_pulses(e[:, 1:1 + amps.shape[1]], amps, n_samples,
                                    sp, hw, pulse)
            clean += render.astype(np.float32).astype(np.float64)
        samples = (clean + noise_sigma * noise).astype(np.float32)
        for i, (failed, ciphertext) in enumerate(drawn):
            j = c0 + i
            traces.append(PowerTrace(
                samples=samples[i], sample_period_s=sp, plaintext=plaintexts[j],
                ciphertext=ciphertext, failed=failed, core_count=len(cores),
                ciphertext2=cts[1][j].tobytes() if len(cores) == 2 else None,
                clock_meta=tuple(e[i] for e in edges)))
    return traces


def generate_trace(fs: FrequencySet, key: bytes, plaintext: bytes, *,
                   noise_sigma: float = 0.0, oversampling: int = 16,
                   seed: int = 0, rng: np.random.Generator | None = None,
                   rounds: int = 10, amplitude: float = 1.0,
                   error_threshold_factor: float = DEFAULT_ERROR_THRESHOLD_FACTOR,
                   window_cycles: int | None = None,
                   pulse: str = "triangular",
                   pulse_half_width_s: float | None = None,
                   sample_period_s: float | None = None) -> PowerTrace:
    """Generate a single-core trace for one (key, plaintext) encryption.

    ``rng`` overrides ``seed`` when supplied (the caller owns the stream;
    generate_set uses this to hand each trace its spawned generator).
    The grid overrides (``sample_period_s``, ``pulse_half_width_s``,
    ``window_cycles``) exist so renders from different frequency sets can be
    composed on a common grid.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    grid = _resolve_grid(fs, oversampling, rounds, window_cycles,
                         sample_period_s, pulse_half_width_s)
    return _generate([(fs, key, (0.0, None))], [bytes(plaintext)], [rng], grid,
                     noise_sigma=noise_sigma, rounds=rounds, amplitude=amplitude,
                     error_threshold_factor=error_threshold_factor, pulse=pulse)[0]


def generate_dual_trace(fs: FrequencySet, fs2: FrequencySet, key: bytes,
                        key2: bytes, plaintext: bytes, *,
                        noise_sigma: float = 0.0, oversampling: int = 16,
                        seed: int = 0, rng: np.random.Generator | None = None,
                        rounds: int = 10, amplitude: float = 1.0,
                        error_threshold_factor: float = DEFAULT_ERROR_THRESHOLD_FACTOR,
                        window_cycles: int | None = None,
                        pulse: str = "triangular",
                        pulse_half_width_s: float | None = None,
                        randomize_core2_phase: bool = True,
                        core2_base_phase: float = 0.0,
                        core2_source_phases: tuple[float, float, float, float] | None = None,
                        ) -> PowerTrace:
    """Generate a dual-core trace: both cores encrypt the same plaintext.

    The two base clocks must differ; the sample grid, capture window, and
    pulse width follow core 1.  With ``randomize_core2_phase`` (default) core
    2 gets a uniform base-phase offset and uniform source phases per trace;
    pass False plus explicit offsets for constructed scenarios.  The failed
    flag reflects core 1 only (the dummy core's output is discarded anyway);
    its ciphertext is kept in ``ciphertext2`` for bookkeeping.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    grid = _resolve_grid(fs, oversampling, rounds, window_cycles,
                         None, pulse_half_width_s)
    offset2 = None if randomize_core2_phase else (core2_base_phase, core2_source_phases)
    return _generate([(fs, key, (0.0, None)), (fs2, key2, offset2)],
                     [bytes(plaintext)], [rng], grid,
                     noise_sigma=noise_sigma, rounds=rounds, amplitude=amplitude,
                     error_threshold_factor=error_threshold_factor, pulse=pulse)[0]


def generate_set(fs: FrequencySet, key: bytes, n_traces: int, *,
                 plaintext_mode: str = "random",
                 fixed_plaintext: bytes | None = None,
                 noise_sigma: float = 0.0, oversampling: int = 16,
                 seed: int = 0, rounds: int = 10, amplitude: float = 1.0,
                 error_threshold_factor: float = DEFAULT_ERROR_THRESHOLD_FACTOR,
                 window_cycles: int | None = None, pulse: str = "triangular",
                 fs2: FrequencySet | None = None, key2: bytes | None = None,
                 ) -> TraceSet:
    """Generate a full trace set with per-trace spawned seeds.

    ``plaintext_mode`` is "random" (fresh block per trace) or "fixed" (all
    traces share ``fixed_plaintext``; correlation attacks are then expected
    to fail for lack of hypothesis variance).  Every trace's plaintext is
    drawn first, from its own generator; the set is then encrypted in one
    batch per key and rendered chunk by chunk (see ``_generate``), so each
    generator keeps the draw order of ``generate_trace``/``generate_dual_trace``
    and the set equals those one-trace calls trace for trace.
    """
    if n_traces < 0:
        raise ValueError("n_traces must be non-negative")
    if plaintext_mode not in ("random", "fixed"):
        raise ValueError("plaintext_mode must be 'random' or 'fixed'")
    if plaintext_mode == "fixed" and fixed_plaintext is None:
        raise ValueError("fixed plaintext mode requires fixed_plaintext")
    if (fs2 is None) != (key2 is None):
        raise ValueError("dual-core generation needs both fs2 and key2")
    rngs = [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n_traces)]
    plaintexts = [rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
                  if plaintext_mode == "random" else bytes(fixed_plaintext)
                  for rng in rngs]
    cores = [(fs, key, (0.0, None))]
    if fs2 is not None:
        cores.append((fs2, key2, None))
    grid = _resolve_grid(fs, oversampling, rounds, window_cycles, None, None)
    traces = _generate(cores, plaintexts, rngs, grid, noise_sigma=noise_sigma,
                       rounds=rounds, amplitude=amplitude,
                       error_threshold_factor=error_threshold_factor, pulse=pulse)
    return TraceSet(traces=traces, key=bytes(key), fs=fs,
                    oversampling=int(oversampling),
                    noise_sigma=float(noise_sigma),
                    key2=None if key2 is None else bytes(key2), fs2=fs2)


def first_round_coincidence_fraction(ts: TraceSet, tol_s: float | None = None) -> float:
    """Fraction of dual-core traces whose first-round pulses coincide.

    Ground truth straight from generation metadata: the two cores' first
    round edges (index 1; index 0 is the load edge) closer than ``tol_s``,
    default half a sample period (closer than that, the two pulses land on
    the same sample and are indistinguishable).  Only generator-fresh traces
    carry the metadata; file round-trips lose it.
    """
    if ts.core_count != 2:
        raise ValueError("coincidence is defined for dual-core sets")
    considered = 0
    hits = 0
    for tr in ts.traces:
        if tr.clock_meta is None or len(tr.clock_meta) != 2:
            continue
        considered += 1
        tol = tol_s if tol_s is not None else tr.sample_period_s / 2
        if abs(float(tr.clock_meta[0][1]) - float(tr.clock_meta[1][1])) < tol:
            hits += 1
    if considered == 0:
        raise ValueError("no traces carry clock metadata")
    return hits / considered


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
# Source phases, generation metadata and detected peaks are not persisted.
# The reader raises TraceFormatError for anything ``write_trace_set`` cannot
# produce: a label that is not UTF-8, frequency-set values FrequencySet
# rejects, a non-finite or non-positive sample period, oversampling below 2,
# a trace count whose 37-byte minimum records do not fit in the file (checked
# before any trace is read), or a sample count running past the end of the file.
# ---------------------------------------------------------------------------

def _pack_fs(fs: FrequencySet) -> bytes:
    label = fs.label.encode("utf-8")
    return (struct.pack("<H", len(label)) + label
            + struct.pack("<6d", fs.base_hz, *fs.fundamentals, fs.duty_cycle))


def write_trace_set(ts: TraceSet, path) -> None:
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(struct.pack("<III", TRACE_FORMAT_VERSION, ts.core_count,
                            len(ts.traces)))
        sp = (ts.traces[0].sample_period_s if ts.traces
              else ts.fs.base_period_s / ts.oversampling)
        f.write(struct.pack("<dId", sp, ts.oversampling, ts.noise_sigma))
        f.write(ts.key)
        f.write(_pack_fs(ts.fs))
        if ts.core_count == 2:
            f.write(ts.key2)
            f.write(_pack_fs(ts.fs2))
        for tr in ts.traces:
            samples = np.ascontiguousarray(tr.samples, dtype="<f4")
            f.write(struct.pack("<B", 1 if tr.failed else 0))
            f.write(tr.plaintext)
            f.write(tr.ciphertext)
            f.write(struct.pack("<I", len(samples)))
            f.write(samples.tobytes())


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
        key2 = fs2 = None
        if core_count == 2:
            key2 = _read_exact(f, 16, "key2")
            fs2 = _unpack_fs(f)
        size = os.fstat(f.fileno()).st_size
        # a trace takes at least its flag, plaintext, ciphertext and count
        if 37 * n_traces > size - f.tell():
            raise TraceTruncatedError(f"header claims {n_traces} traces, more than "
                                      f"the {size - f.tell()} bytes left can hold")
        traces = []
        for i in range(n_traces):
            (failed,) = struct.unpack("<B", _read_exact(f, 1, f"trace {i} flag"))
            pt = _read_exact(f, 16, f"trace {i} plaintext")
            ct = _read_exact(f, 16, f"trace {i} ciphertext")
            (n_samples,) = struct.unpack("<I", _read_exact(f, 4, f"trace {i} count"))
            if 4 * n_samples > size - f.tell():
                raise TraceTruncatedError(f"trace {i} claims {n_samples} samples, "
                                          f"past the end of the file")
            raw = _read_exact(f, 4 * n_samples, f"trace {i} samples")
            samples = np.frombuffer(raw, dtype="<f4").copy()
            traces.append(PowerTrace(
                samples=samples, sample_period_s=sp, plaintext=pt,
                ciphertext=ct, failed=bool(failed), core_count=core_count))
        extra = f.read(1)
        if extra:
            raise TraceFormatError("trailing bytes after final trace")
    return TraceSet(traces=traces, key=key, fs=fs, oversampling=oversampling,
                    noise_sigma=noise_sigma, key2=key2, fs2=fs2)

"""Attack pipeline: filter, synchronize, correlate, and bound the key search.

The pipeline mirrors how captures are processed in practice:

1. ``filter_traces`` throws away captures that cannot carry the attack
   (failed encryptions, encryptions that overran the capture window, peaks
   too close to resolve, under-sampled periods).
2. ``synchronize`` aligns every kept trace so the peak of the attacked round
   sits in one column.
3. ``cpa_attack`` ranks the 256 last-round register-overwrite guesses per
   key byte by their correlation with the aligned columns.
4. ``min_traces_search`` slides fixed-size segments over the same aligned
   matrix to find the smallest trace count (on a coarse grid) that still
   recovers the whole key; it and ``cpa_attack`` score through one Pearson
   kernel over one-pass sums, ``_max_abs_rho`` (``pearson`` is the two-pass
   reference).

A set is filtered and aligned once; steps 3 and 4 both take that
``(AlignedMatrix, kept set)`` pair.  Every peak-reading pass gets a trace's
peaks from ``_peaks``, which detects them once per non-failed trace and
remembers them on it, so ``synchronize`` and ``raw_matrix`` reuse the peaks
``filter_traces`` detected.

``fft_spectrum`` summarizes sets in the frequency domain and
``peak_permutation_bound`` / ``overlap_exploit`` quantify the brute-force
search left to an attacker facing a duplicated (dual-core) device.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import find_peaks

from . import aes
from .traces import PowerTrace, TraceSet

DEFAULT_STEP = 250


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (a constant input)."""


@dataclass(frozen=True)
class FilterParams:
    """Knobs for trace filtering and peak detection.

    ``min_peak_separation`` (default oversampling // 4) is the resolvability
    floor used to reject traces; detection itself runs with the smaller
    ``detect_separation`` so that too-close peak pairs are still seen and
    can trigger the rejection.
    """

    expected_peaks: int = 10
    threshold_k: float = 3.0
    min_peak_separation: int | None = None
    nyquist_floor: float = 2.0

    @property
    def detect_separation(self) -> int:
        """max(2, min_peak_separation // 2); read it on ``resolved`` params."""
        return max(2, self.min_peak_separation // 2)

    def resolved(self, oversampling: int) -> "FilterParams":
        if self.min_peak_separation is not None:
            return self
        return replace(self, min_peak_separation=max(1, oversampling // 4))


@dataclass(frozen=True)
class AlignedMatrix:
    """Kept traces as rows of a common window.

    ``round_anchor`` is the column holding the attacked round's peak (None
    for an unsynchronized matrix); ``kept_indices`` maps rows back to trace
    indices in the input set (strictly increasing, never reordered);
    ``peak_positions`` holds the attacked round's original sample index per
    row (-1 when unknown).
    """

    rows: np.ndarray
    round_anchor: int | None
    kept_indices: np.ndarray
    peak_positions: np.ndarray

    @property
    def max_delay_samples(self) -> int:
        """Spread of the attacked round's peak over the rows: max minus min
        of the known (non-negative) ``peak_positions``, 0 when none is
        known.  The CLI reports this number."""
        known = self.peak_positions[self.peak_positions >= 0]
        return int(known.max() - known.min()) if known.size else 0


@dataclass(frozen=True)
class CpaResult:
    """Scores and rankings of one correlation attack.

    ``scores[p, g]`` is max |rho| over the window for guess g of the final
    round key byte at position SHIFT_ROWS_IMAGE[p]; ``recovered_round_key``
    assembles the argmax guesses, ``recovered_key`` walks the schedule back
    to the cipher key.  ``undefined_fraction`` counts (guess, byte) cells
    whose hypothesis had zero variance (scored 0, flagged here).
    """

    scores: np.ndarray
    recovered_key: bytes
    recovered_round_key: bytes
    rank_of_true_key: tuple[int, ...] | None
    undefined_fraction: float

    @property
    def broken(self) -> bool:
        return (self.rank_of_true_key is not None
                and all(r == 1 for r in self.rank_of_true_key))


@dataclass(frozen=True)
class SpectrumHistogram:
    """Energy-binned average spectrum.

    ``magnitudes[b]`` is the root of the mean (over traces) signal energy
    falling into [b * bin_hz, (b+1) * bin_hz), with the rfft normalized so
    that the sum of squared magnitudes equals the mean time-domain energy
    (Parseval).  Traces are mean-subtracted before the transform.
    """

    bin_hz: float
    magnitudes: np.ndarray
    n_fft: int
    sample_rate_hz: float
    n_traces: int

    def top_bins(self, k: int = 10) -> list[tuple[int, float]]:
        order = np.argsort(self.magnitudes)[::-1][:k]
        return [(int(b), float(self.magnitudes[b])) for b in order]


@dataclass(frozen=True)
class OverlapReport:
    """Outcome of hunting summed-coincidence peaks in dual-core traces."""

    overlap_fraction: float
    reduced_candidates: float
    candidates: int
    n_traces: int


# ---------------------------------------------------------------------------
# Peak detection and filtering
# ---------------------------------------------------------------------------

def detect_peaks(samples: np.ndarray, threshold_k: float = 3.0,
                 min_separation: int = 2) -> np.ndarray:
    """Local maxima above mean + k * std, greedily separated.

    Separation keeps the tallest peak of any cluster (standard
    non-maximum suppression).  Indices are ascending.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 3:
        return np.empty(0, dtype=np.int64)
    height = samples.mean() + threshold_k * samples.std()
    peaks, _ = find_peaks(samples, height=height,
                          distance=max(1, int(min_separation)))
    return peaks.astype(np.int64)


def _peaks(tr: PowerTrace, params: FilterParams) -> np.ndarray:
    """``tr``'s detected peaks under resolved ``params``, detected once.

    The result is remembered on the trace with its (threshold_k,
    detect_separation) and returned read-only, so ``filter_traces`` detects
    and ``synchronize``/``raw_matrix`` on its kept set reuse; other knobs
    detect afresh.
    """
    key = (params.threshold_k, params.detect_separation)
    if tr.peak_memo is None or tr.peak_memo[0] != key:
        peaks = detect_peaks(tr.samples, *key)
        peaks.flags.writeable = False
        tr.peak_memo = (key, peaks)
    return tr.peak_memo[1]


def filter_traces(ts: TraceSet, params: FilterParams | None = None
                  ) -> tuple[TraceSet, float, float]:
    """Drop unusable traces; returns (kept, removed_fraction, failed_fraction).

    Removal reasons: (a) failed encryption flag, (b) fewer than
    ``expected_peaks`` detected peaks (the encryption missed the capture
    window), (c) adjacent detected peaks closer than ``min_peak_separation``
    samples, (d) a ground-truth clock period under-sampled below the Nyquist
    floor (only checkable on generator-fresh traces carrying clock metadata).
    ``failed_fraction`` counts reason (a); ``removed_fraction`` counts
    (b)-(d); both are fractions of the input size.  Kept traces are the
    input's own objects, in input order, so the peaks detected here are
    reused by later passes with the same threshold and separation.
    """
    params = (params or FilterParams()).resolved(ts.oversampling)
    kept = []
    n_failed = 0
    n_removed = 0
    for tr in ts.traces:
        if tr.failed:
            n_failed += 1
            continue
        peaks = _peaks(tr, params)
        if len(peaks) < params.expected_peaks:
            n_removed += 1
            continue
        if len(peaks) > 1 and (np.diff(peaks) < params.min_peak_separation).any():
            n_removed += 1
            continue
        if tr.clock_meta is not None:
            min_period = min(float(np.diff(e).min()) for e in tr.clock_meta
                             if len(e) > 1)
            if min_period / tr.sample_period_s < params.nyquist_floor:
                n_removed += 1
                continue
        kept.append(tr)
    n = max(1, len(ts.traces))
    kept_set = TraceSet(traces=kept, key=ts.key, fs=ts.fs,
                        oversampling=ts.oversampling,
                        noise_sigma=ts.noise_sigma, key2=ts.key2, fs2=ts.fs2)
    return kept_set, n_removed / n, n_failed / n


def synchronize(ts: TraceSet, round: int = 10,
                window_halfwidth: int | None = None,
                params: FilterParams | None = None) -> AlignedMatrix:
    """Align kept traces on the attacked round's detected peak.

    Each trace is shifted (by whole samples) so its ``round``-th detected
    peak lands on the window center; traces whose peak sits too close to a
    trace edge to fill the window are dropped.  Trace order is preserved.
    Traces ``filter_traces`` kept are not detected again.
    """
    if round < 1:
        raise ValueError("round must be at least 1")
    params = (params or FilterParams()).resolved(ts.oversampling)
    w = ts.oversampling if window_halfwidth is None else int(window_halfwidth)
    rows = []
    kept_idx = []
    positions = []
    for i, tr in enumerate(ts.traces):
        peaks = _peaks(tr, params)
        if len(peaks) < round:
            continue
        p = int(peaks[round - 1])
        if p - w < 0 or p + w >= len(tr.samples):
            continue
        rows.append(np.asarray(tr.samples[p - w:p + w + 1], dtype=np.float32))
        kept_idx.append(i)
        positions.append(p)
    rows_arr = (np.vstack(rows) if rows
                else np.empty((0, 2 * w + 1), dtype=np.float32))
    return AlignedMatrix(rows=rows_arr, round_anchor=w,
                         kept_indices=np.asarray(kept_idx, dtype=np.int64),
                         peak_positions=np.asarray(positions, dtype=np.int64))


def raw_matrix(ts: TraceSet, round: int = 10,
               params: FilterParams | None = None) -> AlignedMatrix:
    """Unsynchronized counterpart of ``synchronize``: zero-padded raw rows.

    Peak positions for the attacked round are still recorded (where
    detectable) so delay statistics remain available.
    """
    params = (params or FilterParams()).resolved(ts.oversampling)
    if not ts.traces:
        return AlignedMatrix(rows=np.empty((0, 0), dtype=np.float32),
                             round_anchor=None,
                             kept_indices=np.empty(0, dtype=np.int64),
                             peak_positions=np.empty(0, dtype=np.int64))
    width = max(len(t.samples) for t in ts.traces)
    rows = np.zeros((len(ts.traces), width), dtype=np.float32)
    positions = np.full(len(ts.traces), -1, dtype=np.int64)
    for i, tr in enumerate(ts.traces):
        rows[i, :len(tr.samples)] = tr.samples
        peaks = _peaks(tr, params)
        if len(peaks) >= round:
            positions[i] = int(peaks[round - 1])
    return AlignedMatrix(rows=rows, round_anchor=None,
                         kept_indices=np.arange(len(ts.traces), dtype=np.int64),
                         peak_positions=positions)


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def pearson(x, y) -> float:
    """Sample correlation coefficient, written out two-pass (the reference).

    r = sum((x - xbar)(y - ybar)) / sqrt(sum((x - xbar)^2) sum((y - ybar)^2))

    Raises UndefinedCorrelationError when either input is constant (callers
    in the attack path treat that as score 0 and flag it).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError("pearson expects two 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("pearson needs at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("constant input")
    return float((dx @ dy) / np.sqrt(sxx * syy))


def _window_slice(am: AlignedMatrix, window) -> tuple[int, int]:
    width = am.rows.shape[1]
    if window is None:
        return 0, width
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi <= width):
        raise ValueError(f"window {window} out of range for width {width}")
    return lo, hi


def _max_abs_rho(n, sh, shh, sy, syy, shy):
    """(max |rho| per guess, zero-variance hypothesis mask) from the sums
    ``sh``, ``shh`` (..., 256), ``sy``, ``syy`` (..., W), ``shy`` (..., 256, W)
    of h, h^2, y, y^2, h*y over ``n`` traces; leading axes are segments.
    A cell with zero variance on either side scores 0.
    """
    num = n * shy - sh[..., :, None] * sy[..., None, :]
    varh = n * shh - sh * sh
    vary = n * syy - sy * sy
    den = np.sqrt(np.clip(varh[..., :, None] * vary[..., None, :], 0.0, None))
    rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.abs(rho).max(axis=-1), varh == 0


def cpa_attack(am: AlignedMatrix, ts: TraceSet,
               window: tuple[int, int] | None = None,
               true_key: bytes | None = None) -> CpaResult:
    """Correlation attack over an aligned matrix.

    For every register byte position the 256 last-round hypotheses are
    correlated against every window column; a guess's score is its maximum
    absolute correlation (``_max_abs_rho`` over all rows).  Cells with zero
    variance score 0; zero-variance guesses count in ``undefined_fraction``.
    """
    if am.rows.shape[0] < 2:
        raise ValueError("need at least 2 traces to correlate")
    lo, hi = _window_slice(am, window)
    cts = ts.ciphertext_matrix()[am.kept_indices]
    y = am.rows[:, lo:hi].astype(np.float64)
    sy, syy = y.sum(axis=0), (y * y).sum(axis=0)
    scores = np.zeros((16, 256), dtype=np.float64)
    undefined = 0
    for p in range(16):
        h = aes.hypothesis_matrix(cts, p).astype(np.float64)
        scores[p], constant = _max_abs_rho(len(y), h.sum(axis=0), (h * h).sum(axis=0),
                                           sy, syy, h.T @ y)
        undefined += int(constant.sum())
    rec_rk = bytearray(16)
    for p in range(16):
        rec_rk[int(aes.SHIFT_ROWS_IMAGE[p])] = int(scores[p].argmax())
    ranks = None
    if true_key is not None:
        true_rk = aes.expand_key(true_key).round_keys[10]
        # >= counts the true guess itself, so a unique maximum ranks 1 and
        # ties (e.g. an all-undefined byte scoring uniformly 0) count against
        # the attacker instead of faking a recovery
        ranks = tuple(
            int((scores[p] >= scores[p, true_rk[int(aes.SHIFT_ROWS_IMAGE[p])]]).sum())
            for p in range(16))
    return CpaResult(scores=scores, recovered_key=aes.key_from_last_round_key(bytes(rec_rk)),
                     recovered_round_key=bytes(rec_rk),
                     rank_of_true_key=ranks,
                     undefined_fraction=undefined / (16 * 256))


# ---------------------------------------------------------------------------
# Minimum-traces search
# ---------------------------------------------------------------------------

def min_traces_search(am: AlignedMatrix, ts: TraceSet, true_key: bytes,
                      step: int = DEFAULT_STEP) -> int | None:
    """Smallest segment size (grid of ``step``) whose attack recovers the key.

    Scores the rows of ``am`` over its full width, with ``ts`` the set its
    ``kept_indices`` point into: the pair ``cpa_attack`` takes.  The rows
    are cut into consecutive blocks of ``step``; every contiguous run of
    blocks is a segment, scored by ``_max_abs_rho`` from differences of
    block prefix sums; each block's h*y sums are one batched matrix product
    (BLAS).  A segment succeeds when all 16 true-key bytes rank first.
    Exhaustive over (size, offset): the result is exactly the smallest
    successful size, independent of evaluation order, or None when no
    segment (or not even one block) recovers the key.
    """
    if step < 2:
        raise ValueError("step must be at least 2")
    nblocks = am.rows.shape[0] // step
    if nblocks == 0:
        return None

    width = am.rows.shape[1]
    usable = nblocks * step
    yb = am.rows[:usable].astype(np.float64).reshape(nblocks, step, width)
    cts = ts.ciphertext_matrix()[am.kept_indices[:usable]]
    py = np.zeros((nblocks + 1, width))
    pyy = np.zeros((nblocks + 1, width))
    np.cumsum(yb.sum(axis=1), axis=0, out=py[1:])
    np.cumsum((yb * yb).sum(axis=1), axis=0, out=pyy[1:])

    true_rk = aes.expand_key(true_key).round_keys[10]
    # success[k-1][s] == all bytes rank 1 on the segment of k blocks at s
    success = [np.ones(nblocks - k + 1, dtype=bool) for k in range(1, nblocks + 1)]
    for p in range(16):
        hb = aes.hypothesis_matrix(cts, p).astype(np.float64)
        hb = hb.reshape(nblocks, step, 256)
        ph = np.zeros((nblocks + 1, 256))
        phh = np.zeros((nblocks + 1, 256))
        phy = np.zeros((nblocks + 1, 256, width))
        np.cumsum(hb.sum(axis=1), axis=0, out=ph[1:])
        np.cumsum((hb * hb).sum(axis=1), axis=0, out=phh[1:])
        np.cumsum(hb.transpose(0, 2, 1) @ yb, axis=0, out=phy[1:])
        g_true = int(true_rk[int(aes.SHIFT_ROWS_IMAGE[p])])
        for k in range(1, nblocks + 1):
            live = success[k - 1]
            if not live.any():
                continue
            s = np.arange(nblocks - k + 1)
            sc, _ = _max_abs_rho(k * step, ph[s + k] - ph[s], phh[s + k] - phh[s],
                                 py[s + k] - py[s], pyy[s + k] - pyy[s],
                                 phy[s + k] - phy[s])
            success[k - 1] &= sc.argmax(axis=1) == g_true

    for k in range(1, nblocks + 1):
        if success[k - 1].any():
            return k * step
    return None


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def fft_spectrum(ts: TraceSet, bin_hz: float) -> SpectrumHistogram:
    """Average energy spectrum of a set, folded into bins of ``bin_hz``.

    Each non-failed trace is mean-subtracted, zero-padded to the set's
    maximum length rounded up to a power of two, and transformed; per-bin
    energies are averaged over traces.  The normalization keeps Parseval
    exact: sum(magnitudes**2) equals the mean time-domain energy of the
    mean-subtracted traces.
    """
    if bin_hz <= 0:
        raise ValueError("bin_hz must be positive")
    traces = [t for t in ts.traces if not t.failed]
    if not traces:
        raise ValueError("no usable traces")
    sp = traces[0].sample_period_s
    maxlen = max(len(t.samples) for t in traces)
    n_fft = 1 << (maxlen - 1).bit_length()
    rate = 1.0 / sp
    freqs = np.arange(n_fft // 2 + 1) * (rate / n_fft)
    weights = np.full(n_fft // 2 + 1, 2.0)
    weights[0] = 1.0
    if n_fft % 2 == 0:
        weights[-1] = 1.0
    energy = np.zeros(n_fft // 2 + 1)
    for t in traces:
        x = np.asarray(t.samples, dtype=np.float64)
        x = x - x.mean()
        spec = np.fft.rfft(x, n_fft)
        energy += weights * (spec.real ** 2 + spec.imag ** 2) / n_fft
    energy /= len(traces)
    bins = np.floor(freqs / bin_hz).astype(np.int64)
    mags = np.zeros(int(bins.max()) + 1)
    np.add.at(mags, bins, energy)
    return SpectrumHistogram(bin_hz=float(bin_hz), magnitudes=np.sqrt(mags),
                             n_fft=int(n_fft), sample_rate_hz=rate,
                             n_traces=len(traces))


# ---------------------------------------------------------------------------
# Duplication (dual-core) analysis
# ---------------------------------------------------------------------------

def peak_permutation_bound(fs, fs2=None, n_traces: int = 1, rounds: int = 10
                           ) -> tuple[int, int]:
    """Brute-force positions of the last peak and the total over a capture.

    The final round's peak can land on any slot between the all-fastest and
    all-slowest completion, counted at the slowest period's granularity:
    1 + rounds * (1 - f_min / f_max) over the union of fundamentals, rounded
    half-up and clamped to [2, rounds + 1] (2 because duplication alone
    leaves two final peaks even with zero spread; rounds + 1 slots is all a
    rounds-edge trace offers).  Returns (per-trace candidates,
    candidates ** n_traces) with exact integer arithmetic.
    """
    if n_traces < 1:
        raise ValueError("n_traces must be at least 1")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    funds = list(fs.fundamentals)
    if fs2 is not None:
        funds += list(fs2.fundamentals)
    f_min, f_max = min(funds), max(funds)
    slots = 1.0 + rounds * (1.0 - f_min / f_max)
    candidates = int(np.floor(slots + 0.5))
    candidates = max(2, min(rounds + 1, candidates))
    return candidates, candidates ** n_traces


def overlap_exploit(ts: TraceSet, candidates: int | None = None,
                    region: str = "last", amp_factor: float = 1.7,
                    params: FilterParams | None = None) -> OverlapReport:
    """Find summed-coincidence peaks in dual-core traces and what they buy.

    When the two cores' rising edges land within half a sample of each other
    their pulses stack on the same sample, so the summed amplitude rises
    above anything one core can produce alone.  Single-core pulses dominate
    the peak population, so the pooled median peak amplitude across the set
    estimates the single-pulse scale; a peak above ``amp_factor`` times that
    scale marks an overlap.  In region "last", an overlap inside (or adjacent
    to) the last-peak candidate span pins the true final peak to its two
    flanking slots, cutting the per-trace candidates to 2; region "first"
    only counts overlaps in the opening three base cycles (useful for
    filtering).  Returns the fraction of traces with such an overlap and the
    mean candidate count over the overlapping traces.
    """
    if ts.core_count != 2:
        raise ValueError("overlap analysis requires a dual-core trace set")
    if region not in ("first", "last"):
        raise ValueError("region must be 'first' or 'last'")
    params = (params or FilterParams()).resolved(ts.oversampling)
    if candidates is None:
        candidates, _ = peak_permutation_bound(ts.fs, ts.fs2)
    per_trace: list[tuple[np.ndarray, np.ndarray]] = []
    pooled: list[np.ndarray] = []
    for tr in ts.traces:
        if tr.failed:
            continue
        peaks = _peaks(tr, params)
        amps = np.asarray(tr.samples, dtype=np.float64)[peaks]
        per_trace.append((peaks, amps))
        pooled.append(amps)
    n_considered = len(per_trace)
    all_amps = np.concatenate(pooled) if pooled else np.empty(0)
    scale = float(np.median(all_amps)) if all_amps.size else 0.0
    thr = amp_factor * scale
    n_overlap = 0
    for peaks, amps in per_trace:
        if len(peaks) == 0:
            continue
        overlap_pos = peaks[amps > thr]
        if len(overlap_pos) == 0:
            continue
        if region == "first":
            limit = 3 * ts.oversampling
            hit = bool((overlap_pos < limit).any())
        else:
            tail = peaks[-min(int(candidates), len(peaks)):]
            lo = tail[0] - params.min_peak_separation
            hi = tail[-1] + params.min_peak_separation
            hit = bool(((overlap_pos >= lo) & (overlap_pos <= hi)).any())
        if hit:
            n_overlap += 1
    frac = n_overlap / n_considered if n_considered else 0.0
    reduced = 2.0 if n_overlap else float(candidates)
    return OverlapReport(overlap_fraction=frac, reduced_candidates=reduced,
                         candidates=int(candidates), n_traces=n_considered)

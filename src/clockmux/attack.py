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
   recovers the whole key, scoring segment sizes in capped ranges.  It and
   ``cpa_attack`` score through one Pearson kernel over one-pass sums,
   ``_max_abs_rho``, and both count a byte as recovered only when its true
   guess ranks 1 (``_rank``; a tie fails).

A set is filtered and aligned once into an ``AlignedMatrix`` that carries
its rows' ciphertexts; steps 3 and 4 take that matrix alone, and both sum a
byte's hypotheses through one builder, ``_ByteSums``, in blocks of rows
(step 3 of ``DEFAULT_STEP`` rows, keeping only the running sum).  Step 4 at
``DEFAULT_STEP`` leaves each byte it built summed over all rows on the
matrix, the very sums step 3 would build, and step 3 builds only the other
bytes.  Every h*y sum is window-major, (..., W, 256): a block's product
is y^T h, with M = W and N = 256, and the max over the window reduces an
outer axis, 256 guesses at a time.  Both run faster that way than in the
(..., 256, W) transpose, and give the same bits.  Each pass works on the
set's arrays, with scratch sized by constants, not by the input: row
batches (``clock._row_batches``), ``SEARCH_CHUNK`` segments per kernel
call, and ``MAX_SEARCH_CELLS`` for the search's prefix buffer.
``filter_traces`` detects peaks in one ``detect_peaks`` pass over the
non-failed rows, by index (a matrix pass; ``_find_peaks_row``, an exact
numpy port of scipy's ``find_peaks``, only for rows with a plateau or
too-close maxima) and the set it keeps carries them, so ``synchronize``,
``raw_matrix`` and ``overlap_exploit`` with the same (threshold_k,
detect_separation) do not detect again; other passes detect inside the
call and store nothing.

``fft_spectrum`` summarizes sets in the frequency domain and
``peak_permutation_bound`` / ``overlap_exploit`` quantify the brute-force
search left to an attacker facing a duplicated (dual-core) device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import aes
from .clock import _row_batches
from .traces import TraceSet

DEFAULT_STEP = 250

#: A peak above this multiple of the set's median peak amplitude is taken
#: for two cores' pulses summed on one sample (``overlap_exploit``).
OVERLAP_AMP_FACTOR = 1.7


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
    """Kept traces as rows of a common window, with what the attack needs.

    ``ciphertexts`` is the (rows, 16) uint8 ciphertexts of the rows, in row
    order (kept rows keep their input order); ``peak_positions`` holds the
    attacked round's original sample index per row (-1 when unknown).  A
    synchronized matrix has the attacked round's peak in its centre column.
    ``_sums`` maps a byte position to its (sum h, sum h^2, sum h*y) over all
    rows, shaped (256,), (256,) and window-major (W, 256), as
    ``min_traces_search`` at ``DEFAULT_STEP`` leaves them for ``cpa_attack``;
    ``dataclasses.replace`` starts a changed matrix empty.
    """

    rows: np.ndarray
    ciphertexts: np.ndarray
    peak_positions: np.ndarray
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    round key byte at position SHIFT_ROWS_IMAGE[p]; ``recovered_key`` walks
    the round key of the argmax guesses back to the cipher key.
    ``undefined_fraction`` counts (guess, byte) cells whose hypothesis had
    zero variance (scored 0, flagged here).
    """

    scores: np.ndarray
    recovered_key: bytes
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

def _find_peaks_row(x: np.ndarray, height: float, distance: float) -> np.ndarray:
    """scipy's ``find_peaks(x, height=height, distance=distance)[0]`` for a
    1-D float64 row, in numpy alone.

    A candidate is a run of equal samples that touches neither end of the
    row and whose two neighbours are both lower; its peak is the run's
    midpoint, rounded down.  NaN equals nothing, so it breaks a run, and is
    never lower.  Peaks below ``height`` go.  Then, tallest first in reverse
    ``np.argsort`` order (scipy's order, ties included), each peak still
    kept removes every other peak closer than ceil(distance).
    """
    n = x.size
    if n < 3:
        return np.empty(0, np.int64)
    left = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    right = np.r_[left[1:], n] - 1
    inner = (left >= 1) & (right <= n - 2)
    left, right = left[inner], right[inner]
    peaks = ((left + right) // 2)[(x[left - 1] < x[left]) & (x[right + 1] < x[right])]
    peaks = peaks[x[peaks] >= height]
    d = math.ceil(distance)
    keep = np.ones(len(peaks), dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < d] = False
            keep[j] = True
    return peaks[keep]


def detect_peaks(samples: np.ndarray, threshold_k: float = 3.0, min_separation: int = 2,
                 rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's local maxima at or above its mean + k * std, greedily
    separated; returns (flat positions, per-row counts) for the rows of an
    (n, S) matrix ``samples``, or for ``samples[rows]`` given an index array
    ``rows``.

    The peaks are scipy ``find_peaks``'s with that height and a distance of
    ``min_separation`` (which keeps the tallest peak of any cluster).  A row
    batch of float64 rows at a time (gathered by ``rows``, so never copied
    whole), a peak is a strict local maximum at or above the height.  Only
    a row with a plateau at or above its height, or with two such maxima
    closer than ``min_separation``, goes to ``_find_peaks_row``, the exact
    port of ``find_peaks``: a plateau below the height fails its height
    filter too, and strict maxima are never adjacent, so a distance of 2
    suppresses none.  Positions are ascending within a row, rows in order.
    """
    n = samples.shape[0] if rows is None else len(rows)
    width = samples.shape[1]
    distance = max(1, int(min_separation))
    found_rows, found_pos = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for c0, c1 in _row_batches(n if width >= 3 else 0, width):
        chunk = samples[c0:c1] if rows is None else samples[rows[c0:c1]]
        x = chunk.astype(np.float64)
        height = (x.mean(axis=1) + threshold_k * x.std(axis=1))[:, None]
        mid = x[:, 1:-1]
        r, p = np.nonzero((mid > x[:, :-2]) & (mid > x[:, 2:]) & (mid >= height))
        slow = ((x[:, 1:] == x[:, :-1]) & (x[:, 1:] >= height)).any(axis=1)
        slow[r[1:][(np.diff(p) < distance) & (r[1:] == r[:-1])]] = True
        fast = ~slow[r]
        found_rows.append(r[fast] + c0)
        found_pos.append(p[fast] + 1)
        for i in np.flatnonzero(slow):
            peaks = _find_peaks_row(x[i], height=height[i, 0], distance=distance)
            found_rows.append(np.full(len(peaks), c0 + i))
            found_pos.append(peaks)
    r = np.concatenate(found_rows)
    order = np.argsort(r, kind="stable")
    return np.concatenate(found_pos)[order].astype(np.int64), np.bincount(r, minlength=n)


def _row_peaks(ts: TraceSet, params: FilterParams, rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Peaks of ``ts``'s ``rows`` (a mask) under resolved ``params``, as (flat
    positions, per-row counts): the set's ``peaks`` if detected with the same
    knobs, else one ``detect_peaks`` pass over those rows, not stored."""
    key = (params.threshold_k, params.detect_separation)
    if ts.peaks is not None and ts.peaks[0] == key:
        _, positions, counts = ts.peaks
        return positions[np.repeat(rows, counts)], counts[rows]
    return detect_peaks(ts.samples, *key, rows=np.flatnonzero(rows))


def _round_peaks(ts: TraceSet, params: FilterParams, round: int) -> np.ndarray:
    """Per row, the position of its ``round``-th detected peak, -1 if none."""
    positions, counts = _row_peaks(ts, params, np.ones(len(ts), dtype=bool))
    has = counts >= round
    out = np.full(len(ts), -1, dtype=np.int64)
    out[has] = positions[(np.cumsum(counts) - counts)[has] + round - 1]
    return out


def _check_round(round: int) -> None:
    """Refuse an attacked round that ``_round_peaks`` cannot index."""
    if round < 1:
        raise ValueError("round must be at least 1")


def filter_traces(ts: TraceSet, params: FilterParams | None = None
                  ) -> tuple[TraceSet, float, float]:
    """Drop unusable traces; returns (kept, removed_fraction, failed_fraction).

    Removal reasons, each a row mask: (a) failed encryption flag, (b) fewer
    than ``expected_peaks`` detected peaks (the encryption missed the
    capture window), (c) adjacent detected peaks closer than
    ``min_peak_separation`` samples, (d) a ground-truth clock period
    under-sampled below the Nyquist floor (only checkable on generator-fresh
    sets carrying clock edges).  ``failed_fraction`` counts reason (a);
    ``removed_fraction`` counts (b)-(d); both are fractions of the input
    size.  The kept set holds the kept rows in input order and carries the
    peaks detected here, in one ``detect_peaks`` pass over the non-failed
    rows.
    """
    params = (params or FilterParams()).resolved(ts.oversampling)
    live = ~ts.failed
    positions, counts = _row_peaks(ts, params, live)
    row = np.repeat(np.arange(len(counts)), counts)
    close = (np.diff(positions) < params.min_peak_separation) & (row[1:] == row[:-1])
    ok = ((counts >= params.expected_peaks)
          & (np.bincount(row[1:][close], minlength=len(counts)) == 0))
    if ts.clock_edges is not None:
        min_period = np.diff(ts.clock_edges[live], axis=-1).min(axis=(1, 2))
        ok &= ~(min_period / ts.sample_period_s < params.nyquist_floor)
    kept = ts.take(np.flatnonzero(live)[ok],
                   peaks=((params.threshold_k, params.detect_separation),
                          positions[np.repeat(ok, counts)], counts[ok]))
    return kept, (len(counts) - len(kept)) / max(1, len(ts)), ts.failed_fraction()


def synchronize(ts: TraceSet, round: int = 10,
                window_halfwidth: int | None = None,
                params: FilterParams | None = None) -> AlignedMatrix:
    """Align kept traces on the attacked round's detected peak.

    Each row is shifted (by whole samples) so its ``round``-th detected peak
    lands on the window center, all rows in one gather; rows whose peak sits
    too close to an edge to fill the window are dropped, and a window wider
    than the rows keeps none.  Row order is preserved.  A set
    ``filter_traces`` kept is not detected again.
    """
    _check_round(round)
    params = (params or FilterParams()).resolved(ts.oversampling)
    w = ts.oversampling if window_halfwidth is None else int(window_halfwidth)
    if w < 0:
        raise ValueError("window_halfwidth must be non-negative")
    if 2 * w + 1 > ts.samples.shape[1]:  # in Python ints: w may not fit an int64
        return AlignedMatrix(rows=ts.samples[:0], ciphertexts=ts.ciphertexts[:0],
                             peak_positions=np.empty(0, np.int64))
    p = _round_peaks(ts, params, round)
    kept = np.flatnonzero((p - w >= 0) & (p + w < ts.samples.shape[1]))
    return AlignedMatrix(rows=ts.samples[kept[:, None], p[kept, None] + np.arange(-w, w + 1)],
                         ciphertexts=ts.ciphertexts[kept], peak_positions=p[kept])


def raw_matrix(ts: TraceSet, round: int = 10,
               params: FilterParams | None = None) -> AlignedMatrix:
    """Unsynchronized counterpart of ``synchronize``: the set's own rows.

    Peak positions for the attacked round are still recorded (where
    detectable) so delay statistics remain available.
    """
    _check_round(round)
    params = (params or FilterParams()).resolved(ts.oversampling)
    return AlignedMatrix(rows=ts.samples, ciphertexts=ts.ciphertexts,
                         peak_positions=_round_peaks(ts, params, round))


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def _max_abs_rho(n, sh, shh, sy, syy, shy):
    """(max |rho| per guess, zero-variance hypothesis mask) from the sums
    ``sh``, ``shh`` (..., 256), ``sy``, ``syy`` (..., W), ``shy`` (..., W, 256)
    of h, h^2, y, y^2, h*y over ``n`` traces; leading axes are segments.
    The call computes in the float64 ``shy``, overwriting it, and in one
    work array.  ``shy`` is window-major, as ``_ByteSums`` builds it: the outer
    products are sy x sh and vary x varh (IEEE products commute, so these
    are the bits of sh x sy), and the max over the window reduces axis -2,
    256 guesses at a time, not a short last axis of W per guess.
    A cell with zero variance on either side scores 0.  When every
    variance is positive, so is every cell's product (it is at least the
    product of the two least), and the cells are divided without the
    mask: the same operations on every cell, so the same bits.
    """
    work = np.empty(shy.shape)
    num = np.multiply(shy, n, out=shy)
    np.subtract(num, np.multiply(sy[..., :, None], sh[..., None, :], out=work), out=num)
    varh = n * shh - sh * sh
    vary = n * syy - sy * sy
    den = np.multiply(vary[..., :, None], varh[..., None, :], out=work)
    least_h, least_y = (varh.min(), vary.min()) if den.size else (0, 0)
    if least_h > 0 and least_h * least_y > 0:
        rho = np.divide(num, np.sqrt(den, out=den), out=num)
    else:
        np.sqrt(np.clip(den, 0.0, None, out=den), out=den)
        rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.abs(rho, out=rho).max(axis=-2), varh == 0


def _rank(scores: np.ndarray, guess: int) -> np.ndarray:
    """Rank of ``guess`` in ``scores[..., 256]``: the guesses scoring at
    least as high, itself included, so only a unique maximum ranks 1 and a
    tie (e.g. a byte scoring uniformly 0) counts against the attacker."""
    return (scores >= scores[..., guess, None]).sum(axis=-1)


def _true_guesses(true_key: bytes) -> list[int]:
    """Per register byte position, the true last-round key byte's guess."""
    true_rk = aes.expand_key(true_key)[10]
    return [int(true_rk[int(aes.SHIFT_ROWS_IMAGE[p])]) for p in range(16)]


class _ByteSums:
    """One byte's sums of h, h^2 and h*y over blocks of ``step`` rows of
    ``am``, built by ``build(p)`` for ``cpa_attack`` and ``min_traces_search``.

    ``yb`` views the float32 ``am.rows``' whole blocks as (blocks, step, W),
    blocks = rows // step; no float64 copy of the rows is held.  ``build``
    fills the block prefix sums ``ph`` and ``phh`` (blocks + 1, 256) and
    ``phy`` (m, W, 256), whose row i holds the sum of blocks [0, i) at row i
    modulo m and whose row 0 stays zero: with ``every_prefix`` m is blocks
    + 1, so every prefix is kept (the search), else 2, only the running sum
    (the CPA), which adds the same products in the same order.  Each block
    of h is cast into a (step, 256) float64 scratch matrix, and numpy casts
    the block of y inside its BLAS product,
    y^T h into a window-major (W, 256) row of ``phy`` (M = W, N = 256: at
    W = 25 it takes about 30% less time than h^T y into (256, W), at
    W = 360 about the same), and added to the sum of the blocks before it.
    h and h^2 sum exactly in uint32 (h <= 8, so any block of fewer than
    2**26 rows fits; its float64 matrix would be 137 GB), about twice as
    fast as in int64, and are widened to int64 because ``_max_abs_rho``'s
    n*sum(h*h) - sum(h)**2 passes 2**32 from 16,384 rows on.
    """

    def __init__(self, am: AlignedMatrix, step: int, every_prefix: bool):
        self.ciphertexts, self.y = am.ciphertexts, am.rows
        n, width = self.y.shape
        blocks = n // step
        self.yb = self.y[:blocks * step].reshape(blocks, step, width)
        self.ph, self.phh = np.zeros((2, blocks + 1, 256), np.int64)
        self.phy = np.zeros((blocks + 1 if every_prefix else 2, width, 256))
        self.hf, self.block_sums = np.empty((step, 256)), np.empty((blocks, 256), np.uint32)

    def build(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fill the prefixes with byte ``p``'s sums and return its (sum h,
        sum h^2, sum h*y) over every row, the tail past the last block
        included, in new arrays."""
        h = aes.hypothesis_matrix(self.ciphertexts, p)
        blocks, step, _ = self.yb.shape
        hf, phy, m = self.hf, self.phy, len(self.phy)
        hb, tail = h[:blocks * step].reshape(blocks, step, 256), h[blocks * step:]
        for i in range(blocks):
            np.copyto(hf, hb[i])
            np.matmul(self.yb[i].T, hf, out=phy[(i + 1) % m])
            if i:
                np.add(phy[i % m], phy[(i + 1) % m], out=phy[(i + 1) % m])
        np.copyto(hf[:len(tail)], tail)
        shy = np.matmul(self.y[blocks * step:].T, hf[:len(tail)])
        np.add(phy[blocks % m], shy, out=shy)
        totals = []
        for j, prefix in enumerate((self.ph, self.phh)):
            if j:
                np.multiply(h, h, out=h)  # h <= 8, so h*h fits uint8
            np.sum(hb, axis=1, dtype=np.uint32, out=self.block_sums)
            np.cumsum(self.block_sums, axis=0, dtype=np.int64, out=prefix[1:])
            totals.append(prefix[-1] + tail.sum(axis=0, dtype=np.uint32))
        return (*totals, shy)


def cpa_attack(am: AlignedMatrix, true_key: bytes | None = None) -> CpaResult:
    """Correlation attack over an aligned matrix.

    For every register byte position the 256 last-round hypotheses of
    ``am.ciphertexts`` are correlated against every window column; a
    guess's score is its maximum absolute correlation (``_max_abs_rho`` over
    all rows).  Cells with zero variance score 0; zero-variance guesses
    count in ``undefined_fraction``.
    A byte is summed as ``min_traces_search`` sums it at ``DEFAULT_STEP``,
    by ``_ByteSums`` over blocks of that many rows plus the rows past the
    last block: exact integer sums of h and h^2, one BLAS product per block
    for h*y, added into a running sum, window-major (W, 256) as
    ``_max_abs_rho`` takes it.  Its scratch is one block's (step, 256)
    float64 matrix, so it does not grow with the rows.  Sums of y and y^2
    add the float32 rows in float64, y^2 one ``_row_batches`` batch of
    float64 squares at a time (a lone column, W = 1, is squared whole).
    A byte that a search at ``DEFAULT_STEP`` left on ``am`` is scored from
    those sums, the very ones built here, so the result is the same bits
    whether or not a search ran first.
    """
    if am.rows.shape[0] < 2:
        raise ValueError("need at least 2 traces to correlate")
    sums, y = _ByteSums(am, DEFAULT_STEP, every_prefix=False), am.rows
    n, width = y.shape
    sy = y.sum(axis=0, dtype=np.float64)
    if width == 1:  # numpy sums a lone column pairwise, so batches would move its bits
        syy = np.square(y, dtype=np.float64).sum(axis=0)
    else:  # a sum over axis 0 adds row after row, as a running total would
        syy = np.zeros(width)
        for c0, c1 in _row_batches(n, width):
            syy = np.vstack([syy[None], np.square(y[c0:c1], dtype=np.float64)]).sum(axis=0)
    scores = np.zeros((16, 256), dtype=np.float64)
    undefined = 0
    for p in range(16):
        sh, shh, shy = am._sums[p] if p in am._sums else sums.build(p)
        scores[p], constant = _max_abs_rho(n, sh, shh, sy, syy, shy.copy())
        undefined += int(constant.sum())
    rec_rk = bytearray(16)
    for p in range(16):
        rec_rk[int(aes.SHIFT_ROWS_IMAGE[p])] = int(scores[p].argmax())
    ranks = None
    if true_key is not None:
        ranks = tuple(int(_rank(scores[p], g)) for p, g in enumerate(_true_guesses(true_key)))
    return CpaResult(scores=scores, recovered_key=aes.key_from_last_round_key(bytes(rec_rk)),
                     rank_of_true_key=ranks,
                     undefined_fraction=undefined / (16 * 256))


# ---------------------------------------------------------------------------
# Minimum-traces search
# ---------------------------------------------------------------------------

#: The search scores segments of 1 to SEARCH_CAP blocks first; each later
#: range doubles the largest size (9-16, 17-32, ...).
SEARCH_CAP = 8

#: Segments of one size scored per kernel call: the h*y sums it gathers and
#: the kernel's work array are (SEARCH_CHUNK, W, 256) float64 at most.
SEARCH_CHUNK = 64

#: The most blocks x W the search takes: its (blocks + 1, W, 256) float64
#: prefix buffer stays near 1 GiB.
MAX_SEARCH_CELLS = 1 << 19


def min_traces_search(am: AlignedMatrix, true_key: bytes,
                      step: int = DEFAULT_STEP) -> int | None:
    """Smallest segment size (grid of ``step``) whose attack recovers the key.

    Scores the rows of ``am`` over its full width against its own
    ``ciphertexts``, as ``cpa_attack`` does.  The rows are cut into
    consecutive blocks of ``step``; every contiguous run of blocks is a
    segment, scored by ``_max_abs_rho`` from differences of block prefix
    sums (h and h^2 exact integer sums, each block's h*y sums one BLAS
    product).  A segment succeeds when all 16 true-key bytes rank 1 as
    in ``CpaResult.broken`` (``_rank``: a tie for first fails), so each byte
    scores only the segments every earlier byte ranked first, and once none
    is left the remaining bytes are neither built nor scored.  Sizes are
    scored in capped ranges, 1 to ``SEARCH_CAP`` blocks first, then 9-16,
    17-32 and so on, bytes outer, returning at the first range that holds a
    success; each range builds every byte's hypotheses and prefix sums anew,
    one byte at a time, into one ``_ByteSums``'s prefix arrays.  Success at
    one size does not depend on any other, so the result is exactly the smallest
    successful size, as an exhaustive search over (size, offset) finds it,
    or None when no segment (or not even one block) recovers the key.
    A size's live segments are scored ``SEARCH_CHUNK`` at a time, each from
    its own sums, so the chunk moves no bit.  More than ``MAX_SEARCH_CELLS``
    blocks x W raise ValueError before anything is allocated.

    At ``DEFAULT_STEP`` the search leaves each byte it builds summed over
    all rows in ``am._sums`` (``_ByteSums.build``'s totals, stored once
    built, so a byte whose build raises leaves none), for
    ``cpa_attack``; at another step its h*y totals would add other blocks
    than the CPA's, so it leaves none.
    """
    if step < 2:
        raise ValueError("step must be at least 2")
    if am.rows.shape[0] < step:
        return None
    nblocks, width = am.rows.shape[0] // step, am.rows.shape[1]
    if nblocks * width > MAX_SEARCH_CELLS:
        raise ValueError(f"{nblocks} blocks of {step} rows x W = {width} columns is "
                         f"{nblocks * width} cells, past the search's limit of "
                         f"{MAX_SEARCH_CELLS}")
    sums = _ByteSums(am, step, every_prefix=True)
    # row i of a prefix holds the sum of blocks [0, i); a block's y^2 sum is
    # its own, so squaring whole blocks a row batch at a time moves no bit
    block_yy = [np.square(sums.yb[b0:b1], dtype=np.float64).sum(axis=1)
                for b0, b1 in _row_batches(nblocks, step * width)]
    py, pyy = (np.cumulative_sum(b, axis=0, include_initial=True)
               for b in (sums.yb.sum(axis=1, dtype=np.float64), np.concatenate(block_yy)))
    guesses = _true_guesses(true_key)
    ph, phh, phy = sums.ph, sums.phh, sums.phy
    first, last = 1, min(SEARCH_CAP, nblocks)
    while True:
        # alive[k][s]: every byte scored so far ranks 1 on the k blocks at s
        alive = {k: np.ones(nblocks - k + 1, dtype=bool) for k in range(first, last + 1)}
        for p in range(16):
            total = sums.build(p)
            if step == DEFAULT_STEP:
                am._sums[p] = total
            for k in range(first, last + 1):
                live = np.flatnonzero(alive[k])
                for c0 in range(0, live.size, SEARCH_CHUNK):
                    s = live[c0:c0 + SEARCH_CHUNK]
                    sc, _ = _max_abs_rho(k * step, ph[s + k] - ph[s], phh[s + k] - phh[s],
                                         py[s + k] - py[s], pyy[s + k] - pyy[s],
                                         phy[s + k] - phy[s])
                    alive[k][s] = _rank(sc, guesses[p]) == 1
            found = [k for k, a in alive.items() if a.any()]
            if not found:  # no segment left alive: the later bytes are not built
                break
        if found:
            return found[0] * step
        if last == nblocks:
            return None
        first, last = last + 1, min(2 * last, nblocks)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def fft_spectrum(ts: TraceSet, bin_hz: float) -> SpectrumHistogram:
    """Average energy spectrum of a set, folded into bins of ``bin_hz``.

    Each non-failed row is mean-subtracted, zero-padded to its length
    rounded up to a power of two, n_fft, and transformed, a row batch of
    n_fft-sample rows per ``rfft``; per-bin energies are summed in row order
    (so the batch moves no bit) and averaged.
    The normalization keeps Parseval exact: sum(magnitudes**2) equals the
    mean time-domain energy of the mean-subtracted rows.  A bin narrower
    than the spectrum's resolution, sample rate / n_fft, would only add
    empty bins, so it is refused before anything is allocated.
    """
    rows = np.flatnonzero(~ts.failed)
    if not rows.size:
        raise ValueError("no usable traces")
    n_fft = 1 << (ts.samples.shape[1] - 1).bit_length()
    rate = 1.0 / ts.sample_period_s
    resolution = rate / n_fft
    if not bin_hz >= resolution:
        raise ValueError(f"bin_hz: {bin_hz:g} is below the spectrum's resolution, "
                         f"sample rate / n_fft = {resolution:g} Hz")
    freqs = np.arange(n_fft // 2 + 1) * resolution
    weights = np.full(n_fft // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0  # n_fft is a power of two: even, or 1
    energy = np.zeros(n_fft // 2 + 1)
    for c0, c1 in _row_batches(rows.size, n_fft):
        x = ts.samples[rows[c0:c1]].astype(np.float64)
        x -= x.mean(axis=1, keepdims=True)
        spec = np.fft.rfft(x, n_fft, axis=1)
        # a sum over axis 0 adds row after row, as a running total would
        energy = np.vstack([energy[None], weights * (spec.real ** 2 + spec.imag ** 2)
                            / n_fft]).sum(axis=0)
    energy /= rows.size
    bins = np.floor(freqs / bin_hz).astype(np.int64)
    return SpectrumHistogram(bin_hz=float(bin_hz),
                             magnitudes=np.sqrt(np.bincount(bins, weights=energy)),
                             n_fft=int(n_fft), sample_rate_hz=rate,
                             n_traces=int(rows.size))


# ---------------------------------------------------------------------------
# Duplication (dual-core) analysis
# ---------------------------------------------------------------------------

def peak_permutation_bound(fs, fs2=None, n_traces: int = 1) -> tuple[int, int]:
    """Brute-force positions of the last peak and the total over a capture.

    The final round's peak can land on any slot between the all-fastest and
    all-slowest completion, counted at the slowest period's granularity:
    1 + R * (1 - f_min / f_max) over the union of fundamentals, with R =
    ``aes.ROUNDS``, rounded half-up and clamped to [2, R + 1] (2 because
    duplication alone leaves two final peaks even with zero spread; R + 1
    slots is all an R-edge trace offers).  Returns (per-trace candidates,
    candidates ** n_traces) with exact integer arithmetic.
    """
    if n_traces < 1:
        raise ValueError("n_traces must be at least 1")
    funds = list(fs.fundamentals)
    if fs2 is not None:
        funds += list(fs2.fundamentals)
    f_min, f_max = min(funds), max(funds)
    slots = 1.0 + aes.ROUNDS * (1.0 - f_min / f_max)
    candidates = max(2, min(aes.ROUNDS + 1, int(np.floor(slots + 0.5))))
    return candidates, candidates ** n_traces


def overlap_exploit(ts: TraceSet, candidates: int | None = None,
                    region: str = "last",
                    params: FilterParams | None = None) -> OverlapReport:
    """Find summed-coincidence peaks in dual-core traces and what they buy.

    When the two cores' rising edges land within half a sample of each other
    their pulses stack on the same sample, so the summed amplitude rises
    above anything one core can produce alone.  Single-core pulses dominate
    the peak population, so the pooled median peak amplitude across the set
    estimates the single-pulse scale; a peak above ``OVERLAP_AMP_FACTOR``
    times that scale marks an overlap.  In region "last", an overlap inside
    (or adjacent to) the last-peak candidate span pins the true final peak
    to its two flanking slots, cutting the per-trace candidates to 2; region
    "first" only counts overlaps in the opening three base cycles (useful
    for filtering).  Returns the fraction of non-failed traces with such an
    overlap and the mean candidate count over the overlapping traces.
    """
    if ts.core_count != 2:
        raise ValueError("overlap analysis requires a dual-core trace set")
    if region not in ("first", "last"):
        raise ValueError("region must be 'first' or 'last'")
    params = (params or FilterParams()).resolved(ts.oversampling)
    if candidates is None:
        candidates, _ = peak_permutation_bound(ts.fs, ts.fs2)
    if candidates < 1:
        raise ValueError("candidates must be at least 1")
    live = ~ts.failed
    positions, counts = _row_peaks(ts, params, live)
    amps = ts.samples[np.repeat(np.flatnonzero(live), counts), positions].astype(np.float64)
    scale = float(np.median(amps)) if amps.size else 0.0
    hit = amps > OVERLAP_AMP_FACTOR * scale
    # rows with no peak own no entry; index the rows that have one
    counts = counts[counts > 0]
    row = np.repeat(np.arange(len(counts)), counts)
    if region == "first":
        hit &= positions < 3 * ts.oversampling
    else:
        ends = np.cumsum(counts)
        lo = positions[ends - np.minimum(int(candidates), counts)] - params.min_peak_separation
        hi = positions[ends - 1] + params.min_peak_separation
        hit &= (positions >= lo[row]) & (positions <= hi[row])
    n_considered = int(np.count_nonzero(live))
    n_overlap = len(np.unique(row[hit]))
    frac = n_overlap / n_considered if n_considered else 0.0
    reduced = 2.0 if n_overlap else float(candidates)
    return OverlapReport(overlap_fraction=frac, reduced_candidates=reduced,
                         candidates=int(candidates), n_traces=n_considered)

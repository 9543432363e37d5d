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
its rows' ciphertexts; steps 3 and 4 take that matrix alone.  Given a true
key the CLI runs step 4 first: it leaves each byte it built summed over all
rows in a ``sums`` dict, and step 3 scores those bytes from it, building
only the rest.  On two usable cores step 4 sums the next byte's blocks on
a worker thread while it scores this byte.  Each pass works on the set's
arrays.
``filter_traces`` detects peaks in one ``detect_peaks`` pass over the
non-failed rows (a matrix pass; ``_find_peaks_row``, an exact numpy port of
scipy's ``find_peaks``, only for rows with a plateau or too-close maxima)
and the set it keeps carries them, so ``synchronize``, ``raw_matrix`` and
``overlap_exploit`` with the same (threshold_k, detect_separation) do not
detect again; other passes detect inside the call and store nothing.

``fft_spectrum`` summarizes sets in the frequency domain and
``peak_permutation_bound`` / ``overlap_exploit`` quantify the brute-force
search left to an attacker facing a duplicated (dual-core) device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import aes, clock
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
    """

    rows: np.ndarray
    ciphertexts: np.ndarray
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


def detect_peaks(rows, threshold_k: float = 3.0,
                 min_separation: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Each row's local maxima at or above its mean + k * std, greedily
    separated; returns (flat positions, per-row counts) for an (n, S) matrix,
    or for any ``rows`` with that ``shape`` whose slices ``rows[a:b]`` are
    arrays (``_row_peaks`` passes a ``_RowGather``).

    The peaks are scipy ``find_peaks``'s with that height and a distance of
    ``min_separation`` (which keeps the tallest peak of any cluster).  256
    float64 rows at a time, a peak is a strict local maximum at or above the
    height.  Only a row with a plateau at or above its height, or with two
    such maxima closer than ``min_separation``, goes to ``_find_peaks_row``,
    the exact port of ``find_peaks``: a plateau below the height fails its
    height filter too, and strict maxima are never adjacent, so a distance
    of 2 suppresses none.  Positions are ascending within a row, rows in
    order.
    """
    n, width = rows.shape
    distance = max(1, int(min_separation))
    found_rows, found_pos = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for c0 in range(0, n if width >= 3 else 0, 256):
        x = rows[c0:c0 + 256].astype(np.float64)
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


class _RowGather:
    """Rows ``index`` of ``samples`` as ``detect_peaks`` reads them: a shape
    and row slices, each gathered when sliced, so the rows are never copied
    whole."""

    def __init__(self, samples: np.ndarray, index: np.ndarray):
        self.samples, self.index = samples, index
        self.shape = (len(index), samples.shape[1])

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.samples[self.index[rows]]


def _row_peaks(ts: TraceSet, params: FilterParams, rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Peaks of ``ts``'s ``rows`` (a mask) under resolved ``params``, as (flat
    positions, per-row counts): the set's ``peaks`` if detected with the same
    knobs, else one ``detect_peaks`` pass over those rows, not stored."""
    key = (params.threshold_k, params.detect_separation)
    if ts.peaks is not None and ts.peaks[0] == key:
        _, positions, counts = ts.peaks
        return positions[np.repeat(rows, counts)], counts[rows]
    return detect_peaks(_RowGather(ts.samples, np.flatnonzero(rows)), *key)


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

def _max_abs_rho(n, sh, shh, sy, syy, shy, work=None):
    """(max |rho| per guess, zero-variance hypothesis mask) from the sums
    ``sh``, ``shh`` (..., 256), ``sy``, ``syy`` (..., W), ``shy`` (..., 256, W)
    of h, h^2, y, y^2, h*y over ``n`` traces; leading axes are segments.
    A cell with zero variance on either side scores 0.  When every
    variance is positive, so is every cell's product (it is at least the
    product of the two least), and the cells are divided without the
    mask: the same operations on every cell, so the same bits.  Given
    ``work``, a float64 array shaped like ``shy``, the call computes in
    ``shy`` and ``work``, overwriting both, and allocates no array of
    their size.
    """
    if work is None:
        shy, work = shy.astype(np.float64), np.empty(shy.shape)
    num = np.multiply(shy, n, out=shy)
    np.subtract(num, np.multiply(sh[..., :, None], sy[..., None, :], out=work), out=num)
    varh = n * shh - sh * sh
    vary = n * syy - sy * sy
    den = np.multiply(varh[..., :, None], vary[..., None, :], out=work)
    least_h, least_y = (varh.min(), vary.min()) if den.size else (0, 0)
    if least_h > 0 and least_h * least_y > 0:
        rho = np.divide(num, np.sqrt(den, out=den), out=num)
    else:
        np.sqrt(np.clip(den, 0.0, None, out=den), out=den)
        rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.abs(rho, out=rho).max(axis=-1), varh == 0


def _rank(scores: np.ndarray, guess: int) -> np.ndarray:
    """Rank of ``guess`` in ``scores[..., 256]``: the guesses scoring at
    least as high, itself included, so only a unique maximum ranks 1 and a
    tie (e.g. a byte scoring uniformly 0) counts against the attacker."""
    return (scores >= scores[..., guess, None]).sum(axis=-1)


def _hypothesis_sums(h: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the uint8 hypotheses ``h`` and of ``h*h`` along ``axis``.

    Exact: h <= 8, so h*h fits uint8 and uint32 accumulators hold any sum
    over fewer than 2**26 rows (the float64 (n, 256) matrix of that many
    rows is 137 GB); they add up about twice as fast as int64 ones.  The
    sums are widened to int64 because ``_max_abs_rho``'s variance term,
    n*sum(h*h) - sum(h)**2, can pass 2**32 from 16,384 rows on.
    """
    return (h.sum(axis=axis, dtype=np.uint32).astype(np.int64),
            (h * h).sum(axis=axis, dtype=np.uint32).astype(np.int64))


def _true_guesses(true_key: bytes) -> list[int]:
    """Per register byte position, the true last-round key byte's guess."""
    true_rk = aes.expand_key(true_key)[10]
    return [int(true_rk[int(aes.SHIFT_ROWS_IMAGE[p])]) for p in range(16)]


def cpa_attack(am: AlignedMatrix, true_key: bytes | None = None,
               sums: dict | None = None) -> CpaResult:
    """Correlation attack over an aligned matrix.

    For every register byte position the 256 last-round hypotheses of
    ``am.ciphertexts`` are correlated against every window column; a
    guess's score is its maximum absolute correlation (``_max_abs_rho`` over
    all rows).  Cells with zero variance score 0; zero-variance guesses
    count in ``undefined_fraction``.
    Sums of h and h^2 are exact integer sums of the uint8 hypotheses; sums
    of h*y are one BLAS product per byte, and only that byte's float64
    matrix is alive.  ``sums`` maps a byte position to its (sum h, sum h^2,
    sum h*y) over all rows of ``am``, as ``min_traces_search`` leaves them:
    those bytes are scored from the sums and only the others are built.
    Their h*y sums add block products, so their scores may differ from a
    single product's in the last bits.
    """
    if am.rows.shape[0] < 2:
        raise ValueError("need at least 2 traces to correlate")
    y = am.rows.astype(np.float64)
    sy, syy = y.sum(axis=0), (y * y).sum(axis=0)
    scores = np.zeros((16, 256), dtype=np.float64)
    undefined = 0
    for p in range(16):
        if sums and p in sums:
            sh, shh, shy = sums[p]
        else:
            h = aes.hypothesis_matrix(am.ciphertexts, p)
            sh, shh = _hypothesis_sums(h, axis=0)
            shy = h.astype(np.float64).T @ y
            del h  # the next byte's matrices replace these, never join them
        scores[p], constant = _max_abs_rho(len(y), sh, shh, sy, syy, shy)
        undefined += int(constant.sum())
    rec_rk = bytearray(16)
    for p in range(16):
        rec_rk[int(aes.SHIFT_ROWS_IMAGE[p])] = int(scores[p].argmax())
    ranks = None
    if true_key is not None:
        ranks = tuple(int(_rank(scores[p], g)) for p, g in enumerate(_true_guesses(true_key)))
    return CpaResult(scores=scores, recovered_key=aes.key_from_last_round_key(bytes(rec_rk)),
                     recovered_round_key=bytes(rec_rk),
                     rank_of_true_key=ranks,
                     undefined_fraction=undefined / (16 * 256))


# ---------------------------------------------------------------------------
# Minimum-traces search
# ---------------------------------------------------------------------------

#: The search scores segments of 1 to SEARCH_CAP blocks first; each later
#: range doubles the largest size (9-16, 17-32, ...).
SEARCH_CAP = 8


def _prefix(block_sums: np.ndarray) -> np.ndarray:
    """Prefix sums over blocks: row i holds the sum of blocks [0, i)."""
    out = np.zeros((len(block_sums) + 1,) + block_sums.shape[1:], block_sums.dtype)
    np.cumsum(block_sums, axis=0, out=out[1:])
    return out


class _Ran:
    """A call made at once, waited on like the ``Future`` a pool returns."""

    def __init__(self, fn, *args):
        fn(*args)

    def result(self) -> None:
        return None


def _block_prefix_sums(h: np.ndarray, yb: np.ndarray, tail_y: np.ndarray,
                       out: tuple, scratch: tuple, total: tuple | None) -> None:
    """One byte's block prefix sums (ph, phh, phy) of h, h^2 and h*y into
    ``out``, whose row 0 stays zero; ``total``, when given, gets the sums
    over every row, the tail past the last block included.

    ``h`` is the byte's (rows, 256) uint8 hypotheses, squared in place,
    ``yb`` the (blocks, step, W) float64 rows.  Each block is cast into
    ``scratch``'s (step, 256) float64 matrix for its own BLAS product, added
    in ``_prefix``'s order; h and h^2 sum exactly in uint32.  numpy alone,
    into the caller's arrays, so a worker thread may run it.
    """
    ph, phh, phy = out
    hf, block_sums = scratch
    nblocks, step, _ = yb.shape
    hb, tail = h[:nblocks * step].reshape(nblocks, step, 256), h[nblocks * step:]
    for i in range(nblocks):
        np.copyto(hf, hb[i])
        np.matmul(hf.T, yb[i], out=phy[i + 1])
        if i:
            np.add(phy[i], phy[i + 1], out=phy[i + 1])
    if total is not None:
        np.copyto(hf[:len(tail)], tail)
        np.matmul(hf[:len(tail)].T, tail_y, out=total[2])
        np.add(phy[-1], total[2], out=total[2])
    for j, prefix in enumerate((ph, phh)):
        if j:
            np.multiply(h, h, out=h)  # h <= 8, so h*h fits uint8
        np.sum(hb, axis=1, dtype=np.uint32, out=block_sums)
        np.cumsum(block_sums, axis=0, dtype=np.int64, out=prefix[1:])
        if total is not None:
            np.add(prefix[-1], tail.sum(axis=0, dtype=np.uint32), out=total[j])


def min_traces_search(am: AlignedMatrix, true_key: bytes, step: int = DEFAULT_STEP,
                      sums: dict | None = None) -> int | None:
    """Smallest segment size (grid of ``step``) whose attack recovers the key.

    Scores the rows of ``am`` over its full width against its own
    ``ciphertexts``, as ``cpa_attack`` does.  The rows are cut into
    consecutive blocks of ``step``; every contiguous run of blocks is a
    segment, scored by ``_max_abs_rho`` from differences of block prefix
    sums (h and h^2 exact integer sums, each block's h*y sums one BLAS
    product).  A segment succeeds when all 16 true-key bytes rank 1 as
    in ``CpaResult.broken`` (``_rank``: a tie for first fails), so each byte
    scores only the segments every earlier byte ranked first, and once none
    is left the remaining bytes are not scored.  Sizes are scored in capped
    ranges, 1 to ``SEARCH_CAP`` blocks first, then 9-16, 17-32 and so on,
    bytes outer, returning at the first range that holds a success; each
    range builds every byte's hypotheses and prefix sums anew, one byte at a
    time.  Success at one size does not depend on any other, so the result
    is exactly the smallest successful size, as an exhaustive search over
    (size, offset) finds it, or None when no segment (or not even one block)
    recovers the key.

    With two usable cores, the next byte's prefix sums are computed on one
    worker thread while this byte's segments are scored.  The next byte is
    built only once this one has left a segment alive (its range's largest
    size is scored first, and almost always does), so exactly the bytes a
    serial search builds are built, in its order.  Its hypotheses are built
    on the calling thread; the worker writes into arrays allocated here, and
    it is gone when the call returns or raises.  With one core there is no
    thread.

    Given a dict ``sums``, the search leaves in it, for each byte it builds,
    that byte's (sum h, sum h^2, sum h*y) over all rows of ``am``: its block
    totals plus the rows past the last full block, from the same hypothesis
    build.  ``cpa_attack(..., sums=sums)`` then builds only the other bytes.
    """
    if step < 2:
        raise ValueError("step must be at least 2")
    if am.rows.shape[0] < step:
        return None
    if clock._usable_cores() < 2:
        return _search(am, true_key, step, sums, _Ran)
    from concurrent.futures import ThreadPoolExecutor  # as in clock.simulate_mux_clock
    with ThreadPoolExecutor(1) as pool:
        return _search(am, true_key, step, sums, pool.submit)


def _search(am: AlignedMatrix, true_key: bytes, step: int, sums: dict | None,
            submit) -> int | None:
    """``min_traces_search`` with each byte's prefix sums run by ``submit``."""
    nblocks, width = am.rows.shape[0] // step, am.rows.shape[1]
    rows = nblocks * step
    yb = am.rows[:rows].astype(np.float64).reshape(nblocks, step, width)
    tail_y = am.rows[rows:].astype(np.float64)
    py, pyy = _prefix(yb.sum(axis=1)), _prefix((yb * yb).sum(axis=1))
    guesses = _true_guesses(true_key)
    # byte p's prefix sums go to buffer p % 2: one is scored, the other filled
    buffers = [(np.zeros((nblocks + 1, 256), np.int64), np.zeros((nblocks + 1, 256), np.int64),
                np.zeros((nblocks + 1, 256, width))) for _ in range(2)]
    scratch = (np.empty((step, 256)), np.empty((nblocks, 256), np.uint32))
    # a size's gathered h*y sums and the kernel's work array, for every segment
    gathered = np.empty((2, nblocks, 256, width))

    def build(p: int):
        h = aes.hypothesis_matrix(am.ciphertexts, p)
        total = None
        if sums is not None and p not in sums:
            total = sums[p] = (np.empty(256, np.int64), np.empty(256, np.int64),
                               np.empty((256, width)))
        return submit(_block_prefix_sums, h, yb, tail_y, buffers[p % 2], scratch, total)

    first, last = 1, min(SEARCH_CAP, nblocks)
    while True:
        # alive[k][s]: every byte scored so far ranks 1 on the k blocks at s
        alive = {k: np.ones(nblocks - k + 1, dtype=bool) for k in range(first, last + 1)}
        pending = build(0)
        for p in range(16):
            if pending is None:  # no segment left alive
                break
            pending.result()
            pending = None
            ph, phh, phy = buffers[p % 2]
            for k in (last, *range(first, last)):
                s = np.flatnonzero(alive[k])
                if not s.size:
                    continue
                shy, work = gathered[:, :s.size]
                np.take(phy, s + k, axis=0, out=shy, mode="clip")  # "clip" copies unbuffered
                np.subtract(shy, np.take(phy, s, axis=0, out=work, mode="clip"), out=shy)
                sc, _ = _max_abs_rho(k * step, ph[s + k] - ph[s], phh[s + k] - phh[s],
                                     py[s + k] - py[s], pyy[s + k] - pyy[s], shy, work)
                alive[k][s] = survived = _rank(sc, guesses[p]) == 1
                if pending is None and p < 15 and survived.any():
                    pending = build(p + 1)  # scored on the next pass, built meanwhile
        found = [k for k, a in alive.items() if a.any()]
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
    rounded up to a power of two, and transformed, 256 rows per batched
    ``rfft``; per-bin energies are summed in row order and averaged.
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
    for c0 in range(0, rows.size, 256):
        x = ts.samples[rows[c0:c0 + 256]].astype(np.float64)
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

"""Attack pipeline: peak detection, filtering, alignment, CPA, spectra.

The minimum-trace search's block statistics are cross-checked against a
direct per-segment correlation oracle, CPA scores against a two-pass
Pearson routine written out here, and that routine, like the in-module
port of ``find_peaks``, against scipy's reference implementation.
"""

import dataclasses
import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from scipy.signal import find_peaks

from clockmux import aes, attack, cli, clock
from clockmux.attack import (
    AlignedMatrix,
    FilterParams,
    cpa_attack,
    detect_peaks,
    fft_spectrum,
    filter_traces,
    min_traces_search,
    overlap_exploit,
    peak_permutation_bound,
    raw_matrix,
    synchronize,
)
from clockmux.clock import FrequencySet
from clockmux.config import ExperimentConfig
from clockmux.presets import STUDY_SETS, dual_reference_pair, study_set
from clockmux.traces import TraceSet, generate_set, write_trace_set

KEY = bytes(range(16))
KEY2 = bytes(range(16, 32))


def degenerate(base_hz=10e6):
    return FrequencySet(base_hz=base_hz, fundamentals=(base_hz,) * 4)


def fixed_clock_set(n_traces, seed=1, noise_sigma=0.0, oversampling=8):
    return generate_set(degenerate(), KEY, n_traces, seed=seed,
                        noise_sigma=noise_sigma, oversampling=oversampling)


# ---------------------------------------------------------------------------
# Peak detection and filter rules
# ---------------------------------------------------------------------------

def test_detect_peaks_finds_constructed_peaks():
    samples = np.zeros(120)
    for pos, amp in ((20, 10.0), (50, 8.0), (83, 12.0)):
        samples[pos] = amp
    peaks, counts = detect_peaks(samples[None], threshold_k=3.0, min_separation=2)
    assert peaks.tolist() == [20, 50, 83] and counts.tolist() == [3]


def test_detect_peaks_suppresses_close_cluster():
    samples = np.zeros(120)
    samples[40] = 10.0
    samples[42] = 8.0
    samples[80] = 9.0
    peaks, _ = detect_peaks(samples[None], threshold_k=2.0, min_separation=4)
    assert peaks.tolist() == [40, 80]
    assert detect_peaks(np.zeros((1, 2)))[0].size == 0


def test_detect_peaks_matches_find_peaks_row_for_row(monkeypatch):
    sent = set()
    real = attack._find_peaks_row
    monkeypatch.setattr(attack, "_find_peaks_row",
                        lambda x, **kw: sent.add(x.tobytes()) or real(x, **kw))
    odd = np.zeros((3, 90), dtype=np.float32)
    odd[0, 40] = np.nan
    odd[2, 10::20] = 1.0
    # mean 2, std 1: at k = 1 both peaks sit exactly at the height
    at_height = np.array([[1, 3] * 3], dtype=np.float32)
    # (samples, k, separation, row index or None for every row)
    corpus = [(odd, 3.0, 2, None), (at_height, 1.0, 2, None),
              (np.ones((4, 2), dtype=np.float32), 3.0, 2, None),
              (np.zeros((0, 50), dtype=np.float32), 3.0, 2, None)]
    for sigma in (0.0, 0.5, 5.0):
        for ov in (12, 24, 32):
            x = generate_set(study_set(1).fs, KEY, 24, oversampling=ov, seed=3,
                             noise_sigma=sigma).samples
            own = FilterParams().resolved(ov).detect_separation
            # a two-sample running max flattens every pulse's apex into a plateau
            for rows in (x, np.maximum(x[:, 1:], x[:, :-1])):
                corpus += [(rows, 3.0, own, None), (rows, 2.0, 4, None), (rows, 1.0, 6, None)]
    # indexed rows: every other row (of 600, so the 300-row index spans five
    # 68-row batches of these 960-sample rows), one row, and none
    stack = np.concatenate([x + np.float32(i) * x[::-1] for i in range(25)])
    corpus += [(stack, 3.0, own, np.arange(0, len(stack), 2)), (x, 2.0, 4, np.array([5])),
               (x, 3.0, own, np.empty(0, np.intp))]
    plateau, close = [], []
    for samples, k, sep, index in corpus:
        positions, counts = detect_peaks(samples, k, sep, rows=index)
        rows = samples if index is None else samples[index]
        if index is not None:
            gathered = detect_peaks(rows, k, sep)
            assert np.array_equal(positions, gathered[0])
            assert np.array_equal(counts, gathered[1])
        ref = []
        for row in rows.astype(np.float64):
            if row.size < 3:
                ref.append(np.empty(0, np.int64))
                continue
            height = row.mean() + k * row.std()
            ref.append(find_peaks(row, height=height, distance=sep)[0])
            raw, props = find_peaks(row, height=height, plateau_size=1)
            if (props["plateau_sizes"] > 1).any():
                plateau.append(row.tobytes())
            elif (np.diff(raw) < sep).any():
                close.append(row.tobytes())
        assert np.array_equal(counts, [len(p) for p in ref])
        assert np.array_equal(positions, np.concatenate([np.empty(0, np.int64), *ref]))
    # both rows the strict-maximum mask cannot answer occur and go to the port
    assert plateau and close
    assert set(plateau) <= sent and set(close) <= sent


# 28 peaks two samples apart, of two heights: at a distance of 3, which of
# two equal neighbours survives follows np.argsort's (unstable) tie order
TIED_HEIGHTS = [2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 1, 1, 2, 2, 1, 2]

FIND_PEAKS_EDGES = [
    # (row, height, distance, peaks); the peaks are also checked against scipy
    ([0, 1, 2, 2, 2], 0.0, 1, []),                   # plateau reaching the last sample
    ([2, 2, 1, 3, 3, 3], 0.0, 1, []),                # ... and the first
    ([0, 2, 2, 1], 0.0, 1, [1]),                     # even width: midpoint rounds down
    ([0, 3, 3, 3, 3, 0, 1, 1, 0], 0.0, 1, [2, 6]),
    ([0, 3, 3, 0, 2.5, 0], 3.0, 1, [1]),             # plateau exactly at the height
    ([0, 5, 0, 5, 0, 5, 0], 0.0, 3, None),           # equal heights, too close
    ([v for h in TIED_HEIGHTS for v in (0, h)] + [0], 0.0, 3, None),  # argsort's tie order
    ([0, 1, 0, 4, 0, 2, 1, 3, 0], 0.0, 2.5, None),   # distance rounds up
    ([0, 1, 0, 4, 0, 2, 1, 3, 0, 3.5, 0], 0.0, 50, [3]),  # distance past the row
    ([0, np.nan, 0, 2, 0], 0.0, 1, [3]),             # NaN is never a peak
    ([0, 2, 2, np.nan, 2, 2, 0], 0.0, 1, []),        # NaN breaks a plateau
    ([0, 2, np.nan, 3, 1], 0.0, 1, []),              # a NaN neighbour is never lower
    ([np.nan] * 5, 0.0, 1, []),
    ([0, 2, 0, 3, 0], np.nan, 1, []),                # NaN height keeps nothing
    ([], 0.0, 1, []),                                # shorter than 3 samples
    ([1.0], 0.0, 1, []),
    ([1.0, 2.0], 0.0, 1, []),
]


@pytest.mark.parametrize("row, height, distance, expected", FIND_PEAKS_EDGES)
def test_find_peaks_row_edge_cases(row, height, distance, expected):
    x = np.asarray(row, dtype=np.float64)
    peaks = attack._find_peaks_row(x, height=height, distance=distance)
    assert np.array_equal(peaks, find_peaks(x, height=height, distance=distance)[0])
    assert peaks.dtype == np.int64
    if expected is not None:
        assert peaks.tolist() == expected


def test_find_peaks_row_matches_scipy_on_small_integer_rows():
    # small integers make plateaus and equal heights common
    rng = np.random.default_rng(11)
    plateaus = ties = 0
    for _ in range(2000):
        x = rng.integers(0, 5, int(rng.integers(0, 40))).astype(np.float64)
        if x.size and rng.random() < 0.2:
            x[rng.integers(0, x.size, 2)] = np.nan
        height, distance = float(rng.integers(-1, 5)), int(rng.integers(1, 8))
        ref = find_peaks(x, height=height, distance=distance)[0]
        assert np.array_equal(attack._find_peaks_row(x, height=height,
                                                     distance=distance), ref)
        raw, props = find_peaks(x, height=height, plateau_size=1)
        plateaus += int((props["plateau_sizes"] > 1).any())
        ties += int(len(raw) > len(ref) and len(np.unique(x[raw])) < len(raw))
    assert plateaus > 200 and ties > 200


def test_filter_params_resolution():
    p = FilterParams().resolved(12)
    assert p.min_peak_separation == 3
    assert p.detect_separation == 2
    q = FilterParams(min_peak_separation=8).resolved(12)
    assert q.min_peak_separation == 8
    assert q.detect_separation == 4


def hand_set(rows, failed=None, clock_edges=None, fs=None, oversampling=8, **dual):
    """A set of the sample ``rows`` with all-zero plaintexts and ciphertexts;
    ``dual`` passes key2 and fs2."""
    n = len(rows)
    return TraceSet(samples=np.array(rows, np.float32).reshape(n, -1),
                    plaintexts=np.zeros((n, 16), np.uint8),
                    ciphertexts=np.zeros((n, 16), np.uint8),
                    failed=np.zeros(n, bool) if failed is None else np.array(failed, bool),
                    key=KEY, fs=fs or degenerate(), oversampling=oversampling, noise_sigma=0.0,
                    clock_edges=clock_edges, **dual)


def clean_samples(n=240, spacing=16, count=12, amp=60.0):
    s = np.zeros(n)
    for k in range(1, count + 1):
        s[spacing * k] = amp
    return s


def test_filter_removes_failed_low_peak_and_close_peak_traces():
    crowded_samples = clean_samples()
    crowded_samples[131] = 55.0  # 3 samples from the peak at 128
    # good, failed, sparse, crowded
    ts = hand_set([clean_samples(), clean_samples(), clean_samples(count=4),
                   crowded_samples], failed=[False, True, False, False], oversampling=16)
    good = ts.take([0])
    params = FilterParams(expected_peaks=10, min_peak_separation=4)
    kept, removed, failed_frac = filter_traces(ts, params)
    assert kept == good
    assert np.array_equal(kept.samples, ts.samples[[0]])
    assert failed_frac == pytest.approx(1 / 4)
    assert removed == pytest.approx(2 / 4)


def test_filter_rejects_undersampled_clock_metadata():
    fine = np.arange(11) * 100e-9
    coarse = np.array([0.0, 10e-9] + list(np.arange(2, 11) * 100e-9))
    ts = hand_set([clean_samples()] * 2, clock_edges=np.array([[fine], [coarse]]))
    kept, removed, failed_frac = filter_traces(ts)
    assert len(kept) == 1 and np.array_equal(kept.clock_edges, ts.clock_edges[[0]])
    assert removed == pytest.approx(0.5) and failed_frac == 0.0


def test_filter_keeps_input_order():
    ts = generate_set(study_set(1).fs, KEY, 80, oversampling=12, seed=3)
    kept, _, _ = filter_traces(ts)
    order = [next(i for i in range(len(ts)) if ts.take([i]) == kept.take([j]))
             for j in range(len(kept))]
    assert order == sorted(order)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def test_synchronize_fixed_clock_aligns_exactly():
    ts = fixed_clock_set(20)
    am = synchronize(ts, round=10, window_halfwidth=8)
    assert am.rows.shape == (20, 17)
    assert am.rows.shape[1] // 2 == 8
    assert np.all(am.peak_positions == 80)
    assert np.array_equal(am.ciphertexts, ts.ciphertexts)
    # every aligned row carries its round-10 Hamming distance at the centre
    assert np.array_equal(am.rows[:, 8], ts.samples[:, 80])


def test_synchronize_drops_traces_that_cannot_fill_window():
    ts = fixed_clock_set(5)
    # 2 * 10**10 + 1 columns would not fit in memory, nor 10**30 in an int64
    for w in (200, 10**10, 10**30):
        am = synchronize(ts, round=10, window_halfwidth=w)
        assert am.rows.shape[0] == 0
        assert am.ciphertexts.shape == (0, 16) and am.ciphertexts.dtype == np.uint8
        assert am.peak_positions.shape == (0,) and am.max_delay_samples == 0
    with pytest.raises(ValueError):
        synchronize(ts, round=0)
    with pytest.raises(ValueError):
        synchronize(ts, round=0, window_halfwidth=10**10)  # refused before the early return
    with pytest.raises(ValueError):
        synchronize(ts, round=10, window_halfwidth=-1)  # would keep (n, 0) rows
    for r in (0, -3):  # would index the previous row's peaks
        with pytest.raises(ValueError):
            raw_matrix(ts, round=r)


def expected_sync_rows(kept, w, round=10):
    """Indices of ``kept``'s rows whose ``round``-th peak, detected one row
    at a time, leaves room for a window of half-width ``w``."""
    params = FilterParams().resolved(kept.oversampling)
    rows = []
    for i, samples in enumerate(kept.samples):
        peaks, _ = detect_peaks(samples[None], params.threshold_k, params.detect_separation)
        if len(peaks) >= round and w <= peaks[round - 1] < samples.size - w:
            rows.append(i)
    return rows


def test_synchronize_carries_the_kept_rows_ciphertexts_in_order():
    ts = generate_set(study_set(6).fs, KEY, 150, oversampling=12, seed=8)
    kept, _, _ = filter_traces(ts)
    w = 100  # wider than some rows' round-10 peak lies from the start
    rows = expected_sync_rows(kept, w)
    assert 0 < len(rows) < len(kept)  # synchronization trims this set
    am = synchronize(kept, round=10, window_halfwidth=w)
    assert am.ciphertexts.dtype == np.uint8
    assert np.array_equal(am.ciphertexts, kept.ciphertexts[rows])
    centre = am.peak_positions[:, None] + np.arange(-w, w + 1)
    assert np.array_equal(am.rows, kept.samples[np.array(rows)[:, None], centre])


def test_dual_core_matrices_carry_core_one_ciphertexts():
    fs1, fs2 = dual_reference_pair()
    ts = generate_set(fs1, KEY, 40, oversampling=8, seed=5, fs2=fs2, key2=KEY2)
    kept, _, _ = filter_traces(ts)
    rows = expected_sync_rows(kept, 70)
    assert 0 < len(rows) < len(kept)
    _, ct2 = aes.encrypt_blocks_with_states(KEY2, kept.plaintexts)
    assert not (kept.ciphertexts == ct2).all(axis=1).any()
    am = synchronize(kept, round=10, window_halfwidth=70)
    assert np.array_equal(am.ciphertexts, kept.ciphertexts[rows])
    assert np.array_equal(raw_matrix(kept, round=10).ciphertexts, kept.ciphertexts)


def test_raw_matrix_pads_and_keeps_everything():
    ts = fixed_clock_set(6)
    am = raw_matrix(ts, round=10)
    assert am.rows.shape == (6, 240)
    assert am.ciphertexts is ts.ciphertexts
    assert np.all(am.peak_positions == 80)


# ---------------------------------------------------------------------------
# One peak pass per trace
# ---------------------------------------------------------------------------

def study_set_with_failures(seed=5):
    ts = generate_set(study_set(1).fs, KEY, 80, oversampling=12, seed=seed,
                      noise_sigma=0.5)
    assert ts.failed.any()
    return ts


def test_pipeline_detects_each_trace_once(monkeypatch):
    calls = []
    real = attack.detect_peaks
    monkeypatch.setattr(attack, "detect_peaks",
                        lambda samples, *a, rows=None: calls.append(samples[rows])
                        or real(samples, *a, rows=rows))
    ts = study_set_with_failures()
    kept, _, _ = filter_traces(ts)
    min_traces_search(synchronize(kept, round=10), KEY, step=10)
    min_traces_search(raw_matrix(kept, round=10), KEY, step=10)
    # one pass, in filter_traces, over exactly the non-failed rows
    assert len(calls) == 1
    assert np.array_equal(calls[0], ts.samples[~ts.failed])


def test_other_threshold_detects_afresh():
    ts = study_set_with_failures()
    filter_traces(ts)
    params = FilterParams(threshold_k=2.0)
    kept, removed, failed = filter_traces(ts, params)
    fresh_kept, fresh_removed, fresh_failed = filter_traces(
        study_set_with_failures(), params)
    default_kept, _, _ = filter_traces(study_set_with_failures())
    assert kept == fresh_kept
    assert (removed, failed) == (fresh_removed, fresh_failed)
    assert not all(np.array_equal(getattr(kept, a), getattr(default_kept, a))
                   for a in ("samples", "plaintexts", "ciphertexts", "failed"))


def test_attack_leaves_the_set_equal_and_its_bytes_unchanged(tmp_path, monkeypatch):
    calls = []
    real = attack.detect_peaks
    monkeypatch.setattr(attack, "detect_peaks",
                        lambda samples, *a, rows=None: calls.append(samples[rows])
                        or real(samples, *a, rows=rows))
    ts = study_set_with_failures()
    before = tmp_path / "before.bin"
    write_trace_set(ts, before)
    kept, _, _ = filter_traces(ts)
    min_traces_search(synchronize(kept, round=10), KEY, step=10)
    assert len(calls) == 1
    assert np.array_equal(calls[0], ts.samples[~ts.failed])
    # the kept set carries each kept row's peaks; the input set is not written to
    key, positions, counts = kept.peaks
    params = FilterParams().resolved(ts.oversampling)
    assert key == (params.threshold_k, params.detect_separation)
    found = [real(row[None], *key)[0] for row in kept.samples]
    assert counts.tolist() == [len(p) for p in found]
    assert np.array_equal(positions, np.concatenate(found))
    assert ts.peaks is None
    assert ts == study_set_with_failures()
    after = tmp_path / "after.bin"
    write_trace_set(ts, after)
    assert after.read_bytes() == before.read_bytes()


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (a constant input)."""


def pearson(x, y) -> float:
    """Sample correlation coefficient, written out two-pass (the reference).

    r = sum((x - xbar)(y - ybar)) / sqrt(sum((x - xbar)^2) sum((y - ybar)^2))

    Raises UndefinedCorrelationError when either input is constant (the
    attack scores such a cell 0 and flags it).
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


def test_pearson_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40) + 0.3 * x
        ours = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y).statistic
        assert ours == pytest.approx(ref, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_rejects_bad_input():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_cpa_recovers_key_on_noiseless_fixed_clock():
    ts = fixed_clock_set(600)
    am = synchronize(ts, round=10, window_halfwidth=8)
    res = cpa_attack(am, true_key=KEY)
    assert res.recovered_key == KEY
    assert res.rank_of_true_key == (1,) * 16
    assert res.broken
    assert res.undefined_fraction == 0.0
    # a tight window around the centre works as well
    res2 = cpa_attack(synchronize(ts, round=10, window_halfwidth=2), true_key=KEY)
    assert res2.recovered_key == KEY


def test_cpa_fails_on_mismatched_ciphertexts():
    ts = fixed_clock_set(600)
    am = synchronize(ts, round=10, window_halfwidth=8)
    # correlate trace i's samples against trace i+1's ciphertext
    rolled = dataclasses.replace(am, ciphertexts=np.roll(am.ciphertexts, -1, axis=0))
    res = cpa_attack(rolled, true_key=KEY)
    assert not res.broken
    assert max(res.rank_of_true_key) > 32


def test_cpa_flags_constant_hypotheses_instead_of_claiming_recovery():
    ts = generate_set(degenerate(), KEY, 100, oversampling=8, seed=2)
    am = synchronize(ts, round=10, window_halfwidth=8)
    # every row scored against one ciphertext: each guess's hypothesis is constant
    am = dataclasses.replace(am, ciphertexts=np.repeat(am.ciphertexts[:1],
                                                       len(am.ciphertexts), axis=0))
    res = cpa_attack(am, true_key=KEY)
    assert res.undefined_fraction == 1.0
    assert np.all(res.scores == 0.0)
    assert not res.broken
    assert res.rank_of_true_key == (256,) * 16


def test_cpa_needs_two_traces_and_valid_window():
    ts = fixed_clock_set(5)
    am = synchronize(ts, round=10, window_halfwidth=8)
    one = AlignedMatrix(rows=am.rows[:1], ciphertexts=am.ciphertexts[:1],
                        peak_positions=am.peak_positions[:1])
    with pytest.raises(ValueError):
        cpa_attack(one)
    # a window too wide for any row leaves nothing to correlate
    with pytest.raises(ValueError):
        cpa_attack(synchronize(ts, round=10, window_halfwidth=200))


@pytest.mark.parametrize("columns", [slice(3, 4), slice(3, 10), slice(None)],
                         ids=["1-column", "7-columns", "13-columns"])
def test_cpa_scores_match_two_pass_pearson(monkeypatch, columns):
    # an oracle independent of the shared one-pass kernel: the min-traces
    # oracle below calls cpa_attack, which scores through that kernel.  The
    # kernel fed float64 sums of h and h^2 gives the very scores cpa_attack
    # gets from its integer sums.  Windows of 1 and 7 columns off centre and
    # all 13: at one column numpy may take the product through gemv.  The
    # CPA squares y three rows a batch (a lone column whole), yet its sum of
    # y^2 is the whole-matrix square's to the bit.
    ts = generate_set(study_set(1).fs, KEY, 60, oversampling=12, seed=7,
                      noise_sigma=1.0)
    kept, _, _ = filter_traces(ts)
    am = synchronize(kept, round=10, window_halfwidth=6)
    am = dataclasses.replace(am, rows=am.rows[:, columns])
    monkeypatch.setattr(clock, "BATCH_SAMPLES", 3 * am.rows.shape[1])
    res = cpa_attack(am)
    y = am.rows
    cts = am.ciphertexts
    yf = y.astype(np.float64)
    for p in range(16):
        h = aes.hypothesis_matrix(cts, p)
        hf = h.astype(np.float64)
        float_sums, _ = attack._max_abs_rho(len(y), hf.sum(axis=0), (hf * hf).sum(axis=0),
                                            yf.sum(axis=0), (yf * yf).sum(axis=0), yf.T @ hf)
        assert np.array_equal(res.scores[p], float_sums)
        ref = np.zeros(256)
        for g in range(256):
            for c in range(y.shape[1]):
                try:
                    ref[g] = max(ref[g], abs(pearson(h[:, g], y[:, c])))
                except UndefinedCorrelationError:
                    pass
        np.testing.assert_allclose(res.scores[p], ref, rtol=0, atol=1e-12)


def test_cpa_integer_sums_stay_exact_past_32_bits():
    # at byte 1, guess 0's hypotheses alternate 0 and 8, so over 20,000 rows
    # n * sum(h*h) - sum(h)**2 = 16 n**2 passes 2**32: uint32 sums would
    # wrap there, so they must reach the kernel widened
    n = 20000
    rng = np.random.default_rng(11)
    cts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    cts[:, 1] = aes.INV_SBOX[cts[:, 13]] ^ np.where(np.arange(n) % 2, 0xFF, 0)
    y = rng.standard_normal((n, 2)).astype(np.float32)
    am = AlignedMatrix(rows=y, ciphertexts=cts, peak_positions=np.full(n, -1))
    res = cpa_attack(am)
    yf = y.astype(np.float64)
    hf = aes.hypothesis_matrix(cts, 1).astype(np.float64)
    sh, shh = hf.sum(axis=0), (hf * hf).sum(axis=0)
    assert n * shh[0] - sh[0] ** 2 > 2**32
    float_sums, _ = attack._max_abs_rho(n, sh, shh, yf.sum(axis=0), (yf * yf).sum(axis=0),
                                        yf.T @ hf)
    assert np.array_equal(res.scores[1], float_sums)


def masked_max_abs_rho(n, sh, shh, sy, syy, shy):
    """The kernel's general form: every cell divided under a positive-
    denominator mask, zero-variance cells scored 0; ``shy`` is (..., W, 256)."""
    num = n * shy - sy[..., :, None] * sh[..., None, :]
    varh = n * shh - sh * sh
    vary = n * syy - sy * sy
    den = np.sqrt(np.clip(vary[..., :, None] * varh[..., None, :], 0.0, None))
    rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.abs(rho).max(axis=-2), varh == 0


@pytest.mark.parametrize("case", ["random", "zero-variance guess", "constant column"])
def test_max_abs_rho_divides_unmasked_only_where_the_masked_form_gives_the_same_bits(case):
    # three segments of 50 rows, 256 guesses, 5 columns
    rng = np.random.default_rng(17)
    h = rng.integers(0, 9, (3, 50, 256)).astype(np.int64)
    y = rng.standard_normal((3, 50, 5))
    if case == "zero-variance guess":
        h[1, :, 7] = 4
    if case == "constant column":
        y[2, :, 3] = 0.5
    sums = (h.sum(axis=1), (h * h).sum(axis=1), y.sum(axis=1), (y * y).sum(axis=1),
            y.transpose(0, 2, 1) @ h.astype(np.float64))
    # only the random sums take the unmasked form: every variance positive
    sh, shh, sy, syy, _ = sums
    positive = (50 * shh - sh * sh > 0).all() and (50 * syy - sy * sy > 0).all()
    assert positive == (case == "random")
    expected_scores, expected_mask = masked_max_abs_rho(50, *sums)
    assert expected_mask.any() == (case == "zero-variance guess")
    scores, mask = attack._max_abs_rho(50, *sums[:4], sums[4].copy())
    assert np.array_equal(scores, expected_scores) and np.array_equal(mask, expected_mask)


# ---------------------------------------------------------------------------
# Minimum-trace search
# ---------------------------------------------------------------------------

def aligned(ts, window_halfwidth):
    kept, _, _ = filter_traces(ts)
    return synchronize(kept, round=10, window_halfwidth=window_halfwidth)


def direct_min_traces(ts, true_key, step, window_halfwidth):
    am = aligned(ts, window_halfwidth)
    n = am.rows.shape[0]
    best = None
    for k in range(1, n // step + 1):
        for start in range(0, n - k * step + 1, step):
            sub = AlignedMatrix(rows=am.rows[start:start + k * step],
                                ciphertexts=am.ciphertexts[start:start + k * step],
                                peak_positions=am.peak_positions[start:start + k * step])
            res = cpa_attack(sub, true_key=true_key)
            if res.broken:
                best = k * step
                break
        if best is not None:
            break
    return best


def test_min_traces_search_matches_direct_oracle():
    for noise_sigma, step, expected in (
            (2.0, 100, 600),   # k* 6 of 6 blocks: the first range (1-8)
            (2.0, 20, 600),    # k* 30 of 34 blocks: the third range (17-32)
            (3.0, 20, None)):  # 34 blocks, every range scored, no success
        ts = fixed_clock_set(700, seed=13, noise_sigma=noise_sigma)
        am = aligned(ts, 8)
        min_traces = min_traces_search(am, KEY, step=step)
        assert min_traces == direct_min_traces(ts, KEY, step=step, window_halfwidth=8)
        assert min_traces == expected


def test_min_traces_search_reports_failure_and_validates_step():
    ts = fixed_clock_set(120, seed=3, noise_sigma=30.0)
    am = aligned(ts, 8)
    assert min_traces_search(am, KEY, step=60) is None
    # two full blocks, neither alone nor together enough to recover the key
    am = aligned(fixed_clock_set(120, seed=3, noise_sigma=2.0), 8)
    assert am.rows.shape[0] == 120
    assert min_traces_search(am, KEY, step=60) is None
    with pytest.raises(ValueError):
        min_traces_search(am, KEY, step=1)


def leaking_set(cts):
    """A matrix of ``cts`` whose window column p is byte p's true hypothesis."""
    true_rk = aes.expand_key(KEY)[10]
    y = np.stack([aes.hypothesis_matrix(cts, p)[:, true_rk[int(aes.SHIFT_ROWS_IMAGE[p])]]
                  for p in range(16)], axis=1).astype(np.float32)
    return AlignedMatrix(rows=y, ciphertexts=cts, peak_positions=np.full(len(cts), -1))


def twin_ciphertexts():
    """4,000 random ciphertext rows, the mask of those on which byte 5's true
    guess and the next guess have the same hypothesis, and that true guess."""
    true_rk = aes.expand_key(KEY)[10]
    g_true = int(true_rk[int(aes.SHIFT_ROWS_IMAGE[5])])
    cts = np.random.default_rng(4).integers(0, 256, (4000, 16), dtype=np.uint8)
    h5 = aes.hypothesis_matrix(cts, 5)
    return cts, h5[:, g_true] == h5[:, g_true + 1], g_true


def test_a_tie_for_first_breaks_neither_the_search_nor_cpa():
    # each window column leaks one byte's true hypothesis; at position 5 every
    # row also gives a later guess the same hypothesis, so that guess ties
    true_rk = aes.expand_key(KEY)[10]
    cts, twin, g_true = twin_ciphertexts()
    am = leaking_set(cts[:64])
    assert cpa_attack(am, true_key=KEY).broken
    assert min_traces_search(am, KEY, step=64) == 64
    am = leaking_set(cts[twin][:64])
    res = cpa_attack(am, true_key=KEY)
    assert res.rank_of_true_key == (1,) * 5 + (2,) + (1,) * 10
    assert res.scores[5, g_true] == res.scores[5, g_true + 1]
    # the first maximum is the true guess, yet a tie does not rank 1
    assert aes.expand_key(res.recovered_key)[10] == bytes(true_rk) and not res.broken
    assert min_traces_search(am, KEY, step=64) is None


@pytest.mark.parametrize("n_traces, seed, step, rows, built", [
    # k* 6 blocks: the search builds every byte; 99 rows past the last block
    (700, 13, 100, 699, list(range(16))),
    # unbroken, 2 blocks and no row past them: only bytes 0-1 are built
    (120, 3, 60, 120, [0, 1]),
    # unbroken, 9 blocks of 60 and 59 rows past them: bytes 0-10 are built
    (600, 13, 60, 599, list(range(11))),
    # fewer rows than one block: the search builds nothing
    (120, 3, 200, 120, []),
    # the default step: k* 3 blocks, every byte built; 49 rows past the last block
    (1100, 13, attack.DEFAULT_STEP, 1099, list(range(16))),
    # the default step, unbroken: bytes 0-7 built; 199 rows past the last block
    (700, 13, attack.DEFAULT_STEP, 699, list(range(8))),
])
def test_cpa_from_search_sums_matches_one_product(monkeypatch, n_traces, seed, step,
                                                  rows, built):
    am = aligned(fixed_clock_set(n_traces, seed=seed, noise_sigma=2.0), 8)
    assert am.rows.shape[0] == rows
    plain = cpa_attack(am, true_key=KEY)
    assert am._sums == {}  # the CPA leaves nothing behind
    _, sums, builds, _ = traced_search(monkeypatch, am, step)
    assert sorted(set(builds)) == built
    # only a search at the default step leaves its sums, the CPA's own
    assert sorted(sums) == (built if step == attack.DEFAULT_STEP else [])
    cts = am.ciphertexts
    for p, (sh, shh, _) in sums.items():
        # exact integer sums over every row, the tail past the last block included
        h = aes.hypothesis_matrix(cts, p).astype(np.int64)
        assert np.array_equal(sh, h.sum(axis=0)) and np.array_equal(shh, (h * h).sum(axis=0))
    builds = []
    real = aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix",
                        lambda cts, p: builds.append(p) or real(cts, p))
    shared = cpa_attack(am, true_key=KEY)
    assert builds == [p for p in range(16) if p not in sums]
    assert np.array_equal(shared.scores, plain.scores)
    assert shared.recovered_key == plain.recovered_key
    assert shared.rank_of_true_key == plain.rank_of_true_key
    assert shared.undefined_fraction == plain.undefined_fraction


def test_cpa_from_search_sums_keeps_an_exact_tie():
    # one block of 250 rows and 50 past it; the search dies at byte 5's tie
    cts, twin, g_true = twin_ciphertexts()
    am = leaking_set(cts[twin][:300])
    assert min_traces_search(am, KEY, step=attack.DEFAULT_STEP) is None
    assert sorted(am._sums) == list(range(6))
    res = cpa_attack(am, true_key=KEY)
    assert res.scores[5, g_true] == res.scores[5, g_true + 1]
    assert res.rank_of_true_key == (1,) * 5 + (2,) + (1,) * 10


def nine_decade_noise(am, leak):
    """``am`` with its rows scaled by ``leak`` plus noise spanning nine
    decades, so h*y sums round and a sum in another order gives other bits."""
    rows = len(am.rows)
    noise = np.random.default_rng(5).standard_normal((rows, 16))
    noise *= 10.0 ** np.random.default_rng(6).uniform(-8, 1, (rows, 16))
    return dataclasses.replace(am, rows=(leak * am.rows + noise).astype(np.float32))


@pytest.mark.parametrize("rows, leak, expected, built", [
    # broken at one block of 250; 5 blocks and 50 rows past them
    (1300, 1.0, 250, list(range(16))),
    # unbroken, no leak: only byte 0 is built; 4 blocks and 100 rows past them
    (1100, 0.0, None, [0]),
    # broken at one block of 250; 5 blocks and no rows past them
    (1250, 1.0, 250, list(range(16))),
])
def test_search_sums_at_the_default_step_are_the_cpa_s_own(rows, leak, expected, built):
    # the CPA sums a byte over blocks of DEFAULT_STEP rows, as the search
    # does, so the sums the search leaves only save the build: the scores
    # are the same bits as those of a CPA that ran first
    cts, _, _ = twin_ciphertexts()
    am = nine_decade_noise(leaking_set(cts[:rows]), leak)
    plain = cpa_attack(am, true_key=KEY)
    assert min_traces_search(am, KEY, step=attack.DEFAULT_STEP) == expected
    assert sorted(am._sums) == built
    shared = cpa_attack(am, true_key=KEY)
    assert np.array_equal(plain.scores, shared.scores)
    assert plain.rank_of_true_key == shared.rank_of_true_key


def test_cpa_scores_do_not_depend_on_whether_the_cli_searched_first(monkeypatch):
    # at step 64 the search's h*y sums add other blocks than the CPA's; with
    # a key the CLI searches first, and the CPA must still give its own bits
    cts, _, _ = twin_ciphertexts()
    am = nine_decade_noise(leaking_set(cts[:1300]), 1.0)
    ts = fixed_clock_set(1)
    monkeypatch.setattr(cli, "_align", lambda cfg, ts: (dataclasses.replace(am), {}))
    scores = []

    def traced_cpa(am, **kw):
        res = cpa_attack(am, **kw)
        scores.append(res.scores)
        return res

    monkeypatch.setattr(cli, "cpa_attack", traced_cpa)
    cfg = dataclasses.replace(ExperimentConfig(), step=64)
    assert cli._attack_trace_set(cfg, ts, KEY)["min_traces"] == 64
    assert cli._attack_trace_set(cfg, ts, None)["min_traces"] is None
    assert len(scores) == 2 and np.array_equal(scores[0], scores[1])


def test_cpa_scratch_does_not_grow_with_rows_times_guesses():
    # 20,000 x 9: one (n, 256) float64 cast of the hypotheses would take
    # 41 MB, and a byte's uint8 hypotheses take one (n, 256) byte array
    # (5.1 MB)
    n = 20000
    rng = np.random.default_rng(11)
    am = AlignedMatrix(rows=rng.standard_normal((n, 9)).astype(np.float32),
                       ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
                       peak_positions=np.full(n, -1))
    tracemalloc.start()
    try:
        cpa_attack(am)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_cpa_holds_no_float64_copy_of_the_rows():
    # 4,000 x 360 float32: a float64 copy of the rows takes 11.5 MB.  The
    # sum of y^2 squares one row batch at a time, so the block scratch, the
    # running h*y sums and a byte's hypotheses (about 4.7 MB) are the peak;
    # a whole-matrix square for y^2 put it at 1.19 copies.
    n, width = 4000, 360
    rng = np.random.default_rng(14)
    am = AlignedMatrix(rows=rng.standard_normal((n, width)).astype(np.float32),
                       ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
                       peak_positions=np.full(n, -1))
    tracemalloc.start()
    try:
        cpa_attack(am)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 8 * n * width


def test_min_traces_monotone_in_noise():
    minima = []
    for sigma in (0.0, 1.0, 2.0):
        ts = fixed_clock_set(700, seed=21, noise_sigma=sigma)
        minima.append(min_traces_search(aligned(ts, 8), KEY, step=100))
    assert all(m is not None for m in minima)
    assert minima == sorted(minima)


def traced_search(monkeypatch, am, step):
    """``min_traces_search`` traced: (result, the sums it left on ``am``,
    hypothesis builds, most threads alive during a build)."""
    builds, threads = [], [threading.active_count()]
    real = aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix",
                        lambda cts, p: builds.append(p) or threads.append(
                            threading.active_count()) or real(cts, p))
    result = min_traces_search(am, KEY, step=step)
    monkeypatch.setattr(aes, "hypothesis_matrix", real)
    return result, am._sums, builds, max(threads)


def sums_digest(sums):
    """SHA-256 of every stored (sum h, sum h^2, sum h*y), bytes in order."""
    digest = hashlib.sha256()
    for p in sorted(sums):
        for a in sums[p]:
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


NO_SUMS = hashlib.sha256().hexdigest()


@pytest.mark.parametrize("make, step, expected, built, digest", [
    # analyze-shaped: study set 2, 4,000 traces at oversampling 12, step 250,
    # the set seed the CLI derives from --seed 1
    pytest.param(lambda: generate_set(study_set(2).fs, KEY, 4000, oversampling=12,
                                      noise_sigma=0.5, seed=1 + 1000003),
                 250, 1000, list(range(16)),
                 "51b0bdd2713ce14442091b72806e0adf2c031a341e2a153edb3a575a6b828e26",
                 id="analyze-set2"),
    # unbroken: no segment survives byte 1
    pytest.param(lambda: fixed_clock_set(120, seed=3, noise_sigma=2.0), 60, None, [0, 1],
                 NO_SUMS, id="unbroken"),
    # k* 30 of 34 blocks: the first two ranges die, the third holds it
    pytest.param(lambda: fixed_clock_set(700, seed=13, noise_sigma=2.0), 20, 600,
                 [0, 1, 0, 1, 2, 3, 4, 5, *range(16)], NO_SUMS, id="third-range"),
    # compare-shaped: study sets 1 and 5, 2,000 traces, the CLI's set seeds
    pytest.param(lambda: generate_set(study_set(1).fs, KEY, 2000, oversampling=12,
                                      noise_sigma=0.5, seed=1),
                 250, 1250, list(range(16)),
                 "b912dc462dd21fcac29e9e9caabcec60776396dc192bb6fa2719579811c31ee7",
                 id="compare-set1"),
    pytest.param(lambda: generate_set(study_set(5).fs, KEY, 2000, oversampling=12,
                                      noise_sigma=0.5, seed=1 + 4 * 1000003),
                 250, 1500, list(range(16)),
                 "09a551f89692cd567d12001b7ed56c6f358db2a6769e371b4d435a4453b95a6d",
                 id="compare-set5"),
])
def test_search_pins_its_result_builds_and_sums(monkeypatch, make, step, expected, built,
                                                digest):
    # the builds and the sums' bits are frozen: a change to the search keeps
    # them, and so does the number of segments it scores per kernel call
    ts = make()
    for chunk in (1, 7, 64):
        monkeypatch.setattr(attack, "SEARCH_CHUNK", chunk)
        am = aligned(ts, ts.oversampling)
        start = threading.active_count()
        result, sums, builds, most = traced_search(monkeypatch, am, step)
        assert result == expected, chunk
        # each range builds bytes 0, 1, ... in order until none is left alive
        assert builds == built, chunk
        # at the default step, the sums left behind are the built bytes' sums
        # over every row; at another step none is left
        assert sorted(sums) == (sorted(set(builds)) if step == attack.DEFAULT_STEP else [])
        assert sums_digest(sums) == digest, chunk
        y = am.rows.astype(np.float64)
        for p, (sh, shh, shy) in sums.items():
            h = aes.hypothesis_matrix(am.ciphertexts, p).astype(np.int64)
            assert np.array_equal(sh, h.sum(axis=0)) and np.array_equal(shh, (h * h).sum(axis=0))
            np.testing.assert_allclose(shy, y.T @ h.astype(np.float64), rtol=1e-12)
        # the search runs on the calling thread
        assert most == start
        assert threading.active_count() == start


def test_search_holds_one_prefix_buffer():
    # 1,500 x 360 at the default step: 6 blocks, of which only byte 0 is
    # built.  The search holds no float64 copy of the rows (it would take
    # 4.32 MB, as the transient square for the sums of y^2 does), one
    # set of prefix arrays, whose h*y part is (6 + 1, 360, 256) float64
    # (5.16 MB), a chunk's two gathered h*y prefix rows, then their
    # difference and the kernel's work array (2 x 6 x 360 x 256 float64,
    # 8.85 MB either way), and a byte's totals (0.74 MB), block scratch
    # (250 x 256 float64, 0.51 MB) and hypotheses (1,500 x 256 uint8,
    # 0.38 MB): about 16 MB.  A second prefix buffer would add 5.16 MB.
    n, width = 1500, 360
    rng = np.random.default_rng(12)
    am = AlignedMatrix(rows=rng.standard_normal((n, width)).astype(np.float32),
                       ciphertexts=rng.integers(0, 256, size=(n, 16), dtype=np.uint8),
                       peak_positions=np.full(n, -1))
    tracemalloc.start()
    try:
        assert min_traces_search(am, KEY) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(am._sums) == [0]
    assert peak < 22e6


def test_search_refuses_more_cells_than_its_limit_before_allocating(monkeypatch):
    # 1,025 blocks of 2 rows x 512 columns, one block past the limit; the
    # rows are a broadcast view, so the matrix takes no memory
    width, step = 512, 2
    n = step * (attack.MAX_SEARCH_CELLS // width + 1)
    am = AlignedMatrix(rows=np.broadcast_to(np.float32(0), (n, width)),
                       ciphertexts=np.zeros((n, 16), np.uint8), peak_positions=np.full(n, -1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^1025 blocks of 2 rows x W = 512 columns is "
                                             r"524800 cells, past the search's limit of 524288"):
            min_traces_search(am, KEY, step=step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    # the limit counts whole blocks: 10 blocks of 4 rows x 5 columns pass a
    # limit of 50 cells (the 2 rows past the last block do not count) and
    # fail one of 49
    rng = np.random.default_rng(5)
    am = AlignedMatrix(rows=rng.standard_normal((42, 5)).astype(np.float32),
                       ciphertexts=rng.integers(0, 256, size=(42, 16), dtype=np.uint8),
                       peak_positions=np.full(42, -1))
    monkeypatch.setattr(attack, "MAX_SEARCH_CELLS", 50)
    assert min_traces_search(am, KEY, step=4) is None
    monkeypatch.setattr(attack, "MAX_SEARCH_CELLS", 49)
    with pytest.raises(ValueError, match="^10 blocks of 4 rows x W = 5 columns is 50 cells"):
        min_traces_search(am, KEY, step=4)


def test_a_byte_build_failure_surfaces_unchanged_and_keeps_earlier_bytes(monkeypatch):
    am = aligned(fixed_clock_set(700, seed=13, noise_sigma=2.0), 8)
    start = threading.active_count()
    assert min_traces_search(am, KEY, step=20) == 600
    assert threading.active_count() == start
    error = FloatingPointError("build failed")
    real_matmul = np.matmul
    caller, allowed = [], [0]

    def failing_matmul(*args, **kwargs):
        if allowed[0]:
            allowed[0] -= 1
            return real_matmul(*args, **kwargs)
        caller.append(threading.current_thread() is threading.main_thread())
        raise error

    monkeypatch.setattr(np, "matmul", failing_matmul)
    with pytest.raises(FloatingPointError) as caught:
        min_traces_search(am, KEY, step=20)
    assert caught.value is error and caller == [True]
    assert threading.active_count() == start

    # at the default step a byte takes 3 products (2 blocks and the tail):
    # byte 4's build fails, and the search leaves the sums of bytes 0-3 only
    caller.clear()
    allowed[0] = 12
    with pytest.raises(FloatingPointError) as caught:
        min_traces_search(am, KEY, step=attack.DEFAULT_STEP)
    monkeypatch.setattr(np, "matmul", real_matmul)
    assert caught.value is error and caller == [True]
    assert threading.active_count() == start
    assert sorted(am._sums) == [0, 1, 2, 3]
    after, fresh = cpa_attack(am, true_key=KEY), cpa_attack(dataclasses.replace(am), true_key=KEY)
    assert np.array_equal(after.scores, fresh.scores)
    assert after.recovered_key == fresh.recovered_key
    assert after.rank_of_true_key == fresh.rank_of_true_key
    assert after.undefined_fraction == fresh.undefined_fraction


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def sine_set(freq_hz, n_traces=4, n=240):
    t = np.arange(n) * 12.5e-9  # hand_set's grid: 1e-7 s over oversampling 8
    return hand_set([np.sin(2 * np.pi * freq_hz * t)] * n_traces)


def test_fft_peak_sits_in_the_sine_bin():
    spec = fft_spectrum(sine_set(3e6), bin_hz=1e6)
    assert spec.top_bins(1)[0][0] == 3
    assert spec.sample_rate_hz == pytest.approx(80e6)


def test_fft_parseval_energy_identity():
    ts = generate_set(study_set(2).fs, KEY, 12, oversampling=8, seed=4,
                      noise_sigma=1.0)
    spec = fft_spectrum(ts, bin_hz=1e6)
    usable = ts.samples[~ts.failed]
    energies = []
    for samples in usable:
        x = samples.astype(np.float64)
        x = x - x.mean()
        energies.append(float(x @ x))
    time_energy = np.mean(energies)
    freq_energy = float((spec.magnitudes ** 2).sum())
    assert freq_energy == pytest.approx(time_energy, rel=1e-9)
    assert spec.n_traces == len(usable)


def test_fft_skips_failed_traces_and_validates_input():
    ts = sine_set(3e6)
    with_bad = hand_set(list(ts.samples) + [np.full(240, 1e6)],
                        failed=[False] * len(ts) + [True])
    a = fft_spectrum(ts, bin_hz=1e6)
    b = fft_spectrum(with_bad, bin_hz=1e6)
    assert np.allclose(a.magnitudes, b.magnitudes)
    with pytest.raises(ValueError):
        fft_spectrum(ts, bin_hz=0.0)
    all_failed = hand_set([np.zeros(16)], failed=[True])
    with pytest.raises(ValueError):
        fft_spectrum(all_failed, bin_hz=1e6)


# ---------------------------------------------------------------------------
# Duplication analysis
# ---------------------------------------------------------------------------

def test_candidate_counts_for_study_sets():
    expected = [5, 7, 8, 7, 6, 7, 8]
    got = [peak_permutation_bound(e.fs)[0] for e in STUDY_SETS]
    assert got == expected
    assert all(4 <= c <= 8 for c in got)


def test_candidate_count_endpoints_and_exponent():
    # zero spread still leaves two candidate peaks; huge spread is capped by
    # the number of rounds plus one
    assert peak_permutation_bound(degenerate())[0] == 2
    wide = FrequencySet(base_hz=10e6, fundamentals=(0.5e6, 10e6, 10e6, 10e6))
    assert peak_permutation_bound(wide)[0] == 11
    c, total = peak_permutation_bound(study_set(2).fs, n_traces=3)
    assert total == c ** 3
    fs1, fs2 = dual_reference_pair()
    both, _ = peak_permutation_bound(fs1, fs2)
    funds = fs1.fundamentals + fs2.fundamentals
    slots = 1 + 10 * (1 - min(funds) / max(funds))
    assert both == max(2, min(11, int(np.floor(slots + 0.5))))
    with pytest.raises(ValueError):
        peak_permutation_bound(fs1, n_traces=0)


def dual_hand_set(trace_samples):
    return hand_set(trace_samples, fs=degenerate(10e6), key2=KEY2, fs2=degenerate(12e6))


def test_overlap_exploit_no_coincidence_scores_zero():
    ts = dual_hand_set([clean_samples(spacing=16, count=12)] * 6)
    rep = overlap_exploit(ts, candidates=5)
    assert rep.overlap_fraction == 0.0
    assert rep.reduced_candidates == 5.0
    assert rep.n_traces == 6


def test_overlap_on_last_peak_halves_the_search():
    samples = clean_samples(spacing=16, count=12)
    samples[16 * 12] = 130.0  # summed pulse on the final peak
    ts = dual_hand_set([samples] * 6)
    rep = overlap_exploit(ts, candidates=5, region="last")
    assert rep.overlap_fraction == 1.0
    assert rep.reduced_candidates == 2.0
    # per-trace brute-force success rises from 1/5 to 1/2
    assert 1.0 / rep.candidates == pytest.approx(0.2)
    assert 1.0 / rep.reduced_candidates == pytest.approx(0.5)


def test_overlap_regions_are_distinct():
    samples = clean_samples(spacing=16, count=12)
    samples[16] = 130.0  # first-round coincidence only
    ts = dual_hand_set([samples] * 4)
    assert overlap_exploit(ts, candidates=5, region="first").overlap_fraction == 1.0
    assert overlap_exploit(ts, candidates=5, region="last").overlap_fraction == 0.0
    with pytest.raises(ValueError):
        overlap_exploit(ts, region="middle")
    with pytest.raises(ValueError, match="candidates must be at least 1"):
        overlap_exploit(ts, candidates=0)
    single = fixed_clock_set(3)
    with pytest.raises(ValueError):
        overlap_exploit(single)

"""Attack pipeline: peak detection, filtering, alignment, CPA, spectra.

The minimum-trace search's block statistics are cross-checked against a
direct per-segment correlation oracle, CPA scores against a two-pass
Pearson routine written out here, and that routine, like the in-module
port of ``find_peaks``, against scipy's reference implementation.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
import scipy.stats
from scipy.signal import find_peaks

from clockmux import aes, attack, clock
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
    corpus = [(odd, 3.0, 2), (at_height, 1.0, 2), (np.ones((4, 2), dtype=np.float32), 3.0, 2),
              (np.zeros((0, 50), dtype=np.float32), 3.0, 2)]
    for sigma in (0.0, 0.5, 5.0):
        for ov in (12, 24, 32):
            x = generate_set(study_set(1).fs, KEY, 24, oversampling=ov, seed=3,
                             noise_sigma=sigma).samples
            own = FilterParams().resolved(ov).detect_separation
            # a two-sample running max flattens every pulse's apex into a plateau
            for rows in (x, np.maximum(x[:, 1:], x[:, :-1])):
                corpus += [(rows, 3.0, own), (rows, 2.0, 4), (rows, 1.0, 6)]
    plateau, close = [], []
    for rows, k, sep in corpus:
        positions, counts = detect_peaks(rows, k, sep)
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


def hand_set(rows, failed=None, clock_edges=None, fs=None, oversampling=8,
             sample_period_s=12.5e-9, **dual):
    """A set of the sample ``rows`` with all-zero plaintexts and ciphertexts;
    ``dual`` passes key2 and fs2."""
    n = len(rows)
    return TraceSet(samples=np.array(rows, np.float32).reshape(n, -1),
                    plaintexts=np.zeros((n, 16), np.uint8),
                    ciphertexts=np.zeros((n, 16), np.uint8),
                    failed=np.zeros(n, bool) if failed is None else np.array(failed, bool),
                    sample_period_s=sample_period_s, key=KEY, fs=fs or degenerate(),
                    oversampling=oversampling, noise_sigma=0.0,
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
                        lambda rows, *a: calls.append(rows[:]) or real(rows, *a))
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
                        lambda rows, *a: calls.append(rows[:]) or real(rows, *a))
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


def test_cpa_scores_match_two_pass_pearson():
    # an oracle independent of the shared one-pass kernel: the min-traces
    # oracle below calls cpa_attack, which scores through that kernel.  The
    # kernel fed float64 sums of h and h^2 gives the very scores cpa_attack
    # gets from its integer sums.
    ts = generate_set(study_set(1).fs, KEY, 60, oversampling=12, seed=7,
                      noise_sigma=1.0)
    kept, _, _ = filter_traces(ts)
    am = synchronize(kept, round=10, window_halfwidth=6)
    am = dataclasses.replace(am, rows=am.rows[:, 3:10])  # off centre
    res = cpa_attack(am)
    y = am.rows
    cts = am.ciphertexts
    yf = y.astype(np.float64)
    for p in range(16):
        h = aes.hypothesis_matrix(cts, p)
        hf = h.astype(np.float64)
        float_sums, _ = attack._max_abs_rho(len(y), hf.sum(axis=0), (hf * hf).sum(axis=0),
                                            yf.sum(axis=0), (yf * yf).sum(axis=0), hf.T @ yf)
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
                                        hf.T @ yf)
    assert np.array_equal(res.scores[1], float_sums)


def masked_max_abs_rho(n, sh, shh, sy, syy, shy):
    """The kernel's general form: every cell divided under a positive-
    denominator mask, zero-variance cells scored 0."""
    num = n * shy - sh[..., :, None] * sy[..., None, :]
    varh = n * shh - sh * sh
    vary = n * syy - sy * sy
    den = np.sqrt(np.clip(varh[..., :, None] * vary[..., None, :], 0.0, None))
    rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return np.abs(rho).max(axis=-1), varh == 0


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
            h.transpose(0, 2, 1).astype(np.float64) @ y)
    # only the random sums take the unmasked form: every variance positive
    sh, shh, sy, syy, _ = sums
    positive = (50 * shh - sh * sh > 0).all() and (50 * syy - sy * sy > 0).all()
    assert positive == (case == "random")
    expected_scores, expected_mask = masked_max_abs_rho(50, *sums)
    assert expected_mask.any() == (case == "zero-variance guess")
    for work in (None, np.empty_like(sums[4])):
        scores, mask = attack._max_abs_rho(50, *sums[:4], sums[4].copy(), work)
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
    assert res.recovered_round_key == bytes(true_rk) and not res.broken
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
])
def test_cpa_from_search_sums_matches_one_product(monkeypatch, n_traces, seed, step,
                                                  rows, built):
    am = aligned(fixed_clock_set(n_traces, seed=seed, noise_sigma=2.0), 8)
    assert am.rows.shape[0] == rows
    plain = cpa_attack(am, true_key=KEY)
    sums = {}
    min_traces_search(am, KEY, step=step, sums=sums)
    assert sorted(sums) == built
    cts = am.ciphertexts
    for p, (sh, shh, _) in sums.items():
        # exact integer sums over every row, the tail past the last block included
        h = aes.hypothesis_matrix(cts, p).astype(np.int64)
        assert np.array_equal(sh, h.sum(axis=0)) and np.array_equal(shh, (h * h).sum(axis=0))
    builds = []
    real = aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix",
                        lambda cts, p: builds.append(p) or real(cts, p))
    shared = cpa_attack(am, true_key=KEY, sums=sums)
    assert builds == [p for p in range(16) if p not in sums]
    assert np.abs(shared.scores - plain.scores).max() <= 1e-12
    assert shared.recovered_key == plain.recovered_key
    assert shared.rank_of_true_key == plain.rank_of_true_key
    assert shared.undefined_fraction == plain.undefined_fraction


def test_cpa_from_search_sums_keeps_an_exact_tie():
    # one block of 64 rows and 36 past it; the search dies at byte 5's tie
    cts, twin, g_true = twin_ciphertexts()
    am = leaking_set(cts[twin][:100])
    sums = {}
    assert min_traces_search(am, KEY, step=64, sums=sums) is None
    assert sorted(sums) == list(range(6))
    res = cpa_attack(am, true_key=KEY, sums=sums)
    assert res.scores[5, g_true] == res.scores[5, g_true + 1]
    assert res.rank_of_true_key == (1,) * 5 + (2,) + (1,) * 10


def test_min_traces_monotone_in_noise():
    minima = []
    for sigma in (0.0, 1.0, 2.0):
        ts = fixed_clock_set(700, seed=21, noise_sigma=sigma)
        minima.append(min_traces_search(aligned(ts, 8), KEY, step=100))
    assert all(m is not None for m in minima)
    assert minima == sorted(minima)


def search_on_cores(monkeypatch, cores, am, step):
    """``min_traces_search`` with ``cores`` usable cores: (result, sums,
    hypothesis builds, most threads alive during a build)."""
    monkeypatch.setattr(clock, "_usable_cores", lambda: cores)
    builds, threads = [], [threading.active_count()]
    real = aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix",
                        lambda cts, p: builds.append(p) or threads.append(
                            threading.active_count()) or real(cts, p))
    sums = {}
    result = min_traces_search(am, KEY, step=step, sums=sums)
    monkeypatch.setattr(aes, "hypothesis_matrix", real)
    return result, sums, builds, max(threads)


@pytest.mark.parametrize("make, step, expected, built", [
    # analyze-shaped: study set 2, 4,000 traces at oversampling 12, step 250,
    # the set seed the CLI derives from --seed 1
    (lambda: generate_set(study_set(2).fs, KEY, 4000, oversampling=12, noise_sigma=0.5,
                          seed=1 + 1000003), 250, 1000, list(range(16))),
    # unbroken: no segment survives byte 1
    (lambda: fixed_clock_set(120, seed=3, noise_sigma=2.0), 60, None, [0, 1]),
    # k* 30 of 34 blocks: the first two ranges die, the third holds it
    (lambda: fixed_clock_set(700, seed=13, noise_sigma=2.0), 20, 600, None),
])
def test_pipelined_search_equals_the_serial_one(monkeypatch, make, step, expected, built):
    ts = make()
    am = aligned(ts, ts.oversampling)
    start = threading.active_count()
    one = search_on_cores(monkeypatch, 1, am, step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two threads trade the interpreter often
    try:
        two = search_on_cores(monkeypatch, 2, am, step)
    finally:
        sys.setswitchinterval(interval)
    assert one[0] == two[0] == expected
    assert sorted(one[1]) == sorted(two[1])
    for p in one[1]:
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(one[1][p], two[1][p]))
    # the same builds in the same order; a range after the first builds anew
    assert one[2] == two[2]
    if built is not None:
        assert one[2] == built
    else:
        assert len(one[2]) > 16 and one[2][-16:] == list(range(16))
    # one core starts no thread, two cores one worker, and none outlives the call
    assert one[3] == start and two[3] == start + 1
    assert threading.active_count() == start


def test_a_worker_failure_surfaces_unchanged_and_leaves_no_thread(monkeypatch):
    am = aligned(fixed_clock_set(700, seed=13, noise_sigma=2.0), 8)
    monkeypatch.setattr(clock, "_usable_cores", lambda: 2)
    start = threading.active_count()
    assert min_traces_search(am, KEY, step=20) == 600
    assert threading.active_count() == start
    error = FloatingPointError("worker failed")
    worker = []

    def failing_matmul(*args, **kwargs):
        worker.append(threading.current_thread() is not threading.main_thread())
        raise error

    monkeypatch.setattr(np, "matmul", failing_matmul)
    with pytest.raises(FloatingPointError) as caught:
        min_traces_search(am, KEY, step=20)
    assert caught.value is error and worker == [True]
    assert threading.active_count() == start


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def sine_set(freq_hz, n_traces=4, n=240, sp=12.5e-9):
    t = np.arange(n) * sp
    return hand_set([np.sin(2 * np.pi * freq_hz * t)] * n_traces, sample_period_s=sp)


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


def dual_hand_set(trace_samples, sp=12.5e-9):
    return hand_set(trace_samples, fs=degenerate(10e6), sample_period_s=sp,
                    key2=KEY2, fs2=degenerate(12e6))


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

"""Attack pipeline: peak detection, filtering, alignment, CPA, spectra.

The minimum-trace search's block statistics are cross-checked against a
direct per-segment correlation oracle, CPA scores against a two-pass
Pearson routine written out here, and that routine, like the in-module
port of ``find_peaks``, against scipy's reference implementation.
"""

import numpy as np
import pytest
import scipy.stats
from scipy.signal import find_peaks

from clockmux import aes, attack
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
from clockmux.traces import (
    PULSE_SHAPES,
    PowerTrace,
    TraceSet,
    generate_set,
    write_trace_set,
)

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
    for pulse in PULSE_SHAPES:
        for sigma in (0.0, 0.5, 5.0):
            for ov in (12, 24, 32):
                ts = generate_set(study_set(1).fs, KEY, 24, oversampling=ov, seed=3,
                                  noise_sigma=sigma, pulse=pulse)
                own = FilterParams().resolved(ov).detect_separation
                corpus += [(ts.samples, 3.0, own), (ts.samples, 2.0, 4),
                           (ts.samples, 1.0, 6)]
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


def hand_trace(samples, sample_period_s, meta=None, failed=False):
    samples = np.asarray(samples, dtype=np.float32)
    return PowerTrace(samples=samples, sample_period_s=sample_period_s,
                      plaintext=bytes(16), ciphertext=bytes(16),
                      failed=failed, core_count=1, clock_meta=meta)


def hand_set(traces, fs=None, oversampling=8):
    fs = fs or degenerate()
    return TraceSet.from_traces(traces, key=KEY, fs=fs,
                                oversampling=oversampling, noise_sigma=0.0)


def clean_samples(n=240, spacing=16, count=12, amp=60.0):
    s = np.zeros(n)
    for k in range(1, count + 1):
        s[spacing * k] = amp
    return s


def test_filter_removes_failed_low_peak_and_close_peak_traces():
    sp = 12.5e-9
    good = hand_trace(clean_samples(), sp)
    failed = hand_trace(clean_samples(), sp, failed=True)
    sparse = hand_trace(clean_samples(count=4), sp)
    crowded_samples = clean_samples()
    crowded_samples[131] = 55.0  # 3 samples from the peak at 128
    crowded = hand_trace(crowded_samples, sp)
    ts = hand_set([good, failed, sparse, crowded], oversampling=16)
    params = FilterParams(expected_peaks=10, min_peak_separation=4)
    kept, removed, failed_frac = filter_traces(ts, params)
    assert kept.traces == [good]
    assert np.array_equal(kept.samples, ts.samples[[0]])
    assert failed_frac == pytest.approx(1 / 4)
    assert removed == pytest.approx(2 / 4)


def test_filter_rejects_undersampled_clock_metadata():
    sp = 12.5e-9
    fine = hand_trace(clean_samples(), sp,
                      meta=(np.arange(11) * 100e-9,))
    coarse = hand_trace(clean_samples(), sp,
                        meta=(np.array([0.0, 10e-9] + list(np.arange(2, 11) * 100e-9)),))
    ts = hand_set([fine, coarse])
    kept, removed, failed_frac = filter_traces(ts)
    assert len(kept) == 1 and np.array_equal(kept.clock_edges, ts.clock_edges[[0]])
    assert removed == pytest.approx(0.5) and failed_frac == 0.0


def test_filter_keeps_input_order():
    ts = generate_set(study_set(1).fs, KEY, 80, oversampling=12, seed=3)
    kept, _, _ = filter_traces(ts)
    order = [ts.traces.index(t) for t in kept.traces]
    assert order == sorted(order)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def test_synchronize_fixed_clock_aligns_exactly():
    ts = fixed_clock_set(20)
    am = synchronize(ts, round=10, window_halfwidth=8)
    assert am.rows.shape == (20, 17)
    assert am.round_anchor == 8
    assert np.all(am.peak_positions == 80)
    assert np.array_equal(am.kept_indices, np.arange(20))
    # every aligned row carries its round-10 Hamming distance at the anchor
    for row, tr in zip(am.rows, ts.traces):
        assert row[8] == tr.samples[80]


def test_synchronize_drops_traces_that_cannot_fill_window():
    ts = fixed_clock_set(5)
    am = synchronize(ts, round=10, window_halfwidth=200)
    assert am.rows.shape[0] == 0
    with pytest.raises(ValueError):
        synchronize(ts, round=0)


def test_synchronize_kept_indices_strictly_increase():
    ts = generate_set(study_set(6).fs, KEY, 150, oversampling=12, seed=8)
    kept, _, _ = filter_traces(ts)
    am = synchronize(kept, round=10, window_halfwidth=4)
    assert np.all(np.diff(am.kept_indices) > 0)


def test_raw_matrix_pads_and_keeps_everything():
    ts = fixed_clock_set(6)
    am = raw_matrix(ts, round=10)
    assert am.round_anchor is None
    assert am.rows.shape == (6, 240)
    assert np.array_equal(am.kept_indices, np.arange(6))
    assert np.all(am.peak_positions == 80)


# ---------------------------------------------------------------------------
# One peak pass per trace
# ---------------------------------------------------------------------------

def study_set_with_failures(seed=5):
    ts = generate_set(study_set(1).fs, KEY, 80, oversampling=12, seed=seed,
                      noise_sigma=0.5)
    assert any(t.failed for t in ts.traces)
    return ts


def test_pipeline_detects_each_trace_once(monkeypatch):
    calls = []
    real = attack.detect_peaks
    monkeypatch.setattr(attack, "detect_peaks",
                        lambda rows, *a: calls.append(rows[:]) or real(rows, *a))
    ts = study_set_with_failures()
    kept, _, _ = filter_traces(ts)
    min_traces_search(synchronize(kept, round=10), kept, KEY, step=10)
    min_traces_search(raw_matrix(kept, round=10), kept, KEY, step=10)
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
    assert kept.traces == fresh_kept.traces
    assert (removed, failed) == (fresh_removed, fresh_failed)
    assert kept.traces != default_kept.traces


def test_attack_leaves_the_set_equal_and_its_bytes_unchanged(tmp_path, monkeypatch):
    calls = []
    real = attack.detect_peaks
    monkeypatch.setattr(attack, "detect_peaks",
                        lambda rows, *a: calls.append(rows[:]) or real(rows, *a))
    ts = study_set_with_failures()
    before = tmp_path / "before.bin"
    write_trace_set(ts, before)
    kept, _, _ = filter_traces(ts)
    min_traces_search(synchronize(kept, round=10), kept, KEY, step=10)
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
    res = cpa_attack(am, ts, true_key=KEY)
    assert res.recovered_key == KEY
    assert res.rank_of_true_key == (1,) * 16
    assert res.broken
    assert res.undefined_fraction == 0.0
    # a tight window around the anchor works as well
    res2 = cpa_attack(am, ts, window=(6, 11), true_key=KEY)
    assert res2.recovered_key == KEY


def test_cpa_fails_on_mismatched_ciphertexts():
    ts = fixed_clock_set(600)
    rolled = ts.take(np.roll(np.arange(len(ts)), -1))
    am = synchronize(ts, round=10, window_halfwidth=8)
    # correlate trace i's samples against trace i+1's ciphertext
    res = cpa_attack(am, rolled, true_key=KEY)
    assert not res.broken
    assert max(res.rank_of_true_key) > 32


def test_cpa_flags_constant_hypotheses_instead_of_claiming_recovery():
    ts = generate_set(degenerate(), KEY, 100, oversampling=8, seed=2,
                      plaintext_mode="fixed", fixed_plaintext=bytes(16))
    am = synchronize(ts, round=10, window_halfwidth=8)
    res = cpa_attack(am, ts, true_key=KEY)
    assert res.undefined_fraction == 1.0
    assert np.all(res.scores == 0.0)
    assert not res.broken
    assert res.rank_of_true_key == (256,) * 16


def test_cpa_needs_two_traces_and_valid_window():
    ts = fixed_clock_set(5)
    am = synchronize(ts, round=10, window_halfwidth=8)
    one = AlignedMatrix(rows=am.rows[:1], round_anchor=am.round_anchor,
                        kept_indices=am.kept_indices[:1],
                        peak_positions=am.peak_positions[:1])
    with pytest.raises(ValueError):
        cpa_attack(one, ts)
    with pytest.raises(ValueError):
        cpa_attack(am, ts, window=(5, 99))


def test_cpa_scores_match_two_pass_pearson():
    # an oracle independent of the shared one-pass kernel: the min-traces
    # oracle below calls cpa_attack, which scores through that kernel.  The
    # kernel fed float64 sums of h and h^2 gives the very scores cpa_attack
    # gets from its integer sums.
    ts = generate_set(study_set(1).fs, KEY, 60, oversampling=12, seed=7,
                      noise_sigma=1.0)
    kept, _, _ = filter_traces(ts)
    am = synchronize(kept, round=10, window_halfwidth=6)
    window = (3, 10)
    res = cpa_attack(am, kept, window=window)
    y = am.rows[:, window[0]:window[1]]
    cts = kept.ciphertexts[am.kept_indices]
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
    ts = TraceSet(samples=y, plaintexts=np.zeros_like(cts), ciphertexts=cts,
                  failed=np.zeros(n, dtype=bool), sample_period_s=1e-8, key=KEY,
                  fs=degenerate(), oversampling=8, noise_sigma=0.0)
    am = AlignedMatrix(rows=y, round_anchor=None, kept_indices=np.arange(n),
                       peak_positions=np.full(n, -1))
    res = cpa_attack(am, ts)
    yf = y.astype(np.float64)
    hf = aes.hypothesis_matrix(cts, 1).astype(np.float64)
    sh, shh = hf.sum(axis=0), (hf * hf).sum(axis=0)
    assert n * shh[0] - sh[0] ** 2 > 2**32
    float_sums, _ = attack._max_abs_rho(n, sh, shh, yf.sum(axis=0), (yf * yf).sum(axis=0),
                                        hf.T @ yf)
    assert np.array_equal(res.scores[1], float_sums)


# ---------------------------------------------------------------------------
# Minimum-trace search
# ---------------------------------------------------------------------------

def aligned(ts, window_halfwidth):
    kept, _, _ = filter_traces(ts)
    return synchronize(kept, round=10, window_halfwidth=window_halfwidth), kept


def direct_min_traces(ts, true_key, step, window_halfwidth):
    am, kept = aligned(ts, window_halfwidth)
    n = am.rows.shape[0]
    best = None
    for k in range(1, n // step + 1):
        for start in range(0, n - k * step + 1, step):
            sub = AlignedMatrix(rows=am.rows[start:start + k * step],
                                round_anchor=am.round_anchor,
                                kept_indices=am.kept_indices[start:start + k * step],
                                peak_positions=am.peak_positions[start:start + k * step])
            res = cpa_attack(sub, kept, true_key=true_key)
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
        am, kept = aligned(ts, 8)
        min_traces = min_traces_search(am, kept, KEY, step=step)
        assert min_traces == direct_min_traces(ts, KEY, step=step, window_halfwidth=8)
        assert min_traces == expected


def test_min_traces_search_reports_failure_and_validates_step():
    ts = fixed_clock_set(120, seed=3, noise_sigma=30.0)
    am, kept = aligned(ts, 8)
    assert min_traces_search(am, kept, KEY, step=60) is None
    # two full blocks, neither alone nor together enough to recover the key
    am, kept = aligned(fixed_clock_set(120, seed=3, noise_sigma=2.0), 8)
    assert am.rows.shape[0] == 120
    assert min_traces_search(am, kept, KEY, step=60) is None
    with pytest.raises(ValueError):
        min_traces_search(am, kept, KEY, step=1)


def test_a_tie_for_first_breaks_neither_the_search_nor_cpa():
    # each window column leaks one byte's true hypothesis; at position 5 every
    # row also gives a later guess the same hypothesis, so that guess ties
    true_rk = aes.expand_key(KEY).round_keys[10]
    g_true = int(true_rk[int(aes.SHIFT_ROWS_IMAGE[5])])
    cts = np.random.default_rng(4).integers(0, 256, (4000, 16), dtype=np.uint8)
    h5 = aes.hypothesis_matrix(cts, 5)
    twin = h5[:, g_true] == h5[:, g_true + 1]

    def leaking_set(cts):
        y = np.stack([aes.hypothesis_matrix(cts, p)[:, true_rk[int(aes.SHIFT_ROWS_IMAGE[p])]]
                      for p in range(16)], axis=1).astype(np.float32)
        n = len(cts)
        ts = TraceSet(samples=y, plaintexts=np.zeros_like(cts), ciphertexts=cts,
                      failed=np.zeros(n, dtype=bool), sample_period_s=1e-8, key=KEY,
                      fs=degenerate(), oversampling=8, noise_sigma=0.0)
        am = AlignedMatrix(rows=y, round_anchor=None, kept_indices=np.arange(n),
                           peak_positions=np.full(n, -1))
        return am, ts

    am, ts = leaking_set(cts[:64])
    assert cpa_attack(am, ts, true_key=KEY).broken
    assert min_traces_search(am, ts, KEY, step=64) == 64
    am, ts = leaking_set(cts[twin][:64])
    res = cpa_attack(am, ts, true_key=KEY)
    assert res.rank_of_true_key == (1,) * 5 + (2,) + (1,) * 10
    assert res.scores[5, g_true] == res.scores[5, g_true + 1]
    # the first maximum is the true guess, yet a tie does not rank 1
    assert res.recovered_round_key == bytes(true_rk) and not res.broken
    assert min_traces_search(am, ts, KEY, step=64) is None


def test_min_traces_monotone_in_noise():
    minima = []
    for sigma in (0.0, 1.0, 2.0):
        ts = fixed_clock_set(700, seed=21, noise_sigma=sigma)
        minima.append(min_traces_search(*aligned(ts, 8), KEY, step=100))
    assert all(m is not None for m in minima)
    assert minima == sorted(minima)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def sine_set(freq_hz, n_traces=4, n=240, sp=12.5e-9):
    t = np.arange(n) * sp
    traces = [hand_trace(np.sin(2 * np.pi * freq_hz * t), sp)
              for _ in range(n_traces)]
    return hand_set(traces)


def test_fft_peak_sits_in_the_sine_bin():
    spec = fft_spectrum(sine_set(3e6), bin_hz=1e6)
    assert spec.top_bins(1)[0][0] == 3
    assert spec.sample_rate_hz == pytest.approx(80e6)


def test_fft_parseval_energy_identity():
    ts = generate_set(study_set(2).fs, KEY, 12, oversampling=8, seed=4,
                      noise_sigma=1.0)
    spec = fft_spectrum(ts, bin_hz=1e6)
    usable = [t for t in ts.traces if not t.failed]
    energies = []
    for t in usable:
        x = t.samples.astype(np.float64)
        x = x - x.mean()
        energies.append(float(x @ x))
    time_energy = np.mean(energies)
    freq_energy = float((spec.magnitudes ** 2).sum())
    assert freq_energy == pytest.approx(time_energy, rel=1e-9)
    assert spec.n_traces == len(usable)


def test_fft_skips_failed_traces_and_validates_input():
    ts = sine_set(3e6)
    with_bad = hand_set(ts.traces + [hand_trace(np.full(240, 1e6), 12.5e-9,
                                                failed=True)])
    a = fft_spectrum(ts, bin_hz=1e6)
    b = fft_spectrum(with_bad, bin_hz=1e6)
    assert np.allclose(a.magnitudes, b.magnitudes)
    with pytest.raises(ValueError):
        fft_spectrum(ts, bin_hz=0.0)
    all_failed = hand_set([hand_trace(np.zeros(16), 12.5e-9, failed=True)])
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
    with pytest.raises(ValueError):
        peak_permutation_bound(fs1, rounds=0)


def dual_hand_set(trace_samples, sp=12.5e-9):
    fs1, fs2 = degenerate(10e6), degenerate(12e6)
    traces = [PowerTrace(samples=np.asarray(s, dtype=np.float32),
                         sample_period_s=sp, plaintext=bytes(16),
                         ciphertext=bytes(16), failed=False, core_count=2)
              for s in trace_samples]
    return TraceSet.from_traces(traces, key=KEY, fs=fs1, oversampling=8,
                                noise_sigma=0.0, key2=KEY2, fs2=fs2)


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

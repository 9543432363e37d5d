"""End-to-end acceptance suite: one test (plus documented-limitation
companions) per contract criterion.

Each criterion gets a PASS/FAIL line in the terminal summary (see
``conftest.py``).  Three sub-claims the simulation cannot honestly meet are
marked strict-xfail rather than weakened; the analysis behind each lives
next to its test.  Everything here is seeded and deterministic.
"""

import json
from itertools import combinations_with_replacement

import numpy as np
import pytest

from clockmux import aes
from clockmux.attack import (
    cpa_attack,
    fft_spectrum,
    filter_traces,
    min_traces_search,
    overlap_exploit,
    peak_permutation_bound,
    raw_matrix,
    synchronize,
)
from clockmux.cli import main
from clockmux.clock import (
    FrequencySet,
    completion_time_count,
    edge_count_distribution,
    extract_periods,
    overhead_and_error,
    period_histogram,
    permutation_count,
    presence_probabilities,
    reference_bin_width,
    simulate_mux_clock,
    simulated_edge_count_distribution,
    source_edge_counts,
)
from clockmux.presets import (
    REFERENCE_CYCLES,
    STUDY_SETS,
    dual_reference_pair,
    fixed_clock_set,
)
from clockmux.traces import (
    TraceSet,
    first_round_coincidence_fraction,
    generate_set,
    read_trace_set,
    write_trace_set,
)

KEY = bytes(range(16))
KEY2 = bytes(range(16, 32))
SEED = 20260814


# --------------------------------------------------------------------------
# 1. Permutation counts
# --------------------------------------------------------------------------

def test_permutation_counts_for_sources_without_an_edge():
    assert tuple(permutation_count(k) for k in (1, 2, 3, 4)) == (24, 16, 8, 0)


# --------------------------------------------------------------------------
# 2. Completion-time count
# --------------------------------------------------------------------------

def test_completion_time_count_matches_exhaustive_enumeration():
    assert completion_time_count(4, 10) == 286
    for n in range(1, 5):
        for r in range(1, 7):
            enumerated = sum(
                1 for _ in combinations_with_replacement(range(n), r))
            assert completion_time_count(n, r) == enumerated, (n, r)


# --------------------------------------------------------------------------
# 3. Analytic edge model vs long simulation
# --------------------------------------------------------------------------

def test_analytic_edge_model_matches_long_simulation():
    n_cycles = 100_000
    for entry in STUDY_SETS:
        fs = entry.fs
        probs = presence_probabilities(fs)
        empirical = (source_edge_counts(fs, n_cycles) >= 1).mean(axis=1)
        for i in range(4):
            p = probs[i]
            se = np.sqrt(p * (1 - p) / n_cycles)
            if se == 0.0:
                assert empirical[i] == p, (fs.label, i)
            else:
                assert abs(empirical[i] - p) <= 3 * se, (fs.label, i)
        analytic = np.asarray(edge_count_distribution(probs).probabilities)
        simulated = simulated_edge_count_distribution(fs, n_cycles)
        tv = 0.5 * np.abs(analytic - simulated).sum()
        assert tv <= 0.02, (fs.label, tv)


# --------------------------------------------------------------------------
# 4. Poisson-binomial exactness
# --------------------------------------------------------------------------

def brute_force_count_pmf(ps):
    pmf = np.zeros(5)
    for mask in range(16):
        prob = 1.0
        bits = 0
        for i in range(4):
            if mask >> i & 1:
                prob *= ps[i]
                bits += 1
            else:
                prob *= 1.0 - ps[i]
        pmf[bits] += prob
    return pmf


def test_edge_count_distribution_is_exact():
    rng = np.random.default_rng(123)
    for _ in range(100):
        ps = tuple(rng.uniform(0.0, 1.0, size=4))
        analytic = np.asarray(edge_count_distribution(ps).probabilities)
        assert np.max(np.abs(analytic - brute_force_count_pmf(ps))) <= 1e-12


# --------------------------------------------------------------------------
# 5. AES correctness and the last-round hypothesis identity
# --------------------------------------------------------------------------

def test_aes_vectors_and_last_round_hypothesis_identity():
    _, ct = aes.encrypt_blocks_with_states(
        bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
        np.frombuffer(bytes.fromhex("3243f6a8885a308d313198a2e0370734"), np.uint8)[None],
    )
    assert ct[0].tobytes() == bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    _, ct = aes.encrypt_blocks_with_states(
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        np.frombuffer(bytes.fromhex("00112233445566778899aabbccddeeff"), np.uint8)[None],
    )
    assert ct[0].tobytes() == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

    rng = np.random.default_rng(456)
    for _ in range(100):
        key = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
        pt = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
        states, cts = aes.encrypt_blocks_with_states(key, np.frombuffer(pt, np.uint8)[None])
        ciphertext = cts[0].tobytes()
        last_rk = aes.expand_key(key)[10]
        for p in range(16):
            actual = aes.HW8[states[9, 0, p] ^ ciphertext[p]]
            guess = last_rk[int(aes.SHIFT_ROWS_IMAGE[p])]
            hyp = aes.last_round_hypothesis(ciphertext, p, guess)
            assert hyp == actual, p


# --------------------------------------------------------------------------
# 6. CPA soundness on the fixed clock
# --------------------------------------------------------------------------

def test_cpa_soundness_on_the_fixed_clock():
    fixed = fixed_clock_set()
    ts = generate_set(fixed, KEY, 500, seed=41, oversampling=8)
    am = synchronize(ts, round=10, window_halfwidth=8)
    res = cpa_attack(am, true_key=KEY)
    assert res.recovered_key == KEY
    assert res.rank_of_true_key == (1,) * 16

    # noise is expressed in units of the single-bit pulse amplitude
    minima = []
    for sigma in (0.0, 1.0, 2.0):
        noisy = generate_set(fixed, KEY, 5000, seed=42, oversampling=8,
                             noise_sigma=sigma, amplitude=1.0)
        kept, _, _ = filter_traces(noisy)
        min_traces = min_traces_search(synchronize(kept, round=10, window_halfwidth=8),
                                       KEY, step=250)
        assert min_traces is not None, sigma
        minima.append(min_traces)
    assert minima[2] <= 5000
    assert minima == sorted(minima)


# --------------------------------------------------------------------------
# 7. The countermeasure's effect on the attack
# --------------------------------------------------------------------------

def search_synchronized(ts, kept, removed):
    """The search on ``kept`` synchronized at half-width 4, and the fraction
    of ``ts`` dropped by the filter (``removed``) or by synchronization."""
    am = synchronize(kept, round=10, window_halfwidth=4)
    removed += (len(kept) - am.rows.shape[0]) / len(ts)
    return min_traces_search(am, KEY, step=250), removed


def test_randomized_clock_multiplies_the_attack_cost():
    noise_sigma = 5.0
    baseline_ts = generate_set(fixed_clock_set(), KEY, 6000, seed=SEED,
                               oversampling=12, noise_sigma=noise_sigma)
    baseline_kept, baseline_removed, _ = filter_traces(baseline_ts)
    baseline_min, baseline_removed = search_synchronized(baseline_ts, baseline_kept,
                                                         baseline_removed)
    assert baseline_min is not None

    for i, entry in enumerate(STUDY_SETS, start=1):
        ts = generate_set(entry.fs, KEY, 30000, seed=SEED + i,
                          oversampling=12, noise_sigma=noise_sigma)
        kept, removed, _ = filter_traces(ts)
        unsynced = cpa_attack(raw_matrix(kept, round=10), true_key=KEY)
        assert max(unsynced.rank_of_true_key) > 32, entry.fs.label

        min_traces, removed = search_synchronized(ts, kept, removed)
        assert min_traces is not None, entry.fs.label
        assert min_traces >= 2 * baseline_min, entry.fs.label
        assert removed > baseline_removed, entry.fs.label


# --------------------------------------------------------------------------
# 8. Edge totals and period diversity at the reference length
# --------------------------------------------------------------------------

def reference_simulation(index: int):
    entry = STUDY_SETS[index - 1]
    wave = simulate_mux_clock(entry.fs, REFERENCE_CYCLES, seed=index)
    hist = period_histogram(extract_periods(wave),
                            reference_bin_width(entry.fs))
    return entry, len(wave.edges_s), hist.unique_bins


def test_edge_totals_and_period_diversity_at_reference_length():
    _, edges, _ = reference_simulation(1)
    target = STUDY_SETS[0].reference_edges
    assert abs(edges - target) <= 0.20 * target
    for index in range(1, 8):
        entry, _, bins = reference_simulation(index)
        target = entry.reference_unique_bins
        assert abs(bins - target) <= 0.25 * target, entry.fs.label


@pytest.mark.xfail(
    strict=True,
    reason="the recorded edge total for 'two high, one above half, one lower "
           "than half' (91369) is nearly 3x what its fundamentals can emit "
           "in 32000 base cycles; resimulation puts 'three high, one above "
           "half' first, so the claimed maximum cannot be reproduced")
def test_claimed_busiest_set_has_the_most_edges():
    counts = [reference_simulation(index)[1] for index in range(1, 8)]
    assert int(np.argmax(counts)) == 6  # the set claiming 91369 edges


# --------------------------------------------------------------------------
# 9. Overhead ordering and the error-risk threshold
# --------------------------------------------------------------------------

def study_overhead(index: int):
    return overhead_and_error(STUDY_SETS[index - 1].fs, rounds=10,
                              n_encryptions=2000, seed=9)


def test_mean_overhead_ordering_and_fast_set_error_risk():
    assert study_overhead(4).mean_overhead < study_overhead(5).mean_overhead
    hot = FrequencySet(base_hz=10e6, fundamentals=(45e6, 10e6, 10e6, 10e6))
    rep = overhead_and_error(hot, rounds=10, n_encryptions=2000, seed=9)
    assert rep.error_risk > 0.0


@pytest.mark.xfail(
    strict=True,
    reason="sources below the 4x threshold still produce rare short output "
           "periods when an edge lands just before a switch boundary and the "
           "next source fires just after it, so the simulated error risk is "
           "a small positive number rather than exactly zero")
def test_error_risk_is_zero_for_all_study_sets():
    risks = [study_overhead(index).error_risk for index in range(1, 8)]
    assert all(risk == 0.0 for risk in risks), risks


# --------------------------------------------------------------------------
# 10. Spectrum properties
# --------------------------------------------------------------------------

def fundamental_bin_hits(fs, n_traces=3000, seed=31, bin_hz=1e6):
    """Distinct fundamental bins showing a local spectral maximum (+-1 bin)."""
    ts = generate_set(fs, KEY, n_traces, seed=seed, oversampling=12)
    mag = fft_spectrum(ts, bin_hz=bin_hz).magnitudes
    maxima = set()
    for b in range(1, len(mag)):
        left = mag[b - 1]
        right = mag[b + 1] if b + 1 < len(mag) else -1.0
        if mag[b] > left and mag[b] >= right:
            maxima.add(b)
    fund_bins = {int(f // bin_hz) for f in fs.fundamentals}
    return {fb for fb in fund_bins if maxima & {fb - 1, fb, fb + 1}}


def test_spectrum_fundamentals_dominate_and_energy_is_conserved():
    fixed = fixed_clock_set()
    ts = generate_set(fixed, KEY, 400, seed=31, oversampling=12,
                      noise_sigma=1.0)
    spec = fft_spectrum(ts, bin_hz=1e6)
    top_bin = spec.top_bins(1)[0][0]
    assert abs(top_bin - int(fixed.base_hz // 1e6)) <= 1

    energies = []
    for samples in ts.samples[~ts.failed]:
        x = samples.astype(np.float64)
        x = x - x.mean()
        energies.append(float(x @ x))
    time_energy = float(np.mean(energies))
    freq_energy = float((spec.magnitudes.astype(np.float64) ** 2).sum())
    assert abs(freq_energy - time_energy) <= 1e-6 * time_energy

    for index in (1, 2, 3, 4, 6, 7):
        fs = STUDY_SETS[index - 1].fs
        assert len(fundamental_bin_hits(fs)) >= 3, fs.label


@pytest.mark.xfail(
    strict=True,
    reason="'three low, one lower than half' packs three fundamentals within "
           "200 kHz; a ten-pulse encryption burst lasts about a microsecond, "
           "so no attainable spectral resolution separates them and its "
           "spectrum can show at most two distinct fundamental peaks")
def test_nearly_equal_fundamentals_resolve_into_three_peaks():
    fs = STUDY_SETS[4].fs
    assert len(fundamental_bin_hits(fs)) >= 3


# --------------------------------------------------------------------------
# 11. Duplication bounds and overlap exploitation
# --------------------------------------------------------------------------

def test_candidate_bounds_overlap_rate_and_exploit_gain():
    for entry in STUDY_SETS:
        candidates, _ = peak_permutation_bound(entry.fs)
        assert 4 <= candidates <= 8, entry.fs.label

    fs1, fs2 = dual_reference_pair()
    ts = generate_set(fs1, KEY, 6000, seed=7, oversampling=8,
                      fs2=fs2, key2=KEY2)
    truth = first_round_coincidence_fraction(ts)
    detector = overlap_exploit(ts, region="first")
    assert detector.n_traces >= 5000
    assert abs(truth - 0.11) <= 0.04
    assert abs(detector.overlap_fraction - 0.11) <= 0.04

    # constructed always-overlapping final peak: five candidate positions
    # collapse to two, lifting per-trace brute-force success from 1/5 to 1/2
    samples = np.zeros(240, dtype=np.float32)
    for k in range(1, 13):
        samples[16 * k] = 60.0
    samples[16 * 12] = 130.0
    pair = TraceSet(samples=np.tile(samples, (8, 1)), plaintexts=np.zeros((8, 16), np.uint8),
                    ciphertexts=np.zeros((8, 16), np.uint8), failed=np.zeros(8, bool),
                    key=KEY, fs=fs1, oversampling=8,
                    noise_sigma=0.0, key2=KEY2, fs2=fs2)
    rep = overlap_exploit(pair, candidates=5, region="last")
    assert 1.0 / rep.candidates == pytest.approx(0.2)
    assert 1.0 / rep.reduced_candidates == pytest.approx(0.5)


# --------------------------------------------------------------------------
# 12. Determinism and round-trip
# --------------------------------------------------------------------------

DETERMINISM_CONFIG = """\
[sets]
use = 2

[traces]
n_traces = 300
oversampling = 8
noise_sigma = 1.0

[attack]
step = 100
"""


def test_same_config_and_seed_reproduce_artifacts_exactly(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DETERMINISM_CONFIG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["attack", str(out / "traces_set1.bin"),
                     "--config", str(cfg_path), "--out", str(out),
                     "--evaluate", KEY.hex()]) == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("traces_set1.bin", "attack_report.json", "attack_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "attack_report.json").read_text())
    assert report["meta"]["seed"] == 1

    for ts in (
        generate_set(fixed_clock_set(), KEY, 60, seed=3, oversampling=8,
                     noise_sigma=2.0),
        generate_set(STUDY_SETS[3].fs, KEY, 60, seed=4, oversampling=12),
        generate_set(*dual_reference_pair()[:1], KEY, 40, seed=5,
                     oversampling=8, fs2=dual_reference_pair()[1], key2=KEY2),
    ):
        path = tmp_path / "roundtrip.bin"
        write_trace_set(ts, str(path))
        assert read_trace_set(str(path)) == ts

"""Tests for the mux-clock simulator and its closed-form companions."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from clockmux import aes, clock
from clockmux.clock import (
    EDGE_COINCIDENCE_TOL_S,
    STALL_CAP_CYCLES_PER_EDGE,
    ClampedProbabilityWarning,
    FrequencySet,
    OverheadReport,
    StalledClockError,
    completion_time_count,
    double_edge_probability,
    edge_count_distribution,
    extract_periods,
    overhead_and_error,
    period_histogram,
    permutation_count,
    presence_probabilities,
    reference_bin_width,
    rising_edge_probability,
    simulate_mux_clock,
    simulated_edge_count_distribution,
    source_edge_counts,
    _edges_until,
    _merge_close,
    _mux_edges,
)
from clockmux.presets import STUDY_SETS, dual_reference_pair, fixed_clock_set, study_set
from clockmux.streams import StreamBank
from clockmux.traces import PULSE_HALF_WIDTH_FRACTION, _render_pulses, generate_set

MHZ = 1e6


def make_fs(*f_mhz, base_mhz=10.0, **kw):
    return FrequencySet(base_hz=base_mhz * MHZ,
                        fundamentals=tuple(f * MHZ for f in f_mhz), **kw)


# ---------------------------------------------------------------------
# FrequencySet construction

def test_frequency_set_validation():
    with pytest.raises(ValueError):
        make_fs(10.0, 10.0, 10.0, 10.0, base_mhz=0.0)
    with pytest.raises(ValueError):
        FrequencySet(base_hz=10 * MHZ, fundamentals=(MHZ, MHZ, MHZ))
    with pytest.raises(ValueError):
        make_fs(10.0, 10.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        make_fs(10.0, 10.0, 10.0, 10.0, duty_cycle=1.0)
    with pytest.raises(ValueError):
        make_fs(10.0, 10.0, 10.0, 10.0, phases=(0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_frequency_set_rejects_non_finite_phases(bad):
    with pytest.raises(ValueError, match="phases must be finite"):
        make_fs(10.0, 10.0, 10.0, 10.0, phases=(0.0, bad, 0.0, 0.0))


def test_frequency_set_derived_quantities():
    fs = make_fs(20.0, 10.0, 5.0, 2.5)
    assert fs.base_period_s == pytest.approx(1e-7)
    assert fs.periods_s == pytest.approx((5e-8, 1e-7, 2e-7, 4e-7))
    assert fs.ratios() == pytest.approx([0.5, 1.0, 2.0, 4.0])
    # phases normalize modulo 1
    fs2 = make_fs(10.0, 10.0, 10.0, 10.0, phases=(1.25, -0.25, 2.0, 0.5))
    assert fs2.phases == pytest.approx((0.25, 0.75, 0.0, 0.5))


# ---------------------------------------------------------------------
# Waveform simulation: exact hand-checkable cases

def test_all_equal_sources_reproduce_the_base_clock():
    fs = fixed_clock_set()
    w = simulate_mux_clock(fs, 100, seed=1)
    # with every source identical to the base, selection is irrelevant:
    # one edge per cycle, exactly on the base grid
    assert len(w.edges_s) == 100
    np.testing.assert_allclose(w.edges_s, np.arange(100) * 1e-7, rtol=0, atol=1e-18)
    periods = extract_periods(w)
    np.testing.assert_allclose(periods, 1e-7)


def test_half_rate_source_keeps_every_other_edge():
    # All four sources at half the base rate and phase 0: rising edges only
    # on even base edges, since odd ones land mid-period (source low).
    fs = make_fs(5.0, 5.0, 5.0, 5.0)
    w = simulate_mux_clock(fs, 10, seed=0)
    np.testing.assert_allclose(w.edges_s / 1e-7, [0, 2, 4, 6, 8])


def test_double_rate_source_fits_two_edges_per_cycle():
    fs = make_fs(20.0, 20.0, 20.0, 20.0)
    w = simulate_mux_clock(fs, 4, seed=0)
    np.testing.assert_allclose(w.edges_s / 1e-7, [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5])


def test_switch_from_low_to_high_creates_boundary_edge():
    # Source 0 at the base rate, source 1 at half rate.  Selecting 1 during
    # its low half produces no edge; switching back to 0 afterwards finds
    # the output low and source 0 high, so the base edge itself rises.
    ratios_fs = make_fs(10.0, 5.0, 10.0, 10.0)
    w = _forced_selection_wave(ratios_fs, [0, 1, 0])
    np.testing.assert_allclose(w / 1e-7, [0.0, 2.0])


def test_switch_between_high_sources_creates_no_boundary_edge():
    # Source 1 (half rate) is high across the first boundary; switching to
    # source 0 (base rate, also high at its edge) keeps the output high, so
    # nothing rises at the seam.
    ratios_fs = make_fs(10.0, 5.0, 10.0, 10.0)
    w = _forced_selection_wave(ratios_fs, [1, 0, 0])
    np.testing.assert_allclose(w / 1e-7, [0.0, 2.0])


def _forced_selection_wave(fs, selections):
    """Run the edge extraction with a fixed selection sequence (seconds)."""
    edges = _mux_edges(fs.ratios(), fs.duty_cycle, np.asarray([fs.phases]),
                       np.asarray([selections]), 0, np.array([-1]))
    edges = _merge_close(edges, EDGE_COINCIDENCE_TOL_S / fs.base_period_s)[0]
    return edges * fs.base_period_s


def test_waveform_invariants_across_random_sets():
    rng = np.random.default_rng(99)
    for trial in range(20):
        f = rng.uniform(2.0, 25.0, size=4)
        fs = make_fs(*f)
        w = simulate_mux_clock(fs, 500, seed=trial)
        tau = w.edges_s / fs.base_period_s
        assert (np.diff(tau) > 0).all()
        assert tau[0] >= 0.0 and tau[-1] < 500.0
        assert w.source_per_cycle.shape == (500,)
        assert set(np.unique(w.source_per_cycle)) <= {0, 1, 2, 3}


def test_simulation_is_deterministic_in_the_seed():
    fs = STUDY_SETS[0].fs
    a = simulate_mux_clock(fs, 2000, seed=42)
    b = simulate_mux_clock(fs, 2000, seed=42)
    c = simulate_mux_clock(fs, 2000, seed=43)
    np.testing.assert_array_equal(a.edges_s, b.edges_s)
    np.testing.assert_array_equal(a.source_per_cycle, b.source_per_cycle)
    assert len(a.edges_s) != len(c.edges_s) or not np.array_equal(a.edges_s, c.edges_s)


def test_rejects_nonpositive_cycle_count():
    with pytest.raises(ValueError):
        simulate_mux_clock(fixed_clock_set(), 0, seed=1)


# ---------------------------------------------------------------------
# Batched clock runs against a one-generator reference

def _serial_mux_edges(ratios, duty, phases, selections, first_cycle, prev_selection):
    """Reference edge extraction for one run of cycles (None: power-on)."""
    n = len(selections)
    k = np.arange(first_cycle, first_cycle + n, dtype=np.float64)
    src = np.asarray(selections, dtype=np.intp)
    r_new = np.mod(k / ratios[src] - phases[src], 1.0)
    new_high = r_new < duty
    prev_src = np.concatenate(([prev_selection if prev_selection is not None else -1],
                               src[:-1]))
    valid_prev = prev_src >= 0
    safe_prev = np.where(valid_prev, prev_src, 0)
    r_prev = np.mod(k / ratios[safe_prev] - phases[safe_prev], 1.0)
    prev_high = (r_prev > 0.0) & (r_prev <= duty) & valid_prev
    parts = [k[new_high & ~prev_high]]
    t_lo = float(first_cycle)
    t_hi = float(first_cycle + n)
    for i in range(4):
        rho = float(ratios[i])
        m_lo = math.floor(t_lo / rho - phases[i]) - 1
        m_hi = math.ceil(t_hi / rho - phases[i]) + 1
        m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
        e = (m + phases[i]) * rho
        cyc = np.floor(e)
        ok = (e > cyc) & (cyc >= t_lo) & (cyc < t_hi)
        e = e[ok]
        cyc_idx = cyc[ok].astype(np.intp) - first_cycle
        parts.append(e[src[cyc_idx] == i])
    edges = np.concatenate(parts)
    edges.sort(kind="stable")
    return edges


def _serial_merge_close(edges, tol):
    """Reference greedy merge of one run's sorted edges."""
    if len(edges) < 2 or not (np.diff(edges) < tol).any():
        return edges
    kept = [edges[0]]
    for e in edges[1:]:
        if e - kept[-1] >= tol:
            kept.append(e)
    return np.asarray(kept)


def _serial_edges_until(fs, rng, n_edges, base_phase=0.0, source_phases=None):
    """Reference run of one generator: chunks drawn until ``n_edges`` edges."""
    ratios = fs.ratios()
    phases = np.asarray(source_phases if source_phases is not None else fs.phases,
                        dtype=np.float64)
    tol = EDGE_COINCIDENCE_TOL_S / fs.base_period_s
    chunk = max(16, n_edges)
    cycle_cap = STALL_CAP_CYCLES_PER_EDGE * n_edges
    edges = np.empty(0, dtype=np.float64)
    first_cycle = 0
    prev_sel = None
    while len(edges) < n_edges:
        if first_cycle >= cycle_cap:
            raise StalledClockError(
                f"only {len(edges)} edges after {first_cycle} base cycles "
                f"(needed {n_edges})")
        size = min(chunk, cycle_cap - first_cycle)
        sel = rng.integers(0, 4, size=size, dtype=np.int8)
        part = _serial_mux_edges(ratios, fs.duty_cycle, phases, sel, first_cycle, prev_sel)
        edges = _serial_merge_close(np.concatenate([edges, part]), tol)
        first_cycle += size
        prev_sel = int(sel[-1])
    return edges[:n_edges] + base_phase


def _generators(seed, n):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


def _assert_batch_matches_serial(fs, seed, n_rows, n_edges, base_phases=None,
                                 source_phases=None):
    """Compare one batched call on a stream bank with a serial run per
    generator; return how many rows drew more than one chunk."""
    bank, rows = StreamBank(seed, n_rows), np.arange(n_rows)
    serial, one_chunk = (_generators(seed, n_rows) for _ in range(2))
    if base_phases is None:
        got = _edges_until(fs, bank, rows, n_edges)
        want = [_serial_edges_until(fs, rng, n_edges) for rng in serial]
    else:
        got = _edges_until(fs, bank, rows, n_edges, base_phases, source_phases)
        want = [_serial_edges_until(fs, rng, n_edges, float(b), tuple(p))
                for rng, b, p in zip(serial, base_phases, source_phases)]
    assert got.shape == (n_rows, n_edges)
    for row, ref in zip(got, want):
        assert np.array_equal(row, ref)
    # each bank row stopped drawing where its serial generator did
    assert bank.states(rows) == [b.bit_generator.state for b in serial]
    for rng in one_chunk:
        rng.integers(0, 4, size=max(16, n_edges), dtype=np.int8)
    return sum(a.bit_generator.state != b.bit_generator.state
               for a, b in zip(serial, one_chunk))


@pytest.mark.parametrize("index, seed", [(2, 6), (3, 1), (7, 2)])
def test_batched_edges_match_serial_runs_with_second_chunks(index, seed):
    assert _assert_batch_matches_serial(study_set(index).fs, seed, 100, 11) >= 1


@pytest.mark.parametrize("n_edges", [3, 11, 20])
def test_batched_edges_match_serial_runs_with_row_phases(n_edges):
    rng = np.random.default_rng(n_edges)
    base_phases, source_phases = rng.random(150), rng.random((150, 4))
    for index in (1, 3, 7):
        _assert_batch_matches_serial(study_set(index).fs, n_edges, 150, n_edges,
                                     base_phases, source_phases)


def test_batch_with_one_stalling_row_raises():
    # sources 100x slower than the base: phase 0 rises at cycles 0 and 100,
    # phase 0.5 only at 50 within the 128-cycle cap for two edges
    crawl = make_fs(0.1, 0.1, 0.1, 0.1)
    phases = np.zeros((6, 4))
    phases[4] = 0.5
    message = "only 1 edges after 128 base cycles (needed 2)"
    with pytest.raises(StalledClockError, match=re.escape(message)):
        _serial_edges_until(crawl, _generators(0, 1)[0], 2, source_phases=phases[4])
    with pytest.raises(StalledClockError, match=re.escape(message)):
        _edges_until(crawl, StreamBank(0, 6), np.arange(6), 2, source_phases=phases)
    ok = _edges_until(crawl, StreamBank(0, 4), np.arange(4), 2, source_phases=phases[:4])
    np.testing.assert_array_equal(ok, [[0.0, 100.0]] * 4)


def test_dual_core_set_matches_serial_runs_per_generator():
    fs, fs2 = dual_reference_pair()
    key = bytes(range(16))
    ts = generate_set(fs, key, 300, oversampling=4, seed=11, fs2=fs2, key2=key[::-1])
    threshold = 0.25 * fs.base_period_s
    for i, rng in enumerate(_generators(11, 300)):
        rng.integers(0, 256, 16, dtype=np.uint8)  # plaintext
        base_phase, source_phases = float(rng.random()), tuple(rng.random(4))
        e1 = _serial_edges_until(fs, rng, 11) * fs.base_period_s
        e2 = _serial_edges_until(fs2, rng, 11, base_phase, source_phases) * fs2.base_period_s
        assert np.array_equal(ts.clock_edges[i], [e1, e2])
        failed = bool((np.diff(e1) < threshold).any())
        assert ts.failed[i] == failed
        if failed:
            assert ts.ciphertexts[i].tobytes() == rng.integers(0, 256, 16, np.uint8).tobytes()
    assert ts.failed.any()


def test_single_core_set_matches_serial_runs_per_generator():
    # seed 7 gives set 3 five failed rows and two rows that draw a second chunk
    fs, key, n, sigma, seed = study_set(3).fs, bytes(range(16)), 300, 0.5, 7
    ts = generate_set(fs, key, n, oversampling=4, noise_sigma=sigma, seed=seed)
    sp, hw = fs.base_period_s / 4, fs.base_period_s * PULSE_HALF_WIDTH_FRACTION
    n_samples = ts.samples.shape[1]
    second_chunks = 0
    for i, (rng, one_chunk) in enumerate(zip(_generators(seed, n), _generators(seed, n))):
        pt = rng.integers(0, 256, 16, dtype=np.uint8)
        edges = _serial_edges_until(fs, rng, 11) * fs.base_period_s
        one_chunk.integers(0, 256, 16, dtype=np.uint8)
        one_chunk.integers(0, 4, size=16, dtype=np.int8)
        second_chunks += rng.bit_generator.state != one_chunk.bit_generator.state
        states, ct = aes.encrypt_blocks_with_states(key, pt[None])
        failed = bool((np.diff(edges) < 0.25 * fs.base_period_s).any())
        if failed:
            ct = rng.integers(0, 256, 16, dtype=np.uint8)[None]
        dist = aes.round_distances(states).T.astype(np.float64)
        clean = _render_pulses(edges[None, 1:], dist, n_samples, sp, hw)
        noise = sigma * rng.standard_normal(n_samples)
        sample = (clean[0].astype(np.float32).astype(np.float64) + noise).astype(np.float32)
        assert np.array_equal(ts.samples[i], sample)
        assert np.array_equal(ts.plaintexts[i], pt)
        assert np.array_equal(ts.ciphertexts[i], ct[0])
        assert ts.failed[i] == failed
        assert np.array_equal(ts.clock_edges[i], [edges])
    assert ts.failed.any() and second_chunks >= 1


def test_overhead_at_16_rounds_matches_serial_generators():
    # 17-edge runs draw 17-cycle chunks, 5 uint32 words each, so a second
    # chunk starts on the upper half a first chunk left cached
    fs, rounds, n = study_set(7).fs, 16, 300
    rep = overhead_and_error(fs, rounds=rounds, n_encryptions=n, seed=6)
    gens = list(map(np.random.default_rng, np.random.SeedSequence(6).spawn(n)))
    edges = np.array([_serial_edges_until(fs, rng, rounds + 1) for rng in gens])
    one_chunk = list(map(np.random.default_rng, np.random.SeedSequence(6).spawn(n)))
    for rng in one_chunk:
        rng.integers(0, 4, size=rounds + 1, dtype=np.int8)
    assert sum(a.bit_generator.state != b.bit_generator.state
               for a, b in zip(gens, one_chunk)) >= 1
    completions, periods = edges[:, rounds], np.diff(edges, axis=1)
    tb = fs.base_period_s
    assert rep == OverheadReport(
        mean_overhead=float(completions.mean() / rounds - 1.0),
        worst_overhead=float(completions.max() / rounds - 1.0),
        max_delay_s=float(completions.max() * tb),
        error_risk=int(np.count_nonzero(periods < 0.25)) / periods.size,
        rounds=rounds, n_encryptions=n, error_threshold_s=0.25 * tb)


def test_merge_close_on_hand_made_rows():
    tol = 1e-5
    nan = np.nan
    rows = np.array([[0.0, 0.5 * tol, 3.0, nan],       # one close pair
                     [0.0, 0.6 * tol, 1.2 * tol, 2.0],  # chain: keep 1st and 3rd
                     [0.0, 1.0, 2.0, nan],              # nothing close
                     [1.0, nan, nan, nan]])
    want = np.array([[0.0, 3.0, nan, nan],
                     [0.0, 1.2 * tol, 2.0, nan],
                     [0.0, 1.0, 2.0, nan],
                     [1.0, nan, nan, nan]])
    for row in rows:
        ref = _serial_merge_close(row[~np.isnan(row)], tol)
        assert np.array_equal(_merge_close(row[None].copy(), tol)[0, :len(ref)], ref)
    untouched = rows[2:].copy()
    got = _merge_close(rows, tol)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got[2:], untouched, equal_nan=True)


def test_merge_close_matches_serial_on_long_rows_with_planted_chains():
    rng = np.random.default_rng(5)
    tol, width = 1e-5, 40_000
    rows = np.full((5, width), np.nan)
    for r, n in enumerate((width, 39_000, 25_000, 30_000, 10)):
        row = np.sort(rng.uniform(0.0, 1e4, n))
        if r != 3:  # row 3 keeps only its chance close pairs, if any
            # chains of 2-5 gaps under tol, some spanning more than tol
            starts = rng.choice(n - 6, size=min(n // 50, 300), replace=False)
            for j in starts:
                k = rng.integers(1, 5)
                row[j + 1:j + 1 + k] = row[j] + np.cumsum(rng.uniform(0.1, 0.9, k) * tol)
            row.sort()
        rows[r, :n] = row
    before = rows.copy()
    want = [_serial_merge_close(row[~np.isnan(row)], tol) for row in before]
    got = _merge_close(rows, tol)
    assert got is rows
    chained = 0
    for g, b, w in zip(got, before, want):
        assert np.array_equal(g[:len(w)], w)
        assert np.isnan(g[len(w):]).all()
        b = b[~np.isnan(b)]
        close = np.diff(b) < tol
        chained += int((close[1:] & close[:-1]).sum())
    assert chained > 100  # chains, not only lone close pairs, were merged
    assert len(want[0]) < width and len(want[4]) == 10


def _serial_waveform(fs, n_base_cycles, seed):
    """Reference edges (seconds) of ``simulate_mux_clock``: one run of cycles."""
    sel = np.random.Generator(np.random.PCG64(seed)).integers(0, 4, size=n_base_cycles,
                                                              dtype=np.int8)
    edges = _serial_mux_edges(fs.ratios(), fs.duty_cycle, np.asarray(fs.phases), sel, 0, None)
    return _serial_merge_close(edges, EDGE_COINCIDENCE_TOL_S / fs.base_period_s) * \
        fs.base_period_s, sel


@pytest.mark.parametrize("index", [1, 4, 7])
def test_long_simulation_in_runs_matches_one_serial_run(index):
    rng = np.random.default_rng(index)
    fs = dataclasses.replace(study_set(index).fs, phases=tuple(rng.random(4)))
    n = 3 * clock.SIM_RUN_CYCLES + 777  # several runs and a ragged tail
    w = simulate_mux_clock(fs, n, seed=index)
    edges, sel = _serial_waveform(fs, n, index)
    assert np.array_equal(w.edges_s, edges)
    assert np.array_equal(w.source_per_cycle, sel)


def test_close_pair_across_a_seam_merges_as_in_one_run(monkeypatch):
    # sources 0 and 1 fit 2057 and 4484 periods into 2999 cycles: rounding
    # puts their edge one ulp before cycle 2999, and the level test sees them
    # rise exactly on it, so a switch between them there makes a close pair
    # whose edges fall in two runs of 2999 cycles
    run, base = 2999, 10 * MHZ
    fs = FrequencySet(base, (base * 2057 / run, base * 4484 / run, 7.3 * MHZ, 12.9 * MHZ),
                      phases=(0.0, 0.0, 0.3, 0.8))
    n, seed = 3 * run + 123, 9
    edges, _ = _serial_waveform(fs, n, seed)
    one_run = simulate_mux_clock(fs, n, seed)
    tau = _serial_mux_edges(fs.ratios(), fs.duty_cycle, np.asarray(fs.phases),
                            one_run.source_per_cycle, 0, None)
    pair = np.flatnonzero(np.diff(tau) < EDGE_COINCIDENCE_TOL_S / fs.base_period_s)
    assert {run, 2 * run} <= set(tau[pair + 1]) and (tau[pair] < tau[pair + 1]).all()
    monkeypatch.setattr(clock, "SIM_RUN_CYCLES", run)
    in_runs = simulate_mux_clock(fs, n, seed)
    assert np.array_equal(one_run.edges_s, edges)
    assert np.array_equal(in_runs.edges_s, edges)


@pytest.mark.parametrize("run", [7, 97])
def test_small_odd_runs_give_the_one_run_edges(monkeypatch, run):
    fs = dataclasses.replace(study_set(1).fs, phases=(0.1, 0.9, 0.35, 0.6))
    want = [simulate_mux_clock(fs, n, seed=3).edges_s for n in (1, 2000, 5003)]
    monkeypatch.setattr(clock, "SIM_RUN_CYCLES", run)
    got = [simulate_mux_clock(fs, n, seed=3).edges_s for n in (1, 2000, 5003)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------
# Period statistics

def test_period_histogram_examples():
    h = period_histogram(np.array([1.0, 1.0, 2.0]), 0.5)
    assert h.unique_bins == 2
    assert h.total_periods == 3
    assert h.bins == {2: 2, 4: 1}

    empty = period_histogram(np.array([]), 0.5)
    assert empty.unique_bins == 0
    assert empty.total_periods == 0


def test_period_histogram_bin_edges_are_half_open():
    h = period_histogram(np.array([0.0, 0.49, 0.5, 0.99, 1.0]), 0.5)
    assert h.bins == {0: 2, 1: 2, 2: 1}


def test_period_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        period_histogram(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        period_histogram(np.array([-1.0]), 0.5)


def test_reference_bin_width_scales_with_base_period():
    fs = fixed_clock_set()
    assert reference_bin_width(fs) == pytest.approx(fs.base_period_s * 5.2e-3)


# ---------------------------------------------------------------------
# Closed-form probabilities

def test_rising_edge_probability_values():
    tb = 1e-7
    assert rising_edge_probability(tb, tb) == 1.0
    assert rising_edge_probability(2 * tb, tb) == 0.5
    assert rising_edge_probability(tb / 2, tb) == 1.0
    with pytest.raises(ValueError):
        rising_edge_probability(0.0, tb)


def test_double_edge_probability_values():
    tb = 1e-7
    assert double_edge_probability(2 * tb, tb) == 0.0
    assert double_edge_probability(tb, tb) == 0.0
    assert double_edge_probability(tb / 1.5, tb) == pytest.approx(0.5)
    with pytest.warns(ClampedProbabilityWarning):
        assert double_edge_probability(tb / 3, tb) == 1.0


def test_edge_count_distribution_matches_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = tuple(rng.uniform(0.0, 1.0, size=4))
        got = edge_count_distribution(p).probabilities
        want = [0.0] * 5
        for present in itertools.product((0, 1), repeat=4):
            prob = 1.0
            for pi, bit in zip(p, present):
                prob *= pi if bit else 1.0 - pi
            want[sum(present)] += prob
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert sum(got) == pytest.approx(1.0, abs=1e-12)


def test_edge_count_distribution_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        edge_count_distribution((0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        edge_count_distribution((0.5, 0.5, 0.5, 1.5))


def test_presence_probabilities_on_mixed_set():
    fs = make_fs(20.0, 10.0, 5.0, 4.0)
    assert presence_probabilities(fs) == pytest.approx((1.0, 1.0, 0.5, 0.4))


# ---------------------------------------------------------------------
# Counting formulas

def test_permutation_count_table():
    assert [permutation_count(n) for n in range(5)] == [16, 24, 16, 8, 0]
    with pytest.raises(ValueError):
        permutation_count(5)


def test_completion_time_count_reference_value():
    assert completion_time_count(4, 10) == 286


def test_completion_time_count_equals_multiset_enumeration():
    # Completion time is determined by the multiset of per-round periods, so
    # counting distinct sorted tuples over all n^r assignments is an oracle.
    for n in range(1, 5):
        for r in range(1, 7):
            seen = {tuple(sorted(c))
                    for c in itertools.product(range(n), repeat=r)}
            assert completion_time_count(n, r) == len(seen), (n, r)


def test_completion_time_count_rejects_bad_args():
    with pytest.raises(ValueError):
        completion_time_count(0, 10)
    with pytest.raises(ValueError):
        completion_time_count(4, 0)


# ---------------------------------------------------------------------
# Empirical vs analytic

def test_source_edge_counts_against_direct_grid_walk():
    fs = make_fs(11.9713, 7.7315, 9.2778, 12.6515)
    n = 400
    counts = source_edge_counts(fs, n)
    ratios = fs.ratios()
    for i in range(4):
        rho = ratios[i]
        edges = [(m * rho) for m in range(int(np.ceil((n + 1) / rho)) + 2)]
        for k in range(n):
            want = sum(1 for e in edges if k <= e < k + 1)
            assert counts[i, k] == want, (i, k)


def test_presence_matches_analytic_within_monte_carlo_error():
    fs = STUDY_SETS[1].fs
    n = 20000
    presence = (source_edge_counts(fs, n) >= 1).mean(axis=1)
    analytic = presence_probabilities(fs)
    for i in range(4):
        se = math.sqrt(max(analytic[i] * (1 - analytic[i]), 1e-12) / n)
        assert abs(presence[i] - analytic[i]) <= 3 * se + 1e-9, i


def test_simulated_edge_count_distribution_is_a_distribution():
    dist = simulated_edge_count_distribution(STUDY_SETS[2].fs, 5000)
    assert dist.shape == (5,)
    assert dist.sum() == pytest.approx(1.0)
    assert (dist >= 0).all()


def per_source_edge_presence(w, fs):
    """Fraction of cycles, per selected source, containing that source's edge.

    Interior output edges are the selected source's own edges; an edge
    sitting exactly on a base boundary counts only when the source's grid is
    exactly aligned there (otherwise it is a switch artifact, which the
    presence model does not describe).
    """
    tau = w.edges_s / w.base_period_s
    cyc = np.floor(tau).astype(np.int64)
    cyc = np.minimum(cyc, w.n_base_cycles - 1)
    interior = tau > cyc
    has_edge = np.zeros(w.n_base_cycles, dtype=bool)
    has_edge[cyc[interior]] = True
    boundary_cycles = cyc[~interior]
    if len(boundary_cycles):
        src = w.source_per_cycle[boundary_cycles].astype(np.intp)
        ratios = fs.ratios()
        phases = np.asarray(fs.phases, dtype=np.float64)
        r = np.mod(boundary_cycles / ratios[src] - phases[src], 1.0)
        has_edge[boundary_cycles[r == 0.0]] = True
    out = np.empty(4, dtype=np.float64)
    for i in range(4):
        mask = w.source_per_cycle == i
        out[i] = has_edge[mask].mean() if mask.any() else np.nan
    return out


def test_selected_presence_agrees_with_free_running_presence():
    # The output waveform only shows the selected source's edges; per-source
    # presence measured through the mux should match the free-running rate.
    fs = STUDY_SETS[0].fs
    w = simulate_mux_clock(fs, 30000, seed=5)
    through_mux = per_source_edge_presence(w, fs)
    analytic = presence_probabilities(fs)
    np.testing.assert_allclose(through_mux, analytic, atol=0.02)


# ---------------------------------------------------------------------
# Overhead and error risk

def test_degenerate_set_has_zero_overhead_and_risk():
    rep = overhead_and_error(fixed_clock_set(), rounds=10, n_encryptions=50, seed=2)
    assert rep.mean_overhead == 0.0
    assert rep.worst_overhead == 0.0
    assert rep.error_risk == 0.0
    assert rep.max_delay_s == pytest.approx(10 * 1e-7)


def test_randomized_set_has_positive_overhead():
    rep = overhead_and_error(STUDY_SETS[1].fs, rounds=10, n_encryptions=200, seed=3)
    assert rep.mean_overhead > 0.0
    assert rep.worst_overhead >= rep.mean_overhead
    assert rep.error_risk == 0.0  # no fundamental beyond 4x the base


def test_error_risk_scales_with_fastest_fundamental():
    # A fundamental above 4x the base rate emits periods below the error
    # threshold on its own, so the risk is large.  Sets with every fundamental
    # below 4x still carry a small risk: when one source's rising edge lands
    # just before a selection boundary and the next source's edge lands just
    # after it, the two edges flank the switch and the output period between
    # them can be arbitrarily short.
    hot = make_fs(45.0, 10.0, 10.0, 10.0)
    rep = overhead_and_error(hot, rounds=10, n_encryptions=200, seed=4)
    assert rep.error_risk > 0.2
    cool = make_fs(14.4317, 12.9781, 4.4021, 3.6719)
    rep2 = overhead_and_error(cool, rounds=10, n_encryptions=200, seed=4)
    assert 0.0 < rep2.error_risk < 0.05
    assert rep.error_risk > 5.0 * rep2.error_risk


def test_stalled_clock_raises():
    # sources ~100x slower than the base yield edges every ~left out hundreds
    # of cycles, beyond the per-edge stall budget
    crawl = make_fs(0.1, 0.1, 0.1, 0.1)
    with pytest.raises(StalledClockError):
        overhead_and_error(crawl, rounds=10, n_encryptions=2, seed=5)


def test_overhead_report_is_deterministic():
    a = overhead_and_error(STUDY_SETS[3].fs, rounds=10, n_encryptions=100, seed=9)
    b = overhead_and_error(STUDY_SETS[3].fs, rounds=10, n_encryptions=100, seed=9)
    assert a == b

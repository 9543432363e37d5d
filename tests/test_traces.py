"""Trace synthesis and the binary trace format.

Render positions are checked against hand-computed grids on degenerate
(fixed-frequency) clocks, the batched pulse render against a per-edge
reference loop, dual-core superposition against the sum of each core's own
render, batched generation, peak detection and spectrum against tiny row
batches, and the file format against byte-level corruptions.
"""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from clockmux import aes, clock, traces
from clockmux.attack import detect_peaks, fft_spectrum
from clockmux.clock import FrequencySet
from clockmux.presets import REFERENCE_BASE_HZ, dual_reference_pair, study_set
from clockmux.traces import (
    PULSE_HALF_WIDTH_FRACTION,
    TraceMagicError,
    TraceSet,
    TraceTruncatedError,
    TraceVersionError,
    TraceFormatError,
    _render_pulses,
    first_round_coincidence_fraction,
    generate_set,
    read_trace_set,
    write_trace_set,
)

KEY = bytes(range(16))
KEY2 = bytes(range(16, 32))


def degenerate(base_hz=10e6):
    return FrequencySet(base_hz=base_hz, fundamentals=(base_hz,) * 4)


def one_trace(fs, **kw):
    """A one-trace set; tests read its row 0."""
    return generate_set(fs, KEY, 1, seed=1, **kw)


def round_hds(key, pt):
    pts = np.frombuffer(pt, np.uint8)[None, :]
    states, _ = aes.encrypt_blocks_with_states(key, pts)
    flips = states[:, 0, :][:-1] ^ states[:, 0, :][1:]
    return np.unpackbits(flips, axis=1).sum(axis=1)


# ---------------------------------------------------------------------------
# Single-core rendering
# ---------------------------------------------------------------------------

def test_fixed_clock_render_is_exact():
    # with oversampling 8 the pulse half-width equals one sample period, so
    # each round deposits its Hamming distance on exactly one sample
    fs = degenerate()
    ts = one_trace(fs, oversampling=8)
    samples = ts.samples[0]
    hds = round_hds(KEY, ts.plaintexts[0].tobytes())
    expected = np.zeros(240, dtype=np.float32)
    for k in range(1, 11):
        expected[8 * k] = hds[k - 1]
    assert samples.dtype == np.float32
    # apex samples carry the exact Hamming distances; borders may hold
    # float-rounding crumbs many orders below one bit flip
    for k in range(1, 11):
        assert samples[8 * k] == hds[k - 1]
    assert np.allclose(samples, expected, atol=1e-9)
    assert not ts.failed[0]
    _, ct = aes.encrypt_blocks_with_states(KEY, ts.plaintexts)
    assert bytes(ts.ciphertexts[0]) == ct[0].tobytes()
    assert ts.sample_period_s == pytest.approx(fs.base_period_s / 8)


def _render_per_edge(edge_times_s, amplitudes, n_samples, sample_period_s,
                     half_width_s):
    """Reference render of one trace: one triangular pulse at a time, in edge order."""
    out = np.zeros(n_samples, dtype=np.float64)
    for e, a in zip(edge_times_s, amplitudes):
        lo = max(0, int(np.ceil((e - half_width_s) / sample_period_s)))
        hi = min(n_samples - 1, int(np.floor((e + half_width_s) / sample_period_s)))
        if hi < lo:
            continue
        t = np.arange(lo, hi + 1) * sample_period_s
        w = 1.0 - np.abs(t - e) / half_width_s
        np.clip(w, 0.0, None, out=w)
        out[lo:hi + 1] += a * w
    return out


@pytest.mark.parametrize("oversampling", [2, 3, 8, 12, 16, 33])
def test_batched_render_matches_per_edge_loop(oversampling):
    # the one-scatter render must give the reference loop's bytes row for
    # row, including pulses cut by either end of the window and overlaps
    tb = 1e-7
    sp, hw = tb / oversampling, tb * PULSE_HALF_WIDTH_FRACTION
    n_samples = 30 * oversampling
    end = n_samples * sp
    rng = np.random.default_rng(oversampling)
    edges = np.sort(rng.uniform(-2 * tb, 32 * tb, (40, 10)), axis=1)
    edges[0] = [-3 * hw, -hw / 2, 0.0, 5 * tb + 0.05e-9, 5 * tb + 0.15e-9,
                5 * tb + 0.25e-9, end - hw / 2, end - sp + hw / 2, end, end + 3 * hw]
    amps = rng.uniform(0.0, 100.0, edges.shape)
    got = _render_pulses(edges, amps, n_samples, sp, hw)
    assert got.shape == (40, n_samples) and got.dtype == np.float64
    for row, e, a in zip(got, edges, amps):
        assert np.array_equal(row, _render_per_edge(e, a, n_samples, sp, hw))
    # the special row does exercise both cut ends and three overlapping
    # pulses (with three, the order of the sum shows in the bytes)
    one = [_render_per_edge([e], [1.0], n_samples, sp, hw) for e in edges[0]]
    assert not one[0].any() and not one[-1].any()
    assert one[1][0] > 0 and one[7][-1] > 0
    assert ((one[3] > 0) & (one[4] > 0) & (one[5] > 0)).any()


def test_amplitude_scales_pulses():
    fs = degenerate()
    base = one_trace(fs, oversampling=8)
    scaled = one_trace(fs, oversampling=8, amplitude=2.5)
    assert np.allclose(scaled.samples[0], 2.5 * base.samples[0], atol=1e-4)


def test_window_override_and_nyquist_floor():
    fs = degenerate()
    ts = one_trace(fs, oversampling=8, window_cycles=40)
    assert len(ts.samples[0]) == 40 * 8
    with pytest.raises(ValueError):
        one_trace(fs, oversampling=1)


def doubled_window_pair():
    """Two fixed cores whose summed trace has a doubled capture window.

    Core 2 runs its mux at twice the rate but draws from the same 10 MHz
    sources, so both cores emit identical waveforms while the generator's
    bookkeeping (which follows core 1) sees core 2 span twice as many of its
    own mux cycles.
    """
    f = REFERENCE_BASE_HZ
    fs1 = FrequencySet(base_hz=f, fundamentals=(f,) * 4,
                       label="fixed core, matched mux")
    fs2 = FrequencySet(base_hz=2 * f, fundamentals=(f,) * 4,
                       label="fixed core, doubled mux")
    return fs1, fs2


def test_doubling_base_frequency_halves_window_seconds():
    slow, fast = doubled_window_pair()
    a = one_trace(slow, oversampling=8)
    b = one_trace(fast, oversampling=8)
    assert len(a.samples[0]) == len(b.samples[0])
    dur = lambda t: len(t.samples[0]) * t.sample_period_s
    assert dur(b) == pytest.approx(dur(a) / 2)


def test_generation_is_deterministic():
    fs = study_set(3).fs
    a = generate_set(fs, KEY, 40, oversampling=8, seed=11)
    b = generate_set(fs, KEY, 40, oversampling=8, seed=11)
    assert a == b
    c = generate_set(fs, KEY, 40, oversampling=8, seed=12)
    assert a != c


def test_noise_reuses_clock_and_plaintext_streams():
    # the noise draw always happens and is scaled by sigma, so the same seed
    # yields the same encryption and clock at every noise level
    fs = study_set(1).fs
    quiet = generate_set(fs, KEY, 10, oversampling=8, seed=7, noise_sigma=0.0)
    low = generate_set(fs, KEY, 10, oversampling=8, seed=7, noise_sigma=1.0)
    high = generate_set(fs, KEY, 10, oversampling=8, seed=7, noise_sigma=3.0)
    assert len(quiet) == len(low) == len(high) == 10
    for i in range(10):
        q, l, h = (bytes(s.plaintexts[i]) for s in (quiet, low, high))
        assert q == l == h
        assert quiet.failed[i] == low.failed[i] == high.failed[i]
        if not quiet.failed[i]:
            q, l, h = (bytes(s.ciphertexts[i]) for s in (quiet, low, high))
            assert q == l == h
        n1 = low.samples[i].astype(np.float64) - quiet.samples[i].astype(np.float64)
        n3 = high.samples[i].astype(np.float64) - quiet.samples[i].astype(np.float64)
        assert np.allclose(n3, 3.0 * n1, atol=1e-3)
        assert float(np.abs(n1).max()) > 0.0


def test_failed_flag_matches_short_periods_and_randomizes_ciphertext():
    # a 45 MHz source on a 10 MHz base fires periods far below a quarter of
    # the base period whenever it is selected twice in a row
    fs = FrequencySet(base_hz=10e6, fundamentals=(45e6, 10e6, 10e6, 10e6))
    ts = generate_set(fs, KEY, 60, oversampling=8, seed=3)
    tb = fs.base_period_s
    n_failed = 0
    _, true_cts = aes.encrypt_blocks_with_states(KEY, ts.plaintexts)
    for edges, failed, true_ct, ct in zip(ts.clock_edges[:, 0], ts.failed, true_cts,
                                          ts.ciphertexts):
        short = bool((np.diff(edges) < 0.25 * tb).any())
        assert failed == short
        if failed:
            n_failed += 1
            assert bytes(ct) != bytes(true_ct)
        else:
            assert bytes(ct) == bytes(true_ct)
    assert 0 < n_failed < len(ts)


# ---------------------------------------------------------------------------
# Dual-core rendering
# ---------------------------------------------------------------------------

def test_dual_trace_is_sum_of_single_renders():
    # at sigma 0 a dual-core row must equal the float32 sum of each core's
    # own render, both on core 1's grid and pulse width
    fs1 = degenerate(10e6)
    fs2 = degenerate(20e6)
    dual = generate_set(fs1, KEY, 1, oversampling=8, seed=4, fs2=fs2, key2=KEY2)
    pt = dual.plaintexts[0].tobytes()
    hw = fs1.base_period_s * PULSE_HALF_WIDTH_FRACTION
    s1, s2 = (_render_pulses(dual.clock_edges[:, c, 1:], round_hds(k, pt)[None] * 1.0,
                             240, dual.sample_period_s, hw).astype(np.float32)
              for c, k in enumerate((KEY, KEY2)))
    assert dual.samples.shape == s1.shape == s2.shape == (1, 240)
    assert s2.any()
    total = (s1.astype(np.float64) + s2.astype(np.float64)).astype(np.float32)
    assert np.array_equal(dual.samples, total)
    assert dual.core_count == 2
    # the stored ciphertext is core 1's, not core 2's
    _, ct1 = aes.encrypt_blocks_with_states(KEY, dual.plaintexts)
    _, ct2 = aes.encrypt_blocks_with_states(KEY2, dual.plaintexts)
    assert np.array_equal(dual.ciphertexts, ct1) and not np.array_equal(dual.ciphertexts, ct2)


def test_dual_requires_distinct_bases_and_paired_keys():
    fs = study_set(1).fs
    with pytest.raises(ValueError):
        generate_set(fs, KEY, 1, fs2=fs, key2=KEY2)
    with pytest.raises(ValueError):
        generate_set(fs, KEY, 3, fs2=None, key2=KEY2)


def test_first_round_coincidence_fraction():
    fs1 = degenerate(10e6)
    near = degenerate(10e6 + 1.0)
    far = degenerate(20e6)

    def fixed_phase_set(fs2):
        # defeat the random core-2 phase: core 2's edges at its own base
        # edges, as if it too were trigger-aligned
        ts = generate_set(fs1, KEY, 8, oversampling=8, seed=5, fs2=fs2, key2=KEY2)
        edges = ts.clock_edges.copy()
        edges[:, 1] = np.arange(aes.ROUNDS + 1) * fs2.base_period_s
        return dataclasses.replace(ts, clock_edges=edges)

    assert first_round_coincidence_fraction(fixed_phase_set(near)) == 1.0
    assert first_round_coincidence_fraction(fixed_phase_set(far)) == 0.0
    single = generate_set(fs1, KEY, 3, oversampling=8, seed=5)
    with pytest.raises(ValueError):
        first_round_coincidence_fraction(single)


@pytest.mark.parametrize("cores", [1, 2])
def test_sets_do_not_depend_on_the_render_chunk(cores, monkeypatch):
    # 600 traces of 240 samples (256 once the spectrum pads them), failures
    # included, span three row batches (273 rows, 256 in the spectrum);
    # batches of 1 row and of 7 rows (6 in the spectrum) must give every
    # array, every peak and the spectrum bit for bit
    fs1, fs2 = dual_reference_pair()
    dual = dict(fs2=fs2, key2=KEY2) if cores == 2 else {}
    bin_hz = 3 * 8 / (256 * fs1.base_period_s)  # three spectrum lines

    def make():
        ts = generate_set(fs1, KEY, 600, oversampling=8, seed=9, noise_sigma=0.5, **dual)
        live = np.flatnonzero(~ts.failed)
        # (positions, counts) of every row, then of the live rows, then the spectrum
        return ts, [*detect_peaks(ts.samples), *detect_peaks(ts.samples, rows=live),
                    fft_spectrum(ts, bin_hz).magnitudes]

    big, passes = make()
    assert big.failed.any()
    assert big.samples.shape == (600, 240) and big.clock_edges.shape == (600, cores, 11)
    for batch in (1, 7 * 240):
        monkeypatch.setattr(clock, "BATCH_SAMPLES", batch)
        small, small_passes = make()
        assert big == small
        for name in ("samples", "ciphertexts", "clock_edges"):
            assert np.array_equal(getattr(big, name), getattr(small, name)), name
        for i, (a, b) in enumerate(zip(passes, small_passes)):
            assert np.array_equal(a, b), i


def test_row_passes_hold_one_batch_of_a_wide_set():
    # 8 rows of 2**18 samples: a batch is one row, whose float64 copy takes
    # 2 MB.  Generation, peak detection and the spectrum each hold a few
    # such copies beside the set's own float32 samples; a batch of 256 rows
    # would hold all 8 rows, and each pass 8 times as much.
    n = 8
    batch = 8 * (1 << 18)  # bytes of one batch in float64

    def peak(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ts, gen_peak = peak(lambda: generate_set(study_set(1).fs, KEY, n, oversampling=16,
                                             seed=3, noise_sigma=0.5, window_cycles=1 << 14))
    assert ts.samples.shape == (n, 1 << 18)
    assert clock._row_batches(n, 1 << 18) == [(i, i + 1) for i in range(n)]
    scratch = gen_peak - ts.samples.nbytes
    assert scratch < 8 * batch
    for run in (lambda: detect_peaks(ts.samples),
                lambda: detect_peaks(ts.samples, rows=np.arange(n)),
                lambda: fft_spectrum(ts, 1e6)):
        assert peak(run)[1] < 8 * batch


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

def test_round_trip_single_core(tmp_path):
    ts = generate_set(study_set(2).fs, KEY, 25, oversampling=8, seed=9,
                      noise_sigma=1.5)
    path = tmp_path / "single.bin"
    write_trace_set(ts, path)
    back = read_trace_set(path)
    assert back == ts
    assert back.fs == ts.fs
    assert back.key == KEY and back.key2 is None and back.fs2 is None


def test_round_trip_dual_core(tmp_path):
    fs1 = study_set(1).fs
    fs2 = FrequencySet(base_hz=10.7e6,
                       fundamentals=tuple(1.07 * f for f in fs1.fundamentals),
                       label="scaled")
    ts = generate_set(fs1, KEY, 12, oversampling=8, seed=9, fs2=fs2, key2=KEY2)
    path = tmp_path / "dual.bin"
    write_trace_set(ts, path)
    back = read_trace_set(path)
    assert back == ts
    assert back.key2 == KEY2 and back.fs2 == fs2
    assert back.core_count == 2


def test_round_trip_empty_set(tmp_path):
    ts = generate_set(degenerate(), KEY, 0, oversampling=8)
    path = tmp_path / "empty.bin"
    write_trace_set(ts, path)
    back = read_trace_set(path)
    assert len(back) == 0 and back.failed_fraction() == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])  # 1e39 overflows f32
def test_writer_refuses_a_sample_the_reader_rejects(tmp_path, value):
    ts = generate_set(degenerate(), KEY, 4, oversampling=8, seed=1)
    samples = ts.samples.astype(np.float64)
    samples[1, 5] = value
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match="trace 1 has a non-finite sample"):
        write_trace_set(dataclasses.replace(ts, samples=samples), path)
    assert not path.exists()


def test_writer_refuses_traces_without_samples(tmp_path):
    ts = generate_set(degenerate(), KEY, 4, oversampling=8, seed=1)
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match="must hold at least one sample"):
        write_trace_set(dataclasses.replace(ts, samples=ts.samples[:, :0]), path)
    assert not path.exists()


@pytest.mark.parametrize("change, message", [
    ({"fs": FrequencySet(10e6, (10e6,) * 4, label="é" * 32768)}, "label of 65536 UTF-8 bytes"),
    ({"fs2": FrequencySet(12e6, (12e6,) * 4, label="é" * 32768)}, "label of 65536 UTF-8 bytes"),
    ({"key": KEY[:15]}, "a key must be 16 bytes, got 15"),
    ({"key2": KEY2 + b"\0"}, "a key must be 16 bytes, got 17"),
    ({"oversampling": 2**32},
     "oversampling 4294967296 does not fit the format's u32 field"),
])
def test_writer_refuses_a_header_value_its_field_cannot_hold(tmp_path, change, message):
    ts = generate_set(degenerate(), KEY, 4, oversampling=8, seed=1,
                      fs2=degenerate(12e6), key2=KEY2)
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match=message):
        write_trace_set(dataclasses.replace(ts, **change), path)
    assert not path.exists()


def test_a_label_of_the_largest_size_round_trips(tmp_path):
    fs = dataclasses.replace(degenerate(), label="é" * 32767 + "e")  # 65,535 bytes
    ts = generate_set(fs, KEY, 2, oversampling=8, seed=1)
    write_trace_set(ts, tmp_path / "label.bin")
    assert read_trace_set(tmp_path / "label.bin").fs.label == fs.label


def test_ciphertext_matrix_stacks_ciphertexts():
    ts = generate_set(study_set(2).fs, KEY, 6, oversampling=8, seed=9)
    m = ts.ciphertexts
    assert m.dtype == np.uint8 and m.shape == (6, 16)
    assert len(m) == len(ts) and not ts.failed.all()
    _, true_cts = aes.encrypt_blocks_with_states(KEY, ts.plaintexts)
    for row, true_ct, failed in zip(m, true_cts, ts.failed):
        assert failed or bytes(row) == true_ct.tobytes()
    empty = generate_set(degenerate(), KEY, 0, oversampling=8).ciphertexts
    assert empty.dtype == np.uint8 and empty.shape == (0, 16)


def test_same_seed_writes_identical_bytes(tmp_path):
    ts1 = generate_set(study_set(4).fs, KEY, 15, oversampling=8, seed=21)
    ts2 = generate_set(study_set(4).fs, KEY, 15, oversampling=8, seed=21)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_trace_set(ts1, p1)
    write_trace_set(ts2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupt_files_raise_specific_errors(tmp_path):
    ts = generate_set(degenerate(), KEY, 3, oversampling=8, seed=1)
    path = tmp_path / "good.bin"
    write_trace_set(ts, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTATRCE" + blob[8:])
    with pytest.raises(TraceMagicError):
        read_trace_set(bad_magic)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(blob[:8] + (99).to_bytes(4, "little") + blob[12:])
    with pytest.raises(TraceVersionError):
        read_trace_set(bad_version)

    for cut in (4, 15, 60, len(blob) - 5):
        truncated = tmp_path / f"cut{cut}.bin"
        truncated.write_bytes(blob[:cut])
        with pytest.raises(TraceTruncatedError):
            read_trace_set(truncated)

    # a trace count that cannot fit is refused before any trace is read
    huge_count = tmp_path / "count.bin"
    huge_count.write_bytes(blob[:16] + (2**32 - 1).to_bytes(4, "little") + blob[20:])
    with pytest.raises(TraceTruncatedError, match="header claims 4294967295 traces"):
        read_trace_set(huge_count)

    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(TraceFormatError):
        read_trace_set(trailing)

    # the header's sample period must be the base period over its oversampling
    for at, fmt, value in ((20, "<d", 1e-300), (28, "<I", 2**31)):
        off_grid = tmp_path / f"grid{at}.bin"
        off_grid.write_bytes(blob[:at] + struct.pack(fmt, value)
                             + blob[at + struct.calcsize(fmt):])
        with pytest.raises(TraceFormatError, match="is not the base period"):
            read_trace_set(off_grid)

    # a fundamental more than 5 x base_hz (f1 follows the key, the empty
    # label's length and base_hz)
    fast = tmp_path / "fast.bin"
    at = 40 + 16 + 2 + 8
    assert struct.unpack_from("<2d", blob, at - 8) == (10e6, 10e6)
    fast.write_bytes(blob[:at] + struct.pack("<d", 60e6) + blob[at + 8:])
    with pytest.raises(TraceFormatError, match="at most 5 x base_hz"):
        read_trace_set(fast)


def test_equality_ignores_generation_metadata():
    ts = one_trace(degenerate(), oversampling=8)
    bare = TraceSet(samples=ts.samples.copy(), plaintexts=ts.plaintexts.copy(),
                    ciphertexts=ts.ciphertexts.copy(), failed=ts.failed.copy(),
                    key=KEY, fs=degenerate(),
                    oversampling=8, noise_sigma=0.0)
    assert ts == bare
    assert ts.clock_edges is not None and bare.clock_edges is None

"""Trace synthesis and the binary trace format.

Render positions are checked against hand-computed grids on degenerate
(fixed-frequency) clocks, the batched pulse render against a per-edge
reference loop, dual-core superposition against the sum of two
single-core renders on a shared grid, and the file format against byte-level
corruptions.
"""

import dataclasses

import numpy as np
import pytest

from clockmux import aes
from clockmux.clock import FrequencySet
from clockmux.presets import doubled_window_pair, dual_reference_pair, study_set
from clockmux.traces import (
    PULSE_HALF_WIDTH_FRACTION,
    PULSE_SHAPES,
    PowerTrace,
    TraceMagicError,
    TraceSet,
    TraceTruncatedError,
    TraceVersionError,
    TraceFormatError,
    _render_pulses,
    first_round_coincidence_fraction,
    generate_dual_trace,
    generate_set,
    generate_trace,
    read_trace_set,
    write_trace_set,
)

KEY = bytes(range(16))
KEY2 = bytes(range(16, 32))
PT = bytes.fromhex("00112233445566778899aabbccddeeff")


def degenerate(base_hz=10e6):
    return FrequencySet(base_hz=base_hz, fundamentals=(base_hz,) * 4)


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
    tr = generate_trace(fs, KEY, PT, oversampling=8, seed=1)
    hds = round_hds(KEY, PT)
    expected = np.zeros(240, dtype=np.float32)
    for k in range(1, 11):
        expected[8 * k] = hds[k - 1]
    assert tr.samples.dtype == np.float32
    # apex samples carry the exact Hamming distances; borders may hold
    # float-rounding crumbs many orders below one bit flip
    for k in range(1, 11):
        assert tr.samples[8 * k] == hds[k - 1]
    assert np.allclose(tr.samples, expected, atol=1e-9)
    assert not tr.failed
    assert tr.ciphertext == aes.encrypt(KEY, PT)
    assert tr.sample_period_s == pytest.approx(fs.base_period_s / 8)


def _render_per_edge(edge_times_s, amplitudes, n_samples, sample_period_s,
                     half_width_s, pulse):
    """Reference render of one trace: one pulse at a time, in edge order."""
    out = np.zeros(n_samples, dtype=np.float64)
    for e, a in zip(edge_times_s, amplitudes):
        lo = max(0, int(np.ceil((e - half_width_s) / sample_period_s)))
        hi = min(n_samples - 1, int(np.floor((e + half_width_s) / sample_period_s)))
        if hi < lo:
            continue
        t = np.arange(lo, hi + 1) * sample_period_s
        delta = np.abs(t - e) / half_width_s
        if pulse == "triangular":
            w = 1.0 - delta
        elif pulse == "rectangular":
            w = np.ones_like(delta)
        else:  # raised cosine
            w = 0.5 * (1.0 + np.cos(np.pi * delta))
        np.clip(w, 0.0, None, out=w)
        out[lo:hi + 1] += a * w
    return out


@pytest.mark.parametrize("oversampling", [2, 3, 8, 12, 16, 33])
@pytest.mark.parametrize("pulse", PULSE_SHAPES)
def test_batched_render_matches_per_edge_loop(pulse, oversampling):
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
    got = _render_pulses(edges, amps, n_samples, sp, hw, pulse)
    assert got.shape == (40, n_samples) and got.dtype == np.float64
    for row, e, a in zip(got, edges, amps):
        assert np.array_equal(row, _render_per_edge(e, a, n_samples, sp, hw, pulse))
    # the special row does exercise both cut ends and three overlapping
    # pulses (with three, the order of the sum shows in the bytes)
    one = [_render_per_edge([e], [1.0], n_samples, sp, hw, pulse) for e in edges[0]]
    assert not one[0].any() and not one[-1].any()
    assert one[1][0] > 0 and one[7][-1] > 0
    assert ((one[3] > 0) & (one[4] > 0) & (one[5] > 0)).any()


def test_amplitude_scales_pulses():
    fs = degenerate()
    base = generate_trace(fs, KEY, PT, oversampling=8, seed=1)
    scaled = generate_trace(fs, KEY, PT, oversampling=8, seed=1, amplitude=2.5)
    assert np.allclose(scaled.samples, 2.5 * base.samples, atol=1e-4)


def test_window_override_and_nyquist_floor():
    fs = degenerate()
    tr = generate_trace(fs, KEY, PT, oversampling=8, seed=1, window_cycles=40)
    assert len(tr.samples) == 40 * 8
    with pytest.raises(ValueError):
        generate_trace(fs, KEY, PT, oversampling=1, seed=1)
    with pytest.raises(ValueError):
        generate_trace(fs, KEY, PT, oversampling=8, seed=1, pulse="sawtooth")


def test_doubling_base_frequency_halves_window_seconds():
    slow, fast = doubled_window_pair()
    a = generate_trace(slow, KEY, PT, oversampling=8, seed=1)
    b = generate_trace(fast, KEY, PT, oversampling=8, seed=1)
    assert len(a.samples) == len(b.samples)
    dur = lambda t: len(t.samples) * t.sample_period_s
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
    for q, l, h in zip(quiet.traces, low.traces, high.traces):
        assert q.plaintext == l.plaintext == h.plaintext
        assert q.failed == l.failed == h.failed
        if not q.failed:
            assert q.ciphertext == l.ciphertext == h.ciphertext
        n1 = l.samples.astype(np.float64) - q.samples.astype(np.float64)
        n3 = h.samples.astype(np.float64) - q.samples.astype(np.float64)
        assert np.allclose(n3, 3.0 * n1, atol=1e-3)
        assert float(np.abs(n1).max()) > 0.0


def test_failed_flag_matches_short_periods_and_randomizes_ciphertext():
    # a 45 MHz source on a 10 MHz base fires periods far below a quarter of
    # the base period whenever it is selected twice in a row
    fs = FrequencySet(base_hz=10e6, fundamentals=(45e6, 10e6, 10e6, 10e6))
    ts = generate_set(fs, KEY, 60, oversampling=8, seed=3)
    tb = fs.base_period_s
    n_failed = 0
    for tr in ts.traces:
        edges = tr.clock_meta[0]
        short = bool((np.diff(edges) < 0.25 * tb).any())
        assert tr.failed == short
        true_ct = aes.encrypt(KEY, tr.plaintext)
        if tr.failed:
            n_failed += 1
            assert tr.ciphertext != true_ct
        else:
            assert tr.ciphertext == true_ct
    assert 0 < n_failed < len(ts.traces)


def test_fixed_plaintext_mode():
    fs = degenerate()
    ts = generate_set(fs, KEY, 5, oversampling=8, seed=2,
                      plaintext_mode="fixed", fixed_plaintext=PT)
    assert all(tr.plaintext == PT for tr in ts.traces)
    with pytest.raises(ValueError):
        generate_set(fs, KEY, 5, plaintext_mode="fixed")
    with pytest.raises(ValueError):
        generate_set(fs, KEY, 5, plaintext_mode="chosen")


# ---------------------------------------------------------------------------
# Dual-core rendering
# ---------------------------------------------------------------------------

def test_dual_trace_is_sum_of_single_renders():
    # degenerate sets make both clocks deterministic, so the dual render must
    # equal the float32 sum of the two single-core renders on core 1's grid
    fs1 = degenerate(10e6)
    fs2 = degenerate(20e6)
    dual = generate_dual_trace(fs1, fs2, KEY, KEY2, PT, oversampling=8,
                               seed=4, randomize_core2_phase=False)
    s1 = generate_trace(fs1, KEY, PT, oversampling=8, seed=4)
    s2 = generate_trace(fs2, KEY2, PT, oversampling=8, seed=4,
                        window_cycles=60,
                        sample_period_s=s1.sample_period_s,
                        pulse_half_width_s=fs1.base_period_s / 8)
    assert len(dual.samples) == len(s1.samples) == len(s2.samples)
    total = (s1.samples.astype(np.float64)
             + s2.samples.astype(np.float64)).astype(np.float32)
    assert np.array_equal(dual.samples, total)
    assert dual.core_count == 2
    assert dual.ciphertext == aes.encrypt(KEY, PT)
    assert dual.ciphertext2 == aes.encrypt(KEY2, PT)


def test_dual_requires_distinct_bases_and_paired_keys():
    fs = study_set(1).fs
    with pytest.raises(ValueError):
        generate_dual_trace(fs, fs, KEY, KEY2, PT, seed=1)
    with pytest.raises(ValueError):
        generate_set(fs, KEY, 3, fs2=None, key2=KEY2)


def test_first_round_coincidence_fraction():
    fs1 = degenerate(10e6)
    near = degenerate(10e6 + 1.0)
    far = degenerate(20e6)

    def fixed_phase_set(fs2):
        # defeat the random core-2 phase: rebuild with deterministic phases
        ts = generate_set(fs1, KEY, 8, oversampling=8, seed=5, fs2=fs2, key2=KEY2)
        return TraceSet.from_traces(
            [generate_dual_trace(fs1, fs2, KEY, KEY2, tr.plaintext, oversampling=8,
                                 seed=5, randomize_core2_phase=False)
             for tr in ts.traces],
            key=KEY, fs=fs1, oversampling=8, noise_sigma=0.0, key2=KEY2, fs2=fs2)

    assert first_round_coincidence_fraction(fixed_phase_set(near)) == 1.0
    assert first_round_coincidence_fraction(fixed_phase_set(far)) == 0.0
    single = generate_set(fs1, KEY, 3, oversampling=8, seed=5)
    with pytest.raises(ValueError):
        first_round_coincidence_fraction(single)


def _assert_set_equals_one_trace_path(cores, n_traces, pulse="triangular"):
    # the set path must give, trace by trace, what the one-trace generators
    # give on the same spawned generator and plaintext, failures included
    fs1, fs2 = dual_reference_pair()
    key2 = KEY2 if cores == 2 else None
    ts = generate_set(fs1, KEY, n_traces, oversampling=8, seed=9, noise_sigma=0.5,
                      pulse=pulse, fs2=fs2 if cores == 2 else None, key2=key2)
    rngs = [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(9).spawn(n_traces)]
    assert any(tr.failed for tr in ts.traces)
    for tr, rng in zip(ts.traces, rngs):
        pt = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        if cores == 1:
            one = generate_trace(fs1, KEY, pt, noise_sigma=0.5, oversampling=8,
                                 pulse=pulse, rng=rng)
        else:
            one = generate_dual_trace(fs1, fs2, KEY, KEY2, pt, noise_sigma=0.5,
                                      oversampling=8, pulse=pulse, rng=rng)
        assert tr == one
        assert tr.ciphertext2 == one.ciphertext2
        assert len(tr.clock_meta) == len(one.clock_meta) == cores
        for a, b in zip(tr.clock_meta, one.clock_meta):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("cores", [1, 2])
def test_set_traces_equal_one_trace_generation(cores):
    _assert_set_equals_one_trace_path(cores, 30)


@pytest.mark.parametrize("cores, pulse", [(1, "triangular"), (2, "raised_cosine")])
def test_sets_past_one_render_chunk_equal_one_trace_generation(cores, pulse):
    # 600 traces span three render chunks; traces on either side of each
    # chunk boundary must still match their one-trace renders
    _assert_set_equals_one_trace_path(cores, 600, pulse)


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
    ts = TraceSet.from_traces([], key=KEY, fs=degenerate(), oversampling=8,
                              noise_sigma=0.0)
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


def test_ciphertext_matrix_stacks_ciphertexts():
    ts = generate_set(study_set(2).fs, KEY, 6, oversampling=8, seed=9)
    m = ts.ciphertexts
    assert m.dtype == np.uint8 and m.shape == (6, 16)
    assert [bytes(row) for row in m] == [t.ciphertext for t in ts.traces]
    empty = TraceSet.from_traces([], key=KEY, fs=degenerate(), oversampling=8,
                                 noise_sigma=0.0).ciphertexts
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


def test_from_traces_rejects_rows_that_do_not_stack():
    tr = generate_trace(degenerate(), KEY, PT, oversampling=8, seed=1)
    kw = dict(key=KEY, fs=degenerate(), oversampling=8, noise_sigma=0.0)
    bare = PowerTrace(samples=tr.samples, sample_period_s=tr.sample_period_s,
                      plaintext=PT, ciphertext=tr.ciphertext, failed=False)
    short = PowerTrace(samples=tr.samples[:-1], sample_period_s=tr.sample_period_s,
                       plaintext=PT, ciphertext=tr.ciphertext, failed=False)
    slow = PowerTrace(samples=tr.samples, sample_period_s=2 * tr.sample_period_s,
                      plaintext=PT, ciphertext=tr.ciphertext, failed=False)
    with pytest.raises(ValueError, match="unequal sample counts"):
        TraceSet.from_traces([bare, short], **kw)
    with pytest.raises(ValueError, match="unequal sample periods"):
        TraceSet.from_traces([bare, slow], **kw)
    with pytest.raises(ValueError, match="clock metadata on some rows only"):
        TraceSet.from_traces([tr, bare], **kw)
    ts = TraceSet.from_traces([bare, bare], **kw)
    assert ts.samples.shape == (2, 240) and ts.clock_edges is None
    assert ts.traces == [tr, tr]
    assert TraceSet.from_traces([tr, tr], **kw).clock_edges.shape == (2, 1, 11)


def test_equality_ignores_generation_metadata():
    tr = generate_trace(degenerate(), KEY, PT, oversampling=8, seed=1)
    bare = PowerTrace(samples=tr.samples.copy(),
                      sample_period_s=tr.sample_period_s,
                      plaintext=tr.plaintext, ciphertext=tr.ciphertext,
                      failed=tr.failed, core_count=1)
    assert tr == bare
    assert tr.clock_meta is not None and bare.clock_meta is None

"""Config parsing diagnostics and end-to-end command-line behaviour."""

import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clockmux import aes, attack, cli
from clockmux.clock import FrequencySet
from clockmux.attack import filter_traces, raw_matrix, synchronize
from clockmux.cli import main
from clockmux.config import (
    _KNOWN_KEYS,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
)
from clockmux.presets import STUDY_SETS
from clockmux.traces import (TraceFormatError, generate_set, read_trace_set,
                             write_trace_set)
from test_golden import DUAL_CONFIG

FULL_CONFIG = """\
# whole-experiment example
[sets]
use = 2 5

[set]
base_hz = 10e6
f1 = 10e6
f2 = 10e6
f3 = 10e6
f4 = 10e6
duty = 0.4
phase2 = 0.25
label = degenerate probe

[run]
seed = 7
out_dir = results

[simulate]
n_base_cycles = 4000
n_encryptions = 50
error_threshold_factor = 0.3

[traces]
n_traces = 64
oversampling = 8
noise_sigma = 1.5
amplitude = 2.0
key = 000102030405060708090a0b0c0d0e0f

[attack]
step = 16
round = 10
no_sync = yes
threshold_k = 2.5
expected_peaks = 9
window_halfwidth = 6

[fft]
bin_hz = 5e5
"""


def test_parse_full_document():
    cfg = parse_config_text(FULL_CONFIG)
    assert len(cfg.sets) == 3
    assert cfg.sets[0] == STUDY_SETS[1].fs
    assert cfg.sets[1] == STUDY_SETS[4].fs
    probe = cfg.sets[2]
    assert probe.label == "degenerate probe"
    assert probe.duty_cycle == 0.4
    assert probe.phases == (0.0, 0.25, 0.0, 0.0)
    assert cfg.seed == 7 and cfg.out_dir == "results"
    assert cfg.n_base_cycles == 4000 and cfg.n_encryptions == 50
    assert cfg.error_threshold_factor == 0.3
    assert cfg.n_traces == 64 and cfg.oversampling == 8
    assert cfg.noise_sigma == 1.5 and cfg.amplitude == 2.0
    assert cfg.key == bytes(range(16))
    assert cfg.step == 16 and cfg.no_sync and cfg.threshold_k == 2.5
    assert cfg.expected_peaks == 9 and cfg.window_halfwidth == 6
    assert cfg.fft_bin_hz == 5e5
    params = cfg.filter_params()
    assert params.expected_peaks == 9 and params.threshold_k == 2.5


def test_use_all_selects_every_study_set():
    cfg = parse_config_text("[sets]\nuse = all\n")
    assert [fs for fs in cfg.sets] == [e.fs for e in STUDY_SETS]


def test_dual_core_config():
    text = """\
[traces]
core_count = 2
key = 00112233445566778899aabbccddeeff
key2 = ffeeddccbbaa99887766554433221100
[set]
base_hz = 10e6
f1 = 9.5e6
f2 = 9.0e6
f3 = 6.2e6
f4 = 4.0e6
[set2]
base_hz = 10.7e6
f1 = 10.2e6
f2 = 9.6e6
f3 = 6.6e6
f4 = 4.3e6
"""
    cfg = parse_config_text(text)
    assert cfg.core_count == 2
    assert cfg.key2 == bytes.fromhex("ffeeddccbbaa99887766554433221100")
    assert cfg.fs2.base_hz == 10.7e6


BAD_DOCUMENTS = [
    ("[orbit]\n", "line 1: unknown section [orbit]"),
    ("[traces]\nwarp = 9\n", "line 2: [traces] unknown key 'warp'"),
    ("[run]\nseed = 1\nseed = 2\n", "line 3: [run] duplicate key 'seed'"),
    ("[run]\nseed = 1\n[run]\nseed = 2\n", "line 3: duplicate section [run]"),
    ("seed = 1\n", "line 1: key outside any [section]"),
    ("[run]\nseed\n", "line 2: expected 'key = value'"),
    ("[run]\nseed = three\n", "line 2: [run] seed: expected an integer"),
    ("[traces]\nnoise_sigma = loud\n", "expected a number"),
    ("[attack]\nno_sync = maybe\n", "expected true/false"),
    ("[traces]\nkey = zz\n", "expected 32 hex digits"),
    ("[traces]\nkey = aabb\n", "expected 16 bytes, got 2"),
    ("[set]\nf1 = 1e6\n", "base_hz: required"),
    ("[set]\nbase_hz = 1e7\nf1 = 1e6\nf2 = 1e6\nf4 = 1e6\n", "f3: required"),
    ("[sets]\nuse = 1 nine\n", "expected set numbers or 'all'"),
    ("[sets]\nuse = 0\n", "out of range 1..7"),
    ("[sets]\nuse = 8\n", "out of range 1..7"),
    ("[traces]\ncore_count = 3\n", "must be 1 or 2"),
    ("[traces]\nn_traces = 0\n", "must be at least 1"),
    ("[traces]\noversampling = 0\n", "oversampling: must be at least 2"),
    ("[traces]\nnoise_sigma = -1\n", "must not be negative"),
    ("[simulate]\nn_base_cycles = 0\n", "must be at least 1"),
    ("[attack]\nstep = 0\n", "step: must be at least 2"),
    ("[attack]\nround = 11\n", "between 1 and 10"),
    ("[fft]\nbin_hz = 0\n", "must be positive"),
    ("[set]\nbase_hz = 1e7\nf1 = -1\nf2 = 1e6\nf3 = 1e6\nf4 = 1e6\n", "[set]"),
    ("[traces]\ncore_count = 2\nkey2 = " + "ab" * 16 + "\n", "requires a [set2] section"),
    ("[sets]\nuse = 1\n[set2]\nbase_hz = 1e7\nf1 = 1e6\nf2 = 1e6\nf3 = 1e6\nf4 = 1e6\n",
     "line 3: [set2] requires [traces] core_count = 2"),
    ("[traces]\ncore_count = 1\n[set2]\nbase_hz = 1e7\nf1 = 1e6\nf2 = 1e6\nf3 = 1e6\n"
     "f4 = 1e6\n", "line 3: [set2] requires [traces] core_count = 2"),
    ("[traces]\nkey2 = " + "ab" * 16 + "\n", "line 2: [traces] key2 requires core_count = 2"),
    ("[traces]\ncore_count = 2\n[set2]\nbase_hz = 1e7\nf1 = 1e6\nf2 = 1e6\n"
     "f3 = 1e6\nf4 = 1e6\n", "requires key2"),
    ("[simulate]\nn_encryptions = 0\n", "must be at least 1"),
    ("[traces]\nwindow_cycles = 0\n", "must be at least 1"),
    ("[attack]\nstep = 1\n", "line 2: [attack] step: must be at least 2"),
    ("[traces]\noversampling = 1\n", "line 2: [traces] oversampling: must be at least 2"),
    ("[attack]\nwindow_halfwidth = -3\n",
     "line 2: [attack] window_halfwidth: must not be negative"),
    ("[traces]\nwindow_cycles = -5\n", "line 2: [traces] window_cycles: must be at least 1"),
    # one set's samples, n_traces x window_cycles x oversampling, are capped at 2**28
    ("[traces]\noversampling = 1000000000\n",
     "line 2: [traces] oversampling: 30000000000000 samples per set"),
    ("[traces]\nwindow_cycles = 1000000000\n",
     "line 2: [traces] window_cycles: 12000000000000 samples per set"),
    ("[traces]\nn_traces = 4000000000\n", "line 2: [traces] n_traces: 1440000000000 samples"),
    ("[run]\nseed = 2\n[traces]\nnoise_sigma = 1\nn_traces = 100000000\n",
     "line 5: [traces] n_traces: 36000000000 samples per set"),
    ("[run]\nseed = -1\n", "line 2: [run] seed: must not be negative"),
    ("[sets]\nuse = 1\n[traces]\ncore_count = 2\nkey2 = " + "ab" * 16 + "\n[set2]\n"
     "base_hz = 10e6\nf1 = 1e6\nf2 = 1e6\nf3 = 1e6\nf4 = 1e6\n",
     "line 7: [set2] base_hz: equals the base_hz of set 1"),
    ("[set]\nbase_hz = 1e7\nf1 = 1e6\nf2 = 1e6\nf3 = 1e6\nf4 = 1e6\nphase3 = nan\n",
     "line 7: [set] phase3: phases must be finite"),
    ("[set]\nbase_hz = 1e7\nf1 = 1e6\nf2 = -1\nf3 = 1e6\nf4 = 1e6\n",
     "line 4: [set] f2: fundamentals must be positive finite frequencies"),
    ("[set]\nbase_hz = 1e7\nf1 = 1e6\nf2 = 1e6\nf3 = 1e6\nf4 = 1e6\nduty = 1.5\n",
     "line 7: [set] duty: duty_cycle must lie strictly between 0 and 1"),
    ("[attack]\nexpected_peaks = 0\n", "line 2: [attack] expected_peaks: must be at least 1"),
    ("[attack]\nmin_peak_separation = 0\n",
     "line 2: [attack] min_peak_separation: must be at least 1"),
    ("[attack]\nthreshold_k = -1\n", "line 2: [attack] threshold_k: must not be negative"),
    ("[attack]\nnyquist_floor = -0.5\n",
     "line 2: [attack] nyquist_floor: must not be negative"),
    ("[traces]\namplitude = 0\n", "line 2: [traces] amplitude: must be positive"),
    ("[simulate]\nerror_threshold_factor = 0\n",
     "line 2: [simulate] error_threshold_factor: must be between 0 and 1, exclusive"),
    ("[simulate]\nerror_threshold_factor = 1\n",
     "line 2: [simulate] error_threshold_factor: must be between 0 and 1, exclusive"),
]


@pytest.mark.parametrize("text,fragment", BAD_DOCUMENTS,
                         ids=[frag[:40] for _, frag in BAD_DOCUMENTS])
def test_parse_rejects_bad_documents(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


FLOAT_KEYS = [("simulate", "error_threshold_factor"), ("traces", "noise_sigma"),
              ("traces", "amplitude"), ("attack", "threshold_k"),
              ("attack", "nyquist_floor"), ("fft", "bin_hz")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_parse_rejects_non_finite_floats(section, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"# comment\n[{section}]\n{key} = {value}\n")
    assert str(err.value) == f"line 3: [{section}] {key}: must be finite"


def test_config_surface_is_pinned():
    """Digests and accepted keys recorded before the declarations were merged."""
    assert parse_config_text(FULL_CONFIG).digest() == "d6ec5be832557428"
    assert ExperimentConfig().digest() == "e485f8185c06f934"
    assert parse_config_text(DUAL_CONFIG).digest() == "6a157e3b8cc7413c"
    set_keys = {"base_hz", "f1", "f2", "f3", "f4", "duty",
                "phase1", "phase2", "phase3", "phase4", "label"}
    expected = {
        "sets": {"use"}, "set": set_keys, "set2": set_keys,
        "run": {"seed", "out_dir"},
        "simulate": {"n_base_cycles", "n_encryptions", "error_threshold_factor"},
        "traces": {"n_traces", "oversampling", "noise_sigma", "amplitude",
                   "core_count", "key", "key2", "window_cycles"},
        "attack": {"step", "round", "no_sync", "threshold_k", "expected_peaks",
                   "min_peak_separation", "window_halfwidth", "nyquist_floor"},
        "fft": {"bin_hz"},
    }
    assert _KNOWN_KEYS == expected


def test_replace_checks_the_same_limits():
    cfg = ExperimentConfig()
    for name, value, message in [
            ("seed", -1, "[run] seed: must not be negative"),
            ("step", 1, "[attack] step: must be at least 2"),
            ("fft_bin_hz", float("inf"), "[fft] bin_hz: must be finite"),
            ("fft_bin_hz", -1.0, "[fft] bin_hz: must be positive"),
            ("n_traces", 10**8, "[traces] n_traces: 36000000000 samples per set (n_traces "
                                "x window_cycles x oversampling), more than the 268435456 "
                                "a set may hold")]:
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, **{name: value})
        assert str(err.value) == message


def test_set_sample_cap_is_inclusive():
    # 2**19 traces of 32 cycles at oversampling 16 hold exactly 2**28 samples
    at_cap = "[traces]\nwindow_cycles = 32\noversampling = 16\nn_traces = {}\n"
    assert parse_config_text(at_cap.format(2**19)).n_traces == 2**19
    with pytest.raises(ConfigError, match="line 4: .* 268435968 samples per set"):
        parse_config_text(at_cap.format(2**19 + 1))


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "nope.cfg"))


def test_digest_tracks_parameters_but_not_out_dir():
    base = parse_config_text(FULL_CONFIG)
    again = parse_config_text(FULL_CONFIG)
    assert base.digest() == again.digest()
    assert len(base.digest()) == 16
    moved = parse_config_text(FULL_CONFIG.replace("out_dir = results",
                                                  "out_dir = elsewhere"))
    assert moved.digest() == base.digest()
    reseeded = parse_config_text(FULL_CONFIG.replace("seed = 7", "seed = 8"))
    assert reseeded.digest() != base.digest()
    denoised = parse_config_text(FULL_CONFIG.replace("noise_sigma = 1.5",
                                                     "noise_sigma = 0"))
    assert denoised.digest() != base.digest()
    assert ExperimentConfig().digest() != base.digest()


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

CLI_CONFIG = """\
[set]
base_hz = 10e6
f1 = 10e6
f2 = 10e6
f3 = 10e6
f4 = 10e6
label = fixed probe

[simulate]
n_base_cycles = 4000
n_encryptions = 50

[traces]
n_traces = 600
oversampling = 12

[attack]
step = 150
"""

COMPARE_CONFIG = CLI_CONFIG.replace("label = fixed probe", "label = probe a") + """
[set]
base_hz = 10e6
f1 = 9.5917e6
f2 = 9.0317e6
f3 = 6.2777e6
f4 = 4.0517e6
label = probe b
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def read_header(path):
    meta = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].partition(" = ")
            meta[key] = value.strip()
    return meta


def test_cli_simulate_writes_histograms_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, CLI_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = out / "simulate_summary.csv"
    hist = out / "histogram_set1.csv"
    assert summary.is_file() and hist.is_file()
    meta = read_header(summary)
    assert set(meta) == {"version", "config_digest", "seed"}
    assert meta["seed"] == "1"
    lines = summary.read_text().splitlines()
    header = lines[3].split(",")
    row = lines[4].split(",")
    assert header[:2] == ["set", "label"]
    # one source frequency means one period bin
    assert row[header.index("unique_bins")] == "1"
    assert "fixed probe" in capsys.readouterr().out


NO_SCIPY_PROBE = """\
import json, sys
import clockmux.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
on_import = scipy_modules()
code = clockmux.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"on_import": on_import, "code": code, "after": scipy_modules()}))
"""


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def test_command_line_loads_no_scipy(tmp_path):
    # the runtime is numpy-only: start-up pays for no scipy import
    cfg = write_config(tmp_path, CLI_CONFIG.replace("n_base_cycles = 4000",
                                                    "n_base_cycles = 200"))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, cfg, str(tmp_path / "out")],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"on_import": [], "code": 0, "after": []}
    assert (tmp_path / "out" / "simulate_summary.csv").is_file()


def test_command_line_import_leaves_out_the_thread_pool(tmp_path):
    # only a simulation long enough to run in pieces loads concurrent.futures,
    # so start-up does not pay for it
    probe = "import sys, clockmux.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"

def test_gen_prints_failed_fraction_as_a_plain_float(tmp_path, capsys):
    # study set 1 fails some encryptions; the fixed probe fails none
    cfg = write_config(tmp_path, "[sets]\nuse = 1\n\n"
                       + CLI_CONFIG.replace("n_traces = 600", "n_traces = 64"))
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    printed = [line.rsplit("failed_fraction=", 1)[1]
               for line in capsys.readouterr().out.splitlines()]
    fractions = [read_trace_set(str(out / f"traces_set{i}.bin")).failed_fraction()
                 for i in (1, 2)]
    assert all(type(f) is float for f in fractions)
    assert fractions[0] > 0 and fractions[1] == 0
    assert printed == [repr(f) for f in fractions] == [str(f) for f in fractions]


def test_cli_gen_attack_fft_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, CLI_CONFIG)
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    trace_path = out / "traces_set1.bin"
    ts = read_trace_set(str(trace_path))
    assert len(ts) == 600
    assert ts.key == bytes(range(16))

    key_hex = bytes(range(16)).hex()
    assert main(["attack", str(trace_path), "--config", cfg,
                 "--out", str(out), "--evaluate", key_hex]) == 0
    report = json.loads((out / "attack_report.json").read_text())
    assert set(report["meta"]) == {"version", "config_digest", "seed"}
    assert report["broken"] is True
    assert report["min_traces"] is not None
    assert report["min_traces"] % 150 == 0
    assert report["recovered_key"] == key_hex
    assert (out / "attack_report.csv").is_file()
    assert "broken" in capsys.readouterr().out

    assert main(["attack", str(trace_path), "--config", cfg,
                 "--out", str(out)]) == 0
    unscored = json.loads((out / "attack_report.json").read_text())
    assert unscored["broken"] is None and unscored["min_traces"] is None
    assert "not evaluated" in capsys.readouterr().out

    assert main(["fft", str(trace_path), "--out", str(out),
                 "--bin", "1000000"]) == 0
    spectrum = json.loads((out / "fft_summary.json").read_text())
    assert spectrum["bin_hz"] == 1e6
    assert len(spectrum["top_bins"]) == 10
    top = max(spectrum["top_bins"], key=lambda e: e["magnitude"])
    assert top["bin_low_hz"] == pytest.approx(10e6)
    assert (out / "spectrum.csv").is_file()


def test_attack_window_wider_than_any_row_reports_as_no_row_kept(tmp_path, capsys):
    # 2w + 1 columns fit no row of these traces; 10**10 columns would not fit
    # in memory and 10**30 not in an int64, yet both report what 100000 does
    study1 = "[sets]\nuse = 1\n\n[traces]\nn_traces = 8\n"
    out = tmp_path / "out"
    assert main(["gen", "--config", write_config(tmp_path, study1), "--out", str(out)]) == 0
    capsys.readouterr()
    trace_path = str(out / "traces_set1.bin")
    reports = []
    for w in (100000, 10**10, 10**30):
        cfg = write_config(tmp_path, study1 + f"\n[attack]\nwindow_halfwidth = {w}\n")
        run_out = tmp_path / f"w{w}"
        assert main(["attack", trace_path, "--config", cfg, "--out", str(run_out),
                     "--evaluate", bytes(range(16)).hex()]) == 0
        report = json.loads((run_out / "attack_report.json").read_text())
        del report["meta"]  # its config digest holds w
        rows = [line for line in (run_out / "attack_report.csv").read_text().splitlines()
                if not line.startswith("# ")]
        reports.append((report, rows, capsys.readouterr().out))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    report = reports[0][0]
    assert (report["min_traces"], report["broken"], report["recovered_key"]) == (None, False, None)
    assert report["max_delay_samples"] == 0


@pytest.fixture(scope="module")
def study1_file(tmp_path_factory):
    """An 8-trace study set 1 file: 120 MHz sampling, 512-point FFT."""
    path = tmp_path_factory.mktemp("study1") / "study1.bin"
    write_trace_set(generate_set(STUDY_SETS[0].fs, bytes(range(16)), 8, oversampling=12),
                    path)
    return path


@pytest.mark.parametrize("bin_hz", ["1e-3", "1", "1e5", "just below"])
def test_fft_bin_below_the_spectrum_resolution_exits_2(tmp_path, capsys, study1_file,
                                                       bin_hz):
    # a 1 Hz bin over a 60 MHz Nyquist range would be 60,000,001 bins
    assert 120e6 / 512 == 234375.0
    if bin_hz == "just below":
        bin_hz = repr(float(np.nextafter(234375.0, 0.0)))
    assert main(["fft", str(study1_file), "--bin", bin_hz, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: [fft] bin_hz:" in err and "resolution" in err and "234375 Hz" in err
    assert "Traceback" not in err and not (tmp_path / "spectrum.csv").exists()


def test_fft_bin_at_the_spectrum_resolution_exits_0(tmp_path, capsys, study1_file):
    assert main(["fft", str(study1_file), "--bin", "234375", "--out", str(tmp_path)]) == 0
    spectrum = json.loads((tmp_path / "fft_summary.json").read_text())
    assert (spectrum["bin_hz"], spectrum["n_fft"]) == (234375.0, 512)
    rows = [line for line in (tmp_path / "spectrum.csv").read_text().splitlines()
            if not line.startswith("# ")]
    assert len(rows) == 1 + 257  # header, then one bin per rfft frequency


def test_fft_of_a_consistent_huge_oversampling_header_exits_2(tmp_path, capsys,
                                                              small_trace_blob):
    # oversampling 2**31 and the matching sample period pass the reader; the
    # default 1 MHz bin is far below that rate's resolution
    blob = bytearray(small_trace_blob)
    _corrupt(blob, _OVERSAMPLING_AT, "<I", 2**31)
    _corrupt(blob, _SAMPLE_PERIOD_AT, "<d", STUDY_SETS[0].fs.base_period_s / 2**31)
    path = tmp_path / "huge.bin"
    path.write_bytes(bytes(blob))
    assert read_trace_set(str(path)).oversampling == 2**31
    assert main(["fft", str(path), "--out", str(tmp_path / "f")]) == 2
    assert "error: [fft] bin_hz: 1e+06 is below the spectrum's resolution" in \
        capsys.readouterr().err


def test_cli_compare_ranks_and_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, COMPARE_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["compare", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    ranking = out_a / "compare_ranking.csv"
    assert ranking.is_file()
    lines = ranking.read_text().splitlines()
    header = lines[3].split(",")
    ranks = [line.split(",")[0] for line in lines[4:]]
    assert header[0] == "rank" and ranks == ["1", "2"]
    names_a = sorted(p.name for p in out_a.iterdir())
    assert names_a == sorted(p.name for p in out_b.iterdir())
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def read_rows(path):
    """A CSV artifact's rows as dicts, its ``# key = value`` header skipped."""
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("# ")))


DUAL_COMPARE_CONFIG = COMPARE_CONFIG.replace(
    "oversampling = 12", "oversampling = 12\ncore_count = 2\n"
    "key2 = 2b7e151628aed2a6abf7158809cf4f3c") + """
[set2]
base_hz = 10.7e6
f1 = 12.809291e6
f2 = 8.272705e6
f3 = 9.927246e6
f4 = 13.537105e6
"""

PHASES_READ_BACK_AS_0 = pytest.mark.xfail(strict=True, reason=(
    "source phases (phase1..phase4) are not in the trace file and read back as 0, "
    "so attack reports another clock's overhead and error risk"))
REASON_D_SKIPPED_ON_READ_BACK = pytest.mark.xfail(strict=True, reason=(
    "filter reason (d), a clock period under the Nyquist floor, needs clock edges "
    "that a read-back set does not carry, so attack keeps rows compare drops"))


@pytest.mark.parametrize("text", [
    # probe a breaks at 300 traces, probe b stays unbroken
    pytest.param(COMPARE_CONFIG, id="default phases"),
    pytest.param(COMPARE_CONFIG.replace("label = probe b",
                                        "label = probe b\nphase2 = 0.25\nphase3 = 0.6"),
                 id="set phases", marks=PHASES_READ_BACK_AS_0),
    pytest.param(COMPARE_CONFIG.replace("step = 150", "step = 150\nnyquist_floor = 4.0"),
                 id="nyquist floor drops rows", marks=REASON_D_SKIPPED_ON_READ_BACK),
    pytest.param(DUAL_COMPARE_CONFIG.replace("step = 150", "step = 150\nnyquist_floor = 0"),
                 id="dual core"),
    pytest.param(DUAL_COMPARE_CONFIG, id="dual core at the default floor",
                 marks=REASON_D_SKIPPED_ON_READ_BACK),
])
def test_compare_reports_what_gen_then_attack_reports(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "compare")]) == 0
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
    key = parse_config(cfg).key.hex()
    for row in read_rows(tmp_path / "compare" / "compare_ranking.csv"):
        out = tmp_path / f"attack{row['set']}"
        assert main(["attack", str(tmp_path / "gen" / f"traces_set{row['set']}.bin"),
                     "--config", cfg, "--out", str(out), "--evaluate", key]) == 0
        report, = read_rows(out / "attack_report.csv")
        shared = [c for c in report if c in row]
        assert shared == ["min_traces", "broken", "failed_fraction", "removed_fraction",
                          "max_delay_samples", "mean_overhead", "worst_overhead",
                          "error_risk"]
        assert {c: report[c] for c in shared} == {c: row[c] for c in shared}, row["set"]
    capsys.readouterr()


def test_cli_seed_override_changes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, CLI_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["gen", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gen", "--config", cfg, "--out", str(out_b),
                 "--seed", "99"]) == 0
    capsys.readouterr()
    a = (out_a / "traces_set1.bin").read_bytes()
    b = (out_b / "traces_set1.bin").read_bytes()
    assert a != b


def test_cli_usage_and_config_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2  # --config is required
    assert main(["attack", "x.bin", "--evaluate", "nothex"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[traces]\nwarp = 9\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert main(["simulate", "--config", str(empty)]) == 2
    cfg = write_config(tmp_path, CLI_CONFIG)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert main(["compare", "--config", cfg, "--step", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
    assert "error: [run] seed: must not be negative" in capsys.readouterr().err
    for bad_bin in ("inf", "nan", "0"):
        assert main(["fft", "x.bin", "--bin", bad_bin]) == 2
        assert "error: [fft] bin_hz: must be" in capsys.readouterr().err
    assert main(["--help"]) == 0


def test_cli_data_errors_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, CLI_CONFIG)
    missing = tmp_path / "missing.bin"
    assert main(["attack", str(missing), "--config", cfg]) == 3
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    trace_path = out / "traces_set1.bin"
    blob = trace_path.read_bytes()
    truncated = tmp_path / "cut.bin"
    truncated.write_bytes(blob[:len(blob) // 2])
    assert main(["fft", str(truncated)]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err


# Byte offsets in a single-core trace file (see the format in traces.py).
_N_TRACES_AT = 16
_SAMPLE_PERIOD_AT = 20
_OVERSAMPLING_AT = 28
_LABEL_AT = 58


def _corrupt(blob, at, fmt, value):
    blob[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)


def _label_len(blob):
    return struct.unpack_from("<H", blob, _LABEL_AT - 2)[0]


def _sample_at(blob, index, sample, n_traces=4):
    """Byte offset of sample ``sample`` of trace ``index``."""
    header = _LABEL_AT + _label_len(blob) + 48
    return header + index * ((len(blob) - header) // n_traces) + 37 + 4 * sample


def _no_samples(blob, n_traces=4):
    """Cut every trace of ``blob`` to zero samples, as no writer does."""
    header = _LABEL_AT + _label_len(blob) + 48
    item = (len(blob) - header) // n_traces
    records = [blob[at:at + 33] + struct.pack("<I", 0)
               for at in range(header, len(blob), item)]
    blob[header:] = b"".join(records)


CORRUPT_HEADERS = {
    "label not utf-8": lambda b: _corrupt(b, _LABEL_AT, "<B", 0xFF),
    "negative base_hz": lambda b: _corrupt(b, _LABEL_AT + _label_len(b), "<d", -10e6),
    "nan fundamental": lambda b: _corrupt(b, _LABEL_AT + _label_len(b) + 8, "<d",
                                          float("nan")),
    "zero sample period": lambda b: _corrupt(b, _SAMPLE_PERIOD_AT, "<d", 0.0),
    "nan sample period": lambda b: _corrupt(b, _SAMPLE_PERIOD_AT, "<d", float("nan")),
    "zero oversampling": lambda b: _corrupt(b, _OVERSAMPLING_AT, "<I", 0),
    # the sample period no longer equals the base period over the oversampling
    "huge oversampling": lambda b: _corrupt(b, _OVERSAMPLING_AT, "<I", 2**31),
    "tiny sample period": lambda b: _corrupt(b, _SAMPLE_PERIOD_AT, "<d", 1e-300),
    "sample count past the end": lambda b: _corrupt(
        b, _LABEL_AT + _label_len(b) + 48 + 33, "<I", 0xFFFFFFFF),
    "trace count past the end": lambda b: _corrupt(b, _N_TRACES_AT, "<I", 0xFFFFFFFF),
    "nan sample": lambda b: _corrupt(b, _sample_at(b, 2, 7), "<f", float("nan")),
    "inf sample": lambda b: _corrupt(b, _sample_at(b, 3, 0), "<f", float("-inf")),
    "zero samples": _no_samples,
}


@pytest.fixture(scope="module")
def small_trace_blob(tmp_path_factory):
    fs = STUDY_SETS[0].fs
    path = tmp_path_factory.mktemp("blob") / "small.bin"
    write_trace_set(generate_set(fs, bytes(range(16)), 4, oversampling=8), path)
    return path.read_bytes()


@pytest.mark.parametrize("case", sorted(CORRUPT_HEADERS))
def test_cli_corrupt_headers_exit_3(tmp_path, capsys, small_trace_blob, case):
    blob = bytearray(small_trace_blob)
    CORRUPT_HEADERS[case](blob)
    assert blob != small_trace_blob
    path = tmp_path / "corrupt.bin"
    path.write_bytes(bytes(blob))
    assert main(["attack", str(path), "--out", str(tmp_path / "a"),
                 "--evaluate", bytes(range(16)).hex()]) == 3
    assert main(["fft", str(path), "--out", str(tmp_path / "f")]) == 3
    assert "data error:" in capsys.readouterr().err


def _resized_trace(blob, index, delta, n_traces=4):
    """``blob`` with trace ``index`` given ``delta`` more (zero) samples."""
    header = _LABEL_AT + _label_len(blob) + 48
    item = (len(blob) - header) // n_traces
    at = header + index * item
    record = bytearray(blob[at:at + item])
    struct.pack_into("<I", record, 33, struct.unpack_from("<I", record, 33)[0] + delta)
    record = record[:item + 4 * delta] if delta < 0 else record + bytes(4 * delta)
    return blob[:at] + bytes(record) + blob[at + item:]


@pytest.mark.parametrize("index, delta", [(3, -5), (1, -5), (0, 5)])
def test_unequal_sample_counts_are_a_data_error(tmp_path, capsys, small_trace_blob,
                                                index, delta):
    # version 1 allows a count per trace, but a set's rows share one length
    path = tmp_path / "unequal.bin"
    path.write_bytes(_resized_trace(small_trace_blob, index, delta))
    with pytest.raises(TraceFormatError, match="must have equal counts"):
        read_trace_set(str(path))
    assert main(["attack", str(path), "--out", str(tmp_path / "a"),
                 "--evaluate", bytes(range(16)).hex()]) == 3
    assert main(["fft", str(path), "--out", str(tmp_path / "f")]) == 3
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["all failed", "none"])
def test_fft_of_a_set_with_no_usable_trace_is_a_data_error(tmp_path, capsys, rows):
    ts = generate_set(STUDY_SETS[0].fs, bytes(range(16)), 4, oversampling=8)
    if rows == "all failed":
        ts = dataclasses.replace(ts, failed=np.ones(len(ts), dtype=bool))
    else:
        ts = ts.take(np.arange(0))
    path = tmp_path / "unusable.bin"
    write_trace_set(ts, str(path))
    assert main(["fft", str(path), "--out", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and "no usable traces" in err
    assert "Traceback" not in err


STALL_CONFIG = """\
[sets]
use = 1

[set]
base_hz = 10e6
f1 = 0.1e6
f2 = 0.1e6
f3 = 0.1e6
f4 = 0.1e6

[simulate]
n_base_cycles = 1000
n_encryptions = 20

[traces]
n_traces = 64
oversampling = 4

[attack]
step = 16
"""

STALL_MESSAGE = "stalled clock: only 8 edges after 704 base cycles (needed 11)"


@pytest.mark.parametrize("command", ["simulate", "gen", "compare"])
def test_stalling_config_set_exits_2(tmp_path, capsys, command):
    # sources 100x slower than the base cannot clock eleven edges in time
    cfg = write_config(tmp_path, STALL_CONFIG)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().splitlines() == [f"error: {STALL_MESSAGE}"]


def test_stalling_trace_file_set_exits_3(tmp_path, capsys, small_trace_blob):
    blob = bytearray(small_trace_blob)
    for i in range(4):
        _corrupt(blob, _LABEL_AT + _label_len(blob) + 8 * (i + 1), "<d", 0.1e6)
    path = tmp_path / "crawl.bin"
    path.write_bytes(bytes(blob))
    assert read_trace_set(str(path)).fs.fundamentals == (0.1e6,) * 4
    assert main(["attack", str(path), "--out", str(tmp_path / "a")]) == 3
    assert capsys.readouterr().err.rstrip().splitlines() == [f"data error: {STALL_MESSAGE}"]


def test_internal_error_prints_traceback_and_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    cfg = write_config(tmp_path, CLI_CONFIG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("no_sync", [False, True])
def test_report_and_cli_agree_on_max_delay(tmp_path, capsys, no_sync):
    cfg_path = write_config(tmp_path, COMPARE_CONFIG.replace("n_traces = 600",
                                                             "n_traces = 120"))
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 0
    trace_path = out / "traces_set2.bin"
    key_hex = bytes(range(16)).hex()
    argv = ["attack", str(trace_path), "--config", cfg_path, "--out", str(out),
            "--evaluate", key_hex] + (["--no-sync"] if no_sync else [])
    assert main(argv) == 0
    capsys.readouterr()
    cli_delay = json.loads((out / "attack_report.json").read_text())["max_delay_samples"]
    cfg = parse_config(cfg_path)
    params = cfg.filter_params()
    kept, _, _ = filter_traces(read_trace_set(str(trace_path)), params)
    am = (raw_matrix(kept, round=cfg.attack_round, params=params) if no_sync
          else synchronize(kept, round=cfg.attack_round,
                           window_halfwidth=cfg.window_halfwidth, params=params))
    assert am.max_delay_samples == cli_delay
    assert cli_delay > 0


def count_pipeline_calls(monkeypatch):
    """Count calls of the attack passes through the ``cli`` and ``attack``
    bindings alike, so a pass is counted whichever module calls it."""
    calls = {}
    for name in ("filter_traces", "synchronize", "raw_matrix", "detect_peaks"):
        real = getattr(attack, name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "detect_peaks":
                # all rows as one array; the pass slices them a chunk at a time
                calls["detected_rows"] = args[0][:]
            return _real(*args, **kwargs)

        for module in (attack, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("no_sync", [False, True])
def test_attack_and_compare_run_one_pass_per_set(tmp_path, capsys, monkeypatch, no_sync):
    cfg_path = write_config(tmp_path, COMPARE_CONFIG.replace("n_traces = 600",
                                                             "n_traces = 120"))
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 0
    trace_path = out / "traces_set2.bin"
    ts = read_trace_set(str(trace_path))
    sync_flag = ["--no-sync"] if no_sync else []
    aligner, unused = (("raw_matrix", "synchronize") if no_sync
                       else ("synchronize", "raw_matrix"))

    calls = count_pipeline_calls(monkeypatch)
    assert main(["attack", str(trace_path), "--config", cfg_path, "--out", str(out),
                 "--step", "30", "--evaluate", bytes(range(16)).hex()] + sync_flag) == 0
    assert (calls["filter_traces"], calls[aligner], calls[unused]) == (1, 1, 0)
    # one detection pass, over exactly the set's non-failed rows
    assert calls["detect_peaks"] == 1
    assert np.array_equal(calls["detected_rows"], ts.samples[~ts.failed])

    calls = count_pipeline_calls(monkeypatch)
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "cmp"),
                 "--step", "30"] + sync_flag) == 0
    capsys.readouterr()
    assert (calls["filter_traces"], calls[aligner], calls[unused]) == (2, 2, 0)
    assert calls["detect_peaks"] == 2


@pytest.mark.parametrize("step, noise_sigma, min_traces, search_builds, cpa_builds", [
    # k* 7 of 13 blocks: the first range (1-8) scores every byte
    (60, 0.5, 420, list(range(16)), []),
    # k* 9 of 16 blocks: the first range dies after byte 13, the second
    # (9-16) builds every byte again
    (50, 0.5, 450, list(range(14)) + list(range(16)), []),
    # unbroken: no segment survives byte 1, so bytes 2-15 are not built by
    # the search, and the CPA builds them
    (60, 10.0, None, [0, 1], list(range(2, 16))),
])
def test_attack_builds_hypotheses_once_per_byte_and_search_range(
        monkeypatch, step, noise_sigma, min_traces, search_builds, cpa_builds):
    fixed = FrequencySet(base_hz=10e6, fundamentals=(10e6,) * 4)
    ts = generate_set(fixed, bytes(range(16)), 800, oversampling=8,
                      noise_sigma=noise_sigma, seed=3)
    calls = []
    real = aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix",
                        lambda cts, p: calls.append(p) or real(cts, p))
    cfg = dataclasses.replace(ExperimentConfig(), step=step)
    result = cli._attack_trace_set(cfg, ts, bytes(range(16)))
    assert (result["min_traces"], result["broken"]) == (min_traces, min_traces is not None)
    # min_traces_search builds each byte once per range it scores, then
    # cpa_attack builds only the bytes the search never built
    assert calls == search_builds + cpa_builds

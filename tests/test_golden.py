"""Golden digests: SHA-256 of every artifact from a tiny fixed config.

A refactor that is meant to keep behaviour must keep these bytes.  The
single-core config drives ``gen``, ``attack --evaluate``, ``attack
--no-sync --evaluate``, ``attack`` without a key, ``fft``, ``simulate`` and
``compare``; the dual-core config drives ``gen`` with ``core_count = 2``,
the only byte-level guard on the dual-core generator, and ``attack
--evaluate`` on its file.
If a change alters artifact bytes on purpose, update the digests and say
so in CHANGES.md.
"""

import hashlib

import pytest

from clockmux.cli import main

KEY_HEX = "000102030405060708090a0b0c0d0e0f"

SINGLE_CONFIG = """\
[sets]
use = 1 2

[simulate]
n_base_cycles = 2000
n_encryptions = 40

[traces]
n_traces = 48
oversampling = 8
noise_sigma = 0.5

[attack]
step = 16
"""

DUAL_CONFIG = """\
[sets]
use = 1

[set2]
base_hz = 10.7e6
f1 = 12.809291e6
f2 = 8.272705e6
f3 = 9.927246e6
f4 = 13.537105e6
label = dual probe

[traces]
n_traces = 40
oversampling = 8
noise_sigma = 0.5
core_count = 2
key2 = 2b7e151628aed2a6abf7158809cf4f3c
"""

GOLDEN = {
    "attack/attack_report.csv":
        "0f11ec9090c996f4582711d92e964093d5675da54c44cc1c9a0d32aada322afb",
    "attack/attack_report.json":
        "461537aa57ddef09ab980bc03de2c26b7dee08213ab21a52fc96d31dcc2d70de",
    "attack_dual/attack_report.csv":
        "091dcb36719a2fa3d0adb198d491c3b1d001171da7407e9463a0f6715bbb173b",
    "attack_dual/attack_report.json":
        "cb893fc1ae115d494572048ed46e3898b72e362550bacdcb2965ac0ba413dadc",
    "attack_noeval/attack_report.csv":
        "365306249eb39d2d89b1bc656e8fe48ad92e014d8484583fc2448d4291337a37",
    "attack_noeval/attack_report.json":
        "0c4559005b6d2f1ef6d5a62a4f5ec291ae93b832659382d09d6af665809fb16f",
    "attack_nosync/attack_report.csv":
        "feb70eda7beb54e2e9c83c01a141fb7323702a109b84646232a9cca0d4c13a98",
    "attack_nosync/attack_report.json":
        "896c233efbbf3ca32d09fd5c442152bf8d0a36a302aeb066d9ab42c4d39feb6c",
    "compare/compare_ranking.csv":
        "394934c25555fb792ba7aa10b556762165ff0c50488ea90e3a27ecfa5f85603c",
    "compare/histogram_set1.csv":
        "77a09648d648b41e3b582250508d1ff330514906c05b7a81fb64f927ec53bb69",
    "compare/histogram_set2.csv":
        "d5e8969abb8534c3a2554eb2288233f165e7f8859106580c012358d043627f02",
    "compare/traces_set1.bin":
        "863856e4bea8323300908d9a9e55684f19af8a0e6b7c8790f1d7648076008fff",
    "compare/traces_set2.bin":
        "85f215f82bd80d07e9b5ac99ae3f6d8742a90232db7fe3054f647d3a8a8daabc",
    "dual/traces_set1.bin":
        "90816cd0e7e5f2bc0716e8d56e558cab7e77775a8c83286e251f7c0eb3b54c94",
    "fft/fft_summary.json":
        "444feca5507977c49846eb28931b5757902d4c2b567553f02aec6011c753420c",
    "fft/spectrum.csv":
        "6ae34ce9c7a8024107695ee71136078eaa0d66275ff8e6634a036dcd550379fa",
    "gen/traces_set1.bin":
        "863856e4bea8323300908d9a9e55684f19af8a0e6b7c8790f1d7648076008fff",
    "gen/traces_set2.bin":
        "85f215f82bd80d07e9b5ac99ae3f6d8742a90232db7fe3054f647d3a8a8daabc",
    "simulate/histogram_set1.csv":
        "77a09648d648b41e3b582250508d1ff330514906c05b7a81fb64f927ec53bb69",
    "simulate/histogram_set2.csv":
        "d5e8969abb8534c3a2554eb2288233f165e7f8859106580c012358d043627f02",
    "simulate/simulate_summary.csv":
        "5c40658ca35e611a4e9a9b09bd137c0e8db73de871522895c257702ad937a904",
}


def _run_all(root):
    single = root / "single.cfg"
    single.write_text(SINGLE_CONFIG)
    dual = root / "dual.cfg"
    dual.write_text(DUAL_CONFIG)
    trace_file = str(root / "gen" / "traces_set1.bin")
    dual_file = str(root / "dual" / "traces_set1.bin")
    commands = (
        ["gen", "--config", str(single), "--out", str(root / "gen")],
        ["attack", trace_file, "--config", str(single),
         "--out", str(root / "attack"), "--evaluate", KEY_HEX],
        ["fft", trace_file, "--config", str(single), "--out", str(root / "fft")],
        ["simulate", "--config", str(single), "--out", str(root / "simulate")],
        ["compare", "--config", str(single), "--out", str(root / "compare")],
        ["gen", "--config", str(dual), "--out", str(root / "dual")],
        ["attack", trace_file, "--config", str(single),
         "--out", str(root / "attack_nosync"), "--no-sync", "--evaluate", KEY_HEX],
        ["attack", trace_file, "--config", str(single),
         "--out", str(root / "attack_noeval")],
        ["attack", dual_file, "--config", str(dual),
         "--out", str(root / "attack_dual"), "--evaluate", KEY_HEX],
    )
    for argv in commands:
        assert main(argv) == 0, argv
    return root


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


def test_artifact_set_is_complete(artifacts):
    written = {p.relative_to(artifacts).as_posix()
               for p in artifacts.glob("*/*")}
    assert written == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_golden_digest(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]

"""Tests of the benchmark's own machinery, on a tiny input.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

from clockmux import cli
import hostspeed
import run
from tracer import TARGETS, Tracer, _argument_lookup
import workloads

TINY_CONFIG = """\
[sets]
use = 1 2
[simulate]
n_base_cycles = 2000
n_encryptions = 20
[traces]
n_traces = 60
oversampling = 12
noise_sigma = 0.5
[attack]
step = 20
"""


def _run_every_command(root) -> dict[str, str]:
    """Run each clockmux command once into ``root``; return artifact digests."""
    cfg = root / "exp.cfg"
    root.mkdir()
    cfg.write_text(TINY_CONFIG)
    trace_file = str(root / "gen" / "traces_set1.bin")
    commands = [
        ["compare", "--config", str(cfg), "--seed", "3", "--out", str(root / "compare")],
        ["simulate", "--config", str(cfg), "--seed", "3", "--out", str(root / "simulate")],
        ["gen", "--config", str(cfg), "--seed", "3", "--out", str(root / "gen")],
        ["attack", trace_file, "--config", str(cfg), "--seed", "3",
         "--out", str(root / "attack"), "--evaluate", workloads.KEY_HEX],
        ["fft", trace_file, "--config", str(cfg), "--seed", "3", "--out", str(root / "fft")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.suffix in (".bin", ".csv", ".json"):
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "clockmux" or name.startswith("clockmux.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracing_counts_every_layer_keeps_bytes_and_restores(tmp_path, capsys):
    before = _bindings()
    plain = _run_every_command(tmp_path / "plain")
    tracer = Tracer()
    with tracer:
        # cli imports these by name; they must be wrapped there too
        assert cli.filter_traces is not before[("clockmux.cli", "filter_traces")]
        assert cli.min_traces_search is not before[("clockmux.cli", "min_traces_search")]
        traced = _run_every_command(tmp_path / "traced")
    uncalled = [name for name, stat in tracer.stats.items() if stat.calls < 1]
    assert not uncalled
    assert len(tracer.stats) == len(TARGETS)
    assert traced == plain and len(plain) > 10
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    generated = tracer.stats["traces.generate_set"]
    assert generated.counts["traces"] == 60 * generated.calls
    raw = tracer.raw()
    for name, stat in raw["layers"].items():
        assert stat["self_s"] <= stat["total_s"] + 1e-9, name
    assert 0 < raw["top_level_s"]


def test_benchmark_json_matches_the_spec():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        assert json.load(fh) == workloads.benchmark_spec()


def test_ranking_check_rejects_a_wrong_order():
    rows = [{"rank": str(i), "set": str(s), "min_traces": mt, "broken": b,
             "mean_overhead": mo}
            for i, (s, mt, b, mo) in enumerate([
                (6, "", "false", "-0.19"), (1, "", "false", "-0.18"),
                (4, "", "false", "-0.15"), (5, "", "false", "0.07"),
                (7, "1750", "true", "0.05"), (3, "1500", "true", "-0.02"),
                (2, "1250", "true", "0.11")], start=1)]
    assert workloads._ranking_problems(rows) == []
    rows[4], rows[5] = rows[5], rows[4]
    rows[4]["rank"], rows[5]["rank"] = "5", "6"
    assert workloads._ranking_problems(rows)


def test_argument_lookup_reads_positional_keyword_and_default():
    def f(a, b=2, *, c=3):
        return a

    get = _argument_lookup(f)
    assert get((1,), {}, "a") == 1
    assert get((1,), {}, "b") == 2
    assert get((1, 5), {}, "b") == 5
    assert get((1,), {"b": 6, "c": 4}, "b") == 6
    assert get((1,), {"c": 4}, "c") == 4
    assert get((1,), {}, "c") == 3


def test_traced_run_takes_three_of_each_within_its_cap():
    # untraced: two iterations, then only while within --seconds
    assert run._another(1, False, 1000.0, 30)
    assert not run._another(2, False, 31.0, 30)
    # traced: past --seconds up to three of each, but not past the cap
    assert run._another(5, True, 100.0, 30)
    assert not run._another(5, True, run.TRACED_CAP_S + 1.0, 30)
    assert not run._another(6, True, 31.0, 30)


def test_times_are_scaled_and_counts_are_not():
    raw = {"top_level_s": 1.0, "layers": {
        name: {"calls": 4, "total_s": 0.5, "self_s": 0.25, "counts": {}}
        for name in (f"{m}.{f}" for m, f in TARGETS)}}
    raw["layers"]["traces.generate_set"]["counts"] = {"traces": 100}
    wl = workloads.WORKLOADS["compare"]
    plain = workloads.layer_metrics(wl, raw, 1.5)
    scaled = workloads.layer_metrics(wl, raw, 1.5, scale=2.0)
    assert scaled["aes.expand_key.self_s"] == 2 * plain["aes.expand_key.self_s"] == 0.5
    assert scaled["cli.self_s"] == 2 * plain["cli.self_s"] == 1.0
    assert scaled["traces.generate_set.traces_per_s"] == plain["traces.generate_set.traces_per_s"] / 2
    assert scaled["aes.expand_key.calls"] == plain["aes.expand_key.calls"] == 4
    it = run.Iteration(setup_s=1.0, run_s=7.0, setup_scale=0.5, run_scale=0.25,
                       result={"peak_rss_kb": 1024})
    e2e = run.end_to_end(wl, [it])
    assert e2e["setup_s"] == 0.5 and e2e["run_s"] == 1.75
    assert e2e["items_per_s"] == wl.items / 1.75


def test_probe_ticks_are_left_out_and_set_the_scale():
    ticks = [2 * hostspeed.REFERENCE_S] * 4
    program_s, scale = hostspeed.scaled(10.0, ticks)
    assert program_s == 10.0 - 8 * hostspeed.REFERENCE_S
    assert scale == 0.5
    sampler = hostspeed.Sampler()
    sampler.start()
    t0, c0 = time.perf_counter(), sampler.clock()
    while time.perf_counter() - t0 < 2.5 * hostspeed.INTERVAL_S:
        pass
    ticks = sampler.stop()
    assert len(ticks) >= 2
    assert (time.perf_counter() - t0) - (sampler.clock() - c0) >= sum(ticks[1:]) - 1e-9


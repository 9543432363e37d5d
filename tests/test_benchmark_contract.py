"""The benchmark's tracer, loaded read-only, against this package.

``perfbench/tracer.py`` wraps the package's functions by module and name,
and takes work counters from their arguments (by parameter name) and
results.  The benchmark's own tests live under ``perfbench/``, outside this
suite, so a renamed function or parameter would first show up in a
benchmark run.  These tests load the tracer file as it is, without writing
a bytecode cache next to it, and check what it relies on.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import clockmux.aes  # noqa: F401  (the tracer wraps every loaded module)
import clockmux.cli  # noqa: F401
from clockmux import attack, clock, traces
from clockmux.config import ExperimentConfig
from clockmux.presets import study_set
from clockmux.traces import generate_set

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package(tracer):
    for module, name in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"clockmux.{module}"), name, None)
        assert callable(fn), f"clockmux.{module}.{name}"


def test_filter_counters_evaluate_on_a_generated_set(tracer, tmp_path):
    ts = generate_set(study_set(1).fs, bytes(range(16)), 60, oversampling=12,
                      seed=5, noise_sigma=0.5)
    assert ts.failed.any()
    traces.write_trace_set(ts, tmp_path / "set.bin")
    read_back = traces.read_trace_set(tmp_path / "set.bin")  # carries no clock edges
    empty = generate_set(study_set(1).fs, bytes(range(16)), 0, oversampling=12, seed=5)
    for case in (ts, read_back, empty):
        with tracer.Tracer() as t:
            kept, _, _ = attack.filter_traces(case)
            attack.synchronize(kept, round=10)
        assert not hasattr(attack.filter_traces, "__wrapped__")
        stats = t.stats
        assert stats["attack.filter_traces"].counts == {"seen": len(case), "kept": len(kept)}
        assert 0 < len(kept) < len(case) or len(case) == 0
        # one detection pass per filter_traces call (its rows: tests/test_attack.py)
        assert stats["attack.detect_peaks"].calls == stats["attack.filter_traces"].calls == 1
        assert stats["attack.synchronize"].counts["rows"] <= len(kept)


def test_clock_and_generation_counters_evaluate_on_small_calls(tracer):
    # called as the command line calls them, so a renamed parameter fails here
    fs = study_set(2).fs
    with tracer.Tracer() as t:
        clock.overhead_and_error(fs, rounds=10, n_encryptions=7, seed=1)
        clock.simulate_mux_clock(fs, 300, 1)
        traces.generate_set(fs, bytes(range(16)), 5, oversampling=4, seed=1)
    stats = t.stats
    assert stats["clock.overhead_and_error"].counts == {"encryptions": 7}
    assert stats["clock.simulate_mux_clock"].counts == {"cycles": 300}
    assert stats["traces.generate_set"].counts == {"traces": 5}
    for name in ("clock.overhead_and_error", "clock.simulate_mux_clock",
                 "traces.generate_set"):
        assert stats[name].calls == 1


def test_a_keyed_attack_at_the_default_step_builds_each_byte_once(tracer):
    # the benchmark's build counts (16 a set) rest on the CPA scoring every
    # byte from the sums the search left on the matrix
    ts = generate_set(clock.FrequencySet(base_hz=10e6, fundamentals=(10e6,) * 4),
                      bytes(range(16)), 800, oversampling=8, noise_sigma=0.5, seed=3)
    cfg = dataclasses.replace(ExperimentConfig(), step=attack.DEFAULT_STEP)
    with tracer.Tracer() as t:
        result = clockmux.cli._attack_trace_set(cfg, ts, bytes(range(16)))
    assert result["broken"]
    stats = t.stats
    assert stats["attack.min_traces_search"].calls == stats["attack.cpa_attack"].calls == 1
    assert stats["aes.hypothesis_matrix"].calls == 16

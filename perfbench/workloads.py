"""Workload definitions, artifact checks and the metric spec.

Each workload is a closed loop with one client: a fresh process sets up,
runs its timed ``clockmux`` commands through ``clockmux.cli.main``, and
exits before the next one starts.  The seed reaches the program only
through ``--seed``.  Why each workload exists, and which layer metric
should move which end-to-end metric on it, is written down in README.md
beside this file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

KEY_HEX = "000102030405060708090a0b0c0d0e0f"  # clockmux's default key
STEP = 250
N_SETS = 7

COMPARE_TRACES = 2000
ANALYZE_SET = 2
ANALYZE_TRACES = 4000
SIMULATE_CYCLES = 320000
SIMULATE_ENCRYPTIONS = 3000

#: Placeholders filled in per iteration by the worker.
CFG, SEED, OUT, INPUT = "{cfg}", "{seed}", "{out}", "{input}"
ANALYZE_FILE = os.path.join(INPUT, "traces_set1.bin")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    #: commands run before timing starts, then the timed ones; each is an
    #: argv for ``clockmux.cli.main`` with the placeholders above
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    #: work items per timed run, and what an item is
    items: int
    item_name: str


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="compare",
        why="clockmux compare over the seven study sets: generation-heavy, "
            "write side of trace I/O, both exits of the min-traces search",
        config=(f"[sets]\nuse = all\n"
                f"[traces]\nn_traces = {COMPARE_TRACES}\noversampling = 12\n"
                f"noise_sigma = 0.5\n"
                f"[attack]\nstep = {STEP}\n"),
        setup=(),
        timed=(("compare", "--config", CFG, "--seed", SEED, "--out", OUT),),
        items=N_SETS * COMPARE_TRACES,
        item_name="traces",
    ),
    Workload(
        name="analyze",
        why="attack --evaluate then fft on a file made by gen in setup: "
            "attack-heavy, read side of trace I/O, generation only in setup",
        config=(f"[sets]\nuse = {ANALYZE_SET}\n"
                f"[traces]\nn_traces = {ANALYZE_TRACES}\noversampling = 12\n"
                f"noise_sigma = 0.5\n"
                f"[attack]\nstep = {STEP}\n"),
        setup=(("gen", "--config", CFG, "--seed", SEED, "--out", INPUT),),
        timed=(("attack", ANALYZE_FILE, "--config", CFG, "--seed", SEED,
                "--out", OUT, "--evaluate", KEY_HEX),
               ("fft", ANALYZE_FILE, "--config", CFG, "--seed", SEED,
                "--out", OUT)),
        items=ANALYZE_TRACES,
        item_name="traces",
    ),
    Workload(
        name="simulate",
        why="clockmux simulate over the seven sets: clock layer only, "
            "vectorised waveform plus per-encryption overhead Monte Carlo",
        config=(f"[sets]\nuse = all\n"
                f"[simulate]\nn_base_cycles = {SIMULATE_CYCLES}\n"
                f"n_encryptions = {SIMULATE_ENCRYPTIONS}\n"),
        setup=(),
        timed=(("simulate", "--config", CFG, "--seed", SEED, "--out", OUT),),
        items=N_SETS * SIMULATE_ENCRYPTIONS,
        item_name="encryptions",
    ),
)}


# ---------------------------------------------------------------------------
# Metric spec (BENCHMARK.json is written from this)
# ---------------------------------------------------------------------------

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)

_LAYER_METRICS = (
    ("clock.overhead_and_error", (("calls", "count", "lower"),
                                  ("self_s", "s", "lower"),
                                  ("enc_per_s", "1/s", "higher"))),
    ("clock.simulate_mux_clock", (("calls", "count", "lower"),
                                  ("self_s", "s", "lower"),
                                  ("cycles_per_s", "1/s", "higher"))),
    ("aes.encrypt_blocks_with_states", (("calls", "count", "lower"),
                                        ("self_s", "s", "lower"),
                                        ("blocks_per_call", "count", "higher"))),
    ("aes.expand_key", (("calls", "count", "lower"), ("self_s", "s", "lower"))),
    ("aes.round_distances", (("calls", "count", "lower"), ("self_s", "s", "lower"))),
    ("aes.hypothesis_matrix", (("calls", "count", "lower"), ("self_s", "s", "lower"))),
    ("traces.generate_set", (("calls", "count", "lower"),
                             ("self_s", "s", "lower"),
                             ("traces_per_s", "1/s", "higher"))),
    ("traces.write_trace_set", (("self_s", "s", "lower"), ("bytes", "B", "lower"))),
    ("traces.read_trace_set", (("self_s", "s", "lower"), ("bytes", "B", "lower"))),
    ("attack.detect_peaks", (("calls", "count", "lower"),
                             ("self_s", "s", "lower"),
                             ("calls_per_trace", "count", "lower"))),
    ("attack.filter_traces", (("self_s", "s", "lower"), ("kept_ratio", "ratio", "higher"))),
    ("attack.synchronize", (("self_s", "s", "lower"), ("rows", "count", "higher"))),
    ("attack.cpa_attack", (("self_s", "s", "lower"),)),
    ("attack.min_traces_search", (("self_s", "s", "lower"),)),
    ("attack.fft_spectrum", (("self_s", "s", "lower"),)),
    ("cli", (("self_s", "s", "lower"),)),
    ("trace", (("overhead_s", "s", "lower"),)),
)

PER_LAYER = tuple({"name": f"{layer}.{stat}", "unit": unit, "better": better}
                  for layer, stats in _LAYER_METRICS
                  for stat, unit, better in stats)

RUN_SECONDS = 30


def benchmark_spec() -> dict:
    """The document BENCHMARK.json holds."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [dict(m) for m in PER_LAYER],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl: Workload, raw: dict, run_s: float,
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced run from the tracer's raw totals.

    ``run_s`` is the run's wall time; every time is multiplied by ``scale``
    (see hostspeed.py).  Rates use a layer's inclusive time; a ratio whose
    base is zero (the layer did not run on this workload) reads 0.
    """
    L = raw["layers"]
    out: dict[str, float] = {}
    for layer, stats in _LAYER_METRICS:
        if layer in L:
            for stat, _, _ in stats:
                if stat == "calls":
                    out[f"{layer}.calls"] = L[layer]["calls"]
                elif stat == "self_s":
                    out[f"{layer}.self_s"] = L[layer]["self_s"] * scale
    c = {name: L[name]["counts"] for name in L}
    t = {name: L[name]["total_s"] * scale for name in L}
    out["clock.overhead_and_error.enc_per_s"] = _ratio(
        c["clock.overhead_and_error"].get("encryptions", 0), t["clock.overhead_and_error"])
    out["clock.simulate_mux_clock.cycles_per_s"] = _ratio(
        c["clock.simulate_mux_clock"].get("cycles", 0), t["clock.simulate_mux_clock"])
    out["aes.encrypt_blocks_with_states.blocks_per_call"] = _ratio(
        c["aes.encrypt_blocks_with_states"].get("blocks", 0),
        L["aes.encrypt_blocks_with_states"]["calls"])
    out["traces.generate_set.traces_per_s"] = _ratio(
        c["traces.generate_set"].get("traces", 0), t["traces.generate_set"])
    out["traces.write_trace_set.bytes"] = c["traces.write_trace_set"].get("bytes", 0)
    out["traces.read_trace_set.bytes"] = c["traces.read_trace_set"].get("bytes", 0)
    n_traces = wl.items if wl.item_name == "traces" else 0
    out["attack.detect_peaks.calls_per_trace"] = _ratio(
        L["attack.detect_peaks"]["calls"], n_traces)
    out["attack.filter_traces.kept_ratio"] = _ratio(
        c["attack.filter_traces"].get("kept", 0), c["attack.filter_traces"].get("seen", 0))
    out["attack.synchronize.rows"] = c["attack.synchronize"].get("rows", 0)
    out["cli.self_s"] = (run_s - raw["top_level_s"]) * scale
    return out


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------

def producer(wl: Workload, artifact: str) -> str:
    """Name of the command that wrote an artifact (a path under the run dir)."""
    if wl.name != "analyze":
        return wl.timed[0][0]
    if artifact.startswith("input/"):
        return "gen"
    return "attack" if "attack_report" in artifact else "fft"


def _read_csv(path: str) -> tuple[dict, list[dict]]:
    """Header comments as a dict, then the rows."""
    meta = {}
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _min_traces_ok(value, n_traces: int) -> bool:
    return value is not None and value % STEP == 0 and 0 < value <= n_traces


def _ranking_problems(rows: list[dict]) -> list[str]:
    problems = []
    if len(rows) != N_SETS:
        return [f"compare ranking has {len(rows)} rows, expected {N_SETS}"]
    if [r["rank"] for r in rows] != [str(i) for i in range(1, N_SETS + 1)]:
        problems.append("compare ranks are not 1..7 in order")
    if sorted(int(r["set"]) for r in rows) != list(range(1, N_SETS + 1)):
        problems.append("compare ranking does not list each set once")
    keys = []
    for r in rows:
        mt = int(r["min_traces"]) if r["min_traces"] else None
        if mt is not None and not _min_traces_ok(mt, COMPARE_TRACES):
            problems.append(f"set {r['set']}: min_traces {mt} is not a multiple "
                            f"of {STEP} within the budget")
        if (r["broken"] == "true") != (mt is not None):
            problems.append(f"set {r['set']}: broken flag disagrees with min_traces")
        keys.append((-(mt if mt is not None else math.inf), float(r["mean_overhead"])))
    if keys != sorted(keys):
        problems.append("compare ranking is not most traces first, then lower overhead")
    return problems


def _simulate_problems(out: str) -> list[str]:
    _, rows = _read_csv(os.path.join(out, "simulate_summary.csv"))
    if [r["set"] for r in rows] != [str(i) for i in range(1, N_SETS + 1)]:
        return ["simulate summary does not list sets 1..7"]
    problems = []
    for r in rows:
        _, hist = _read_csv(os.path.join(out, f"histogram_set{r['set']}.csv"))
        periods = sum(int(h["count"]) for h in hist)
        if periods != int(r["n_edges"]) - 1:
            problems.append(f"set {r['set']}: histogram holds {periods} periods, "
                            f"summary says {r['n_edges']} edges")
    return problems


def _seed_problems(path: str, seed: int) -> list[str]:
    """The artifact's header must record the run's seed."""
    if path.endswith(".csv"):
        meta, _ = _read_csv(path)
    elif path.endswith(".json"):
        meta = {k: str(v) for k, v in _read_json(path)["meta"].items()}
    else:
        return []
    if meta.get("seed") == str(seed):
        return []
    return [f"{os.path.basename(path)}: header seed {meta.get('seed')!r}, expected {seed}"]


def check_artifacts(wl: Workload, root: str, artifacts: list[str],
                    seed: int) -> dict[str, list[str]]:
    """Checks that need no digest, as problems per command name.

    ``root`` holds the iteration's ``out`` and ``input`` directories and
    ``artifacts`` lists every artifact file under them, relative to ``root``.
    """
    out = os.path.join(root, "out")
    problems: dict[str, list[str]] = {}

    def add(command: str, found: list[str]) -> None:
        if found:
            problems.setdefault(command, []).extend(found)

    try:
        if wl.name == "compare":
            _, rows = _read_csv(os.path.join(out, "compare_ranking.csv"))
            found = _ranking_problems(rows)
            n_bins = sum(p.endswith(".bin") for p in artifacts)
            if n_bins != N_SETS:
                found.append(f"compare wrote {n_bins} trace files, expected {N_SETS}")
            add("compare", found)
        elif wl.name == "analyze":
            if not os.path.getsize(os.path.join(root, "input", "traces_set1.bin")):
                add("gen", ["gen wrote an empty trace file"])
            report = _read_json(os.path.join(out, "attack_report.json"))
            found = []
            if report["recovered_key"] != KEY_HEX:
                found.append(f"attack recovered {report['recovered_key']}, "
                             f"not the true key")
            if not (report["broken"] and _min_traces_ok(report["min_traces"],
                                                         ANALYZE_TRACES)):
                found.append(f"min_traces {report['min_traces']} is not a multiple "
                             f"of {STEP} within the budget")
            add("attack", found)
            fft = _read_json(os.path.join(out, "fft_summary.json"))
            found = []
            if not 0 < fft["n_traces"] <= ANALYZE_TRACES or len(fft["top_bins"]) != 10:
                found.append("fft summary has no traces or not ten top bins")
            add("fft", found)
        else:
            add("simulate", _simulate_problems(out))
        for artifact in artifacts:
            add(producer(wl, artifact), _seed_problems(os.path.join(root, artifact), seed))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        for argv in wl.timed:
            add(argv[0], [f"artifact unreadable: {type(exc).__name__}: {exc}"])
    return problems

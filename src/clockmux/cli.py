"""Command-line front end for reproducible experiments.

Subcommands:

``simulate``
    Per frequency set: period histogram CSV plus one summary row with edge
    count, unique histogram bins, analytic edge probabilities, timing
    overhead, and error risk.
``gen``
    Synthesize trace sets and persist them in the binary trace format.
``attack``
    Run filter, synchronize, CPA, and (given the true key) the minimum
    trace search against a persisted trace file; emit a JSON/CSV report.
``fft``
    Averaged magnitude spectrum of a trace file as CSV plus a JSON summary
    of the ten strongest bins.
``compare``
    Run simulate, gen, and attack for every configured set and emit one
    ranked table: most traces to break first, ties broken by lower mean
    overhead.  One worker thread prepares the next set (clock, traces,
    file, filter and alignment) while this set is searched and correlated;
    sets are taken in order, so output and errors are the serial run's.

Every artifact starts with a header (JSON: a ``meta`` object) recording the
tool version, the canonical config digest, and the seed, and every command
is deterministic given those: rerunning writes byte-identical files.  Exit
codes: 0 success, 2 usage or config error (a set whose clock stalls too), 3
unreadable or corrupt data (or such a set in a trace file), 4 internal error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import json
import math
import os
import sys
import traceback

from . import __version__
from .attack import (
    cpa_attack,
    fft_spectrum,
    filter_traces,
    min_traces_search,
    raw_matrix,
    synchronize,
)
from .clock import (
    StalledClockError,
    _row_batches,
    double_edge_probability,
    overhead_and_error,
    period_histogram,
    presence_probabilities,
    reference_bin_width,
    simulate_mux_clock,
)
from .config import ConfigError, ExperimentConfig, _parse_key, parse_config
from .traces import TraceFormatError, generate_set, read_trace_set, write_trace_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# Offset between per-set seed streams; any large odd constant keeps the
# derived seeds distinct for every realistic base seed.
_SEED_STRIDE = 1000003

_SUMMARY_COLUMNS = (
    "set", "label", "base_hz", "f1_hz", "f2_hz", "f3_hz", "f4_hz",
    "n_edges", "unique_bins",
    "p_edge_1", "p_edge_2", "p_edge_3", "p_edge_4",
    "p_double_1", "p_double_2", "p_double_3", "p_double_4",
    "mean_overhead", "worst_overhead", "error_risk",
)

_ATTACK_COLUMNS = (
    "min_traces", "broken", "failed_fraction", "removed_fraction",
    "max_delay_samples", "mean_overhead", "worst_overhead", "error_risk",
    "recovered_key",
)

_COMPARE_COLUMNS = (
    "rank", "set", "label", "min_traces", "broken",
    "failed_fraction", "removed_fraction", "max_delay_samples",
    "mean_overhead", "worst_overhead", "error_risk",
    "n_edges", "unique_bins",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta(cfg: ExperimentConfig) -> dict:
    return {"version": __version__, "config_digest": cfg.digest(),
            "seed": cfg.seed}


def _write_csv(path: str, cfg: ExperimentConfig, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in _meta(cfg).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, cfg: ExperimentConfig, payload: dict) -> None:
    doc = {"meta": _meta(cfg)}
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _set_seed(cfg: ExperimentConfig, index: int) -> int:
    return cfg.seed + _SEED_STRIDE * index


def _set_label(fs, index: int) -> str:
    return fs.label or f"set {index}"


def _require_sets(cfg: ExperimentConfig, minimum: int = 1) -> None:
    if len(cfg.sets) < minimum:
        if minimum > 1:
            raise ConfigError(f"need at least {minimum} frequency sets to compare, "
                              f"got {len(cfg.sets)}")
        raise ConfigError("config selects no frequency sets; "
                          "add a [sets] or [set] section")


def _clock_summary(cfg: ExperimentConfig, fs, index: int, out_dir: str) -> dict:
    """Simulate one set's clock, write its histogram CSV, return its stats."""
    wave = simulate_mux_clock(fs, cfg.n_base_cycles, _set_seed(cfg, index))
    edges, width = wave.edges_s, reference_bin_width(fs)
    bins = collections.Counter()  # periods a period_histogram chunk at a time, not all held
    for c0, c1 in _row_batches(len(edges) - 1, 1):
        bins.update(period_histogram(edges[c0 + 1:c1 + 1] - edges[c0:c1], width).bins)
    rows = [(idx, idx * width, bins[idx]) for idx in sorted(bins)]
    _write_csv(os.path.join(out_dir, f"histogram_set{index}.csv"), cfg,
               ("bin_index", "period_low_s", "count"), rows)
    sources = range(1, 5)
    return {
        "set": index,
        "label": _set_label(fs, index),
        "base_hz": fs.base_hz,
        **{f"f{i}_hz": float(f) for i, f in zip(sources, fs.fundamentals)},
        "n_edges": len(wave.edges_s),
        "unique_bins": len(bins),
        **{f"p_edge_{i}": p for i, p in zip(sources, presence_probabilities(fs))},
        **{f"p_double_{i}": double_edge_probability(p, fs.base_period_s)
           for i, p in zip(sources, fs.periods_s)},
    }


def _overhead(cfg: ExperimentConfig, fs, rounds: int, seed: int) -> dict:
    return dataclasses.asdict(overhead_and_error(
        fs, rounds=rounds, n_encryptions=cfg.n_encryptions, seed=seed,
        error_threshold_factor=cfg.error_threshold_factor))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    _require_sets(cfg)
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i, fs in enumerate(cfg.sets, start=1):
        m = {**_clock_summary(cfg, fs, i, out_dir),
             **_overhead(cfg, fs, rounds=10, seed=_set_seed(cfg, i))}
        rows.append([m[c] for c in _SUMMARY_COLUMNS])
        print(f"set {i} ({m['label']}): edges={m['n_edges']} "
              f"unique_bins={m['unique_bins']} "
              f"mean_overhead={m['mean_overhead']:.4f} "
              f"error_risk={m['error_risk']:.4f}")
    _write_csv(os.path.join(out_dir, "simulate_summary.csv"), cfg,
               _SUMMARY_COLUMNS, rows)
    return EXIT_OK


def _generate_one(cfg: ExperimentConfig, fs, index: int):
    return generate_set(fs, cfg.key, cfg.n_traces,
                        noise_sigma=cfg.noise_sigma,
                        oversampling=cfg.oversampling,
                        seed=_set_seed(cfg, index),
                        amplitude=cfg.amplitude,
                        error_threshold_factor=cfg.error_threshold_factor,
                        window_cycles=cfg.window_cycles,
                        fs2=cfg.fs2, key2=cfg.key2)


def cmd_gen(cfg: ExperimentConfig) -> int:
    _require_sets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for i, fs in enumerate(cfg.sets, start=1):
        ts = _generate_one(cfg, fs, i)
        path = os.path.join(cfg.out_dir, f"traces_set{i}.bin")
        write_trace_set(ts, path)
        print(f"set {i} ({_set_label(fs, i)}): wrote {path} "
              f"n_traces={len(ts)} "
              f"failed_fraction={ts.failed_fraction()!r}")
    return EXIT_OK


def _align(cfg: ExperimentConfig, ts):
    """A set's first stage: filter, then synchronize (or take the raw rows).
    Returns the aligned matrix and the result fields known once it stands."""
    params = cfg.filter_params()
    kept, removed_fraction, failed_fraction = filter_traces(ts, params)
    if cfg.no_sync:
        am = raw_matrix(kept, round=cfg.attack_round, params=params)
    else:
        am = synchronize(kept, round=cfg.attack_round,
                         window_halfwidth=cfg.window_halfwidth, params=params)
    return am, {"failed_fraction": failed_fraction,
                "removed_fraction": removed_fraction,
                "max_delay_samples": am.max_delay_samples}


def _score(cfg: ExperimentConfig, am, fs, true_key: bytes | None) -> dict:
    """A set's second stage: the search (given a key), the CPA and the
    overhead of the set's clock ``fs``."""
    result = {"min_traces": None, "broken": None, "recovered_key": None}
    if true_key is not None:
        try:
            result["min_traces"] = min_traces_search(am, true_key, step=cfg.step)
        except ValueError as exc:  # more blocks x W than the search takes
            raise ConfigError(f"[attack] step: {exc}") from None
        result["broken"] = result["min_traces"] is not None
    if am.rows.shape[0] >= 2:
        cpa = cpa_attack(am, true_key=true_key)
        result["recovered_key"] = cpa.recovered_key.hex()
    result.update(_overhead(cfg, fs, rounds=cfg.attack_round, seed=cfg.seed))
    return result


def _attack_trace_set(cfg: ExperimentConfig, ts, true_key: bytes | None) -> dict:
    am, aligned = _align(cfg, ts)
    return {**aligned, **_score(cfg, am, ts.fs, true_key)}


def cmd_attack(cfg: ExperimentConfig, trace_path: str,
               true_key: bytes | None) -> int:
    ts = read_trace_set(trace_path)
    result = _attack_trace_set(cfg, ts, true_key)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "attack_report.json"), cfg, result)
    _write_csv(os.path.join(cfg.out_dir, "attack_report.csv"), cfg,
               _ATTACK_COLUMNS, [[result[c] for c in _ATTACK_COLUMNS]])
    broken = result["broken"]
    verdict = ("not evaluated" if broken is None
               else "broken" if broken else "not broken")
    print(f"{trace_path}: min_traces={_fmt(result['min_traces']) or 'n/a'} "
          f"({verdict}) removed={result['removed_fraction']:.3f} "
          f"failed={result['failed_fraction']:.3f} "
          f"max_delay_samples={result['max_delay_samples']}")
    return EXIT_OK


def cmd_fft(cfg: ExperimentConfig, trace_path: str) -> int:
    ts = read_trace_set(trace_path)
    if ts.failed.all():
        raise TraceFormatError(f"{trace_path}: no usable traces (every trace failed, "
                               f"or the set is empty)")
    try:
        spectrum = fft_spectrum(ts, cfg.fft_bin_hz)
    except ValueError as exc:  # a bin below the spectrum's resolution
        raise ConfigError(f"[fft] {exc}") from None
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = [(b * spectrum.bin_hz, float(m))
            for b, m in enumerate(spectrum.magnitudes)]
    _write_csv(os.path.join(cfg.out_dir, "spectrum.csv"), cfg,
               ("bin_low_hz", "magnitude"), rows)
    top = [{"bin_low_hz": b * spectrum.bin_hz, "magnitude": m}
           for b, m in spectrum.top_bins(10)]
    _write_json(os.path.join(cfg.out_dir, "fft_summary.json"), cfg,
                {"bin_hz": spectrum.bin_hz, "n_fft": spectrum.n_fft,
                 "sample_rate_hz": spectrum.sample_rate_hz,
                 "n_traces": spectrum.n_traces, "top_bins": top})
    peak = top[0] if top else {"bin_low_hz": 0.0, "magnitude": 0.0}
    print(f"{trace_path}: top bin at {peak['bin_low_hz']:.0f} Hz "
          f"magnitude {peak['magnitude']:.3f}")
    return EXIT_OK


def _prepare(cfg: ExperimentConfig, fs, index: int):
    """Everything of set ``index`` up to its aligned matrix: clock summary
    and histogram, trace generation and file, filter and alignment.  The
    generated and kept sets die here; only the matrix leaves (unsynchronized,
    its rows are the kept set's samples)."""
    clock = _clock_summary(cfg, fs, index, cfg.out_dir)
    ts = _generate_one(cfg, fs, index)
    write_trace_set(ts, os.path.join(cfg.out_dir, f"traces_set{index}.bin"))
    am, aligned = _align(cfg, ts)
    return {**clock, **aligned}, am


def cmd_compare(cfg: ExperimentConfig) -> int:
    _require_sets(cfg, minimum=2)
    os.makedirs(cfg.out_dir, exist_ok=True)
    from concurrent.futures import ThreadPoolExecutor  # ~3.5 ms; only compare pays it
    entries = []
    # set i+1 is prepared on the worker while set i is scored here; results
    # are taken in set order, so the first error is the serial run's
    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(_prepare, cfg, cfg.sets[0], 1)
        for i, fs in enumerate(cfg.sets, start=1):
            entry, am = pending.result()
            if i < len(cfg.sets):
                pending = pool.submit(_prepare, cfg, cfg.sets[i], i + 1)
            # the ranking's overhead is the attack run's (attack round, base seed)
            entries.append({**entry, **_score(cfg, am, fs, cfg.key)})
    # Most secure first: higher min_traces wins, an unbroken attack beats
    # any finite count, and ties fall back to the cheaper (lower mean
    # overhead) set.
    def order(e):
        traces = e["min_traces"] if e["min_traces"] is not None else math.inf
        return (-traces, e["mean_overhead"])

    entries.sort(key=order)
    rows = []
    for rank, e in enumerate(entries, start=1):
        row = dict(e, rank=rank)
        rows.append([row[c] for c in _COMPARE_COLUMNS])
        print(f"{rank}. set {e['set']} ({e['label']}): "
              f"min_traces={_fmt(e['min_traces']) or 'n/a'} "
              f"mean_overhead={e['mean_overhead']:.4f} "
              f"removed={e['removed_fraction']:.3f}")
    _write_csv(os.path.join(cfg.out_dir, "compare_ranking.csv"), cfg,
               _COMPARE_COLUMNS, rows)
    return EXIT_OK


def _hex_key(text: str) -> bytes:
    """``--evaluate``'s key, parsed as a config's ``key`` is."""
    try:
        return _parse_key(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockmux",
        description="Randomized-clock side-channel simulation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    # An override flag's dest is the ExperimentConfig field it sets; an
    # absent flag leaves no attribute, so the config's value stands.
    def common(sp, config_required: bool):
        sp.add_argument("--config", metavar="PATH", required=config_required,
                        help="experiment config file")
        sp.add_argument("--seed", metavar="N", type=int, dest="seed",
                        default=argparse.SUPPRESS, help="override the config seed")
        sp.add_argument("--out", metavar="DIR", dest="out_dir",
                        default=argparse.SUPPRESS, help="override the output directory")

    def search(sp):
        sp.add_argument("--no-sync", action="store_true", dest="no_sync",
                        default=argparse.SUPPRESS,
                        help="skip synchronization before the CPA (ablation)")
        sp.add_argument("--step", metavar="N", type=int, dest="step",
                        default=argparse.SUPPRESS, help="minimum-trace search grid step")

    sp = sub.add_parser("simulate", help="clock statistics per frequency set")
    common(sp, True)

    sp = sub.add_parser("gen", help="synthesize and persist trace sets")
    common(sp, True)

    sp = sub.add_parser("attack", help="filter, synchronize, CPA, min traces")
    sp.add_argument("trace_file", help="binary trace file from gen")
    common(sp, False)
    sp.add_argument("--evaluate", metavar="KEYHEX", type=_hex_key,
                    help="true key; enables ranks and the minimum-trace search")
    search(sp)

    sp = sub.add_parser("fft", help="averaged spectrum of a trace file")
    sp.add_argument("trace_file", help="binary trace file from gen")
    common(sp, False)
    sp.add_argument("--bin", metavar="HZ", type=float, dest="fft_bin_hz",
                    default=argparse.SUPPRESS, help="spectrum bin width in Hz")

    sp = sub.add_parser("compare", help="rank frequency sets end to end")
    common(sp, True)
    search(sp)
    return parser


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    return dataclasses.replace(cfg, **{f.name: getattr(args, f.name)
                                       for f in dataclasses.fields(cfg)
                                       if hasattr(args, f.name)})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_USAGE if code not in (0,) else EXIT_OK
    try:
        cfg = _effective_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "attack":
            return cmd_attack(cfg, args.trace_file, args.evaluate)
        if args.command == "fft":
            return cmd_fft(cfg, args.trace_file)
        return cmd_compare(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StalledClockError as exc:  # bad input: under attack, the trace file's
        data = args.command == "attack"
        print(f"{'data error' if data else 'error'}: stalled clock: {exc}", file=sys.stderr)
        return EXIT_DATA if data else EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

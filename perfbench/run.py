"""clockmux benchmark: run one workload and print its metrics.

Run from the root of a clockmux checkout:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 0

Each iteration is a fresh process (worker.py) that imports clockmux from
``src/``, sets up, and runs the workload's timed commands through
``clockmux.cli.main``.  This process times both parts from outside, checks
every artifact, and starts another iteration while it can end within
``--seconds`` (at least two iterations).  The worker runs the host speed
probe of hostspeed.py every half second while the program runs; each
part's time is its wall time less the probe's, scaled to the probe's
reference speed (see that module).  The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics, medians over the iterations;
* ``--trace 1``: untraced and traced iterations alternate; the per-layer
  metrics are medians over the traced ones and ``trace.overhead_s`` is the
  difference of the two median run times.  Such a run takes at least three
  of each, past ``--seconds`` if need be, but starts none that would end
  after ``TRACED_CAP_S``.

``--workload all`` runs every workload both ways and rewrites
BENCHMARK.json from the spec in workloads.py.  ``--record-digests`` stores
the artifact digests of the default seed in digests.json; at that seed
every run compares its artifacts with them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = ".perfbench_work"
DEFAULT_SEED = 1
#: One BLAS thread: the workloads are single-core, and idle BLAS threads
#: spinning on a two-core machine add noise to every timing.
BLAS_THREADS = 1
MIN_ITERATIONS = 2
#: A traced run's minimum of untraced and of traced iterations each, and the
#: time after which it starts no iteration short of that minimum (below
#: the 180 s a run may take; a ``compare`` iteration takes about 23 s).
TRACED_MIN_EACH = 3
TRACED_CAP_S = 150
CHILD_TIMEOUT_S = 170
ARTIFACT_SUFFIXES = (".bin", ".csv", ".json")


@dataclass
class Iteration:
    #: wall times of the two parts, less the probe ticks that ran in them
    setup_s: float = 0.0
    run_s: float = 0.0
    #: reference host speed over the speed the ticks measured in each part;
    #: a time multiplied by its part's scale is the time at the reference speed
    setup_scale: float = 1.0
    run_scale: float = 1.0
    traced: bool = False
    result: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    #: problems per command name; a command with problems has failed
    problems: dict = field(default_factory=dict)


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _digests(root: str) -> dict[str, str]:
    out = {}
    for sub in ("input", "out"):
        base = os.path.join(root, sub)
        for dirpath, _, files in os.walk(base):
            for name in files:
                if name.endswith(ARTIFACT_SUFFIXES):
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    out[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def run_iteration(wl: workloads.Workload, seed: int, traced: bool,
                  env: dict, base: str) -> Iteration:
    it = Iteration(traced=traced)
    os.makedirs(base, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base)
    err_path = os.path.join(root, "stderr.txt")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", wl.name,
           "--seed", str(seed), "--dir", root, "--trace", str(int(traced))]
    try:
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=err, env=env, text=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdin.write("GO\n")
                proc.stdin.flush()
                t2 = time.perf_counter()
                done = proc.stdout.readline()
                t3 = time.perf_counter()
                line = proc.stdout.readline()
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if ready.strip() != "READY" or done.strip() != "DONE" or proc.returncode != 0:
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}: {tail}")
        it.result = json.loads(line)
        it.setup_s, it.setup_scale = hostspeed.scaled(t1 - t0, it.result["setup_ticks"])
        it.run_s, it.run_scale = hostspeed.scaled(t3 - t2, it.result["timed_ticks"])
        for argv, code in zip(wl.setup + wl.timed,
                              it.result["setup_codes"] + it.result["timed_codes"]):
            if code != 0:
                it.problems.setdefault(argv[0], []).append(f"exit code {code}")
        it.digests = _digests(root)
        found = workloads.check_artifacts(wl, root, list(it.digests), seed)
        for command, problems in found.items():
            it.problems.setdefault(command, []).extend(problems)
    except (RuntimeError, OSError, ValueError) as exc:
        for argv in wl.setup + wl.timed:
            it.problems.setdefault(argv[0], []).append(str(exc))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return it


def _digest_problems(wl, reference: dict, got: dict, what: str) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    for name in sorted(set(reference) | set(got)):
        if reference.get(name) != got.get(name):
            problems.setdefault(workloads.producer(wl, name), []).append(
                f"{name}: digest differs from {what}")
    return problems


def _another(done: int, trace: bool, end: float, seconds: float) -> bool:
    """Whether to start another iteration after ``done`` of them.

    ``end`` is when it would end: the time so far plus the last iteration's.
    """
    if done < MIN_ITERATIONS:
        return True
    if trace and done < 2 * TRACED_MIN_EACH:
        return end <= TRACED_CAP_S
    return end <= seconds


def run_workload(wl: workloads.Workload, seed: int, seconds: float, trace: bool,
                 root: str) -> tuple[list[Iteration], int, int]:
    """Iterate for about ``seconds``; returns (iterations, attempted, failed)."""
    env = _child_env(root)
    base = os.path.join(root, WORK_DIR)
    reference = None
    if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            reference = json.load(fh).get(wl.name)
    iterations: list[Iteration] = []
    start = time.perf_counter()
    last = 0.0
    while _another(len(iterations), trace, time.perf_counter() - start + last, seconds):
        traced = trace and len(iterations) % 2 == 1
        began = time.perf_counter()
        it = run_iteration(wl, seed, traced, env, base)
        last = time.perf_counter() - began
        first = next((i.digests for i in iterations if i.digests), None)
        for expected, what in ((first, "the run's first iteration"),
                               (reference, "the committed digest")):
            if it.digests and expected is not None:
                for cmd, p in _digest_problems(wl, expected, it.digests, what).items():
                    it.problems.setdefault(cmd, []).extend(p)
        iterations.append(it)
        print(f"  iteration {len(iterations)}{' traced' if traced else ''}: "
              f"wall setup_s={it.setup_s:.4f} run_s={it.run_s:.4f} "
              f"scales {it.setup_scale:.4f} {it.run_scale:.4f}",
              file=sys.stderr)
    commands = [argv[0] for argv in wl.setup + wl.timed]
    attempted = len(commands) * len(iterations)
    failed = sum(sum(1 for c in commands if c in it.problems) for it in iterations)
    return iterations, attempted, failed


def end_to_end(wl: workloads.Workload, plain: list[Iteration]) -> dict[str, float]:
    """Medians over the iterations of times scaled to the reference speed."""
    return {
        "setup_s": statistics.median(i.setup_s * i.setup_scale for i in plain),
        "run_s": statistics.median(i.run_s * i.run_scale for i in plain),
        "items_per_s": statistics.median(wl.items / (i.run_s * i.run_scale)
                                         for i in plain),
        "peak_rss_mb": statistics.median(i.result["peak_rss_kb"] / 1024 for i in plain),
    }


def per_layer(wl: workloads.Workload, plain: list[Iteration],
              traced: list[Iteration]) -> dict[str, float]:
    each = [workloads.layer_metrics(wl, i.result["trace"], i.run_s, i.run_scale)
            for i in traced]
    out = {name: statistics.median(m[name] for m in each) for name in each[0]}
    out["trace.overhead_s"] = (statistics.median(i.run_s * i.run_scale for i in traced)
                               - statistics.median(i.run_s * i.run_scale for i in plain))
    return out


def _units(spec) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec}


def report(wl: workloads.Workload, seed: int, trace: bool, its: list[Iteration],
           attempted: int, failed: int) -> dict:
    """Print the human-readable lines; return the result object."""
    for it in its:
        for command, problems in it.problems.items():
            for p in problems:
                print(f"FAIL {wl.name} {command}: {p}", file=sys.stderr)
    ok = [i for i in its if i.result]
    versions = ok[0].result["versions"] if ok else {}
    env = {"nproc": len(os.sched_getaffinity(0)), **versions,
           "blas_threads": BLAS_THREADS, "seed": seed,
           "probe_reference_s": hostspeed.REFERENCE_S,
           "probe_interval_s": hostspeed.INTERVAL_S}
    print(f"workload {wl.name}: {len(its)} iterations "
          f"({sum(i.traced for i in its)} traced), {wl.items} {wl.item_name} per run")
    print("env " + json.dumps(env, sort_keys=True))
    metrics: dict[str, dict] = {}
    plain = [i for i in ok if not i.traced]
    traced = [i for i in ok if i.traced]
    if plain:
        e2e = end_to_end(wl, plain)
        units = _units(workloads.END_TO_END)
        for name, value in e2e.items():
            label = f"{name} ({wl.item_name}/s)" if name == "items_per_s" else name
            print(f"  {label} = {value:.6g} {units[name]}")
        if not trace:
            metrics = {n: {"value": v, "unit": units[n]} for n, v in e2e.items()}
    if ok:
        print(f"  wall setup_s = {statistics.median(i.setup_s for i in ok):.6g} s, "
              f"wall run_s = {statistics.median(i.run_s for i in plain or ok):.6g} s, "
              f"run scale = {statistics.median(i.run_scale for i in ok):.4f} "
              f"(medians, probe ticks left out; the metrics are scaled)")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / max(1, attempted):.3f}")
    if trace and plain and traced:
        units = _units(workloads.PER_LAYER)
        layers = per_layer(wl, plain, traced)
        for name in units:
            print(f"  {name} = {layers[name]:.6g} {units[name]}")
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in units}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_digests(root: str) -> None:
    table = {}
    for wl in workloads.WORKLOADS.values():
        it = run_iteration(wl, DEFAULT_SEED, False, _child_env(root),
                           os.path.join(root, WORK_DIR))
        if it.problems:
            raise SystemExit(f"{wl.name}: {it.problems}")
        table[wl.name] = it.digests
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_all(seed: int, seconds: float, root: str) -> None:
    """Every workload untraced and traced; then rewrite BENCHMARK.json."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in workloads.WORKLOADS.values():
        for trace in (False, True):
            its, attempted, failed = run_workload(wl, seed, seconds, trace, root)
            res = report(wl, seed, trace, its, attempted, failed)
            summary["correct"] &= res["correct"]
            summary["attempted"] += attempted
            summary["failed"] += failed
            summary["metrics"].update({f"{wl.name}.{n}": m
                                       for n, m in res["metrics"].items()})
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(workloads.benchmark_spec(), fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's artifact digests first")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clockmux", "cli.py")):
        print("error: run from the root of a clockmux checkout "
              "(src/clockmux/cli.py not found)", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests(root)
        if args.workload != "all":
            wl = workloads.WORKLOADS[args.workload]
            its, attempted, failed = run_workload(wl, args.seed, args.seconds,
                                                  bool(args.trace), root)
            print(json.dumps(report(wl, args.seed, bool(args.trace), its,
                                    attempted, failed)))
        else:
            run_all(args.seed, args.seconds, root)
    finally:
        shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

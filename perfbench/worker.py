"""One benchmark iteration in a fresh process; started by run.py.

Protocol on stdin/stdout, so the parent can time both parts from outside:

1. set up: import clockmux, write the config, run the workload's setup
   commands, then print ``READY``;
2. wait for a line on stdin, run the timed commands, print ``DONE``;
3. print one JSON line with the exit codes, the peak resident memory, the
   library versions, the host speed probe's tick times in each part and,
   when traced, the tracer's per-function totals.

The probe (hostspeed.py) ticks during both parts but not while waiting.

``clockmux`` prints its own progress to stdout; that is kept out of the
protocol stream and discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys

import workloads


def _fill(argv: tuple[str, ...], values: dict[str, str]) -> list[str]:
    out = []
    for arg in argv:
        for placeholder, value in values.items():
            arg = arg.replace(placeholder, value)
        out.append(arg)
    return out


def _run(cli, commands, values) -> list[int]:
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            codes.append(cli.main(_fill(argv, values)))
    return codes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    proto = sys.stdout

    import hostspeed
    sampler = hostspeed.Sampler()
    sampler.start()
    import numpy
    import scipy
    from clockmux import cli

    cfg = os.path.join(args.dir, "exp.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(wl.config)
    values = {workloads.CFG: cfg, workloads.SEED: str(args.seed),
              workloads.OUT: os.path.join(args.dir, "out"),
              workloads.INPUT: os.path.join(args.dir, "input")}
    setup_codes = _run(cli, wl.setup, values)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock=sampler.clock)
        tracer.install()
    setup_ticks = sampler.stop()
    print("READY", file=proto, flush=True)
    sys.stdin.readline()
    sampler.start()
    try:
        timed_codes = _run(cli, wl.timed, values)
    finally:
        timed_ticks = sampler.stop()
        if tracer is not None:
            tracer.restore()
    print("DONE", file=proto, flush=True)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_codes": setup_codes,
        "timed_codes": timed_codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_ticks": setup_ticks,
        "timed_ticks": timed_ticks,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "trace": tracer.raw() if tracer is not None else None,
    }
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing around clockmux's public functions, installed from outside.

``Tracer.install`` replaces each target function with a timing wrapper on
every loaded ``clockmux`` module that binds it, so calls made through a
module attribute (``aes.hypothesis_matrix``) and through a name imported
into another module (``cli`` imports ``filter_traces``) are both seen.
``Tracer.restore`` puts every original object back.  No file of the
program changes.

Each wrapper records one span per call: its duration, and the part of it
covered by child spans, so a layer's self time is duration minus children.
Spans are folded into per-function totals as they close; nothing is written
until the caller asks for ``raw()``.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from dataclasses import dataclass, field

#: (module, function) pairs wrapped at each layer boundary.  ``cli``,
#: ``config`` and ``presets`` are not wrapped: their time is the residual.
TARGETS: tuple[tuple[str, str], ...] = (
    ("clock", "overhead_and_error"),
    ("clock", "simulate_mux_clock"),
    ("aes", "encrypt_blocks_with_states"),
    ("aes", "expand_key"),
    ("aes", "round_distances"),
    ("aes", "hypothesis_matrix"),
    ("traces", "generate_set"),
    ("traces", "write_trace_set"),
    ("traces", "read_trace_set"),
    ("attack", "detect_peaks"),
    ("attack", "filter_traces"),
    ("attack", "synchronize"),
    ("attack", "cpa_attack"),
    ("attack", "min_traces_search"),
    ("attack", "fft_spectrum"),
)


def _file_bytes(arg, result):
    return os.path.getsize(arg("path"))


#: Work counters taken from a call's arguments (``arg(name)``) and its result.
_COUNTERS = {
    "clock.overhead_and_error": {"encryptions": lambda arg, r: arg("n_encryptions")},
    "clock.simulate_mux_clock": {"cycles": lambda arg, r: arg("n_base_cycles")},
    "aes.encrypt_blocks_with_states": {"blocks": lambda arg, r: len(arg("plaintexts"))},
    "traces.generate_set": {"traces": lambda arg, r: arg("n_traces")},
    "traces.write_trace_set": {"bytes": _file_bytes},
    "traces.read_trace_set": {"bytes": _file_bytes},
    "attack.filter_traces": {"seen": lambda arg, r: len(arg("ts").traces),
                             "kept": lambda arg, r: len(r[0].traces)},
    "attack.synchronize": {"rows": lambda arg, r: r.rows.shape[0]},
}


def _argument_lookup(fn):
    """``get(args, kwargs, name)``: one argument of a call to ``fn``, by name.

    Cheaper than ``inspect.Signature.bind``, which matters on functions
    called once per trace.
    """
    params = inspect.signature(fn).parameters
    index = {name: i for i, name in enumerate(params)}
    defaults = {name: p.default for name, p in params.items()}

    def get(args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = index[name]
        return args[i] if i < len(args) else defaults[name]

    return get


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps ``TARGETS`` in every ``clockmux`` namespace that binds them.

    ``clock`` times the spans; the worker passes one that leaves out the
    host speed probe's ticks (hostspeed.py).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {f"{m}.{f}": LayerStat() for m, f in TARGETS}
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        counters = _COUNTERS.get(name)
        get = _argument_lookup(fn) if counters else None
        counts = stat.counts
        clock = self.clock

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counters:
                    # inside the span, so counting is charged to this
                    # function and not to its caller's self time
                    def arg(key):
                        return get(args, kwargs, key)
                    for key, take in counters.items():
                        counts[key] = counts.get(key, 0) + take(arg, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every target on each loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "clockmux" or n.startswith("clockmux."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"clockmux.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every original function back where it was found."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def raw(self) -> dict:
        """Per-function totals as plain data, for passing between processes."""
        return {"top_level_s": self.top_level_s,
                "layers": {name: {"calls": s.calls, "total_s": s.total_s,
                                  "self_s": s.self_s, "counts": dict(s.counts)}
                           for name, s in self.stats.items()}}

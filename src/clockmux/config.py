"""Experiment configuration: a strict, flat key-value format with sections.

One config file describes a whole experiment: which frequency sets to run,
how many base cycles to simulate, how many traces to synthesize and at what
noise level, and the attack and spectrum parameters.  Parsing is strict so
that a config fully pins an experiment: unknown sections or keys are errors,
every diagnostic carries the line number, and the canonical digest of the
parsed config is stamped into every artifact a command writes.

Sections:

``[sets]``
    ``use = 1 2 5`` or ``use = all`` selects study sets by table position.
``[set]``
    One explicit frequency set (``base_hz``, ``f1`` .. ``f4``, optional
    ``duty``, ``phase1`` .. ``phase4``, ``label``).  May repeat; explicit
    sets are appended after any selected study sets.
``[set2]``
    Second-core frequency set, same keys as ``[set]``.  Required when
    ``core_count = 2`` and refused otherwise, as is ``key2``; its
    ``base_hz`` must differ from every set's.
``[run]``, ``[simulate]``, ``[traces]``, ``[attack]``, ``[fft]``
    One key per ``ExperimentConfig`` parameter, declared beside its field
    with its type, default and limit; ``key`` and ``key2`` are hex.  One
    limit spans three keys: a set's samples, ``n_traces`` x ``window_cycles``
    x ``oversampling``, may not pass ``MAX_SET_SAMPLES``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .aes import ROUNDS
from .attack import DEFAULT_STEP, FilterParams
from .clock import DEFAULT_ERROR_THRESHOLD_FACTOR, FrequencySet
from .presets import STUDY_SETS
from .traces import WINDOW_CYCLES_PER_ROUND

DEFAULT_KEY = bytes(range(16))

#: Samples one trace set may hold (1 GiB of float32), the same on every machine.
MAX_SET_SAMPLES = 2**28

#: The FrequencySet field, and the index into it, behind each numeric set key.
_SET_FIELDS = {"base_hz": ("base_hz", None),
               **{f"f{i}": ("fundamentals", i - 1) for i in range(1, 5)},
               "duty": ("duty_cycle", None),
               **{f"phase{i}": ("phases", i - 1) for i in range(1, 5)}}
_SET_KEYS = {*_SET_FIELDS, "label"}


class ConfigError(ValueError):
    """Raised for malformed, unknown, or inconsistent configuration input."""


class _LimitError(ConfigError):
    """A declared parameter is out of range; ``name`` is its field."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _parser(convert, expected: str):
    def parse(text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {text!r}") from None
    return parse


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}
_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_bool = _parser(lambda text: _BOOL_WORDS[text.lower()], "true/false")


def _parse_key(text: str) -> bytes:
    try:
        raw = bytes.fromhex(text.replace(" ", ""))
    except ValueError:
        raise ValueError("expected 32 hex digits") from None
    if len(raw) != 16:
        raise ValueError(f"expected 16 bytes, got {len(raw)}")
    return raw


def _at_least(low: int):
    return (lambda v: v >= low), f"must be at least {low}"


_NON_NEGATIVE = (lambda v: v >= 0), "must not be negative"
_POSITIVE = (lambda v: v > 0), "must be positive"


def _param(section: str, key: str, default, parse, limit=None, digest=True):
    """Declare one parameter: its ``[section] key``, parser, default and limit.

    ``limit`` is a (predicate, problem) pair; ``digest=False`` leaves the
    parameter out of ``ExperimentConfig.digest``.
    """
    return field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "limit": limit,
        "digest": digest})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters shared by all commands.

    Every parameter but ``sets`` and ``fs2`` is declared once, by
    ``_param``.  The parser, the known-key table and ``digest`` read the
    declarations, and ``__post_init__`` checks every limit (and that every
    float is finite), so a config file, a CLI flag through
    ``dataclasses.replace`` and a library call meet the same limits.
    """

    sets: tuple[FrequencySet, ...] = ()
    fs2: FrequencySet | None = None
    key: bytes = _param("traces", "key", DEFAULT_KEY, _parse_key)
    key2: bytes | None = _param("traces", "key2", None, _parse_key)
    core_count: int = _param("traces", "core_count", 1, _parse_int,
                             ((lambda v: v in (1, 2)), "must be 1 or 2"))
    seed: int = _param("run", "seed", 1, _parse_int, _NON_NEGATIVE)
    # where the artifacts go, not what they hold: left out of the digest
    out_dir: str = _param("run", "out_dir", ".", str, digest=False)
    n_base_cycles: int = _param("simulate", "n_base_cycles", 32000, _parse_int, _at_least(1))
    n_encryptions: int = _param("simulate", "n_encryptions", 200, _parse_int, _at_least(1))
    error_threshold_factor: float = _param("simulate", "error_threshold_factor",
                                           DEFAULT_ERROR_THRESHOLD_FACTOR, _parse_float,
                                           ((lambda v: 0 < v < 1),
                                            "must be between 0 and 1, exclusive"))
    n_traces: int = _param("traces", "n_traces", 1000, _parse_int, _at_least(1))
    oversampling: int = _param("traces", "oversampling", 12, _parse_int, _at_least(2))
    noise_sigma: float = _param("traces", "noise_sigma", 0.0, _parse_float, _NON_NEGATIVE)
    amplitude: float = _param("traces", "amplitude", 1.0, _parse_float, _POSITIVE)
    window_cycles: int | None = _param("traces", "window_cycles", None, _parse_int,
                                       _at_least(1))
    step: int = _param("attack", "step", DEFAULT_STEP, _parse_int, _at_least(2))
    attack_round: int = _param("attack", "round", 10, _parse_int,
                               ((lambda v: 1 <= v <= 10), "must be between 1 and 10"))
    no_sync: bool = _param("attack", "no_sync", False, _parse_bool)
    threshold_k: float = _param("attack", "threshold_k", FilterParams.threshold_k,
                                _parse_float, _NON_NEGATIVE)
    expected_peaks: int = _param("attack", "expected_peaks", FilterParams.expected_peaks,
                                 _parse_int, _at_least(1))
    min_peak_separation: int | None = _param("attack", "min_peak_separation", None,
                                             _parse_int, _at_least(1))
    window_halfwidth: int | None = _param("attack", "window_halfwidth", None, _parse_int,
                                          _NON_NEGATIVE)
    nyquist_floor: float = _param("attack", "nyquist_floor", FilterParams.nyquist_floor,
                                  _parse_float, _NON_NEGATIVE)
    fft_bin_hz: float = _param("fft", "bin_hz", 1e6, _parse_float, _POSITIVE)

    def __post_init__(self):
        for f in _PARAMS:
            value = getattr(self, f.name)
            limit = f.metadata["limit"]
            if isinstance(value, float) and not math.isfinite(value):
                problem = "must be finite"
            elif value is not None and limit and not limit[0](value):
                problem = limit[1]
            else:
                continue
            raise _LimitError(f.name, f"[{f.metadata['section']}] {f.metadata['key']}: "
                                      f"{problem}")
        sizes = self._set_sizes()
        total = math.prod(sizes.values())
        if total > MAX_SET_SAMPLES:
            # the defaults fit, so the factor furthest above its default was set
            name = max(sizes, key=lambda n: sizes[n] / _DEFAULT_SIZES[n])
            raise _LimitError(name, f"[traces] {name}: {total} samples per set "
                                    f"(n_traces x window_cycles x oversampling), "
                                    f"more than the {MAX_SET_SAMPLES} a set may hold")

    def _set_sizes(self) -> dict[str, int]:
        """The factors of a trace set's sample count, by field."""
        return {"n_traces": self.n_traces, "oversampling": self.oversampling,
                "window_cycles": self.window_cycles or WINDOW_CYCLES_PER_ROUND * ROUNDS}

    def filter_params(self) -> FilterParams:
        return FilterParams(expected_peaks=self.expected_peaks,
                            threshold_k=self.threshold_k,
                            min_peak_separation=self.min_peak_separation,
                            nyquist_floor=self.nyquist_floor)

    def digest(self) -> str:
        """Canonical hash of every parameter, for artifact headers."""
        parts = [_fs_dump(fs) for fs in self.sets]
        parts.append(_fs_dump(self.fs2) if self.fs2 else "none")
        for f in _PARAMS:
            value = getattr(self, f.name)
            if f.metadata["parse"] is _parse_key:
                parts.append(value.hex() if value else "none")
            elif f.metadata["digest"]:
                parts.append(f"{f.name}={value!r}")
        blob = "\n".join(parts).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_PARAMS = tuple(f for f in fields(ExperimentConfig) if f.metadata)
_DEFAULT_SIZES = ExperimentConfig()._set_sizes()
_PARAM_BY_KEY = {(f.metadata["section"], f.metadata["key"]): f for f in _PARAMS}

_KNOWN_KEYS: dict[str, set[str]] = {"sets": {"use"}, "set": _SET_KEYS,
                                    "set2": _SET_KEYS}
for _section, _key in _PARAM_BY_KEY:
    _KNOWN_KEYS.setdefault(_section, set()).add(_key)


def _fs_dump(fs: FrequencySet) -> str:
    return (f"base={fs.base_hz!r} f={tuple(float(f) for f in fs.fundamentals)!r} "
            f"duty={fs.duty_cycle!r} phases={tuple(float(p) for p in fs.phases)!r}")


@dataclass
class _Entry:
    lineno: int
    value: str


@dataclass
class _Section:
    name: str
    lineno: int
    entries: dict[str, _Entry] = field(default_factory=dict)

    def fail(self, key: str, problem: str) -> ConfigError:
        entry = self.entries.get(key)
        where = f"line {entry.lineno}" if entry else f"line {self.lineno}"
        return ConfigError(f"{where}: [{self.name}] {key}: {problem}")

    def get(self, key: str, parse=str, default=None):
        """The key's value through ``parse``, or ``default`` when unset."""
        entry = self.entries.get(key)
        if entry is None:
            return default
        try:
            return parse(entry.value)
        except ValueError as exc:
            raise self.fail(key, str(exc)) from None


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = _Section(name=name, lineno=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KNOWN_KEYS[current.name]:
            raise ConfigError(f"line {lineno}: [{current.name}] unknown key {key!r}")
        if key in current.entries:
            raise ConfigError(f"line {lineno}: [{current.name}] duplicate key {key!r}")
        current.entries[key] = _Entry(lineno=lineno, value=value)
    return sections


def _build_set(sec: _Section) -> FrequencySet:
    """The section's set, its entries applied one at a time to a valid set,
    so that a value FrequencySet rejects is reported at its own line."""
    fs = FrequencySet(base_hz=1.0, fundamentals=(1.0,) * 4,
                      label=sec.get("label", default=""))
    given = {"fundamentals": list(fs.fundamentals), "phases": list(fs.phases)}
    for key, (name, index) in _SET_FIELDS.items():
        value = sec.get(key, _parse_float)
        if value is None:
            if name in ("base_hz", "fundamentals"):
                raise sec.fail(key, "required")
            continue
        if index is not None:
            given[name][index] = value
            value = tuple(given[name])
        try:
            fs = replace(fs, **{name: value})
        except ValueError as exc:
            raise sec.fail(key, str(exc)) from None
    return fs


def _selected_sets(sec: _Section) -> list[FrequencySet]:
    text = sec.get("use")
    if text is None:
        raise sec.fail("use", "required")
    if text.lower() == "all":
        return [entry.fs for entry in STUDY_SETS]
    chosen = []
    for token in text.split():
        try:
            idx = int(token)
        except ValueError:
            raise sec.fail("use", f"expected set numbers or 'all', got {token!r}") from None
        if not 1 <= idx <= len(STUDY_SETS):
            raise sec.fail("use", f"set number {idx} out of range 1..{len(STUDY_SETS)}")
        chosen.append(STUDY_SETS[idx - 1].fs)
    return chosen


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raise ConfigError with line info."""
    seen_single: set[str] = set()
    sets: list[FrequencySet] = []
    explicit: list[FrequencySet] = []
    set2: _Section | None = None
    fs2: FrequencySet | None = None
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for sec in _split_sections(text):
        if sec.name != "set":
            if sec.name in seen_single:
                raise ConfigError(f"line {sec.lineno}: duplicate section [{sec.name}]")
            seen_single.add(sec.name)
        if sec.name == "sets":
            sets.extend(_selected_sets(sec))
        elif sec.name == "set":
            explicit.append(_build_set(sec))
        elif sec.name == "set2":
            set2, fs2 = sec, _build_set(sec)
        else:
            for key, entry in sec.entries.items():
                f = _PARAM_BY_KEY[sec.name, key]
                values[f.name] = sec.get(key, f.metadata["parse"])
                lines[f.name] = entry.lineno
    try:
        cfg = ExperimentConfig(sets=tuple(sets + explicit), fs2=fs2, **values)
    except _LimitError as exc:
        raise ConfigError(f"line {lines[exc.name]}: {exc}") from None
    if cfg.core_count == 2:
        if cfg.key2 is None:
            raise ConfigError("[traces] core_count = 2 requires key2")
        if set2 is None:
            raise ConfigError("[traces] core_count = 2 requires a [set2] section")
        for i, fs in enumerate(cfg.sets, start=1):
            if fs.base_hz == fs2.base_hz:
                raise set2.fail("base_hz", f"equals the base_hz of set {i}; "
                                "the two cores need distinct base clocks")
    elif set2 is not None:
        raise ConfigError(f"line {set2.lineno}: [set2] requires [traces] core_count = 2")
    elif cfg.key2 is not None:
        raise ConfigError(f"line {lines['key2']}: [traces] key2 requires core_count = 2")
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """Load a config file from disk; raise ConfigError on any problem."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)

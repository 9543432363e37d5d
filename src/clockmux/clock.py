"""Randomized mux-clock model: waveform simulation and closed-form analysis.

A base clock of frequency ``base_hz`` drives a 4-way mux.  At every base
rising edge one of four free-running square-wave sources is selected
uniformly at random, and the mux output simply follows the level of the
selected source until the next base edge.  Three behaviours make the output
period spectrum rich, and all of them fall out of the level-following
semantics rather than being special-cased:

* a source slower than the base clock can span a whole base cycle without a
  rising edge, stretching the output period across several cycles;
* a source faster than the base clock can fit two rising edges into one
  cycle;
* switching from a low source to a high one creates a rising edge exactly on
  the base edge.

Simulation works in units of the base period (base edges sit on integers)
and scales to seconds only at the boundary, which keeps cycle arithmetic
exact.  Source ``i`` with period ratio ``rho_i = base_hz / f_i`` is high at
time ``t`` (base units) iff ``frac(t / rho_i - phase_i) < duty_cycle``; its
rising edges sit at ``(m + phase_i) * rho_i``.

Randomness comes from numpy's PCG64 generator; a fixed (frequency set, cycle
count, seed) triple always reproduces the same waveform bit for bit.  Runs
are rows, one per stream of a ``streams.StreamBank``: row i draws its
selections 16 at a time until full, exactly as a Generator on
``SeedSequence(seed).spawn(n)[i]`` would (the tests check each row against
such a Generator).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .streams import StreamBank

#: Output edges closer than this (seconds) are merged into one; real hardware
#: cannot resolve them and downstream period statistics should not either.
EDGE_COINCIDENCE_TOL_S = 1e-12

#: Reference period-histogram bin width as a fraction of the base period.
#: Calibrated against the reference occupancy figures of the built-in study
#: sets (see presets): measurement gear with coarser resolution merges
#: distinct periods, finer resolution splits them, and this width reproduces
#: the reference counts across all seven sets at 32000 cycles.  Every report
#: carries the width, so counts stay comparable.
REFERENCE_BIN_FRACTION = 5.2e-3

#: Output periods shorter than this fraction of the base period are treated
#: as encryption-error risks (the core cannot settle).
DEFAULT_ERROR_THRESHOLD_FACTOR = 0.25

#: Safety cap (in base cycles per required edge) for open-ended simulations.
STALL_CAP_CYCLES_PER_EDGE = 64

#: A fundamental may be at most this multiple of ``base_hz``.  Edges per base
#: cycle, and with them the memory of a simulation, grow with the ratio; at 5
#: the largest simulation a config allows peaks at 0.7 GiB.  The study sets stay
#: below 1.5; the acceptance tests' error-risk set reaches 4.5.
MAX_FUNDAMENTAL_RATIO = 5.0

#: Base cycles per run of ``simulate_mux_clock``: each run is merged onto the
#: edges kept before it, so the edges do not depend on it.
SIM_RUN_CYCLES = 1 << 15

#: Samples in a row batch at most: the period histogram, the overhead Monte
#: Carlo, trace generation, peak detection and the spectrum take one batch at
#: a time, so their scratch is not the input's size.
BATCH_SAMPLES = 1 << 16


class ClampedProbabilityWarning(UserWarning):
    """A closed-form probability exceeded 1 and was clamped."""


class StalledClockError(RuntimeError):
    """The mux output never produced the required number of edges."""


@dataclass(frozen=True)
class FrequencySet:
    """A base clock plus the four mux source frequencies.

    ``phases`` are per-source offsets as fractions of each source period
    (source i rises at ``(m + phases[i]) * T_i``); the default of zero puts a
    rising edge of every source at t = 0.  Phases are a construction-time
    knob only and are not part of any serialized form.
    """

    base_hz: float
    fundamentals: tuple[float, float, float, float]
    label: str = ""
    duty_cycle: float = 0.5
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.base_hz > 0 and math.isfinite(self.base_hz)):
            raise ValueError("base_hz must be a positive finite frequency")
        if len(self.fundamentals) != 4:
            raise ValueError("exactly 4 fundamentals required")
        if any(not (f > 0 and math.isfinite(f)) for f in self.fundamentals):
            raise ValueError("fundamentals must be positive finite frequencies")
        if max(self.fundamentals) > MAX_FUNDAMENTAL_RATIO * self.base_hz:
            raise ValueError(f"fundamentals must be at most {MAX_FUNDAMENTAL_RATIO:g} "
                             f"x base_hz")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must lie strictly between 0 and 1")
        if len(self.phases) != 4:
            raise ValueError("exactly 4 phases required")
        if not all(math.isfinite(p) for p in self.phases):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "fundamentals", tuple(float(f) for f in self.fundamentals))
        object.__setattr__(self, "phases", tuple(float(p) % 1.0 for p in self.phases))

    @property
    def base_period_s(self) -> float:
        return 1.0 / self.base_hz

    @property
    def periods_s(self) -> tuple[float, ...]:
        return tuple(1.0 / f for f in self.fundamentals)

    def ratios(self) -> np.ndarray:
        """Source periods in base-period units (T_i / T_b)."""
        return self.base_hz / np.asarray(self.fundamentals, dtype=np.float64)


@dataclass(frozen=True)
class OutputWaveform:
    """Rising-edge record of one simulated mux run.

    ``edges_s`` is strictly increasing, every timestamp lies inside the
    simulated span, and ``source_per_cycle[k]`` is the source selected at
    base edge k.  Arrays are not copied; treat them as read-only.
    """

    edges_s: np.ndarray
    source_per_cycle: np.ndarray


@dataclass(frozen=True)
class PeriodHistogram:
    bin_width_s: float
    bins: dict[int, int]

    @property
    def unique_bins(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class EdgeCountDistribution:
    """P(exactly m of the 4 sources rise during one base cycle), m = 0..4."""

    probabilities: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.probabilities) != 5:
            raise ValueError("need probabilities for counts 0..4")


@dataclass(frozen=True)
class OverheadReport:
    mean_overhead: float
    worst_overhead: float
    error_risk: float


def _row_batches(n: int, width: int) -> list[tuple[int, int]]:
    """(first, stop) ranges that cover ``n`` rows of ``width`` samples in
    order, each of at most ``BATCH_SAMPLES`` samples and at least one row."""
    rows = max(1, BATCH_SAMPLES // max(1, width))
    return [(c0, min(c0 + rows, n)) for c0 in range(0, n, rows)]


# ---------------------------------------------------------------------------
# Waveform simulation
# ---------------------------------------------------------------------------

def _compact(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's masked ``values`` in order, nan-padded to the longest row."""
    if len(mask) == 1:
        return values[mask][None]
    count = np.count_nonzero(mask, axis=1)
    out = np.full((len(mask), count.max(initial=0)), np.nan)
    out[np.arange(out.shape[1]) < count[:, None]] = values[mask]
    return out


def _mux_edges(fs: FrequencySet, phases: np.ndarray, selections: np.ndarray,
               first_cycle: int, prev_selection: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Rising-edge times (base units) of runs of cycles, one per row, behind ``kept``.

    Row r selects source ``selections[r, j]`` at base edge ``first_cycle + j``
    under source phases ``phases[r]``; ``prev_selection[r]`` was active just
    before (-1: output held low, i.e. power-on) and ``kept[r]`` holds its edges
    before that (sorted, nan-padded, maybe no column).  Rows come back sorted,
    nan-padded and ``_merge_close``d at ``EDGE_COINCIDENCE_TOL_S``.
    """
    ratios, duty = fs.ratios(), fs.duty_cycle
    m, n = selections.shape
    rows = np.arange(m)[:, None]
    k = np.arange(first_cycle, first_cycle + n, dtype=np.float64)
    src = np.asarray(selections, dtype=np.intp)

    # Edges on the base boundary: output switches from the previous source's
    # level (limit from the left) to the new source's level.  x - floor(x) is
    # np.mod(x, 1.0) to the bit and several times faster: fmod is exact, so
    # both round the one real number once, and a zero comes out +0.0.
    r_new = k / ratios[src] - phases[rows, src]
    r_new -= np.floor(r_new)
    new_high = r_new < duty
    prev_src = np.concatenate((prev_selection[:, None], src[:, :-1]), axis=1)
    valid_prev = prev_src >= 0
    safe_prev = np.where(valid_prev, prev_src, 0)
    r_prev = k / ratios[safe_prev] - phases[rows, safe_prev]
    r_prev -= np.floor(r_prev)
    # Left limit of a square wave: high on (0, duty], low at exactly 0 (the
    # tail of the previous period) and on (duty, 1).
    prev_high = (r_prev > 0.0) & (r_prev <= duty) & valid_prev
    parts = [kept, _compact(np.broadcast_to(k, (m, n)), new_high & ~prev_high)]

    # Edges strictly inside a cycle: the selected source's own rising edges.
    t_lo = float(first_cycle)
    t_hi = float(first_cycle + n)
    for i in range(4):
        rho = float(ratios[i])
        m_lo = np.floor(t_lo / rho - phases[:, i]) - 1
        m_hi = np.ceil(t_hi / rho - phases[:, i]) + 1
        grid = m_lo[:, None] + np.arange(int((m_hi - m_lo).max(initial=0)) + 1)
        e = (grid + phases[:, i, None]) * rho
        cyc = np.floor(e)
        ok = (e > cyc) & (cyc >= t_lo) & (cyc < t_hi)
        cyc_idx = np.where(ok, cyc, t_lo).astype(np.intp) - first_cycle
        ok &= src[rows, cyc_idx] == i
        parts.append(_compact(e, ok))
    return _merge_close(np.sort(np.concatenate(parts, axis=1), axis=1),
                        EDGE_COINCIDENCE_TOL_S / fs.base_period_s)


def _merge_close(edges: np.ndarray, tol: float) -> np.ndarray:
    """Greedily drop edges within ``tol`` of the previously kept one, in place,
    on each sorted, nan-padded row that holds a close pair."""
    close = np.diff(edges, axis=1) < tol  # close[:, j]: edge j + 1 is within tol of edge j
    rows = np.flatnonzero(close.any(axis=1))
    if not len(rows):
        return edges
    # An edge at least tol past its predecessor is always kept, so a close
    # edge after a kept one is dropped; only an edge ending a chain of close
    # gaps needs the last kept edge looked up.
    sub, close = edges[rows], close[rows]
    keep = ~np.isnan(sub)
    keep[:, 1:] &= ~close
    for r, j in zip(*np.nonzero(close[:, 1:] & close[:, :-1])):
        last = j + 1
        while not keep[r, last]:
            last -= 1
        keep[r, j + 2] = sub[r, j + 2] - sub[r, last] >= tol
    kept = _compact(sub, keep)
    edges[rows, :kept.shape[1]] = kept
    edges[rows, kept.shape[1]:] = np.nan
    return edges


def simulate_mux_clock(fs: FrequencySet, n_base_cycles: int, seed: int) -> OutputWaveform:
    """Simulate the mux output over ``n_base_cycles`` base periods.

    One source index is drawn per base rising edge (uniform over the four),
    the output follows the selected source's level for the whole cycle, and
    the returned waveform lists every output rising edge in seconds.  Runs
    of ``SIM_RUN_CYCLES`` cycles are computed in cycle order, and each is
    merged behind the last edge kept so far: a run's edges lie inside its
    cycles and the merge's only state is that edge, so the result is the
    one-run edges bit for bit.  The kept edges go into one array sized by
    the set's bound on edges per cycle, which is shrunk to them and scaled
    in place, so beside the result only one run and its merge are held.
    """
    if n_base_cycles < 1:
        raise ValueError("n_base_cycles must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    sel = rng.integers(0, 4, size=n_base_cycles, dtype=np.int8)
    phases = np.array([fs.phases])
    # a cycle holds at most its boundary edge and ceil(f / base_hz) + 1 rising
    # edges of its source; the bound's unused tail is never written
    per_cycle = 2 + math.ceil(max(fs.fundamentals) / fs.base_hz)
    edges, n = np.empty(n_base_cycles * per_cycle), 0
    for c0 in range(0, n_base_cycles, SIM_RUN_CYCLES):
        prev = sel[c0 - 1:c0] if c0 else np.array([-1])
        n0 = max(n - 1, 0)  # the last kept edge, if any, goes first and stays
        run = _mux_edges(fs, phases, sel[None, c0:c0 + SIM_RUN_CYCLES], c0, prev,
                         edges[None, n0:n])[0]  # one row, so no nan padding
        n = n0 + int(np.searchsorted(run, np.nan))  # the merge's nan tail sorts last
        edges[n0:n] = run[:n - n0]
    edges.resize(n, refcheck=False)  # in place: no view of edges is left
    edges *= fs.base_period_s
    return OutputWaveform(edges_s=edges, source_per_cycle=sel)


def _edges_until(fs: FrequencySet, bank: StreamBank, rows, n_edges: int, base_phases=0.0,
                 source_phases=None) -> np.ndarray:
    """First ``n_edges`` output edge times (base units), one row per bank row.

    Row r is the run that stream ``rows[r]`` of ``bank`` drives under
    ``source_phases[r]`` (default ``fs.phases``), its base edge k at
    ``base_phases[r] + k`` (a core not aligned to the capture trigger).  Each
    pass draws 16 selections, ``integers(0, 4, 16, np.int8)``, from every
    stream whose row is still short, so a row's selections are the first bytes
    of its stream however the passes fall, as on its own numpy Generator; a
    row still short after ``STALL_CAP_CYCLES_PER_EDGE`` cycles per edge raises
    StalledClockError.
    """
    phases = np.broadcast_to(fs.phases if source_phases is None else source_phases,
                             (len(rows), 4))
    cycle_cap = STALL_CAP_CYCLES_PER_EDGE * n_edges
    # a short row holds all its edges; chunks cover disjoint ascending cycle
    # ranges, so merging after each one equals merging their concatenation
    edges = np.full((len(rows), n_edges), np.nan)
    prev = np.full(len(rows), -1)
    short = np.arange(len(rows))
    first_cycle = 0
    while len(short):
        if first_cycle >= cycle_cap:
            raise StalledClockError(f"only {np.isfinite(edges[short[0]]).sum()} edges after "
                                    f"{first_cycle} base cycles (needed {n_edges})")
        sel = bank.integers4(rows[short], 16)
        run = _mux_edges(fs, phases[short], sel, first_cycle, prev[short], edges[short])
        edges[short], prev[short] = run[:, :n_edges], sel[:, -1]
        short = short[np.isnan(run[:, n_edges - 1])]
        first_cycle += 16
    return edges + np.reshape(base_phases, (-1, 1))


# ---------------------------------------------------------------------------
# Period statistics
# ---------------------------------------------------------------------------

def period_histogram(periods: np.ndarray, bin_width_s: float) -> PeriodHistogram:
    """Histogram of periods with fixed-width bins anchored at zero.

    Bin k covers [k * bin_width_s, (k + 1) * bin_width_s).  Periods are
    counted one ``_row_batches`` chunk at a time: a chunk whose bins span no
    more than its length by ``np.bincount`` from its lowest bin, any other by
    ``np.unique``, so no scratch grows with the input or with the bins' span.
    A nan, an infinite or a negative period raises ValueError, as does one
    past 2**63 bin widths.
    """
    if not bin_width_s > 0:
        raise ValueError("bin_width_s must be positive")
    periods = np.asarray(periods, dtype=np.float64)
    bins: dict[int, int] = {}
    for c0, c1 in _row_batches(len(periods), 1):
        q = periods[c0:c1] / bin_width_s
        np.floor(q, out=q)
        lo, hi = q.min(), q.max()  # nan in either if any period is nan
        if np.isnan(lo) or not hi < 2.0 ** 63:
            raise ValueError("periods must be finite and under 2**63 bin widths")
        if lo < 0:
            raise ValueError("periods must be non-negative")
        idx = q.astype(np.int64)
        if hi - lo < len(idx):
            counts = np.bincount(idx - int(lo))
            uniq = np.flatnonzero(counts)
            counts, uniq = counts[uniq], uniq + int(lo)
        else:
            uniq, counts = np.unique(idx, return_counts=True)
        for u, c in zip(uniq.tolist(), counts.tolist()):
            bins[u] = bins.get(u, 0) + c
    return PeriodHistogram(bin_width_s=float(bin_width_s), bins=dict(sorted(bins.items())))


def reference_bin_width(fs: FrequencySet) -> float:
    return fs.base_period_s * REFERENCE_BIN_FRACTION


# ---------------------------------------------------------------------------
# Closed-form models
# ---------------------------------------------------------------------------

def rising_edge_probability(source_period_s: float, base_period_s: float) -> float:
    """P(a free-running source rises at least once during one base cycle).

    A source with period T_i >= T_b has a rising edge in a uniformly placed
    window of length T_b with probability T_b / T_i; a faster source always
    has at least one.
    """
    if not (source_period_s > 0 and base_period_s > 0):
        raise ValueError("periods must be positive")
    if source_period_s >= base_period_s:
        return base_period_s / source_period_s
    return 1.0


def double_edge_probability(source_period_s: float, base_period_s: float) -> float:
    """P(a source rises twice during one base cycle).

    Zero for sources at or below the base rate; (T_b - T_i) / T_i above it.
    For sources faster than twice the base rate the expression exceeds 1 and
    is clamped (with a warning): two edges are then guaranteed and higher
    multiplicities are out of this model's scope.
    """
    if not (source_period_s > 0 and base_period_s > 0):
        raise ValueError("periods must be positive")
    if source_period_s > base_period_s:
        return 0.0
    p = (base_period_s - source_period_s) / source_period_s
    if p > 1.0:
        warnings.warn(
            "double-edge probability clamped to 1 (source faster than twice "
            "the base clock)", ClampedProbabilityWarning, stacklevel=2)
        return 1.0
    return p


def presence_probabilities(fs: FrequencySet) -> tuple[float, float, float, float]:
    """Per-source probability of rising at least once in one base cycle."""
    tb = fs.base_period_s
    return tuple(rising_edge_probability(t, tb) for t in fs.periods_s)


def edge_count_distribution(p: tuple[float, float, float, float]) -> EdgeCountDistribution:
    """Distribution of how many of the 4 sources rise in one base cycle.

    Exact expansion over the four independent presence events, written out as
    the sum over source subsets of each size: P(m) = sum over |S| = m of
    prod_{i in S} p_i * prod_{i not in S} (1 - p_i).
    """
    if len(p) != 4:
        raise ValueError("exactly 4 probabilities required")
    p = tuple(float(x) for x in p)
    if any(not 0.0 <= x <= 1.0 for x in p):
        raise ValueError("probabilities must lie in [0, 1]")
    probs = []
    for m in range(5):
        total = 0.0
        for subset in combinations(range(4), m):
            term = 1.0
            for i in range(4):
                term *= p[i] if i in subset else 1.0 - p[i]
            total += term
        probs.append(total)
    return EdgeCountDistribution(probabilities=tuple(probs))


def permutation_count(n_missing: int) -> int:
    """Distinct output-period values when ``n_missing`` sources rise together.

    With all four sources free-running, 4 x 4 (previous source, next source)
    pairings give 16 period values.  Each source whose edge coincides with
    the others removes its distinct pairings: 4 * ((4 - n) + 4) - 4 * n for
    n >= 1, i.e. 24, 16, 8, 0 for n = 1..4.
    """
    if not 0 <= n_missing <= 4:
        raise ValueError("n_missing must be in 0..4")
    if n_missing == 0:
        return 16
    n = n_missing
    return 4 * ((4 - n) + 4) - 4 * n


def completion_time_count(n_freqs: int, rounds: int) -> int:
    """Number of distinct encryption completion times.

    Each of ``rounds`` output periods takes one of ``n_freqs`` values and
    only the multiset matters, giving C(rounds + n - 1, rounds) exactly
    (Python integers, no overflow).
    """
    if n_freqs < 1:
        raise ValueError("n_freqs must be at least 1")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    return math.comb(rounds + n_freqs - 1, rounds)


# ---------------------------------------------------------------------------
# Empirical checks used to validate the closed forms
# ---------------------------------------------------------------------------

def source_edge_counts(fs: FrequencySet, n_cycles: int) -> np.ndarray:
    """(4, n_cycles) int array: rising edges of each source per base cycle.

    Counts grid points (m + phase_i) * rho_i inside [k, k+1) regardless of
    which source the mux selected; this is the quantity the closed-form
    presence probabilities describe.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be at least 1")
    ratios = fs.ratios()
    phases = np.asarray(fs.phases, dtype=np.float64)
    k = np.arange(n_cycles + 1, dtype=np.float64)
    out = np.empty((4, n_cycles), dtype=np.int64)
    for i in range(4):
        bounds = np.ceil(k / ratios[i] - phases[i])
        out[i] = (bounds[1:] - bounds[:-1]).astype(np.int64)
    return out


def simulated_edge_count_distribution(fs: FrequencySet, n_cycles: int) -> np.ndarray:
    """Empirical counterpart of edge_count_distribution over ``n_cycles``."""
    presence = source_edge_counts(fs, n_cycles) >= 1
    counts = presence.sum(axis=0)
    hist = np.bincount(counts, minlength=5).astype(np.float64)
    return hist / n_cycles


# ---------------------------------------------------------------------------
# Overhead and error risk
# ---------------------------------------------------------------------------

def overhead_and_error(fs: FrequencySet, rounds: int = 10,
                       n_encryptions: int = 1000, seed: int = 0,
                       error_threshold_factor: float = DEFAULT_ERROR_THRESHOLD_FACTOR,
                       ) -> OverheadReport:
    """Monte Carlo timing overhead and short-period risk of one frequency set.

    Each encryption is an independent clock run: the first output edge loads
    the state and round k completes at the k-th edge after it, so completion
    time is the timestamp of edge index ``rounds``.  Overheads are relative
    to ``rounds`` base periods (the fixed-clock time); error_risk is the
    fraction of driving periods shorter than ``error_threshold_factor`` base
    periods, i.e. instantaneous frequency more than 1/factor times the base.
    Encryptions are drawn one ``_row_batches`` batch of 1,024 rows at a time,
    so beside one batch only each row's stream and completion time are held.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if n_encryptions < 1:
        raise ValueError("n_encryptions must be at least 1")
    # each row is its own stream, so the batches move no draw
    bank, completions, short = StreamBank(seed, n_encryptions), np.empty(n_encryptions), 0
    for c0, c1 in _row_batches(n_encryptions, 64):
        edges = _edges_until(fs, bank, np.arange(c0, c1), rounds + 1)
        completions[c0:c1] = edges[:, rounds]  # base units
        short += int(np.count_nonzero(np.diff(edges, axis=1) < error_threshold_factor))
    nominal = float(rounds)
    return OverheadReport(
        mean_overhead=float(completions.mean() / nominal - 1.0),
        worst_overhead=float(completions.max() / nominal - 1.0),
        error_risk=short / (n_encryptions * rounds),
    )

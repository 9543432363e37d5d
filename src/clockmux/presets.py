"""Canonical frequency sets used across demos, tests, and the CLI.

The seven study sets share a 10 MHz base mux rate and differ in how the
four fundamentals sit relative to it: "high" means above the base, "low"
below it but above half of it, "above half" just over base/2, "lower than
half" below base/2.  Those placements drive everything this package
measures: low sources merge output cycles (stretch), high ones split them
(double edges), sub-half sources stall the output for whole base cycles.

Each entry carries reference measurements at 32 000 base cycles: total
rising edges in the output, and occupied histogram bins at the reference
bin width (a fixed fraction of the base period, see ``clock``).  They act
as regression anchors for the simulator (see the acceptance tests for the
tolerances applied).
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import FrequencySet

REFERENCE_BASE_HZ = 10e6
REFERENCE_CYCLES = 32000

_MHZ = 1e6


@dataclass(frozen=True)
class StudyEntry:
    """A named frequency set with its reference simulation figures."""

    fs: FrequencySet
    reference_edges: int
    reference_unique_bins: int


def _study(label: str, f1: float, f2: float, f3: float, f4: float,
           edges: int, bins: int) -> StudyEntry:
    fs = FrequencySet(base_hz=REFERENCE_BASE_HZ,
                      fundamentals=(f1 * _MHZ, f2 * _MHZ, f3 * _MHZ, f4 * _MHZ),
                      label=label)
    return StudyEntry(fs=fs, reference_edges=edges, reference_unique_bins=bins)


STUDY_SETS: tuple[StudyEntry, ...] = (
    _study("two high, two low above half",
           11.9713, 7.7315, 9.2778, 12.6515, 38872, 412),
    _study("two low, one above half, one lower than half",
           9.5917, 9.0317, 6.2777, 4.0517, 28610, 458),
    _study("two high, two lower than half",
           3.6719, 4.4021, 12.9781, 14.4317, 33992, 502),
    _study("three high, one lower than half",
           4.7717, 11.5019, 12.0779, 13.5319, 38910, 496),
    _study("three low, one lower than half",
           9.2003, 9.3001, 9.4001, 4.4003, 30796, 458),
    _study("three high, one above half",
           5.9009, 11.5019, 12.0779, 13.5319, 39929, 468),
    _study("two high, one above half, one lower than half",
           11.8713, 10.6017, 5.1779, 3.6317, 91369, 504),
)


def study_set(label_or_index) -> StudyEntry:
    """Look up a study entry by 1-based index or by (prefix of) its label."""
    if isinstance(label_or_index, int):
        if not 1 <= label_or_index <= len(STUDY_SETS):
            raise KeyError(f"study set index out of range: {label_or_index}")
        return STUDY_SETS[label_or_index - 1]
    needle = str(label_or_index).strip().lower()
    for entry in STUDY_SETS:
        if entry.fs.label.lower().startswith(needle):
            return entry
    raise KeyError(f"no study set labeled {label_or_index!r}")


def fixed_clock_set() -> FrequencySet:
    """Degenerate set: all four sources equal the 10 MHz base, output is the base.

    This is the unprotected-device stand-in; attacks against it give the
    baseline trace counts that the randomized sets are measured against.
    """
    f = REFERENCE_BASE_HZ
    return FrequencySet(base_hz=f, fundamentals=(f,) * 4, label="fixed clock")


def dual_reference_pair() -> tuple[FrequencySet, FrequencySet]:
    """Randomized pair for two-core studies: same ratios, distinct bases.

    Core 1 is study set 1.  Core 2 reuses the same frequency ratios on a
    10.7 MHz base, so the cores never share a period and their peaks drift
    through each other, which is what the overlap analysis feeds on.
    """
    fs1 = STUDY_SETS[0].fs
    scale = 1.07
    base2 = scale * REFERENCE_BASE_HZ
    f2 = tuple(scale * f for f in fs1.fundamentals)
    fs2 = FrequencySet(base_hz=base2, fundamentals=f2,
                       label="two high, two low above half (10.7 MHz base)")
    return fs1, fs2

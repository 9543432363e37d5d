"""Run the complete attack pipeline against fixed and randomized clocks.

The pipeline is filter (drop failed, under-peaked, crowded, or
under-sampled traces), synchronize (align every trace's chosen round peak
to one column), CPA (correlate a last-round Hamming-distance hypothesis per
key-guess against the aligned window), and finally a windowed search for
the minimum number of traces that recovers the full key.  Under a fixed
clock a few hundred noiseless traces break AES; clock randomization forces
the attacker through synchronization and multiplies the trace budget.
"""

import numpy as np

from clockmux.attack import (
    cpa_attack,
    filter_traces,
    min_traces_search,
    raw_matrix,
    synchronize,
)
from clockmux.presets import fixed_clock_set, study_set
from clockmux.traces import generate_set

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def describe(tag: str, ts) -> None:
    kept, removed, failed = filter_traces(ts)
    aligned = synchronize(kept, round=10, window_halfwidth=4)
    result = cpa_attack(aligned, true_key=KEY)
    ranks = result.rank_of_true_key
    min_traces = min_traces_search(aligned, KEY, step=250)
    outcome = min_traces if min_traces is not None else "not broken here"
    print(f"{tag}:")
    print(f"  kept {aligned.rows.shape[0]}/{len(ts)} traces "
          f"(removed {removed:.1%}, failed {failed:.1%})")
    print(f"  true-key byte ranks: min {min(ranks)}, max {max(ranks)}")
    print(f"  full key recovered: {result.recovered_key == KEY}")
    print(f"  minimum traces to recover the key (step 250): {outcome} "
          f"(max peak delay {aligned.max_delay_samples} samples)")


def main() -> None:
    fixed = generate_set(fixed_clock_set(), KEY, n_traces=2000, seed=21,
                         oversampling=12, noise_sigma=2.0)
    entry = study_set("three high, one above half")
    randomized = generate_set(entry.fs, KEY, n_traces=2000, seed=21,
                              oversampling=12, noise_sigma=2.0)

    describe("fixed clock, 2000 traces", fixed)
    describe(f"randomized clock ({entry.fs.label})", randomized)

    kept, _, _ = filter_traces(randomized)
    unsynced = cpa_attack(raw_matrix(kept, round=10), true_key=KEY)
    print(f"randomized without synchronization: worst rank "
          f"{max(unsynced.rank_of_true_key)} of 256 "
          f"(the attack goes nowhere)")


if __name__ == "__main__":
    main()

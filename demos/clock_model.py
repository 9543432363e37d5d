"""Walk through the randomized mux clock and its closed-form edge model.

Every base cycle the mux picks one of four source clocks uniformly at
random.  Slow sources sometimes contribute no rising edge to a cycle, fast
ones sometimes two; switching between sources can inject an extra edge at
the boundary.  This script simulates the output waveform for one study set,
then checks the closed-form presence probabilities and the Poisson-binomial
edge-count distribution against long-run empirical counts, and finishes
with the two combinatorial quantities that size the attack surface: the
selection permutations left when sources miss a cycle, and the number of
distinct encryption completion times.
"""

import numpy as np

from clockmux.clock import (
    completion_time_count,
    edge_count_distribution,
    period_histogram,
    permutation_count,
    presence_probabilities,
    reference_bin_width,
    simulate_mux_clock,
    simulated_edge_count_distribution,
    source_edge_counts,
)
from clockmux.presets import study_set


def main() -> None:
    entry = study_set("two high, two low")
    fs = entry.fs
    print(f"frequency set: {fs.label}")
    print(f"  base {fs.base_hz / 1e6:.1f} MHz, fundamentals "
          f"{[round(f / 1e6, 4) for f in fs.fundamentals]} MHz")

    wave = simulate_mux_clock(fs, n_base_cycles=32000, seed=1)
    periods = np.diff(wave.edges_s)
    hist = period_histogram(periods, reference_bin_width(fs))
    print(f"\nsimulated 32000 base cycles (seed 1):")
    print(f"  rising edges:        {len(wave.edges_s)}")
    print(f"  distinct period bins: {hist.unique_bins}")
    print(f"  period range:        {periods.min() * 1e9:.1f} .. "
          f"{periods.max() * 1e9:.1f} ns")

    probs = presence_probabilities(fs)
    empirical = (source_edge_counts(fs, 100_000) >= 1).mean(axis=1)
    print("\nper-cycle edge presence, closed form vs 100k-cycle count:")
    for i, (p, e) in enumerate(zip(probs, empirical), start=1):
        print(f"  source {i}: {p:.4f} vs {e:.4f}")

    analytic = edge_count_distribution(probs).probabilities
    simulated = simulated_edge_count_distribution(fs, 100_000)
    tv = 0.5 * np.abs(np.asarray(analytic) - simulated).sum()
    print("\nP(m of 4 sources rise in a cycle), m = 0..4:")
    print(f"  closed form: {[round(p, 4) for p in analytic]}")
    print(f"  simulated:   {[round(float(p), 4) for p in simulated]}")
    print(f"  total-variation distance: {tv:.5f}")

    print("\nselection permutations when m sources miss a cycle:")
    for m in range(1, 5):
        print(f"  {m} silent source(s): {permutation_count(m)} permutations")
    print(f"\ndistinct completion times for a 10-round encryption drawing "
          f"from 4 periods: {completion_time_count(4, 10)}")


if __name__ == "__main__":
    main()

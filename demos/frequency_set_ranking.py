"""Rank the study frequency sets by cost and by attack resistance.

Security is not free: randomization stretches some encryptions (positive
timing overhead), and a source too fast for the core's critical path risks
failed encryptions.  This script computes mean/worst overhead and error
risk for all seven study sets, then runs a reduced attack on each to
estimate the traces an attacker needs, and prints one ranked table:
hardest-to-break first, overhead as the tiebreaker.
"""

from clockmux.attack import filter_traces, min_traces_search, synchronize
from clockmux.clock import overhead_and_error
from clockmux.presets import STUDY_SETS
from clockmux.traces import generate_set

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def main() -> None:
    rows = []
    for entry in STUDY_SETS:
        cost = overhead_and_error(entry.fs, rounds=10, n_encryptions=1000,
                                  seed=9)
        ts = generate_set(entry.fs, KEY, n_traces=4000, seed=17,
                          oversampling=12, noise_sigma=2.0)
        kept, _, _ = filter_traces(ts)
        aligned = synchronize(kept, round=10, window_halfwidth=4)
        min_traces = min_traces_search(aligned, KEY, step=500)
        rows.append((entry.fs.label, min_traces, cost.mean_overhead,
                     cost.worst_overhead, cost.error_risk))

    def security(row):
        label, min_traces, mean_overhead, _, _ = row
        unbroken_first = min_traces if min_traces is not None else float("inf")
        return (-unbroken_first, mean_overhead)

    rows.sort(key=security)
    print(f"{'set':44s} {'min traces':>10s} {'mean ovh':>9s} "
          f"{'worst ovh':>9s} {'error risk':>10s}")
    for label, min_traces, mean, worst, risk in rows:
        shown = str(min_traces) if min_traces is not None else ">4000"
        print(f"{label:44s} {shown:>10s} {mean:>9.4f} {worst:>9.4f} "
              f"{risk:>10.4f}")
    print("\nnegative mean overhead means the randomized clock finished "
          "sooner than the base clock would have: fast sources emit "
          "extra edges, and boundary switches can add one more.")


if __name__ == "__main__":
    main()

"""Dual-core traces, the brute-force bound, and overlap exploitation.

A second AES core with its own key and its own randomized clock
superimposes a decoy pulse train on every trace.  The attacker who cannot
separate the cores must brute-force which peak belongs to which round; the
per-trace candidate count stays between 4 and 8 for the study sets, so the
work grows exponentially with the traces combined.  Two leaks soften that
wall: first-round peaks of the two cores coincide in roughly a tenth of
traces, and when the final-round peaks pile up the candidate positions for
the real last round collapse.
"""

from clockmux.attack import overlap_exploit, peak_permutation_bound
from clockmux.presets import STUDY_SETS, dual_reference_pair
from clockmux.traces import first_round_coincidence_fraction, generate_set

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KEY2 = bytes.fromhex("101112131415161718191a1b1c1d1e1f")


def main() -> None:
    print("per-trace candidate peaks (single core):")
    for entry in STUDY_SETS:
        candidates, total = peak_permutation_bound(entry.fs, n_traces=3)
        print(f"  {entry.fs.label}: {candidates} candidates, "
              f"{total} orderings across 3 traces")

    fs1, fs2 = dual_reference_pair()
    both, _ = peak_permutation_bound(fs1, fs2)
    print(f"\ndual core ({fs1.label} + {fs2.label}): "
          f"{both} candidates per trace")

    ts = generate_set(fs1, KEY, n_traces=3000, seed=7, oversampling=8,
                      fs2=fs2, key2=KEY2)
    truth = first_round_coincidence_fraction(ts)
    rep = overlap_exploit(ts, region="first")
    print(f"\nfirst-round peak coincidence over {len(ts)} traces:")
    print(f"  from the recorded clock edges: {truth:.3f}")
    print(f"  from the traces alone:         {rep.overlap_fraction:.3f}")

    last = overlap_exploit(ts, candidates=5, region="last")
    print(f"\nfinal-peak pile-ups seen in {last.overlap_fraction:.1%} of "
          f"usable traces;")
    print(f"  where they occur, {last.candidates:.0f} last-round candidates "
          f"collapse to {last.reduced_candidates:.0f} "
          f"(per-trace guess success {1 / last.candidates:.0%} -> "
          f"{1 / last.reduced_candidates:.0%})")


if __name__ == "__main__":
    main()

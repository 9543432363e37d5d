"""Synthesize power traces under fixed and randomized clocks.

A trace covers one AES-128 encryption: each rising clock edge advances one
round and deposits a pulse whose height is the Hamming distance between
consecutive full states, plus optional Gaussian noise.  Under a fixed clock
the ten round pulses land on a rigid grid; under a randomized clock their
spacing wanders, and an output period shorter than the core can tolerate
marks the encryption as failed.  The script generates both kinds, shows the
timing jitter, and round-trips one set through the binary trace format.
"""

import os
import tempfile

import numpy as np

from clockmux.presets import fixed_clock_set, study_set
from clockmux.traces import generate_set, read_trace_set, write_trace_set

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def peak_times_ns(samples, sample_period_s: float) -> list[float]:
    peaks = [i for i in range(1, len(samples) - 1)
             if samples[i] > 0
             and samples[i] >= samples[i - 1]
             and samples[i] >= samples[i + 1]]
    return [round(p * sample_period_s * 1e9, 1) for p in peaks[:10]]


def main() -> None:
    fixed = generate_set(fixed_clock_set(), KEY, n_traces=200, seed=11,
                         oversampling=12, noise_sigma=0.0)
    entry = study_set("two high, two lower than half")
    randomized = generate_set(entry.fs, KEY, n_traces=200, seed=11,
                              oversampling=12, noise_sigma=0.0)

    print("fixed clock, first trace round-peak times (ns):")
    print(f"  {peak_times_ns(fixed.samples[0], fixed.sample_period_s)}")
    print(f"randomized clock ({entry.fs.label}), three traces:")
    for i in range(3):
        print(f"  {peak_times_ns(randomized.samples[i], randomized.sample_period_s)}")

    failed = int(np.count_nonzero(randomized.failed))
    print(f"\nfailed encryptions under randomization: {failed}/200 "
          f"(clock period dipped below the core's tolerance)")
    print(f"samples per trace: {randomized.samples.shape[1]} at "
          f"{randomized.sample_period_s * 1e9:.2f} ns per sample")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "randomized.bin")
        write_trace_set(randomized, path)
        size = os.path.getsize(path)
        again = read_trace_set(path)
        print(f"\nwrote {path.split(os.sep)[-1]}: {size} bytes, "
              f"read back equal: {again == randomized}")


if __name__ == "__main__":
    main()

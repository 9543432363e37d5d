"""Compare trace spectra under fixed and randomized clocks.

Averaged FFT magnitudes expose what synchronization must fight: a fixed
clock concentrates the round pulses' energy at the clock frequency, while
a randomized clock spreads it across every fundamental the mux can select.
The script prints the strongest spectral bins for both cases and verifies
that binning preserves total energy.
"""

import numpy as np

from clockmux.attack import fft_spectrum
from clockmux.presets import fixed_clock_set, study_set
from clockmux.traces import generate_set

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def report(tag: str, fs, seed: int = 31) -> None:
    ts = generate_set(fs, KEY, n_traces=1500, seed=seed, oversampling=12)
    spectrum = fft_spectrum(ts, bin_hz=1e6)
    top = spectrum.top_bins(5)
    print(f"{tag}:")
    print(f"  fundamentals: {[round(f / 1e6, 2) for f in fs.fundamentals]} MHz")
    print("  strongest bins: "
          + ", ".join(f"{b} MHz ({m:.1f})" for b, m in top))

    energies = []
    for row in ts.samples[~ts.failed]:
        x = row.astype(np.float64)
        x = x - x.mean()
        energies.append(float(x @ x))
    time_energy = float(np.mean(energies))
    freq_energy = float((spectrum.magnitudes.astype(np.float64) ** 2).sum())
    print(f"  energy, time vs frequency domain: {time_energy:.3f} vs "
          f"{freq_energy:.3f} (relative gap "
          f"{abs(freq_energy - time_energy) / time_energy:.2e})")


def main() -> None:
    report("fixed clock at 10 MHz", fixed_clock_set())
    for label in ("two high, two low above half",
                  "three high, one lower than half"):
        entry = study_set(label)
        report(f"randomized ({entry.fs.label})", entry.fs)


if __name__ == "__main__":
    main()

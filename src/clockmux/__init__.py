"""clockmux: a simulation lab for randomized mux-clock AES power side channels.

The package covers the full loop of a clock-randomization study:

* ``clock``   -- 4-way mux clock simulation and the closed-form edge
  probability / permutation / completion-time models it is checked against.
* ``aes``     -- AES-128 with exposed round states and the last-round
  register-overwrite leakage model.
* ``traces``  -- synthetic power traces (single- and dual-core) plus a
  binary capture format.
* ``attack``  -- trace filtering, peak synchronization, correlation power
  analysis, minimum-trace search, spectra, and duplication-attack bounds.
* ``presets`` -- the seven studied frequency sets and helpers.
* ``cli``     -- ``simulate`` / ``gen`` / ``attack`` / ``fft`` / ``compare``
  subcommands over a flat config file.

All randomness flows through numpy's PCG64 generator seeded via
SeedSequence, so every artifact is reproducible from (config, seed).  The
per-trace and per-encryption streams of ``SeedSequence(seed).spawn(n)`` come
from one ``streams.StreamBank``, which reproduces numpy's PCG64 streams bit
for bit with array operations; ``tests/test_streams.py`` checks it against
numpy.
"""

__version__ = "0.1.0"

from . import aes, attack, clock, config, presets, traces  # noqa: F401,E402

__all__ = ["aes", "attack", "clock", "config", "presets", "traces", "__version__"]

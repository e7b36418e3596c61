"""Performance primitives: exact RNG replay and bit-twiddling kernels.

This package holds the machinery that lets the hot paths go fast
*without changing any observable result*:

* :mod:`repro.perf.exact_rng` — vectorised, bit-exact replay of
  ``numpy.random.Generator`` substreams (SHA-256 seed derivation,
  ``SeedSequence`` hash-mix, PCG64, uniform and ziggurat-normal
  variates).  Used by :mod:`repro.fleet.vectorized` to resolve
  thousands of trigger behaviours in a few array ops.
* :mod:`repro.perf.bitops` — whole-column popcount shared by the
  columnar analytics and the batched detectors.
* :mod:`repro.perf.ziggurat_tables` — the bit patterns of NumPy's
  ziggurat tables, embedded so the replay cannot drift with library
  formatting.

Independent per-CPU work (toolchain campaigns, temperature sweeps)
runs serially in-process: on a 2-core box a process pool never beat
the in-order loop by more than 1.13x.
"""

import os

from .exact_rng import VectorPCG64, derive_seed_batch, pcg64_state_words

__all__ = [
    "VectorPCG64",
    "derive_seed_batch",
    "pcg64_state_words",
    "effective_cores",
]


def effective_cores() -> int:
    """The CPUs this process may run on.

    ``os.cpu_count()`` reports the machine, not the process:
    containerized CI commonly pins a job to a CPU subset (cpuset).  The
    scheduler affinity mask is the honest count where the platform
    exposes it (Linux); elsewhere fall back to the CPU count.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS/Windows: no affinity API
        cores = os.cpu_count() or 1
    return max(1, cores)

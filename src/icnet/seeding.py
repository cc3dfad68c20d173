"""Deterministic RNG streams.

Every run consumes randomness only through generators derived from one root
seed plus a small integer path, so components can be reordered or skipped
without perturbing each other's streams.
"""

import numpy as np

# Stream ids, one per component that consumes randomness.
STREAM_INIT = 1       # parameter initialization
STREAM_EPOCH = 2      # mini-batch shuffling (sub-path: round index)
STREAM_SYNTH = 3      # pseudo-negative synthesis (sub-path: round index)
STREAM_ORACLE = 4     # exact grid sampling
STREAM_DATA = 6       # synthetic dataset generation
STREAM_MEMBER = 7     # one-vs-all member roots (sub-path: class index)


def rng(*entropy: int) -> np.random.Generator:
    """Generator for the stream identified by (root_seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))

"""Deterministic randomness.

Every random draw in the package flows through :func:`generator`, which wraps
numpy's 64-bit PCG64 bit generator behind a ``SeedSequence``.  Substreams are
derived from spawn keys, so trial ``t`` of an experiment sees the same stream
whichever other trials run.
"""

import numpy as np

from .errors import integer_at_least


def generator(seed, *spawn_key):
    """PCG64 generator for ``seed``; extra integers select independent substreams.

    A seed or spawn key that is negative or not an integer raises DomainError.
    """
    ss = np.random.SeedSequence(
        entropy=integer_at_least("seed", seed, 0),
        spawn_key=tuple(integer_at_least("spawn key", k, 0) for k in spawn_key),
    )
    return np.random.Generator(np.random.PCG64(ss))

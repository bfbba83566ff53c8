"""Deterministic randomness.

Every random draw in the package flows through :func:`generator`, which wraps
numpy's 64-bit PCG64 bit generator behind a ``SeedSequence``.  Substreams are
derived from spawn keys, so trial ``t`` of an experiment sees the same stream
whichever other trials run.
"""

import numpy as np


def generator(seed, *spawn_key):
    """PCG64 generator for ``seed``; extra integers select independent substreams."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(k) for k in spawn_key)
    )
    return np.random.Generator(np.random.PCG64(ss))

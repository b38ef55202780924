"""Seeded, splittable random streams.

All randomness flows from one experiment seed through the counter-based
Philox4x64-10 generator.  Stream derivation rule (documented so that any
implementation of Philox can reproduce runs bit-for-bit):

    stream(seed, k) = Philox4x64-10 with key = (seed mod 2^64, k mod 2^64)
                      and counter starting at 0,

where ``k`` is the replicate index.  Replicate streams are therefore pure
functions of ``(seed, k)`` and independent of execution order or worker
count.  Downstream draws consume exactly one ``random()`` uniform per
reward, in order: every sampler is an explicit transform of it (inverse
CDF or categorical inversion), never a rejection loop, so T rounds may
draw their uniforms as one block, ``stream.random(T)``.
"""

from __future__ import annotations

import numpy as np

from .errors import count

__all__ = ["replicate_stream"]


def replicate_stream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Return the Philox stream for one replicate of an experiment."""
    count(seed, "seed", -np.inf, rule="an integer")
    count(replicate, "replicate", 0, rule="a nonnegative integer replicate index")
    key = np.array([np.uint64(seed % 2**64), np.uint64(replicate % 2**64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

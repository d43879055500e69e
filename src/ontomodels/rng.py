"""Seeded, splittable random streams.

Every stochastic routine in the package draws from a stream derived from
``(seed, *labels)``.  Streams are backed by the counter-based Philox
generator, so a stream is fully determined by its labels: the same
``(seed, labels)`` pair yields bit-identical draws regardless of how many
other streams were consumed before it.  That is what makes falsification
witnesses replayable and Monte Carlo sums independent of work partitioning.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 20240913


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    h = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little")


def stream(seed: int, *labels) -> np.random.Generator:
    """Return the generator for the stream identified by (seed, *labels)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_key(x) for x in labels]
    ss = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.Philox(ss))

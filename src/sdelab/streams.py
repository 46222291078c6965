"""Counter-based random number streams.

Every Monte Carlo replication owns an independent Philox stream keyed by
(experiment seed, replication index).  Streams never share state, so results
are identical no matter how replications are scheduled across workers, and
any single replication can be replayed in isolation.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["stream", "KEY_LIMIT", "QUADRATURE_STREAM"]

# Seeds and stream indices are Philox key words: integers in [0, 2**64).
KEY_LIMIT = 1 << 64

# Reserved substream index for compensator quadrature nodes: the nodes must be
# the same deterministic draw for every replication of an experiment.
QUADRATURE_STREAM = KEY_LIMIT - 1


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replication `index` of an experiment seeded by `seed`.

    Philox is counter-based: distinct (seed, index) keys give statistically
    independent streams with no sequential dependence between them.  Raises
    TypeError for a key word that is not an integer (operator.index) and
    ValueError for one outside [0, 2**64): either would alias another key.
    """
    seed, index = operator.index(seed), operator.index(index)
    if not (0 <= seed < KEY_LIMIT and 0 <= index < KEY_LIMIT):
        raise ValueError(f"stream key ({seed}, {index}) must lie in [0, 2**64)")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


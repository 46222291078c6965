"""Counter-based random number streams.

Every Monte Carlo replication owns an independent Philox stream keyed by
(experiment seed, replication index).  Streams never share state, so results
are identical no matter how replications are scheduled across workers, and
any single replication can be replayed in isolation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "as_generator", "KEY_LIMIT", "QUADRATURE_STREAM"]

# Seeds and stream indices are Philox key words: integers in [0, 2**64).
KEY_LIMIT = 1 << 64

# Reserved substream index for compensator quadrature nodes: the nodes must be
# the same deterministic draw for every replication of an experiment.
QUADRATURE_STREAM = KEY_LIMIT - 1


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replication `index` of an experiment seeded by `seed`.

    Philox is counter-based: distinct (seed, index) keys give statistically
    independent streams with no sequential dependence between them.  Raises
    ValueError for a key outside [0, 2**64), which would alias another key.
    """
    if not (0 <= seed < KEY_LIMIT and 0 <= index < KEY_LIMIT):
        raise ValueError(f"stream key ({seed}, {index}) must lie in [0, 2**64)")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def as_generator(stream_id) -> np.random.Generator:
    """Accept either a ready Generator or a (seed, index) pair."""
    if isinstance(stream_id, np.random.Generator):
        return stream_id
    if isinstance(stream_id, (tuple, list)) and len(stream_id) == 2:
        return stream(int(stream_id[0]), int(stream_id[1]))
    raise TypeError(f"expected Generator or (seed, index) pair, got {stream_id!r}")

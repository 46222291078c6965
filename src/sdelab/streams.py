"""Counter-based random number streams.

Every draw of an experiment comes from an independent Philox stream keyed by
(experiment seed, index).  What the index counts depends on the draw:

* an Euler replication (`simulate`, `convergence`, `resolution_gap`): its
  replication index;
* the vectorised Brownian generators (`lenglart`, the `gbm-squared`
  ensemble): chunk k of 4 096 replications draws from (seed, k);
* the `counterexample` sweep: q_values[j] draws from (seed, j), and the
  counterexample ensemble of `verify-gronwall` from (seed, 0);
* the condition checks (`check-conditions`): sample i draws from (seed, i).

The compensator's quadrature nodes alone come from a fixed key, the one
reserved index QUADRATURE_STREAM of a fixed seed.

Streams never share state, so a result does not depend on the order the
streams are drawn in, and any one stream can be replayed in isolation.
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
    """Independent generator for stream `index` of an experiment seeded by `seed`.

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


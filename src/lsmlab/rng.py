"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, *stream key).  Streams with distinct keys are statistically
independent and reproducible regardless of execution order, so each batch's
draws depend only on its own key, not on which batches ran before it.
"""

from __future__ import annotations

import numpy as np
# numpy loads ``numpy.random`` on first use; importing it here keeps that cost in
# start-up, not in the first command that needs it.
import numpy.random


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for stream ``key`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def uniform_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Sample ``n`` points uniformly on the unit sphere in ``d`` dimensions.

    Normalised Gaussian vectors: dimension-agnostic and rejection-free.
    """
    v = rng.standard_normal((n, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # A standard normal vector is never numerically zero in practice, but
    # guard the division anyway.
    norms[norms == 0.0] = 1.0
    return v / norms

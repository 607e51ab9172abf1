"""Counter-based random number generation.

Every random draw in the package flows through :func:`philox`, a
Philox-4x64 counter-based generator keyed by ``(seed, stream, index)``.
Philox has a published constant set and a platform-independent bit
stream, so shuffles, inits, and synthetic data regenerate identically
across machines and across independent runs.
"""

from __future__ import annotations

import numpy as np

from .errors import require_index

# Stream tags keep independent uses of the same seed from colliding.
STREAM_DATA = 0
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_INIT = 3
STREAM_JITTER = 7


def philox(seed: int, stream: int = 0, index: int = 0) -> np.random.Generator:
    """Return a Generator keyed by (seed, stream, index).

    The key is the 128-bit Philox key ``[seed, stream << 32 | index]``;
    distinct (stream, index) pairs give statistically independent streams.
    A seed that is not an integer raises :class:`~inhernet.errors.RangeError`.
    """
    seed = require_index("seed", seed)
    if not 0 <= index < 2**32:
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([np.uint64(seed % 2**64), np.uint64((stream << 32) | index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

"""The shared standard-draw cache (the batch engine's reuse lever).

Every variate a built-in black box draws is a location-scale transform of a
*standard* draw (z for normals, e for exponentials, u for uniforms), and the
standard draws depend only on ``(seed, stream position)`` — never on the
parameter point.  Under Jigsaw's fixed global seed bank this means every
parameter point in a sweep consumes the *same* standard-draw matrix; caching
it turns per-point simulation into pure affine array arithmetic, which is
the same shared-seed property the paper's fingerprints exploit.

:class:`StandardDrawCache` memoizes ``matrix(seeds, kinds)`` — the
``(len(seeds), len(kinds))`` standard draws of the given kind sequence for
each seed — under a bounded float budget with least-recently-used eviction.
Evictions are safe: entries are recomputed (bit-identically) on demand.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox import fastrng

_CacheKey = Tuple[bytes, Tuple[str, ...]]


class StandardDrawCache:
    """Memoized standard-draw matrices keyed by (seed bank slice, kinds)."""

    def __init__(self, max_floats: int = 16_000_000):
        if max_floats < 0:
            raise ValueError("max_floats must be non-negative")
        self.max_floats = max_floats
        self._matrices: "OrderedDict[_CacheKey, np.ndarray]" = OrderedDict()
        self._floats_cached = 0
        self._hits = 0
        self._misses = 0

    def matrix(
        self, rng_seeds: np.ndarray, kinds: Sequence[str]
    ) -> np.ndarray:
        """Standard draws for every (seed, kind position); cached.

        The returned array is shared — callers must not mutate it.
        """
        seeds = np.ascontiguousarray(
            np.atleast_1d(np.asarray(rng_seeds, dtype=np.uint64))
        )
        kinds = tuple(kinds)
        key = (seeds.tobytes(), kinds)
        cached = self._matrices.get(key)
        if cached is not None:
            self._hits += 1
            self._matrices.move_to_end(key)
            return cached
        self._misses += 1
        matrix = fastrng.draw_matrix(seeds, kinds)
        matrix.setflags(write=False)
        self._store(key, matrix)
        return matrix

    def _store(self, key: _CacheKey, matrix: np.ndarray) -> None:
        if matrix.size > self.max_floats:
            return  # too large to ever cache; hand it back uncached
        self._matrices[key] = matrix
        self._floats_cached += matrix.size
        while self._floats_cached > self.max_floats and self._matrices:
            _, evicted = self._matrices.popitem(last=False)
            self._floats_cached -= evicted.size

    def clear(self) -> None:
        self._matrices.clear()
        self._floats_cached = 0
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._matrices),
            "floats_cached": self._floats_cached,
            "hits": self._hits,
            "misses": self._misses,
        }

    def __len__(self) -> int:
        return len(self._matrices)


_DERIVED_SEED_CACHE: "OrderedDict[Tuple[bytes, int], np.ndarray]" = OrderedDict()
_DERIVED_SEED_CACHE_LIMIT = 256


def derived_seed_array_cached(rng_seeds: np.ndarray, salt: int) -> np.ndarray:
    """Memoized ``derive_seed_array(rng_seeds, salt)``.

    Composite boxes re-derive the same salted sub-streams for every
    parameter point of a sweep; like standard draws, the derivation depends
    only on (seed bank slice, salt), so one computation serves the sweep.
    """
    from repro.core.seeds import derive_seed_array

    seeds = np.ascontiguousarray(
        np.atleast_1d(np.asarray(rng_seeds, dtype=np.uint64))
    )
    key = (seeds.tobytes(), int(salt))
    cached = _DERIVED_SEED_CACHE.get(key)
    if cached is not None:
        _DERIVED_SEED_CACHE.move_to_end(key)
        return cached
    derived = derive_seed_array(seeds, salt)
    derived.setflags(write=False)
    _DERIVED_SEED_CACHE[key] = derived
    while len(_DERIVED_SEED_CACHE) > _DERIVED_SEED_CACHE_LIMIT:
        _DERIVED_SEED_CACHE.popitem(last=False)
    return derived


DEFAULT_DRAW_CACHE = StandardDrawCache()
"""Process-wide cache shared by every built-in box's batch path.

Sharing is semantically free: entries are pure functions of
``(seed, kind sequence)``, the same invariant that makes the global seed
bank shareable across parameter points.
"""


def initialize_worker(max_floats: Optional[int] = None) -> None:
    """Reset the process-wide draw caches inside a freshly forked worker.

    Fork-based sweep workers inherit the parent's populated caches as
    copy-on-write pages; dropping the inherited entries up front (a) keeps
    per-worker memory bounded by the worker's own budget instead of
    ``workers x parent cache`` and (b) makes worker cache stats describe
    worker work.  Semantically a no-op: every entry is a pure function of
    its key and is recomputed bit-identically on demand.
    """
    if max_floats is not None:
        if max_floats < 0:
            raise ValueError("max_floats must be non-negative")
        DEFAULT_DRAW_CACHE.max_floats = max_floats
    DEFAULT_DRAW_CACHE.clear()
    _DERIVED_SEED_CACHE.clear()

"""Basis distributions and the FindMatch store (paper section 3.1, Alg 3).

During execution Jigsaw incrementally maintains a set of *basis
distributions* — (fingerprint, output metrics) pairs for parameter points
that were fully simulated.  A new point first computes its fingerprint; if a
stored basis maps onto it, the expensive remaining Monte Carlo rounds are
skipped and the basis's metrics are remapped instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.columnar import CandidateKeys, ColumnarStore
from repro.errors import LifecycleError
from repro.util import timing
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    Fingerprint,
)
from repro.core.index import FingerprintIndex, make_index
from repro.core.mapping import (
    AffineMapping,
    LinearMappingFamily,
    Mapping,
    MappingFamily,
)


@dataclass
class BasisDistribution:
    """A fully simulated distribution available for reuse.

    ``samples`` holds the raw Monte Carlo outputs (fingerprint rounds first),
    enabling sample-level reuse under non-affine mappings and sample
    recycling in the interactive engine.
    """

    basis_id: int
    fingerprint: Fingerprint
    samples: np.ndarray
    metrics: MetricSet
    #: Successful reuses of this basis (probes it answered), bumped by the
    #: match engine.  The eviction policy's notion of reuse *value*;
    #: persisted since snapshot version 2.
    hits: int = 0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)

    def nbytes(self) -> int:
        """Approximate resident size (samples + fingerprint vector), the
        unit :class:`EvictionPolicy`'s ``max_bytes`` bound is written in."""
        return int(self.samples.nbytes) + 8 * self.fingerprint.size


@dataclass
class StoreStats:
    """Work counters for basis matching (benchmarks read these)."""

    lookups: int = 0
    candidates_tested: int = 0
    matches: int = 0
    bases_created: int = 0
    #: Seconds spent inside match()/match_batch(), read through the
    #: injectable clock (:func:`repro.util.timing.perf_counter`).  Excluded
    #: from equality and from :meth:`as_dict` — parity suites compare only
    #: the deterministic counters above.
    match_seconds: float = field(default=0.0, compare=False)

    def as_dict(self) -> Dict[str, int]:
        return {
            "lookups": self.lookups,
            "candidates_tested": self.candidates_tested,
            "matches": self.matches,
            "bases_created": self.bases_created,
        }


class MatchResult(NamedTuple):
    """A successful FindMatch: the stored basis plus the witness mapping.

    A ``NamedTuple``, so the long-standing ``basis, mapping = store.match(
    fp)`` unpacking (and truthiness checks against ``None``) keep working
    unchanged.
    """

    basis: BasisDistribution
    mapping: Mapping


@dataclass(frozen=True)
class EvictionPolicy:
    """Bound a store's size by evicting its least-reusable bases first.

    ``max_bases`` caps the basis count, ``max_bytes`` the summed
    :meth:`BasisDistribution.nbytes`; either (or both) may be set, and
    eviction runs until every configured bound holds.  ``keep`` picks the
    ranking: ``"value"`` retires the least-hit basis first (ties broken
    toward the older id, so a never-hit newcomer outlives a never-hit
    veteran), ``"recent"`` ignores hit counts and retires oldest-first.
    Ranking is a pure function of the store's contents, so applying a
    policy is deterministic — the lifecycle parity suites rely on that.
    """

    max_bases: Optional[int] = None
    max_bytes: Optional[int] = None
    keep: str = "value"

    def __post_init__(self) -> None:
        if self.keep not in ("value", "recent"):
            raise LifecycleError(
                f"unknown eviction ranking {self.keep!r}; "
                f"choose 'value' or 'recent'"
            )
        for name in ("max_bases", "max_bytes"):
            bound = getattr(self, name)
            if bound is not None and int(bound) < 0:
                raise LifecycleError(f"{name} must be non-negative")

    def victims(self, store: "BasisStore") -> List[int]:
        """Basis ids to evict, in eviction order (store unchanged)."""
        bases = store.bases
        if self.keep == "value":
            ranked = sorted(bases, key=lambda b: (b.hits, b.basis_id))
        else:
            ranked = list(bases)  # ascending id == oldest first
        count = len(bases)
        total = (
            sum(basis.nbytes() for basis in bases)
            if self.max_bytes is not None
            else 0
        )
        victims: List[int] = []
        for basis in ranked:
            over_count = (
                self.max_bases is not None and count > int(self.max_bases)
            )
            over_bytes = (
                self.max_bytes is not None and total > int(self.max_bytes)
            )
            if not (over_count or over_bytes):
                break
            victims.append(basis.basis_id)
            count -= 1
            total -= basis.nbytes()
        return victims


#: Columnar lookups per store that are cross-checked against the scalar
#: loop before the vectorized kernels are trusted outright (the same
#: self-verification contract as the fastrng stream replay: a surprising
#: host/numpy pays with speed, never with changed answers).
VERIFY_LOOKUPS = 4

#: Probes with fewer candidates than this take the scalar loop: a couple of
#: per-candidate find() calls against cached fingerprints beats the fixed
#: cost of gathering rows and launching the matrix kernels.  Purely a
#: latency knob — both paths return bit-identical results — exposed as an
#: instance attribute so tests can force either path.
COLUMNAR_MIN_CANDIDATES = 8


class BasisStore:
    """The set of basis distributions plus its fingerprint index.

    Implements the matching half of paper Algorithm 3 (FindMatch): probe the
    index for candidates, run the family's FindMapping on each, and return
    the first basis with a valid mapping.

    Matching is *columnar*: stored fingerprints (and their index-key rows)
    live in contiguous matrices (:mod:`repro.core.columnar`), and a probe
    validates all its candidates through one vectorized
    :meth:`MappingFamily.find_matrix` call instead of a per-candidate
    Python loop.  The scalar loop remains as the reference path: the first
    :data:`VERIFY_LOOKUPS` columnar lookups are checked against it and any
    disagreement permanently falls back (``columnar=False`` forces the
    scalar path outright).  Either way every probe returns the same basis
    id, the same mapping parameters, and the same candidates-tested count
    — first-match-wins tie-breaking included.
    """

    def __init__(
        self,
        mapping_family: Optional[MappingFamily] = None,
        index: Optional[FingerprintIndex] = None,
        index_strategy: str = "normalization",
        estimator: Optional[Estimator] = None,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        columnar: bool = True,
    ):
        self.mapping_family = mapping_family or LinearMappingFamily()
        if index is None:
            if (
                index_strategy == "normalization"
                and not self.mapping_family.supports_normal_form
            ):
                # Normalization is meaningless for families without a normal
                # form; fall back to the always-correct scan.
                index_strategy = "array"
            index = make_index(index_strategy)
        self.index = index
        self.estimator = estimator or Estimator()
        # Coerce so integer tolerances survive the snapshot hex codec
        # (``float.hex`` exists, ``int.hex`` does not) and compare
        # consistently across save/load.
        self.rel_tol = float(rel_tol)
        self.abs_tol = float(abs_tol)
        self.stats = StoreStats()
        self._bases: Dict[int, BasisDistribution] = {}
        self._next_id = 0
        self.columnar = ColumnarStore()
        self.columnar_enabled = bool(
            columnar and self.mapping_family.supports_find_matrix
        )
        self.columnar_min_candidates = COLUMNAR_MIN_CANDIDATES
        self._verify_remaining = VERIFY_LOOKUPS

    def __len__(self) -> int:
        return len(self._bases)

    @property
    def bases(self) -> Tuple[BasisDistribution, ...]:
        return tuple(self._bases[i] for i in sorted(self._bases))

    def get(self, basis_id: int) -> BasisDistribution:
        return self._bases[basis_id]

    def match(self, fingerprint: Fingerprint) -> Optional[MatchResult]:
        """Find a stored basis and mapping M with M(basis.fp) == fingerprint.

        The mapping direction follows the reuse direction: applying M to the
        basis's samples/metrics yields the probe point's.  Single-probe form
        of :meth:`match_batch` — same columnar candidate validation, same
        counters.
        """
        started = timing.perf_counter()
        self.stats.lookups += 1
        result, tested = self._match_candidates(
            fingerprint, self.index.candidates(fingerprint)
        )
        self.stats.candidates_tested += tested
        if result is not None:
            self.stats.matches += 1
        self.stats.match_seconds += timing.perf_counter() - started
        return result

    def match_batch(
        self,
        fingerprints: Iterable[Fingerprint],
        tested_out: Optional[List[int]] = None,
    ) -> List[Optional[MatchResult]]:
        """:meth:`match` for a batch of probes against the current store.

        Index keys for all probes are computed in one vectorized pass
        (:meth:`FingerprintIndex.candidates_batch`), then every probe's
        candidates are validated through the columnar ``find_matrix``
        kernels.  Probes do not see each other: the store is read-only
        during the call, so result ``i`` is exactly ``match(fps[i])`` —
        ids, mapping parameters, and counter increments all identical.

        ``tested_out``, when given, receives one per-probe
        candidates-tested count per result (the serving layer reports it
        on each response; the sum is exactly what ``candidates_tested``
        grew by).
        """
        started = timing.perf_counter()
        probes = list(fingerprints)
        results: List[Optional[MatchResult]] = []
        for probe, candidates in zip(
            probes, self.index.candidates_batch(probes)
        ):
            self.stats.lookups += 1
            result, tested = self._match_candidates(probe, candidates)
            self.stats.candidates_tested += tested
            if result is not None:
                self.stats.matches += 1
            if tested_out is not None:
                tested_out.append(tested)
            results.append(result)
        self.stats.match_seconds += timing.perf_counter() - started
        return results

    def _match_candidates(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        """Validate a probe's candidate list; returns (result, tested).

        ``tested`` is the scalar loop's accounting: candidates visited up
        to and including the first match (all of them on a miss).  The
        winning basis's :attr:`~BasisDistribution.hits` reuse counter is
        bumped here, so both the scalar and columnar paths (and every
        verify/fallback branch) count a reuse exactly once.

        A probe with a NaN or infinite entry matches nothing (every
        candidate counts as tested), and a stored basis with one is never
        matched: non-finite entries make the tolerances NaN/inf, under
        which every family would accept a bogus mapping.
        """
        if not fingerprint.finite:
            return None, len(candidates)
        result, tested = self._validate_candidates(fingerprint, candidates)
        if result is not None:
            result.basis.hits += 1
        return result, tested

    def _validate_candidates(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        if (
            not self.columnar_enabled
            or len(candidates) < self.columnar_min_candidates
        ):
            return self._match_scalar(fingerprint, candidates)
        result = self._match_columnar(fingerprint, candidates)
        if self._verify_remaining > 0:
            self._verify_remaining -= 1
            reference = self._match_scalar(fingerprint, candidates)
            if not self._same_result(result, reference):
                warnings.warn(
                    "columnar FindMapping disagreed with the scalar "
                    "reference; falling back to the scalar path for this "
                    "store",
                    RuntimeWarning,
                )
                self.columnar_enabled = False
                return reference
        return result

    def _match_scalar(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        """Reference implementation: per-candidate FindMapping loop."""
        for position, basis_id in enumerate(candidates):
            basis = self._bases[basis_id]
            if not basis.fingerprint.finite:
                continue
            mapping = self.mapping_family.find(
                basis.fingerprint,
                fingerprint,
                rel_tol=self.rel_tol,
                abs_tol=self.abs_tol,
            )
            if mapping is not None:
                return MatchResult(basis, mapping), position + 1
        return None, len(candidates)

    def _match_columnar(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        """Vectorized candidate validation over the columnar matrices."""
        positions, rows, block = self.columnar.gather(
            candidates, fingerprint.size
        )
        if block is None or len(rows) == 0:
            # No candidate has the probe's size: the scalar loop would have
            # visited (and counted) each one, matching none.
            return None, len(candidates)
        plausible, build = self.mapping_family.find_matrix(
            block.rows(rows),
            fingerprint,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            keys=CandidateKeys(block, rows),
        )
        for index in np.nonzero(plausible)[0]:
            position = int(positions[index])
            basis = self._bases[candidates[position]]
            if not basis.fingerprint.finite:
                continue
            mapping = build(int(index))
            if mapping is not None:
                return MatchResult(basis, mapping), position + 1
        return None, len(candidates)

    @staticmethod
    def _same_result(
        left: Tuple[Optional[MatchResult], int],
        right: Tuple[Optional[MatchResult], int],
    ) -> bool:
        """Whether two (result, tested) pairs agree exactly."""
        (left_match, left_tested) = left
        (right_match, right_tested) = right
        if left_tested != right_tested:
            return False
        if (left_match is None) != (right_match is None):
            return False
        if left_match is None:
            return True
        return (
            left_match.basis.basis_id == right_match.basis.basis_id
            and left_match.mapping == right_match.mapping
        )

    def add(
        self,
        fingerprint: Fingerprint,
        samples: np.ndarray,
        metrics: Optional[MetricSet] = None,
    ) -> BasisDistribution:
        """Store a fully simulated distribution as a new basis."""
        if metrics is None:
            metrics = self.estimator.estimate(samples)
        basis = BasisDistribution(
            basis_id=self._next_id,
            fingerprint=fingerprint,
            samples=np.asarray(samples, dtype=float),
            metrics=metrics,
        )
        self._bases[basis.basis_id] = basis
        self.index.insert(fingerprint, basis.basis_id)
        self.columnar.add(basis.basis_id, fingerprint)
        self._next_id += 1
        self.stats.bases_created += 1
        return basis

    def remove(self, basis_id: int) -> BasisDistribution:
        """Excise one basis: targeted invalidation (lifecycle layer).

        The basis leaves ``_bases``, its index bucket (survivor order
        preserved verbatim — first-match-wins is part of the FindMatch
        contract), and the columnar mirror (tombstoned, compacted past the
        threshold).  Its id is retired, never reissued: ``_next_id`` only
        grows, so snapshots, merges, and external references stay
        unambiguous.  Returns the removed basis; raises :class:`KeyError`
        for an unknown id (mirroring :meth:`get`).
        """
        basis = self._bases.pop(basis_id, None)
        if basis is None:
            raise KeyError(basis_id)
        self.index.remove(basis.fingerprint, basis_id)
        self.columnar.discard(basis_id)
        return basis

    def invalidate_where(
        self, predicate: Callable[[BasisDistribution], bool]
    ) -> List[int]:
        """Remove every basis the predicate marks stale; returns their ids
        (ascending).  The predicate sees each live basis exactly once and
        must not mutate the store."""
        doomed = [
            basis_id
            for basis_id in sorted(self._bases)
            if predicate(self._bases[basis_id])
        ]
        for basis_id in doomed:
            self.remove(basis_id)
        return doomed

    def evict(self, policy: EvictionPolicy) -> List[int]:
        """Apply an eviction policy; returns the evicted ids in order."""
        victims = policy.victims(self)
        for basis_id in victims:
            self.remove(basis_id)
        return victims

    def compact(self) -> int:
        """Force the columnar mirror tombstone-free now (snapshots do this
        implicitly); returns the number of rows dropped."""
        return self.columnar.compact()

    def merge(
        self,
        other: "BasisStore",
        reprobe: bool = True,
    ) -> Dict[int, Tuple[int, Optional[Mapping]]]:
        """Fold another store's bases into this one (sharded-sweep merge).

        With ``reprobe=True`` (default), each incoming basis — in creation
        order — is re-probed against this store's index: if its fingerprint
        already maps onto a stored basis, it *collapses* into that mapping
        instead of being inserted, so cross-shard duplicate simulation work
        shrinks to a mapping entry.  This is safe for exactly the reason
        index false negatives are (paper section 3.2): a duplicate basis
        costs storage, never correctness, so collapsing is pure win and
        keeping a duplicate (when the probe misses) is merely unfortunate.

        With ``reprobe=False`` every basis is adopted verbatim through the
        bulk :meth:`FingerprintIndex.merge` path — no FindMapping calls, no
        collapsing — which is the right mode when the shards are known to
        partition a space with no cross-shard similarity.

        Returns ``{other_basis_id: (basis_id_here, mapping)}`` where
        ``mapping`` is the collapse mapping (apply it to the absorbed
        basis's samples/metrics to recover the incoming ones) or ``None``
        for bases adopted verbatim.
        """
        translation: Dict[int, Tuple[int, Optional[Mapping]]] = {}
        if not reprobe:
            id_map: Dict[int, int] = {}
            for basis in other.bases:
                adopted = BasisDistribution(
                    basis_id=self._next_id,
                    fingerprint=basis.fingerprint,
                    samples=basis.samples,
                    metrics=basis.metrics,
                )
                self._bases[adopted.basis_id] = adopted
                self._next_id += 1
                self.stats.bases_created += 1
                id_map[basis.basis_id] = adopted.basis_id
                translation[basis.basis_id] = (adopted.basis_id, None)
            self.index.merge(other.index, id_map)
            # Adopt the shard's columnar matrices wholesale: one
            # concatenate per fingerprint size, no key recomputation.
            self.columnar.adopt(other.columnar, id_map)
            return translation
        # Re-probe pass.  Each incoming fingerprint runs through the
        # columnar match engine; the loop stays per-basis because a miss
        # *inserts* (changing what later incoming fingerprints may match,
        # and hence the exact counters the scalar semantics pin down), so
        # probes are not independent the way a read-only match_batch's are.
        for basis in other.bases:
            matched = self.match(basis.fingerprint)
            if matched is not None:
                target, mapping = matched
                translation[basis.basis_id] = (target.basis_id, mapping)
            else:
                adopted = self.add(
                    basis.fingerprint, basis.samples, metrics=basis.metrics
                )
                translation[basis.basis_id] = (adopted.basis_id, None)
        return translation

    def extend_basis(
        self, basis_id: int, new_samples: np.ndarray
    ) -> BasisDistribution:
        """Append refinement samples to a basis and refresh its metrics.

        Used by the interactive engine (section 5): new samples generated for
        a point of interest are recycled into its basis through M⁻¹, making
        every correlated point's estimate more accurate at once.
        """
        basis = self._bases[basis_id]
        basis.samples = np.concatenate(
            [basis.samples, np.asarray(new_samples, dtype=float)]
        )
        basis.metrics = self.estimator.estimate(basis.samples)
        return basis

    def metrics_for(
        self, basis: BasisDistribution, mapping: Mapping
    ) -> MetricSet:
        """Metrics of the mapped distribution: Mest in closed form when the
        mapping is affine, else recomputed from mapped samples."""
        if isinstance(mapping, AffineMapping):
            return basis.metrics.remap(mapping)
        return self.estimator.estimate(mapping.apply_array(basis.samples))

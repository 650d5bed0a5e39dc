"""Fingerprint indexes (paper section 3.2).

Matching a new fingerprint against every stored basis distribution costs one
``FindMapping`` call per basis; an index prunes that to a near-constant
candidate set.  Per the paper, an index must return *every* truly similar
basis (false positives are fine — Algorithm 3 re-validates — while a false
negative merely creates a duplicate basis, costing work but never
correctness).

Three strategies, as evaluated in Figures 9-11:

* ``ArrayIndex`` — no pruning; scan every basis (the baseline).
* ``NormalizationIndex`` — hash on the affine-canonical normal form; exact
  for the linear mapping family.
* ``SortedSIDIndex`` — hash on the sample-identifier sort order; applicable
  whenever members are monotone, including mapping classes with no normal
  form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.fingerprint import (
    DEFAULT_REL_TOL,
    Fingerprint,
    batch_normal_forms,
    batch_sid_orders,
)
from repro.errors import IndexError_, PersistError


def _remove_from_bucket(buckets: Dict, key, basis_id: int) -> None:
    """Excise one id from one hash bucket, dropping the bucket if emptied.

    ``list.remove`` deletes the first occurrence and shifts survivors left —
    ids are unique across an index, so this keeps the survivors' relative
    order exactly as inserted.
    """
    bucket = buckets.get(key)
    if bucket is None or basis_id not in bucket:
        raise IndexError_(
            f"basis {basis_id} is not indexed under its fingerprint key"
        )
    bucket.remove(basis_id)
    if not bucket:
        del buckets[key]


class FingerprintIndex(ABC):
    """Maps a probe fingerprint to candidate basis ids."""

    #: Snapshot identity (the ``make_index`` strategy name).  Snapshots
    #: record it so a load can rebuild the exact index variant — and refuse
    #: to hand a store built under one strategy to a caller expecting
    #: another.
    strategy: str = ""

    def __init__(self) -> None:
        self._size = 0

    def dump_state(self) -> dict:
        """JSON-able snapshot of the index's buckets (see ``repro.core.
        persist``).

        Candidate *order* is part of the FindMatch contract
        (first-match-wins), so implementations serialize their id lists
        verbatim — a restored index answers ``candidates`` with byte-equal
        lists, never a re-derived ordering.  Floats are hex-encoded so the
        round trip is bitwise.
        """
        raise PersistError(
            f"{type(self).__name__} does not support snapshots; implement "
            f"dump_state/restore_state to persist stores using it"
        )

    @classmethod
    def restore_state(cls, state: dict) -> "FingerprintIndex":
        """Rebuild an index from :meth:`dump_state` output."""
        raise PersistError(
            f"{cls.__name__} does not support snapshots; implement "
            f"dump_state/restore_state to persist stores using it"
        )

    @abstractmethod
    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        """Register a stored basis fingerprint under its id."""

    @abstractmethod
    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        """Basis ids that may be similar to the probe (superset of truth)."""

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        """Drop one stored basis from the index (lifecycle layer).

        ``fingerprint`` is the basis's own stored fingerprint: hash-keyed
        strategies recompute its insertion key (key derivation is a
        deterministic function of the values, so the recomputed key names
        the bucket ``insert`` used) and excise exactly one entry.  The
        order of surviving ids is preserved verbatim — first-match-wins is
        part of the FindMatch contract, so removal must never reshuffle a
        bucket.
        """
        raise IndexError_(
            f"{type(self).__name__} does not support removal; implement "
            f"remove to run the store lifecycle layer over it"
        )

    def candidates_batch(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[int]]:
        """Per-probe candidate lists for a whole batch of probes.

        Contract: ``candidates_batch(fps)[i] == candidates(fps[i])`` —
        same ids, same order — so batched matching inherits the scalar
        path's first-match-wins tie-breaking.  Hash-keyed strategies
        override this to compute every probe's key in one vectorized
        pass before the bucket lookups.
        """
        return [self.candidates(fp) for fp in fingerprints]

    @abstractmethod
    def merge(
        self, other: "FingerprintIndex", id_map: Mapping[int, int]
    ) -> None:
        """Bulk-adopt another index's entries under translated basis ids.

        ``id_map`` maps the other index's basis ids to ids in the merged
        store; entries absent from it are skipped (their bases collapsed
        into mappings during the store merge and need no index entry).
        Structural: hash keys computed by the other index are adopted as-is
        — nothing is re-derived from fingerprints — so both indexes must
        use the same strategy (and key parameters).
        """

    def _check_mergeable(self, other: "FingerprintIndex") -> None:
        if type(other) is not type(self):
            raise IndexError_(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}; shard stores must share one index "
                f"strategy"
            )

    def __len__(self) -> int:
        return self._size


class ArrayIndex(FingerprintIndex):
    """Naive full scan: every stored basis is a candidate."""

    strategy = "array"

    def __init__(self) -> None:
        super().__init__()
        self._ids: List[int] = []

    def dump_state(self) -> dict:
        return {"ids": [int(i) for i in self._ids]}

    @classmethod
    def restore_state(cls, state: dict) -> "ArrayIndex":
        index = cls()
        index._ids = [int(i) for i in state["ids"]]
        index._size = len(index._ids)
        return index

    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        self._ids.append(basis_id)
        self._size += 1

    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        return list(self._ids)

    def candidates_batch(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[int]]:
        # No keys to vectorize: every probe scans every stored basis.
        return [list(self._ids) for _ in fingerprints]

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        try:
            self._ids.remove(basis_id)
        except ValueError:
            raise IndexError_(
                f"basis {basis_id} is not in this index"
            ) from None
        self._size -= 1

    def merge(
        self, other: FingerprintIndex, id_map: Mapping[int, int]
    ) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ArrayIndex)
        adopted = [id_map[i] for i in other._ids if i in id_map]
        self._ids.extend(adopted)
        self._size += len(adopted)


class NormalizationIndex(FingerprintIndex):
    """Hash lookup on the affine normal form (first two distinct entries
    mapped to 0 and 1).

    Two fingerprints related by a linear map share their normal form, so a
    single hash probe finds all linear-mappable candidates.  Normal-form
    entries are rounded (see :mod:`repro.core.fingerprint`), so fingerprints
    within arithmetic noise of each other land in the same bucket.
    """

    strategy = "normalization"

    def __init__(self, rel_tol: float = DEFAULT_REL_TOL):
        super().__init__()
        # Coerce so integer tolerances survive the hex snapshot codec
        # (``int.hex`` does not exist; ``float.hex`` does).
        self._rel_tol = float(rel_tol)
        self._buckets: Dict[Tuple[float, ...], List[int]] = {}

    def dump_state(self) -> dict:
        # Bucket keys are rounded floats; hex encoding keeps the round
        # trip bitwise, and the bucket list order (dict insertion order)
        # is preserved verbatim.
        return {
            "rel_tol": float(self._rel_tol).hex(),
            "buckets": [
                [[value.hex() for value in key], [int(i) for i in ids]]
                for key, ids in self._buckets.items()
            ],
        }

    @classmethod
    def restore_state(cls, state: dict) -> "NormalizationIndex":
        index = cls(rel_tol=float.fromhex(state["rel_tol"]))
        for key, ids in state["buckets"]:
            bucket = [int(i) for i in ids]
            index._buckets[
                tuple(float.fromhex(value) for value in key)
            ] = bucket
            index._size += len(bucket)
        return index

    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        key = fingerprint.normal_form(self._rel_tol)
        self._buckets.setdefault(key, []).append(basis_id)
        self._size += 1

    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        key = fingerprint.normal_form(self._rel_tol)
        return list(self._buckets.get(key, ()))

    def candidates_batch(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[int]]:
        keys = batch_normal_forms(list(fingerprints), self._rel_tol)
        return [list(self._buckets.get(key, ())) for key in keys]

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        key = fingerprint.normal_form(self._rel_tol)
        _remove_from_bucket(self._buckets, key, basis_id)
        self._size -= 1

    def merge(
        self, other: FingerprintIndex, id_map: Mapping[int, int]
    ) -> None:
        self._check_mergeable(other)
        assert isinstance(other, NormalizationIndex)
        if other._rel_tol != self._rel_tol:
            raise IndexError_(
                "cannot merge normalization indexes with different "
                "rel_tol values: their bucket keys are incompatible"
            )
        for key, ids in other._buckets.items():
            adopted = [id_map[i] for i in ids if i in id_map]
            if adopted:
                self._buckets.setdefault(key, []).extend(adopted)
                self._size += len(adopted)


class SortedSIDIndex(FingerprintIndex):
    """Hash lookup on the sorted sample-identifier sequence.

    Monotone increasing maps preserve the value ordering of entries, so two
    mappable fingerprints share their SID sequence; decreasing maps reverse
    it, so the probe also checks the reversed key (paper: "comparing both
    the SID sequence and its inverse").
    """

    strategy = "sorted_sid"

    def __init__(self) -> None:
        super().__init__()
        self._buckets: Dict[Tuple[int, ...], List[int]] = {}

    def dump_state(self) -> dict:
        return {
            "buckets": [
                [[int(entry) for entry in key], [int(i) for i in ids]]
                for key, ids in self._buckets.items()
            ],
        }

    @classmethod
    def restore_state(cls, state: dict) -> "SortedSIDIndex":
        index = cls()
        for key, ids in state["buckets"]:
            bucket = [int(i) for i in ids]
            index._buckets[tuple(int(entry) for entry in key)] = bucket
            index._size += len(bucket)
        return index

    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        self._buckets.setdefault(fingerprint.sid_order(), []).append(basis_id)
        self._size += 1

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        # Ids are inserted under the ascending key only; the descending
        # probe key is a lookup-time alias, so one excision suffices.
        _remove_from_bucket(self._buckets, fingerprint.sid_order(), basis_id)
        self._size -= 1

    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        return self._candidates_for(
            fingerprint.sid_order(), fingerprint.sid_order(descending=True)
        )

    def candidates_batch(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[int]]:
        probes = list(fingerprints)
        ascending = batch_sid_orders(probes)
        descending = batch_sid_orders(probes, descending=True)
        return [
            self._candidates_for(asc, desc)
            for asc, desc in zip(ascending, descending)
        ]

    def _candidates_for(
        self,
        ascending_key: Tuple[int, ...],
        descending_key: Tuple[int, ...],
    ) -> List[int]:
        ascending = self._buckets.get(ascending_key, ())
        if descending_key == ascending_key:
            # Fully tied fingerprints: both orders name the same bucket, so
            # the dedup pass would drop every descending entry anyway.
            return list(ascending)
        descending = self._buckets.get(descending_key, ())
        # An id lives under exactly one insertion key, so with distinct
        # probe keys the buckets are disjoint and the common ascending-only
        # (or descending-only) probe needs no set/merge work at all.
        if not descending:
            return list(ascending)
        if not ascending:
            return list(descending)
        merged = list(ascending)
        seen = set(merged)
        merged.extend(b for b in descending if b not in seen)
        return merged

    def merge(
        self, other: FingerprintIndex, id_map: Mapping[int, int]
    ) -> None:
        self._check_mergeable(other)
        assert isinstance(other, SortedSIDIndex)
        for key, ids in other._buckets.items():
            adopted = [id_map[i] for i in ids if i in id_map]
            if adopted:
                self._buckets.setdefault(key, []).extend(adopted)
                self._size += len(adopted)


INDEX_STRATEGIES = ("array", "normalization", "sorted_sid")

#: Strategy name -> index class, for snapshot restore (``repro.core.
#: persist``) and anything else that needs to rebuild an index variant
#: from its recorded identity.
STRATEGY_CLASSES: Dict[str, type] = {
    ArrayIndex.strategy: ArrayIndex,
    NormalizationIndex.strategy: NormalizationIndex,
    SortedSIDIndex.strategy: SortedSIDIndex,
}


def make_index(strategy: str) -> FingerprintIndex:
    """Factory: build a fingerprint index by strategy name."""
    normalized = strategy.lower().replace("-", "_").replace(" ", "_")
    if normalized == "array":
        return ArrayIndex()
    if normalized == "normalization":
        return NormalizationIndex()
    if normalized in ("sorted_sid", "sid"):
        return SortedSIDIndex()
    raise IndexError_(
        f"unknown index strategy {strategy!r}; choose from {INDEX_STRATEGIES}"
    )

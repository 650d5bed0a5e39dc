"""Unit tests for the basis-distribution store (paper Algorithm 3)."""

import numpy as np
import pytest

from repro.core.basis import BasisStore
from repro.core.estimator import Estimator
from repro.core.fingerprint import Fingerprint
from repro.core.index import ArrayIndex
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
)
from repro.util.timing import FakeClock, use_clock


def affine_fp(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


BASE_FP = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
BASE_SAMPLES = np.linspace(-1.0, 2.0, 50)


class TestAddAndMatch:
    def test_empty_store_matches_nothing(self):
        store = BasisStore()
        assert store.match(BASE_FP) is None
        assert len(store) == 0

    def test_added_basis_matches_itself(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        matched = store.match(BASE_FP)
        assert matched is not None
        basis, mapping = matched
        assert isinstance(mapping, AffineMapping)
        assert mapping.is_identity
        assert basis.fingerprint == BASE_FP

    def test_affine_image_matches_with_mapping(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        probe = affine_fp(BASE_FP, 2.0, 1.0)
        basis, mapping = store.match(probe)
        assert mapping.alpha == pytest.approx(2.0)
        assert mapping.beta == pytest.approx(1.0)

    def test_unrelated_fingerprint_does_not_match(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        assert store.match(Fingerprint((0.0, 1.0, 0.9, 0.1, 0.2))) is None

    def test_ids_are_sequential(self):
        store = BasisStore()
        first = store.add(BASE_FP, BASE_SAMPLES)
        second = store.add(
            Fingerprint((0.0, 1.0, 0.9, 0.1, 0.2)), BASE_SAMPLES
        )
        assert (first.basis_id, second.basis_id) == (0, 1)
        assert store.get(1) is second

    def test_bases_property_sorted(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        store.add(Fingerprint((0.0, 1.0, 0.9, 0.1, 0.2)), BASE_SAMPLES)
        assert [b.basis_id for b in store.bases] == [0, 1]


class TestMetricsFor:
    def test_affine_reuse_uses_closed_form(self):
        store = BasisStore()
        basis = store.add(BASE_FP, BASE_SAMPLES)
        mapping = AffineMapping(3.0, -1.0)
        metrics = store.metrics_for(basis, mapping)
        direct = Estimator().estimate(mapping.apply_array(BASE_SAMPLES))
        assert metrics.expectation == pytest.approx(direct.expectation)
        assert metrics.stddev == pytest.approx(direct.stddev)

    def test_general_mapping_recomputes_from_samples(self):
        store = BasisStore(mapping_family=MonotoneMappingFamily())
        basis = store.add(BASE_FP, BASE_SAMPLES)
        cubed = Fingerprint(tuple(v**3 for v in BASE_FP.values))
        matched = store.match(cubed)
        assert matched is not None
        _, mapping = matched
        metrics = store.metrics_for(basis, mapping)
        assert metrics.count == len(BASE_SAMPLES)


class TestStats:
    def test_counters_track_activity(self):
        store = BasisStore()
        store.match(BASE_FP)
        store.add(BASE_FP, BASE_SAMPLES)
        store.match(affine_fp(BASE_FP, 2.0, 0.0))
        stats = store.stats
        assert stats.lookups == 2
        assert stats.matches == 1
        assert stats.bases_created == 1
        assert stats.candidates_tested >= 1
        assert set(stats.as_dict()) == {
            "lookups",
            "candidates_tested",
            "matches",
            "bases_created",
        }

    def test_match_seconds_reads_the_injectable_clock(self):
        """Each match() and match_batch() call reads the clock exactly
        twice, so under a FakeClock the total is one tick per call."""
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        probes = [BASE_FP, affine_fp(BASE_FP, 2.0, 1.0), Fingerprint((3.0,))]
        with use_clock(FakeClock(tick=0.25)):
            store.match(BASE_FP)
            assert store.stats.match_seconds == 0.25
            store.match_batch(probes)
            assert store.stats.match_seconds == 0.5
            store.match(Fingerprint((9.0, 1.0, 7.0, 3.0, 5.0)))
        assert store.stats.match_seconds == 0.75


class TestExtendBasis:
    def test_extension_updates_metrics(self):
        store = BasisStore()
        basis = store.add(BASE_FP, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        before = basis.metrics.count
        store.extend_basis(basis.basis_id, np.array([6.0, 7.0]))
        assert store.get(basis.basis_id).metrics.count == before + 2
        assert store.get(basis.basis_id).metrics.maximum == 7.0


class TestFamilyIndexInteraction:
    def test_identity_family_falls_back_to_array_index(self):
        store = BasisStore(mapping_family=IdentityMappingFamily())
        assert isinstance(store.index, ArrayIndex)

    def test_explicit_index_respected(self):
        index = ArrayIndex()
        store = BasisStore(
            mapping_family=LinearMappingFamily(), index=index
        )
        assert store.index is index

    def test_identity_family_still_matches_equal(self):
        store = BasisStore(mapping_family=IdentityMappingFamily())
        store.add(BASE_FP, BASE_SAMPLES)
        matched = store.match(Fingerprint(BASE_FP.values))
        assert matched is not None
        _, mapping = matched
        assert mapping.is_identity

    def test_identity_family_rejects_affine_image(self):
        store = BasisStore(mapping_family=IdentityMappingFamily())
        store.add(BASE_FP, BASE_SAMPLES)
        assert store.match(affine_fp(BASE_FP, 2.0, 0.0)) is None

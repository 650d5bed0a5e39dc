"""Property-based tests for the basis store and its indexes.

The store-level guarantee (paper section 3.2): for the linear family, an
index never causes a *false negative* for mappable fingerprints, and
metrics obtained via reuse equal metrics computed directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import BasisStore
from repro.core.estimator import Estimator
from repro.core.fingerprint import Fingerprint
from repro.core.index import make_index
from repro.core.mapping import LinearMappingFamily

# Rounded to 2 decimals: see test_prop_fingerprint.py for why.
moderate_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 2))

fingerprints = st.lists(moderate_floats, min_size=4, max_size=10).map(
    lambda vs: Fingerprint(tuple(vs))
)

alphas = st.floats(min_value=0.1, max_value=20.0).map(
    lambda a: round(a, 3)
).flatmap(
    lambda a: st.sampled_from([a, -a])
)
betas = st.floats(min_value=-50.0, max_value=50.0).map(lambda v: round(v, 2))

strategies = st.sampled_from(["array", "normalization", "sorted_sid"])


class TestNoFalseNegatives:
    @given(
        fp=fingerprints, alpha=alphas, beta=betas, strategy=strategies
    )
    @settings(max_examples=200)
    def test_affine_probe_always_matches(self, fp, alpha, beta, strategy):
        store = BasisStore(
            mapping_family=LinearMappingFamily(),
            index=make_index(strategy),
        )
        samples = np.asarray(fp.values, dtype=float)
        store.add(fp, samples)
        probe = Fingerprint(tuple(alpha * v + beta for v in fp.values))
        assert store.match(probe) is not None

    @given(fp=fingerprints, strategy=strategies)
    @settings(max_examples=100)
    def test_self_probe_always_matches(self, fp, strategy):
        store = BasisStore(index=make_index(strategy))
        store.add(fp, np.asarray(fp.values))
        assert store.match(fp) is not None


class TestReuseCorrectness:
    @given(fp=fingerprints, alpha=alphas, beta=betas)
    @settings(max_examples=100)
    def test_remapped_metrics_equal_direct_metrics(self, fp, alpha, beta):
        store = BasisStore()
        samples = np.asarray(fp.values, dtype=float)
        basis = store.add(fp, samples)
        probe = Fingerprint(tuple(alpha * v + beta for v in fp.values))
        matched = store.match(probe)
        assert matched is not None
        _, mapping = matched
        reused = store.metrics_for(basis, mapping)
        direct = Estimator().estimate(mapping.apply_array(samples))
        scale = max(abs(direct.expectation), 1.0)
        assert abs(reused.expectation - direct.expectation) <= 1e-6 * scale
        assert abs(reused.stddev - direct.stddev) <= 1e-6 * scale


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Known quantization-boundary false negative (ROADMAP item 1): "
        "normal-form bucket keys round to 6 decimals, and this fingerprint's "
        "normalized coordinate 4.75/800 sits exactly on the 0.0059375 "
        "rounding boundary — float noise puts the stored basis and its "
        "affine-equivalent probe in different buckets, so the index returns "
        "no candidates.  Fixing it means probing adjacent buckets near "
        "boundaries, which changes the candidates_tested counter contract; "
        "remove this marker when that lands."
    ),
)
def test_normal_form_rounding_boundary_false_negative():
    fp = Fingerprint((0, 2, -798, -2.75))
    store = BasisStore()
    store.add(fp, np.asarray(fp.values, dtype=float))
    probe = Fingerprint(tuple(0.102 * v for v in fp.values))
    assert store.match(probe) is not None


class TestIndexSupersetInvariant:
    @given(
        stored=st.lists(fingerprints, min_size=1, max_size=8, unique_by=repr),
        probe=fingerprints,
        strategy=strategies,
    )
    @settings(max_examples=100)
    def test_candidates_contain_every_true_match(
        self, stored, probe, strategy
    ):
        """Whatever the index prunes, it must keep every basis the full scan
        would have matched."""
        family = LinearMappingFamily()
        index = make_index(strategy)
        same_size = [fp for fp in stored if fp.size == probe.size]
        for basis_id, fp in enumerate(same_size):
            index.insert(fp, basis_id)
        candidates = set(index.candidates(probe))
        for basis_id, fp in enumerate(same_size):
            if family.find(fp, probe) is not None:
                assert basis_id in candidates

"""Batched vs scalar FindMatch parity (the columnar engine's invariant).

The columnar match engine must return, for every probe, the same basis id,
the same mapping parameters, and the same candidates-tested counters as the
scalar reference loop — first-match-wins tie-breaking included — across
every mapping family, index strategy, and store shape.  These tests force
the vectorized path (``columnar_min_candidates = 0``, self-verification
exhausted) and compare against stores built with ``columnar=False``.
"""

import numpy as np
import pytest

from repro.core.basis import BasisStore, MatchResult
from repro.core.columnar import CandidateKeys
from repro.core.fingerprint import (
    Fingerprint,
    batch_normal_forms,
    batch_sid_orders,
)
from repro.core.index import INDEX_STRATEGIES, SortedSIDIndex
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
    PiecewiseLinearMapping,
    ScaleMappingFamily,
    ShiftMappingFamily,
    _NegatedPiecewise,
)

FAMILY_FACTORIES = {
    "linear": LinearMappingFamily,
    "identity": IdentityMappingFamily,
    "shift": ShiftMappingFamily,
    "scale": ScaleMappingFamily,
    "monotone": MonotoneMappingFamily,
}

BASE = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
SAMPLES = np.linspace(-1.0, 2.0, 40)
#: A larger store: 24 seeded random rows, so candidate lists are long.
RANDOM_ROWS = np.random.default_rng(20110614).standard_normal((24, 5))


def _affine(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


def _cubic(fp):
    return Fingerprint(tuple(v**3 for v in fp.values))


#: Store contents: name -> list of fingerprints added in order.
CONTENTS = {
    "empty": [],
    "singleton": [BASE],
    "duplicates": [BASE, Fingerprint(BASE.values), _affine(BASE, 1.0, 0.0)],
    "mixed": [
        BASE,
        _affine(BASE, 2.0, 3.0),
        _cubic(BASE),
        Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)),  # constant
        Fingerprint((0.0, 0.0, 0.0, 0.0, 0.0)),  # zero
        Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),  # other size
        _affine(BASE, -1.5, 0.25),
    ],
    "random": [Fingerprint(row) for row in RANDOM_ROWS],
}

#: Probes covering every family's accept/reject cases plus size mismatches.
PROBES = [
    BASE,
    _affine(BASE, 1.0, 0.0),
    _affine(BASE, 3.0, -2.0),
    _affine(BASE, 1.0, 4.5),  # pure shift
    _affine(BASE, 2.5, 0.0),  # pure scale
    _affine(BASE, -2.0, 1.0),  # decreasing affine
    _cubic(BASE),  # monotone, not affine
    Fingerprint(tuple(-(v**3) for v in BASE.values)),  # decreasing monotone
    Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)),  # constant hit
    Fingerprint((7.5, 7.5, 7.5, 7.5, 7.5)),  # constant shift image
    Fingerprint((0.0, 0.0, 0.0, 0.0, 0.0)),  # zero
    Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)),  # unrelated: miss
    Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),  # other size, exact
    Fingerprint((2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)),  # other size, 2x
    # Images of the random rows deep in a long candidate list.
    Fingerprint(RANDOM_ROWS[17]),  # exact
    Fingerprint(1.5 * RANDOM_ROWS[9] + 1.0),  # affine
    Fingerprint(RANDOM_ROWS[21] - 2.0),  # shift
    Fingerprint(1.5 * RANDOM_ROWS[13]),  # scale
    Fingerprint(RANDOM_ROWS[11] ** 3),  # monotone
    Fingerprint(RANDOM_ROWS[5] + np.array([0.0, 0.0, 0.37, 0.0, 0.0])),  # miss
]


def build_store(family_name, strategy, content_name, columnar):
    store = BasisStore(
        mapping_family=FAMILY_FACTORIES[family_name](),
        index_strategy=strategy,
        columnar=columnar,
    )
    if columnar:
        store.columnar_min_candidates = 0
        store._verify_remaining = 0  # parity is asserted here, not masked
    for fingerprint in CONTENTS[content_name]:
        store.add(fingerprint, SAMPLES)
    return store


def assert_same_match(expected, actual):
    assert (expected is None) == (actual is None)
    if expected is None:
        return
    assert actual.basis.basis_id == expected.basis.basis_id
    assert type(actual.mapping) is type(expected.mapping)
    assert actual.mapping == expected.mapping


class TestMatchParity:
    @pytest.mark.parametrize("content_name", sorted(CONTENTS))
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_match_and_match_batch_agree_with_scalar(
        self, family_name, strategy, content_name
    ):
        reference = build_store(family_name, strategy, content_name, False)
        single = build_store(family_name, strategy, content_name, True)
        batched = build_store(family_name, strategy, content_name, True)
        assert single.columnar_enabled

        expected = [reference.match(probe) for probe in PROBES]
        actual = [single.match(probe) for probe in PROBES]
        via_batch = batched.match_batch(PROBES)

        for want, got_single, got_batch in zip(expected, actual, via_batch):
            assert_same_match(want, got_single)
            assert_same_match(want, got_batch)
        assert single.stats.as_dict() == reference.stats.as_dict()
        assert batched.stats.as_dict() == reference.stats.as_dict()

    def test_wrong_size_candidates_are_counted(self):
        """The array scan visits (and counts) untestable sizes, both paths."""
        reference = build_store("linear", "array", "mixed", False)
        columnar = build_store("linear", "array", "mixed", True)
        probe = Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
        want = reference.match(probe)
        got = columnar.match(probe)
        assert_same_match(want, got)
        # Candidate list holds all 7 bases; the size-7 basis sits at
        # position 5, so exactly 6 candidates are tested either way.
        assert reference.stats.candidates_tested == 6
        assert columnar.stats.candidates_tested == 6

    def test_match_returns_namedtuple(self):
        store = build_store("linear", "array", "singleton", True)
        matched = store.match(_affine(BASE, 2.0, 1.0))
        assert isinstance(matched, MatchResult)
        basis, mapping = matched  # tuple unpacking stays supported
        assert basis.basis_id == 0
        assert mapping == AffineMapping(2.0, 1.0)

    def test_scalar_cutover_threshold_is_transparent(self):
        """Below the candidate threshold the scalar loop answers; results
        and counters cannot depend on which path ran."""
        forced = build_store("linear", "array", "mixed", True)
        lazy = build_store("linear", "array", "mixed", True)
        lazy.columnar_min_candidates = 10_000  # always scalar
        for probe in PROBES:
            assert_same_match(lazy.match(probe), forced.match(probe))
        assert lazy.stats.as_dict() == forced.stats.as_dict()


NAN, INF = float("nan"), float("inf")

#: Stored fingerprints with a non-finite entry; none may ever be matched.
NON_FINITE_BASES = [
    Fingerprint((1.0, NAN, 3.0, 4.0, 5.0)),
    Fingerprint((1.0, INF, 3.0, 4.0, 5.0)),
    Fingerprint((-INF, 0.0, 1.0, 2.0, 3.0)),
]

#: Non-finite probes (none may ever match) and finite probes that a
#: NaN/inf tolerance would pair with a non-finite basis.
NON_FINITE_PROBES = [
    Fingerprint((7.0, NAN, -3.0, 100.0, 0.5)),
    Fingerprint((1.0, NAN, 3.0, 4.0, 5.0)),
    Fingerprint((INF, 1.0, 2.0, 3.0, 4.0)),
    Fingerprint((2.0, -INF, 6.0, 8.0, 10.0)),
    Fingerprint((NAN,) * 5),
]
FINITE_PROBES = [
    Fingerprint((5.0, 5.0, 5.0, 5.0, 5.0)),
    Fingerprint((0.0, 0.0, 0.0, 0.0, 0.0)),
    _affine(BASE, 2.0, 1.0),
]


# Stored NaN/inf rows still pass through the vectorized arithmetic.
@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestNonFiniteNeverMatches:
    """A NaN or inf entry makes every family's tolerance NaN/inf, under
    which a bogus mapping would be accepted (e.g. the probe
    ``(7, nan, -3, 100, 0.5)`` onto ``(1, nan, 3, 4, 5)`` by ``x + 6``).
    Non-finite fingerprints must never match and never be matched."""

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_match_and_match_batch(self, family_name, strategy, columnar):
        stores = []
        for _ in range(2):
            store = build_store(family_name, strategy, "mixed", columnar)
            for fingerprint in NON_FINITE_BASES:
                store.add(fingerprint, SAMPLES)
            stores.append(store)
        single, batched = stores
        probes = NON_FINITE_PROBES + FINITE_PROBES
        results = [single.match(probe) for probe in probes]
        via_batch = batched.match_batch(probes)
        for probe, got_single, got_batch in zip(probes, results, via_batch):
            assert_same_match(got_single, got_batch)
            if not probe.finite:
                assert got_single is None, probe
            elif got_single is not None:
                assert got_single.basis.fingerprint.finite, probe
        assert single.stats.as_dict() == batched.stats.as_dict()


class TestMergeParity:
    LEFT = [BASE, _cubic(BASE), Fingerprint((3.0, 3.0, 3.0, 3.0, 3.0))]
    RIGHT = [
        _affine(BASE, 4.0, -1.0),  # collapses into BASE under linear
        Fingerprint((0.2, 0.7, 0.1, 0.9, 0.4)),  # new basis
        Fingerprint(BASE.values),  # duplicate of BASE
    ]

    def _filled(self, fingerprints, family_name, strategy, columnar):
        store = BasisStore(
            mapping_family=FAMILY_FACTORIES[family_name](),
            index_strategy=strategy,
            columnar=columnar,
        )
        if columnar:
            store.columnar_min_candidates = 0
            store._verify_remaining = 0
        for fingerprint in fingerprints:
            store.add(fingerprint, SAMPLES)
        return store

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_reprobe_merge_matches_scalar_merge(self, family_name, strategy):
        ref_left = self._filled(self.LEFT, family_name, strategy, False)
        ref_right = self._filled(self.RIGHT, family_name, strategy, False)
        col_left = self._filled(self.LEFT, family_name, strategy, True)
        col_right = self._filled(self.RIGHT, family_name, strategy, True)

        expected = ref_left.merge(ref_right)
        actual = col_left.merge(col_right)

        assert set(actual) == set(expected)
        for incoming_id in expected:
            want_id, want_mapping = expected[incoming_id]
            got_id, got_mapping = actual[incoming_id]
            assert got_id == want_id
            assert got_mapping == want_mapping
        assert len(col_left) == len(ref_left)
        assert col_left.stats.as_dict() == ref_left.stats.as_dict()
        # The merged columnar store still answers probes like the scalar one.
        for probe in PROBES:
            assert_same_match(ref_left.match(probe), col_left.match(probe))
        assert col_left.stats.as_dict() == ref_left.stats.as_dict()

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_verbatim_merge_adopts_columnar_matrices(self, strategy):
        ref_left = self._filled(self.LEFT, "linear", strategy, False)
        ref_right = self._filled(self.RIGHT, "linear", strategy, False)
        col_left = self._filled(self.LEFT, "linear", strategy, True)
        col_right = self._filled(self.RIGHT, "linear", strategy, True)

        expected = ref_left.merge(ref_right, reprobe=False)
        actual = col_left.merge(col_right, reprobe=False)
        assert actual == expected
        assert len(col_left.columnar) == len(col_left)
        for probe in PROBES:
            assert_same_match(ref_left.match(probe), col_left.match(probe))
        assert col_left.stats.as_dict() == ref_left.stats.as_dict()


class TestSelfVerification:
    class _LyingLinearFamily(LinearMappingFamily):
        """Claims no candidate ever matches (a broken vectorized kernel)."""

        def find_matrix(self, sources, target, rel_tol=1e-9, abs_tol=1e-12,
                        keys=None):
            plausible, build = super().find_matrix(
                sources, target, rel_tol, abs_tol, keys
            )
            return np.zeros_like(plausible), build

    def test_disagreement_warns_and_falls_back(self):
        store = BasisStore(
            mapping_family=self._LyingLinearFamily(), index_strategy="array"
        )
        store.columnar_min_candidates = 0
        store.add(BASE, SAMPLES)
        probe = _affine(BASE, 2.0, 1.0)
        with pytest.warns(RuntimeWarning, match="columnar FindMapping"):
            matched = store.match(probe)
        # The scalar reference answer is served and the store degrades.
        assert matched is not None
        assert matched.mapping == AffineMapping(2.0, 1.0)
        assert store.columnar_enabled is False
        assert store.match(probe) is not None  # scalar path from now on
        assert store.stats.matches == 2

    def test_agreement_keeps_columnar_enabled(self):
        store = BasisStore(index_strategy="array")
        store.columnar_min_candidates = 0
        store.add(BASE, SAMPLES)
        for _ in range(6):  # beyond VERIFY_LOOKUPS
            assert store.match(_affine(BASE, 2.0, 1.0)) is not None
        assert store.columnar_enabled is True

    def test_columnar_false_forces_scalar(self):
        store = BasisStore(columnar=False)
        store.add(BASE, SAMPLES)
        assert store.columnar_enabled is False
        assert store.match(_affine(BASE, 2.0, 1.0)) is not None


class TestBatchedKeys:
    def test_batch_normal_forms_bitwise_equal(self):
        values = [
            BASE.values,
            (5.0, 5.0, 5.0, 5.0, 5.0),
            (-2.0, 0.0, 1.0, 0.5, 3.0),
            (0.0, 0.0, 0.0, 0.0, 0.0),
            (1.0, 2.0, 3.0),
        ]
        fresh = [Fingerprint(v) for v in values]
        batched = batch_normal_forms(fresh)
        scalar = [Fingerprint(v).normal_form() for v in values]
        assert batched == scalar

    def test_batch_sid_orders_bitwise_equal(self):
        values = [
            BASE.values,
            (5.0, 5.0, 5.0, 5.0, 5.0),
            (3.0, 1.0, 2.0, 1.0, 0.0),  # ties break by ascending index
            (1.0, 2.0, 3.0),
        ]
        for descending in (False, True):
            fresh = [Fingerprint(v) for v in values]
            batched = batch_sid_orders(fresh, descending=descending)
            scalar = [
                Fingerprint(v).sid_order(descending=descending)
                for v in values
            ]
            assert batched == scalar

    def test_candidates_batch_matches_candidates(self):
        for strategy in INDEX_STRATEGIES:
            store = build_store("linear", strategy, "mixed", True)
            per_probe = [store.index.candidates(p) for p in PROBES]
            batched = store.index.candidates_batch(PROBES)
            assert batched == per_probe

    def test_columnar_key_matrices_mirror_fingerprint_keys(self):
        """The parallel SID-order and normal-form key matrices must hold,
        row for row, exactly the keys the hash indexes inserted — that is
        what makes pruning on them sound."""
        store = build_store("linear", "array", "mixed", True)
        blocks = store.columnar._blocks
        assert sum(block.count for block in blocks.values()) == len(store)
        for block in blocks.values():
            sid_rows = block.sid_matrix()
            nf_rows = block.nf_matrix(store.rel_tol)
            for row, fingerprint in enumerate(block.fingerprints):
                assert tuple(sid_rows[row]) == fingerprint.sid_order()
                assert (
                    tuple(nf_rows[row])
                    == fingerprint.normal_form(store.rel_tol)
                )
        # The gathered per-candidate view families receive sees the same.
        block = blocks[BASE.size]
        keys = CandidateKeys(block, np.arange(block.count))
        np.testing.assert_array_equal(keys.sid_asc(), block.sid_matrix())
        np.testing.assert_array_equal(
            keys.normal_forms(store.rel_tol), block.nf_matrix(store.rel_tol)
        )


class TestSortedSIDFastPaths:
    def test_ascending_only_probe(self):
        index = SortedSIDIndex()
        index.insert(BASE, 0)
        index.insert(_affine(BASE, 2.0, 0.0), 1)
        assert index.candidates(BASE) == [0, 1]

    def test_descending_only_probe(self):
        index = SortedSIDIndex()
        index.insert(BASE, 0)
        probe = _affine(BASE, -1.0, 0.0)
        assert index.candidates(probe) == [0]

    def test_tied_fingerprint_probes_one_bucket_once(self):
        index = SortedSIDIndex()
        constant = Fingerprint((2.0, 2.0, 2.0))
        index.insert(constant, 0)
        # asc and desc keys coincide for fully tied entries; the candidate
        # list must not duplicate the bucket.
        assert constant.sid_order() == constant.sid_order(descending=True)
        assert index.candidates(Fingerprint((7.0, 7.0, 7.0))) == [0]

    def test_mixed_buckets_preserve_order_and_dedup(self):
        index = SortedSIDIndex()
        index.insert(BASE, 0)
        index.insert(_affine(BASE, -3.0, 1.0), 1)
        # Ascending bucket first, then the descending bucket's entries.
        assert index.candidates(BASE) == [0, 1]
        assert index.candidates(_affine(BASE, -1.0, 0.0)) == [1, 0]


class TestPiecewiseApplyArray:
    MAPPING = PiecewiseLinearMapping(
        (0.0, 0.5, 1.25, 3.0), (1.0, -0.5, 2.0, 2.5)
    )

    def test_bitwise_equal_to_scalar_apply(self):
        values = np.concatenate(
            [
                np.linspace(-2.0, 5.0, 113),  # interior + both extrapolations
                np.asarray(self.MAPPING.knots_x),  # exact knot hits
            ]
        )
        expected = np.array(
            [self.MAPPING.apply(float(v)) for v in values], dtype=float
        )
        actual = self.MAPPING.apply_array(values)
        assert actual.dtype == np.float64
        np.testing.assert_array_equal(actual, expected)

    def test_negated_piecewise_bitwise(self):
        negated = _NegatedPiecewise(self.MAPPING)
        values = np.linspace(-1.0, 4.0, 57)
        expected = np.array([negated.apply(float(v)) for v in values])
        np.testing.assert_array_equal(negated.apply_array(values), expected)

    def test_empty_input(self):
        assert self.MAPPING.apply_array(np.empty(0)).shape == (0,)

"""The unified Session facade and its typed message vocabulary.

Pins the api_redesign contract: one surface (:class:`repro.api.Session`)
behind every warm-start entry point, typed requests answered identically
one-at-a-time and in micro-batches (``handle_batch`` bitwise equals
sequential ``handle``), a lossless hex-float wire codec, and the four
legacy entry points (explorer ``basis_store=``, ScenarioRunner,
InteractiveSession, CLI warm-start flags) delegating without behavior
change.
"""

import numpy as np
import pytest

from repro.api import (
    CompactRequest,
    ErrorResponse,
    EstimateRequest,
    EvictRequest,
    MatchRequest,
    RefineRequest,
    Session,
    ShutdownRequest,
    StatsRequest,
    StatsResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.core.basis import BasisStore
from repro.core.fingerprint import Fingerprint
from repro.errors import ApiError, ProtocolError
from repro.serve import build_fixture_session, build_request_stream

BASE = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
SAMPLES = np.linspace(-1.0, 2.0, 40)


def _affine(fp, alpha, beta):
    return tuple(alpha * v + beta for v in fp.values)


def make_session():
    store = BasisStore()
    store.add(BASE, SAMPLES)
    store.add(Fingerprint(_affine(BASE, 2.0, 3.0)), SAMPLES * 2.0)
    store.add(Fingerprint((9.0, 1.0, 7.0, 3.0, 5.0)), SAMPLES + 1.0)
    return Session(store)


class TestConstruction:
    def test_single_store_becomes_default(self):
        store = BasisStore()
        session = Session(store)
        assert session.store() is store
        assert session.store_names == ["default"]

    def test_named_stores(self):
        stores = {"a": BasisStore(), "b": BasisStore()}
        session = Session(stores)
        assert session.store("a") is stores["a"]
        assert session.store_names == ["a", "b"]

    def test_unknown_store_is_typed_error(self):
        with pytest.raises(ApiError, match="no store named"):
            make_session().store("nope")

    def test_empty_mapping_refused(self):
        with pytest.raises(ApiError):
            Session({})

    def test_create_is_a_cold_start(self):
        session = Session.create()
        assert session.basis_count() == 0

    def test_resolve_basis_store_unwraps(self):
        session = make_session()
        assert session.resolve_basis_store() is session.store()


class TestTypedHandlers:
    def test_match_hit_reports_mapping_and_work(self):
        session = make_session()
        response = session.match(
            MatchRequest(fingerprint=_affine(BASE, 3.0, -2.0))
        )
        assert response.matched
        assert response.basis_id == 0
        assert response.mapping is not None
        assert response.candidates_tested >= 1

    def test_match_miss(self):
        session = make_session()
        response = session.match(
            MatchRequest(fingerprint=(0.3, 0.1, 0.9, 0.2, 0.8))
        )
        assert not response.matched
        assert response.basis_id is None

    def test_estimate_hit_carries_remapped_metrics(self):
        session = make_session()
        response = session.estimate(
            EstimateRequest(fingerprint=_affine(BASE, 2.0, 0.0))
        )
        assert response.matched
        store = session.store()
        expected = store.metrics_for(
            store.get(response.basis_id), response.mapping
        )
        assert response.metrics == expected

    def test_refine_extends_the_basis(self):
        session = make_session()
        before = session.store().get(1).samples.size
        response = session.refine(
            RefineRequest(basis_id=1, samples=(0.5, -0.25, 1.5))
        )
        assert response.basis_id == 1
        assert response.sample_count == before + 3
        assert session.store().get(1).samples.size == before + 3

    def test_refine_unknown_basis_is_typed_error(self):
        with pytest.raises(ApiError, match="no basis"):
            make_session().refine(
                RefineRequest(basis_id=99, samples=(1.0,))
            )

    def test_refine_needs_samples(self):
        with pytest.raises(ApiError):
            make_session().refine(RefineRequest(basis_id=0, samples=()))

    def test_stats_reports_deterministic_counters(self):
        session = make_session()
        session.match(MatchRequest(fingerprint=BASE.values))
        response = session.stats()
        assert response.bases == {"default": 3}
        counters = response.counters["default"]
        assert counters["lookups"] == 1
        assert counters["matches"] == 1
        assert "match_seconds" not in counters

    def test_handle_converts_typed_errors(self):
        response = make_session().handle(
            RefineRequest(basis_id=99, samples=(1.0,))
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "ApiError"

    def test_handle_unknown_type(self):
        response = make_session().handle(object())
        assert isinstance(response, ErrorResponse)

    def test_handle_shutdown_in_process_acks(self):
        response = make_session().handle(ShutdownRequest(request_id=4))
        assert response.draining
        assert response.request_id == 4


class TestBatchParity:
    """handle_batch == sequential handle, bitwise (the daemon's invariant)."""

    def _stream(self, session, seed):
        return build_request_stream(session, 120, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_mixed_stream_parity(self, seed):
        fixture_kwargs = dict(bases=10, seed=2026)
        serial = build_fixture_session(**fixture_kwargs)
        batched = build_fixture_session(**fixture_kwargs)
        requests = self._stream(serial, seed)
        want = [serial.handle(r) for r in requests]
        got = batched.handle_batch(requests)
        assert got == want
        assert batched.stats() == serial.stats()

    def test_batch_with_errors_and_admin_interleaved(self):
        session = make_session()
        reference = make_session()
        requests = [
            MatchRequest(fingerprint=_affine(BASE, 2.0, 1.0), request_id=0),
            EstimateRequest(
                fingerprint=(1.0, 2.0, 3.0, 4.0, 5.0),
                store="nope",
                request_id=1,
            ),
            RefineRequest(basis_id=0, samples=(0.5,), request_id=2),
            StatsRequest(request_id=3),
            EstimateRequest(fingerprint=BASE.values, request_id=4),
            MatchRequest(fingerprint=(), request_id=5),
        ]
        want = [reference.handle(r) for r in requests]
        got = session.handle_batch(requests)
        assert got == want
        assert isinstance(got[1], ErrorResponse)
        assert isinstance(got[5], ErrorResponse)

    def test_all_invalid_probes_batch_parity(self):
        """A batch where *every* probe is bad must still equal sequential
        handle — and neither path may touch the store (a sequential
        handle never reaches match_batch for a bad request, so the batch
        path must not call it either)."""
        session = make_session()
        reference = make_session()
        before = session.store().stats.as_dict()
        requests = [
            MatchRequest(fingerprint=(), request_id=0),
            EstimateRequest(fingerprint=(), request_id=1),
            MatchRequest(fingerprint=BASE.values, store="nope",
                         request_id=2),
            EstimateRequest(fingerprint=(1.0,), store="nope", request_id=3),
        ]
        want = [reference.handle(r) for r in requests]
        got = session.handle_batch(requests)
        assert got == want
        assert all(isinstance(r, ErrorResponse) for r in got)
        assert session.store().stats.as_dict() == before

    def test_empty_batch(self):
        assert make_session().handle_batch([]) == []


class TestWireCodec:
    """encode/decode round trips are lossless (hex floats end to end)."""

    def test_request_round_trip_bitwise(self):
        tricky = (0.1, 1e-300, -0.0, 3.141592653589793)
        for request in (
            MatchRequest(fingerprint=tricky, request_id=9),
            EstimateRequest(fingerprint=tricky, store="s"),
            RefineRequest(basis_id=3, samples=tricky, request_id=1),
            StatsRequest(request_id=2),
            EvictRequest(max_bases=4, max_bytes=1 << 20, keep="recent",
                         store="s", request_id=5),
            EvictRequest(max_bytes=0),
            CompactRequest(store="s", request_id=6),
            CompactRequest(),
            ShutdownRequest(),
        ):
            assert decode_request(encode_request(request)) == request

    def test_response_round_trip_bitwise(self):
        session = make_session()
        requests = [
            EstimateRequest(
                fingerprint=_affine(BASE, 1.75, -0.3), request_id=0
            ),
            MatchRequest(
                fingerprint=(0.3, 0.1, 0.9, 0.2, 0.8), request_id=1
            ),
            RefineRequest(basis_id=2, samples=(0.125,), request_id=2),
            StatsRequest(request_id=3),
            EvictRequest(max_bases=2, request_id=4),
            CompactRequest(request_id=5),
        ]
        for request in requests:
            response = session.handle(request)
            assert decode_response(encode_response(response)) == response

    def test_stats_decoding_ignores_old_backend_key(self):
        """Older peers sent a per-store ``backend`` descriptor with stats;
        such a document still decodes, to the same response."""
        response = make_session().stats(StatsRequest(request_id=7))
        encoded = encode_response(response)
        assert "backend" not in encoded
        old_peer = dict(encoded, backend={"default": "numpy"})
        assert decode_response(old_peer) == response
        assert decode_response(encoded) == response

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "strategy", ["array", "normalization", "sorted_sid"]
    )
    def test_non_finite_fingerprints_never_match_over_the_wire(
        self, strategy
    ):
        nan, inf = float("nan"), float("inf")
        session = Session.create(index_strategy=strategy)
        store = session.store()
        store.add(BASE, SAMPLES)
        store.add(Fingerprint((1.0, nan, 3.0, 4.0, 5.0)), SAMPLES)
        store.add(Fingerprint((1.0, inf, 3.0, 4.0, 5.0)), SAMPLES)
        requests = [
            MatchRequest(fingerprint=(7.0, nan, -3.0, 100.0, 0.5)),
            EstimateRequest(fingerprint=(1.0, nan, 3.0, 4.0, 5.0)),
            MatchRequest(fingerprint=(inf, 1.0, 2.0, 3.0, 4.0)),
            # Finite, but a NaN tolerance would shift it onto a stored
            # non-finite basis.
            EstimateRequest(fingerprint=(5.0, 5.0, 5.0, 5.0, 5.0)),
            MatchRequest(fingerprint=_affine(BASE, 2.0, 1.0)),
        ]
        wire = [decode_request(encode_request(r)) for r in requests]
        responses = [
            decode_response(encode_response(response))
            for response in session.handle_batch(wire)
        ]
        assert [r.matched for r in responses] == [
            False, False, False, False, True
        ]
        assert responses[-1].basis_id == 0

    def test_unknown_kind_refused(self):
        with pytest.raises(ProtocolError):
            decode_request({"kind": "divine"})
        with pytest.raises(ProtocolError):
            decode_response({"kind": "divine"})

    def test_malformed_request_refused(self):
        with pytest.raises(ProtocolError):
            decode_request({"kind": "match"})  # no fingerprint
        with pytest.raises(ProtocolError):
            decode_request({"kind": "refine", "basis_id": "x", "samples": []})


class TestLegacyEntryPointsDelegate:
    """The four pre-Session warm-start spellings keep working."""

    def test_explorer_accepts_a_session(self):
        from repro.core.explorer import ParameterExplorer

        session = make_session()
        explorer = ParameterExplorer(
            simulation=lambda params, seed: 1.0,
            samples_per_point=12,
            fingerprint_size=4,
            basis_store=session,
        )
        assert explorer.store is session.store()

    def test_parallel_explorer_accepts_a_session(self):
        from repro.core.parallel import ParallelExplorer

        session = make_session()
        explorer = ParallelExplorer(
            simulation=lambda params, seed: 1.0,
            workers=1,
            samples_per_point=12,
            fingerprint_size=4,
            basis_store=session,
        )
        assert explorer.store is session.store()

    def test_interactive_session_accepts_a_session(self):
        from repro.interactive.session import InteractiveSession
        from repro.scenario.parameter import RangeParameter
        from repro.scenario.space import ParameterSpace

        space = ParameterSpace(
            [RangeParameter("x", 0.0, 2.0, 1.0)]
        )
        session = make_session()
        interactive = InteractiveSession(
            simulation=lambda params, seed: 1.0,
            space=space,
            basis_store=session,
        )
        assert interactive.store is session.store()

    def test_interactive_save_load_round_trips_through_session(
        self, tmp_path
    ):
        from repro.interactive.session import InteractiveSession
        from repro.scenario.parameter import RangeParameter
        from repro.scenario.space import ParameterSpace

        space = ParameterSpace([RangeParameter("x", 0.0, 2.0, 1.0)])

        def simulation(params, seed):
            rng = np.random.default_rng(seed)
            return params["x"] + rng.normal()

        first = InteractiveSession(simulation, space)
        first.focus({"x": 1.0})
        first.run(4)
        first.save_store(str(tmp_path / "snap"))

        second = InteractiveSession(simulation, space)
        second.load_store(str(tmp_path / "snap"))
        assert len(second.store) == len(first.store)
        for basis in first.store.bases:
            twin = second.store.get(basis.basis_id)
            assert twin.fingerprint == basis.fingerprint
            np.testing.assert_array_equal(twin.samples, basis.samples)

    def test_session_open_reads_scenario_runner_snapshot(self, tmp_path):
        """Cross-surface: a runner's save_stores loads as a Session."""
        from repro.blackbox import default_registry
        from repro.lang import compile_query

        bound = compile_query(
            "DECLARE PARAMETER @week AS RANGE 0 TO 2 STEP BY 2;\n"
            "SELECT DemandModel(@week, 1) AS demand INTO results;\n",
            default_registry(),
        )
        from repro.scenario import ScenarioRunner

        runner = ScenarioRunner(bound.scenario, samples_per_point=20)
        runner.run()
        runner.save_stores(str(tmp_path / "snap"))

        session = Session.open(str(tmp_path / "snap"))
        assert session.store_names == ["demand"]
        assert session.basis_count() == runner.basis_count()
        response = session.stats()
        assert isinstance(response, StatsResponse)
        assert response.bases["demand"] == runner.basis_count()


class TestSessionPersistence:
    def test_save_open_probe_parity(self, tmp_path):
        session = make_session()
        probes = [
            MatchRequest(fingerprint=_affine(BASE, 2.5, 0.0)),
            EstimateRequest(fingerprint=_affine(BASE, -1.5, 0.25)),
            MatchRequest(fingerprint=(0.3, 0.1, 0.9, 0.2, 0.8)),
        ]
        want = [session.handle(p) for p in probes]
        session.save(str(tmp_path / "snap"))
        # Counters persist, so the warm session continues the sequence.
        warm = Session.open(str(tmp_path / "snap"))
        got = [warm.handle(p) for p in probes]
        for w, g in zip(want, got):
            assert type(w) is type(g)
            assert w.matched == g.matched
            assert w.basis_id == g.basis_id
            assert w.mapping == g.mapping
            assert w.candidates_tested == g.candidates_tested

    def test_open_missing_snapshot_is_typed(self, tmp_path):
        from repro.errors import PersistError

        with pytest.raises(PersistError):
            Session.open(str(tmp_path / "missing"))

"""Scalar-vs-batch parity: the batch engine must be bit-identical.

The batch sampling subsystem's contract is that every vectorized path —
stream seeding, standard draws, black-box sampling, Markov stepping, and
the explorer's reuse decisions — produces *bitwise* the same numbers as the
scalar path it replaces.  These tests enforce that contract for every
built-in box and both Markov models, including the rare ziggurat-rejection
lanes that fall back to per-seed generators.
"""

import warnings

import numpy as np
import pytest

from repro.blackbox import fastrng
from repro.blackbox.base import MarkovModel
from repro.blackbox.capacity import CapacityModel
from repro.blackbox.demand import DemandModel
from repro.blackbox.draws import StandardDrawCache, derived_seed_array_cached
from repro.blackbox.markov_branch import MarkovBranchModel
from repro.blackbox.markov_step import DemandObservedMarkovStep, MarkovStepModel
from repro.blackbox.overload import OverloadModel
from repro.blackbox.rng import DeterministicRng
from repro.blackbox.synth_basis import SynthBasisModel
from repro.blackbox.user_selection import UserSelectionModel
from repro.core import backend
from repro.core.estimator import MetricSet
from repro.core.explorer import NaiveExplorer, ParameterExplorer
from repro.core.markov import MarkovJumpRunner, NaiveMarkovRunner
from repro.core.seeds import SeedBank, derive_seed, derive_seed_array

BANK = SeedBank()
SEEDS = BANK.seed_array(64)


@pytest.fixture()
def rearmed_fast_path():
    """Run a test against a freshly re-armed self-test, then re-arm it
    again so no degrade outlives the test."""
    fastrng.reset_fast_path()
    yield
    fastrng.reset_fast_path()


class TestFastRngStreamParity:
    def test_fast_path_self_test_passes(self):
        assert fastrng.fast_path_available()
        assert fastrng.fast_path_status() == "ok"

    def test_lying_draw_stream_degrades_to_scalar_once(
        self, monkeypatch, rearmed_fast_path
    ):
        """A vector stream that disagrees with per-seed Generators is
        caught by the self-test: one warning, then bitwise answers via
        the scalar path; ``reset_fast_path`` re-arms probe and warning."""
        honest = backend.draw_block

        def lying_draw_block(seeds, kinds):
            out, ok = honest(seeds, kinds)
            return out + 1.0, ok

        monkeypatch.setattr(backend, "draw_block", lying_draw_block)
        kinds = (fastrng.KIND_NORMAL, fastrng.KIND_UNIFORM)
        seeds = np.arange(12, dtype=np.uint64)
        assert fastrng.fast_path_status() == "untested"
        with pytest.warns(RuntimeWarning, match="scalar draw path"):
            matrix = fastrng.draw_matrix(seeds, kinds)
        assert np.array_equal(
            matrix, fastrng._draw_matrix_scalar(seeds, kinds)
        )
        assert fastrng.fast_path_status() == "degraded"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert not fastrng.fast_path_available()
            fastrng.draw_matrix(seeds, kinds)

        fastrng.reset_fast_path()
        assert fastrng.fast_path_status() == "untested"
        with pytest.warns(RuntimeWarning, match="scalar draw path"):
            assert not fastrng.fast_path_available()

    @pytest.mark.parametrize(
        "kinds",
        [
            (fastrng.KIND_UNIFORM,),
            (fastrng.KIND_NORMAL,),
            (fastrng.KIND_EXPONENTIAL,),
            (
                fastrng.KIND_NORMAL,
                fastrng.KIND_EXPONENTIAL,
                fastrng.KIND_EXPONENTIAL,
            ),
            (fastrng.KIND_UNIFORM,) * 6,
        ],
    )
    def test_draw_matrix_matches_deterministic_rng(self, kinds):
        # Enough seeds that ziggurat rejection lanes occur (~1.5%/draw).
        seeds = np.arange(4000, dtype=np.uint64)
        matrix = fastrng.draw_matrix(seeds, kinds)
        draw = {
            fastrng.KIND_UNIFORM: DeterministicRng.standard_uniform,
            fastrng.KIND_NORMAL: DeterministicRng.standard_normal,
            fastrng.KIND_EXPONENTIAL: DeterministicRng.standard_exponential,
        }
        for i in (0, 1, 17, 1234, 3999):
            rng = DeterministicRng(int(seeds[i]))
            expected = [draw[kind](rng) for kind in kinds]
            assert matrix[i].tolist() == expected
        # Every row of the first 3000, bitwise, against per-seed Generators.
        assert np.array_equal(
            matrix[:3000], fastrng._draw_matrix_scalar(seeds[:3000], kinds)
        )

    def test_rejection_lanes_are_bitwise_exact(self):
        seeds = np.arange(30000, dtype=np.uint64)
        fast = fastrng.draw_matrix(seeds, (fastrng.KIND_NORMAL,))[:, 0]
        sample = np.random.default_rng(7).choice(30000, size=400, replace=False)
        for i in sample:
            assert fast[i] == DeterministicRng(int(i)).standard_normal()

    def test_seed_arrays_match_scalar_derivation(self):
        assert [int(s) for s in BANK.seed_array(50)] == BANK.seeds(50)
        matrix = BANK.step_seed_matrix(7, 5, start_step=3)
        for row, step in enumerate(range(3, 8)):
            for i in range(7):
                assert int(matrix[row, i]) == BANK.step_seed(i, step)
        assert int(derive_seed_array(9, np.arange(4))[3]) == derive_seed(9, 3)

    def test_derived_seed_cache_matches_uncached(self):
        derived = derived_seed_array_cached(SEEDS, 2)
        assert np.array_equal(derived, derive_seed_array(SEEDS, 2))
        again = derived_seed_array_cached(SEEDS, 2)
        assert again is derived  # memoized


BOX_CASES = [
    (
        DemandModel(),
        {"current_week": 20.0, "feature_release": 12.0},
    ),
    (
        DemandModel(),
        {"current_week": 5.0, "feature_release": 12.0},
    ),
    (
        CapacityModel(),
        {"current_week": 20.0, "purchase1": 8.0, "purchase2": 16.0},
    ),
    (
        CapacityModel(structure_size=0.0, weekly_failure_rate=0.01),
        {"current_week": 20.0, "purchase1": 8.0, "purchase2": 16.0},
    ),
    (
        OverloadModel(
            capacity=CapacityModel(base_capacity=10.0, purchase_volume=10.0)
        ),
        {"current_week": 30.0, "purchase1": 8.0, "purchase2": 16.0},
    ),
    (SynthBasisModel(basis_count=7), {"point": 23.0}),
    (SynthBasisModel(basis_count=3, work_per_sample=4), {"point": 5.0}),
    (UserSelectionModel(user_count=50), {"current_week": 6.0}),
]


class TestBlackBoxBatchParity:
    @pytest.mark.parametrize(
        "box,params", BOX_CASES, ids=lambda case: getattr(case, "name", "")
    )
    def test_sample_batch_bitwise_equals_scalar_loop(self, box, params):
        batch = box.sample_batch(params, SEEDS)
        scalars = [box.sample(params, int(seed)) for seed in SEEDS]
        assert batch.tolist() == scalars

    def test_batch_and_scalar_count_invocations_equally(self):
        box = DemandModel()
        params = {"current_week": 8.0, "feature_release": 3.0}
        box.sample_batch(params, SEEDS)
        assert box.invocations == len(SEEDS)
        for seed in SEEDS:
            box.sample(params, int(seed))
        assert box.invocations == 2 * len(SEEDS)

    def test_batch_validates_parameters_once(self):
        box = DemandModel()
        with pytest.raises(KeyError):
            box.sample_batch({"current_week": 1.0}, SEEDS)
        assert box.invocations == 0

    def test_scalar_fallback_used_without_native_batch(self):
        class LoopOnly(DemandModel):
            def _sample_batch(self, params, seeds):
                return None

        box = LoopOnly()
        params = {"current_week": 20.0, "feature_release": 12.0}
        assert (
            box.sample_batch(params, SEEDS).tolist()
            == DemandModel().sample_batch(params, SEEDS).tolist()
        )


class _ScalarOnly(MarkovModel):
    """Wrap a Markov model, hiding its vectorized hooks (reference path)."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.name = inner.name

    def initial_state(self):
        return self.inner.initial_state()

    def _step(self, state, step_index, seed):
        return self.inner._step(state, step_index, seed)

    def output(self, state, step_index):
        return self.inner.output(state, step_index)


MARKOV_CASES = [
    MarkovStepModel(),
    DemandObservedMarkovStep(),
    MarkovBranchModel(branching=0.25, work_per_step=2),
]


class TestMarkovBatchParity:
    @pytest.mark.parametrize("model", MARKOV_CASES, ids=lambda m: m.name)
    def test_step_batch_bitwise_equals_scalar_loop(self, model):
        states = np.full(24, model.initial_state())
        states[4:9] = 3.0
        seeds = BANK.step_seed_array(np.arange(24), 11)
        batch = model.step_batch(states, 11, seeds)
        scalars = [
            model.step(float(state), 11, int(seed))
            for state, seed in zip(states, seeds)
        ]
        assert batch.tolist() == scalars

    @pytest.mark.parametrize("model", MARKOV_CASES, ids=lambda m: m.name)
    def test_run_block_with_planned_draws_matches_step_loop(self, model):
        states = np.full(16, model.initial_state())
        seed_matrix = BANK.step_seed_matrix(16, 6, start_step=2)
        draws = model.plan_step_draws(seed_matrix)
        trajectory = model.run_block(states, 2, seed_matrix, draws)
        current = [float(state) for state in states]
        for offset in range(6):
            current = [
                model.step(state, 2 + offset, int(seed))
                for state, seed in zip(current, seed_matrix[offset])
            ]
            assert trajectory[offset].tolist() == current

    @pytest.mark.parametrize("model", MARKOV_CASES, ids=lambda m: m.name)
    def test_output_batch_matches_scalar_output(self, model):
        states = np.linspace(-2.0, 40.0, 9)
        batch = model.output_batch(states, 5)
        assert batch.tolist() == [
            model.output(float(state), 5) for state in states
        ]

    def test_naive_runner_matches_scalar_only_model(self):
        vectorized = NaiveMarkovRunner(
            MarkovBranchModel(branching=0.1), instance_count=40
        ).run(30)
        scalar = NaiveMarkovRunner(
            _ScalarOnly(MarkovBranchModel(branching=0.1)), instance_count=40
        ).run(30)
        assert vectorized.states.tolist() == scalar.states.tolist()
        assert vectorized.step_invocations == scalar.step_invocations
        assert vectorized.full_steps == scalar.full_steps

    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda: MarkovStepModel(),
            lambda: MarkovBranchModel(branching=0.02),
        ],
        ids=["MarkovStep", "MarkovBranch"],
    )
    def test_jump_runner_matches_scalar_only_model(self, model_factory):
        vectorized = MarkovJumpRunner(
            model_factory(), instance_count=60, fingerprint_size=8
        ).run(50)
        scalar = MarkovJumpRunner(
            _ScalarOnly(model_factory()), instance_count=60, fingerprint_size=8
        ).run(50)
        assert vectorized.states.tolist() == scalar.states.tolist()
        assert vectorized.full_steps == scalar.full_steps
        assert [
            (jump.from_step, jump.to_step) for jump in vectorized.jumps
        ] == [(jump.from_step, jump.to_step) for jump in scalar.jumps]
        assert vectorized.step_invocations == scalar.step_invocations


def _strip_batch(box):
    """A scalar-only view of a box: forces the explorer's fallback loop."""

    def simulation(params, seed):
        return box.sample(params, seed)

    return simulation


class TestExplorerBatchParity:
    def _space(self):
        return [
            {"current_week": float(week), "feature_release": 6.0}
            for week in range(12)
        ]

    def test_explorer_reuse_decisions_match_scalar_path(self):
        batch_explorer = ParameterExplorer(
            DemandModel(), samples_per_point=40, fingerprint_size=10
        )
        scalar_explorer = ParameterExplorer(
            _strip_batch(DemandModel()), samples_per_point=40, fingerprint_size=10
        )
        batch_result = batch_explorer.run(self._space())
        scalar_result = scalar_explorer.run(self._space())
        assert batch_result.stats == scalar_result.stats
        for key, batch_point in batch_result.points.items():
            scalar_point = scalar_result.points[key]
            assert batch_point.reused == scalar_point.reused
            assert batch_point.basis_id == scalar_point.basis_id
            assert (
                batch_point.fingerprint.values
                == scalar_point.fingerprint.values
            )
            assert batch_point.metrics == scalar_point.metrics

    def test_naive_explorer_metrics_match_scalar_path(self):
        params = {"current_week": 9.0, "feature_release": 6.0}
        batch = NaiveExplorer(DemandModel(), samples_per_point=50)
        scalar = NaiveExplorer(
            _strip_batch(DemandModel()), samples_per_point=50
        )
        assert batch.explore_point(params) == scalar.explore_point(params)


class TestStandardDrawCache:
    def test_hit_returns_same_matrix(self):
        cache = StandardDrawCache()
        first = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,))
        second = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,))
        assert first is second
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1

    def test_matrices_are_read_only(self):
        cache = StandardDrawCache()
        matrix = cache.matrix(SEEDS, (fastrng.KIND_UNIFORM,))
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_budget_eviction_recomputes_identically(self):
        cache = StandardDrawCache(max_floats=128)
        first = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,)).copy()
        cache.matrix(SEEDS, (fastrng.KIND_UNIFORM,))
        cache.matrix(SEEDS, (fastrng.KIND_EXPONENTIAL,))
        again = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,))
        assert np.array_equal(first, again)

    def test_oversized_requests_are_served_uncached(self):
        cache = StandardDrawCache(max_floats=4)
        matrix = cache.matrix(SEEDS, (fastrng.KIND_UNIFORM,))
        assert matrix.shape == (len(SEEDS), 1)
        assert len(cache) == 0


class TestQueryBatchParity:
    QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 8 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (4);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       demand * 2.0 + 1.0 AS scaled,
       CASE WHEN demand > 8.0 THEN 1 ELSE 0 END AS high
INTO results;
"""

    def _scenario(self):
        from repro.blackbox.base import BlackBoxRegistry
        from repro.lang.binder import compile_query

        registry = BlackBoxRegistry()
        registry.register(DemandModel(), "DemandModel")
        return compile_query(self.QUERY, registry).scenario

    def test_simulate_batch_matches_per_world_simulate(self):
        scenario = self._scenario()
        params = {"current_week": 8.0, "feature_release": 4.0}
        seeds = BANK.seed_array(32)
        columns = scenario.simulate_batch(params, seeds)
        for k, seed in enumerate(seeds):
            row = scenario.simulate(params, int(seed))
            for name, values in columns.items():
                assert float(values[k]) == row[name], (name, k)

    def test_executor_scalar_samples_batch_matches_loop(self):
        from repro.probdb.executor import MonteCarloExecutor

        scenario = self._scenario()
        params = {"current_week": 8.0, "feature_release": 4.0}
        executor = MonteCarloExecutor(world_count=40)
        batched = executor.scalar_samples(scenario.plan, "scaled", params)
        looped = [
            scenario.simulate(params, BANK.seed(index))["scaled"]
            for index in range(40)
        ]
        assert batched.tolist() == looped

    def test_column_simulation_exposes_matching_batch(self):
        scenario = self._scenario()
        params = {"current_week": 8.0, "feature_release": 4.0}
        simulation = scenario.column_simulation("demand")
        seeds = BANK.seed_array(16)
        batch = simulation.sample_batch(params, seeds)
        assert batch.tolist() == [
            simulation(params, int(seed)) for seed in seeds
        ]

    def test_fallback_rolls_back_composite_children_counters(self):
        from repro.blackbox import default_registry
        from repro.probdb import expressions as E
        from repro.probdb.query import Project, SingletonScan

        overload = default_registry().lookup("OverloadModel")
        demand, capacity = overload.component_boxes()
        def counters():
            return (
                overload.invocations,
                demand.invocations,
                capacity.invocations,
            )
        before = counters()
        mid = {}

        class Boom(E.Expression):
            def references(self):
                return ()

            def children(self):
                return ()

            def evaluate(self, context):
                return 0.0

            def evaluate_batch(self, context):
                mid["counters"] = counters()
                raise E.BatchUnsupported("boom")

        call = E.BlackBoxCall(
            box=overload,
            argument_names=("current_week", "purchase1", "purchase2"),
            arguments=(E.Constant(1.0), E.Constant(2.0), E.Constant(3.0)),
        )
        project = Project(
            child=SingletonScan(), items=[("o", call), ("g", Boom())]
        )
        with pytest.raises(E.BatchUnsupported):
            project.execute_batch({}, np.arange(8, dtype=np.uint64))
        # The batch really sampled the composite and its children ...
        assert mid["counters"] == tuple(c + 8 for c in before)
        # ... and the rollback restored every counter, children included.
        assert counters() == before


class TestQuantileTolerantLookup:
    def test_remapped_probability_stays_retrievable(self):
        metrics = MetricSet(
            count=10,
            expectation=0.0,
            stddev=1.0,
            minimum=-1.0,
            maximum=1.0,
            quantiles=((1.0 - 0.95, -1.5), (0.5, 0.0), (0.95, 1.5)),
        )
        # 1.0 - 0.95 = 0.050000000000000044 in IEEE arithmetic; the exact
        # 0.05 the caller asks for must still resolve.
        assert metrics.quantile(0.05) == -1.5
        assert metrics.quantile(0.95) == 1.5

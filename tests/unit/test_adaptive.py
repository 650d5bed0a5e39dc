"""Parity and stopping suite for the adaptive-precision estimation engine.

The adaptive engine's contract (ISSUE 3), modeled on
``test_parallel_parity.py``:

* **Disabled-policy bitwise parity** — with ``adaptive=None`` every path
  is bit-identical to the fixed-budget engine, and a policy that can
  never trigger (cap-sized ``min_samples``) draws the full budget with
  bit-identical metrics despite going through the block-growth loop.
* **Worker invariance** — with the policy enabled, serial and sharded
  sweeps (workers 1/2/4) produce bit-identical metrics, decisions,
  per-point sample counts, and counters.
* **Cap honored** — no point ever exceeds the fixed budget (or a smaller
  ``max_samples``), so adaptive runs are never more expensive.
* **CI width shrinks** — the interval half-width decreases in the sample
  count, and converged points actually meet the requested tolerance.
"""

import math

import numpy as np
import pytest

from repro.bench.workloads import capacity_workload, overload_workload
from repro.blackbox import default_registry
from repro.core import (
    AdaptiveBudget,
    BasisStore,
    Estimator,
    ParameterExplorer,
    ParallelExplorer,
    fixed_budget_samples,
    saved_fraction,
)
from repro.core.adaptive import grow_samples, next_target
from repro.core.mapping import IdentityMappingFamily
from repro.errors import EstimatorError
from repro.interactive import InteractiveSession
from repro.lang import compile_query
from repro.scenario import ScenarioRunner
from repro.scenario.parameter import RangeParameter
from repro.scenario.space import ParameterSpace

WORKER_COUNTS = (1, 2, 4)

POLICY = AdaptiveBudget(rtol=0.05)


def _capacity():
    return capacity_workload(weeks=10, purchase_step=4)


def _serial(adaptive, samples=1000):
    workload = _capacity()
    explorer = ParameterExplorer(
        workload.simulation(),
        samples_per_point=samples,
        fingerprint_size=workload.fingerprint_size,
        adaptive=adaptive,
    )
    return explorer.run(workload.points)


def _parallel(adaptive, workers, samples=1000):
    workload = _capacity()
    explorer = ParallelExplorer(
        workload.simulation(),
        workers=workers,
        samples_per_point=samples,
        fingerprint_size=workload.fingerprint_size,
        adaptive=adaptive,
    )
    return explorer.run(workload.points)


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(EstimatorError):
            AdaptiveBudget(rtol=0.0)
        with pytest.raises(EstimatorError):
            AdaptiveBudget(rtol=0.05, confidence=1.0)
        with pytest.raises(EstimatorError):
            AdaptiveBudget(rtol=0.05, max_samples=0)
        with pytest.raises(EstimatorError):
            AdaptiveBudget(rtol=0.05, min_samples=1)
        with pytest.raises(EstimatorError):
            AdaptiveBudget(rtol=0.05, method="bootstrap")
        with pytest.raises(EstimatorError):
            AdaptiveBudget(rtol=0.05, atol=-1.0)

    def test_z_value_matches_known_quantiles(self):
        assert AdaptiveBudget(rtol=0.1, confidence=0.95).z_value == (
            pytest.approx(1.959964, abs=1e-5)
        )
        assert AdaptiveBudget(rtol=0.1, confidence=0.99).z_value == (
            pytest.approx(2.575829, abs=1e-5)
        )

    def test_cap_defaults_to_fixed_budget(self):
        assert AdaptiveBudget(rtol=0.1).cap(500) == 500
        assert AdaptiveBudget(rtol=0.1, max_samples=100).cap(500) == 100
        assert AdaptiveBudget(rtol=0.1, max_samples=900).cap(500) == 500


class TestDisabledParity:
    """Policy off == the pre-adaptive engine, bitwise."""

    def test_explorer_none_is_bitwise_fixed(self):
        fixed = _serial(adaptive=None)
        again = _serial(adaptive=None)
        assert fixed.stats == again.stats
        for key, point in fixed.points.items():
            assert again.points[key].metrics == point.metrics
            assert again.points[key].samples_drawn == point.samples_drawn

    def test_untriggerable_policy_is_bitwise_fixed(self):
        """A policy whose min_samples equals the cap can never stop early:
        it must draw the full budget through the block loop and land on
        bit-identical metrics and counters (block-wise draws == one-shot
        draw, by the batch engine's per-seed independence)."""
        fixed = _serial(adaptive=None, samples=200)
        blocked = _serial(
            adaptive=AdaptiveBudget(rtol=1e-12, min_samples=200),
            samples=200,
        )
        assert blocked.stats == fixed.stats
        for key, point in fixed.points.items():
            assert blocked.points[key].metrics == point.metrics
            assert blocked.points[key].reused == point.reused
            assert blocked.points[key].basis_id == point.basis_id
            assert (
                blocked.points[key].samples_drawn == point.samples_drawn
            )

    def test_scenario_runner_untriggerable_policy_bitwise(self):
        bound = compile_query(SCENARIO_QUERY, default_registry())
        fixed = ScenarioRunner(bound.scenario, samples_per_point=120).run()
        blocked = ScenarioRunner(
            bound.scenario,
            samples_per_point=120,
            adaptive=AdaptiveBudget(rtol=1e-12, min_samples=120),
        ).run()
        assert blocked.stats == fixed.stats
        assert blocked.metrics == fixed.metrics


class TestWorkerParity:
    """Adaptive decisions are deterministic per seed and shard-invariant."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_explorer_bit_identical_across_workers(self, workers):
        serial = _serial(POLICY)
        parallel = _parallel(POLICY, workers)
        assert parallel.stats == serial.stats
        assert len(parallel) == len(serial)
        for key, point in serial.points.items():
            other = parallel.points[key]
            assert other.metrics == point.metrics
            assert other.reused == point.reused
            assert other.basis_id == point.basis_id
            assert other.samples_drawn == point.samples_drawn

    @pytest.mark.parametrize("workers", (2, 4))
    def test_scenario_runner_across_workers(self, workers):
        bound = compile_query(SCENARIO_QUERY, default_registry())
        serial = ScenarioRunner(
            bound.scenario, samples_per_point=200, adaptive=POLICY
        ).run()
        parallel = ScenarioRunner(
            bound.scenario,
            samples_per_point=200,
            adaptive=POLICY,
            workers=workers,
        ).run()
        assert parallel.stats == serial.stats
        assert parallel.metrics == serial.metrics
        assert parallel.parallel is not None
        assert parallel.parallel.workers == workers

    def test_identity_family_boolean_output(self):
        """Overload's 0/1 column under identity-only matching: the
        Bernstein interval suits bounded indicators; parity must hold."""
        policy = AdaptiveBudget(rtol=0.2, method="bernstein")
        workload = overload_workload(weeks=8, purchase_step=4)
        serial_run = ParameterExplorer(
            workload.simulation(),
            samples_per_point=400,
            fingerprint_size=workload.fingerprint_size,
            basis_store=BasisStore(
                mapping_family=IdentityMappingFamily(),
                index_strategy="array",
            ),
            adaptive=policy,
        ).run(workload.points)
        for workers in (2, 4):
            workload = overload_workload(weeks=8, purchase_step=4)
            parallel = ParallelExplorer(
                workload.simulation(),
                workers=workers,
                samples_per_point=400,
                fingerprint_size=workload.fingerprint_size,
                mapping_family=IdentityMappingFamily(),
                index_strategy="array",
                adaptive=policy,
            ).run(workload.points)
            for key, point in serial_run.points.items():
                assert parallel.points[key].metrics == point.metrics
                assert (
                    parallel.points[key].samples_drawn
                    == point.samples_drawn
                )

    def test_reuse_pattern_matches_fixed_budget(self):
        """Fingerprints are unaffected by adaptive stopping, so the reuse
        decisions — and hence fixed_budget_samples' denominator — match
        the fixed engine's exactly."""
        fixed = _serial(adaptive=None)
        adaptive = _serial(POLICY)
        assert adaptive.stats.points_total == fixed.stats.points_total
        assert adaptive.stats.points_reused == fixed.stats.points_reused
        assert adaptive.stats.bases_created == fixed.stats.bases_created
        for key, point in fixed.points.items():
            assert adaptive.points[key].reused == point.reused


class TestCapHonored:
    def test_no_point_exceeds_fixed_budget(self):
        run = _serial(POLICY, samples=300)
        for point in run.points.values():
            assert point.samples_drawn <= 300
        assert run.stats.samples_drawn <= 300 * run.stats.points_total

    def test_max_samples_caps_below_budget(self):
        policy = AdaptiveBudget(rtol=1e-12, max_samples=64)
        run = _serial(policy, samples=300)
        for point in run.points.values():
            if not point.reused:
                assert point.samples_drawn <= 64

    def test_adaptive_never_more_expensive(self):
        fixed = _serial(adaptive=None, samples=500)
        adaptive = _serial(POLICY, samples=500)
        assert adaptive.stats.samples_drawn <= fixed.stats.samples_drawn

    def test_saved_fraction_reported(self):
        run = _serial(POLICY, samples=1000)
        budget = fixed_budget_samples(
            run.stats.points_total, run.stats.points_reused, 1000, 10
        )
        saved = saved_fraction(run.stats.samples_drawn, budget)
        assert 0.0 < saved < 1.0


class TestConfidenceInterval:
    def test_halfwidth_shrinks_with_count(self):
        policy = AdaptiveBudget(rtol=0.05)
        widths = [
            policy.halfwidth(count, stddev=2.0, value_range=8.0)
            for count in (32, 128, 512, 2048)
        ]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < widths[0] / 4

    def test_bernstein_halfwidth_shrinks_with_count(self):
        policy = AdaptiveBudget(rtol=0.05, method="bernstein")
        widths = [
            policy.halfwidth(count, stddev=0.5, value_range=1.0)
            for count in (32, 128, 512, 2048)
        ]
        assert widths == sorted(widths, reverse=True)

    def test_halfwidth_infinite_below_two_samples(self):
        policy = AdaptiveBudget(rtol=0.05)
        assert math.isinf(policy.halfwidth(1, stddev=1.0, value_range=1.0))

    def test_converged_points_meet_tolerance(self):
        """Every early-stopped point's interval is inside rtol * |mean|."""
        run = _serial(POLICY, samples=1000)
        stopped_early = 0
        for point in run.points.values():
            if point.reused or point.samples_drawn >= 1000:
                continue
            stopped_early += 1
            metrics = point.metrics
            halfwidth = POLICY.halfwidth(
                metrics.count,
                metrics.stddev,
                metrics.maximum - metrics.minimum,
            )
            assert halfwidth <= POLICY.tolerance(metrics.expectation)
        assert stopped_early > 0  # the policy actually fired

    def test_ci_width_shrinks_during_growth(self):
        """The interval at each block boundary narrows as samples grow."""
        rng = np.random.default_rng(7)
        policy = AdaptiveBudget(rtol=1e-9)  # never converges: full cap
        widths = []

        def draw(start, count):
            return {"x": rng.normal(10.0, 2.0, size=count)}

        samples = grow_samples(draw(0, 10), draw, 2048, policy)["x"]
        size = 10
        while size < 2048:
            size = next_target(size, 2048, policy)
            window = samples[:size]
            widths.append(
                policy.halfwidth(
                    size,
                    float(window.std()),
                    float(window.max() - window.min()),
                )
            )
        assert len(widths) >= 4
        # Noise can wiggle one step; the trend must be strictly downward.
        assert widths[-1] < widths[0] / 3
        assert all(b < a * 1.05 for a, b in zip(widths, widths[1:]))

    def test_fixed_budget_is_one_block_and_stopping_is_joint(self):
        rng = np.random.default_rng(3)
        calls = []

        def draw(start, count):
            calls.append((start, count))
            return {
                "flat": np.full(count, 5.0),
                "noisy": rng.normal(10.0, 50.0, size=count),
            }

        fixed = grow_samples(draw(0, 10), draw, 1000)
        assert calls[1:] == [(10, 990)]
        assert {len(v) for v in fixed.values()} == {1000}

        # The flat column alone would stop at min_samples; the noisy one
        # keeps every column growing, block by block, to the cap.
        del calls[:]
        grown = grow_samples(
            draw(0, 10), draw, 1000, AdaptiveBudget(rtol=0.01)
        )
        assert calls[1:] == [
            (10, 22), (32, 32), (64, 64), (128, 128), (256, 256), (512, 488)
        ]
        assert {len(v) for v in grown.values()} == {1000}

    def test_estimator_converged_on_metric_sets(self):
        estimator = Estimator()
        tight = estimator.estimate(np.full(100, 5.0))
        assert estimator.converged(tight, POLICY)
        wide = estimator.estimate(
            np.concatenate([np.zeros(50), np.ones(50) * 10.0])
        )
        assert not estimator.converged(wide, POLICY)
        assert estimator.halfwidth(wide, POLICY) > 0.0

    def test_zero_mean_needs_atol_to_stop(self):
        """Pure relative tolerance cannot certify a zero mean; atol can."""
        noisy = np.concatenate([np.ones(500), -np.ones(500)])
        relative_only = AdaptiveBudget(rtol=0.05)
        assert not relative_only.satisfied_by(noisy)
        with_floor = AdaptiveBudget(rtol=0.05, atol=0.5)
        assert with_floor.satisfied_by(noisy)


class TestInteractiveAdaptive:
    def _session(self, policy):
        space = ParameterSpace([RangeParameter("x", 0.0, 4.0, 1.0)])
        return InteractiveSession(
            lambda params, seed: params["x"] * 3.0 + (seed % 7) * 1e-9,
            space,
            chunk=5,
            adaptive=policy,
        )

    def test_refinement_skips_converged_points(self):
        session = self._session(AdaptiveBudget(rtol=0.05, min_samples=10))
        session.focus({"x": 2.0})
        drawn = [session._do_refinement({"x": 2.0}).samples_drawn]
        for _ in range(8):
            drawn.append(session._do_refinement({"x": 2.0}).samples_drawn)
        # The nearly-deterministic simulation converges immediately at the
        # fingerprint size, so every refinement tick is a no-op.
        assert drawn[-1] == 0
        assert sum(drawn) == 0

    def test_refinement_draws_until_cap_without_convergence(self):
        policy = AdaptiveBudget(rtol=1e-15, min_samples=10, max_samples=25)
        session = self._session(policy)
        session.focus({"x": 1.0})
        total = 0
        for _ in range(10):
            total += session._do_refinement({"x": 1.0}).samples_drawn
        # 10 fingerprint samples grow in chunks of 5 up to the 25-sample
        # policy cap, then refinement stops drawing.
        assert session.sample_count({"x": 1.0}) == 25
        assert total == 15

    def test_disabled_policy_always_refines(self):
        session = self._session(None)
        session.focus({"x": 1.0})
        report = session._do_refinement({"x": 1.0})
        assert report.samples_drawn == 5


SCENARIO_QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 14 STEP BY 1;
SELECT DemandModel(@current_week, 4) AS demand,
       CapacityModel(@current_week, 2, 6) AS capacity
INTO results;
"""


class TestScenarioAdaptive:
    @pytest.fixture(scope="class")
    def bound(self):
        return compile_query(SCENARIO_QUERY, default_registry())

    def test_joint_stopping_saves_rounds(self, bound):
        fixed = ScenarioRunner(bound.scenario, samples_per_point=400).run()
        adaptive = ScenarioRunner(
            bound.scenario, samples_per_point=400, adaptive=POLICY
        ).run()
        assert (
            adaptive.stats.rounds_executed < fixed.stats.rounds_executed
        )
        assert adaptive.stats.points_reused == fixed.stats.points_reused

    def test_cap_honored_per_point(self, bound):
        runner = ScenarioRunner(
            bound.scenario,
            samples_per_point=400,
            adaptive=AdaptiveBudget(rtol=1e-12),
        )
        result = runner.run()
        # Nothing converges at rtol=1e-12, so every simulated point runs
        # to exactly the fixed budget: bit-parity via the cap.
        fixed = ScenarioRunner(bound.scenario, samples_per_point=400).run()
        assert result.stats == fixed.stats
        assert result.metrics == fixed.metrics


class TestCliAdaptive:
    def test_run_with_rtol_reports_savings(self, tmp_path, capsys):
        from repro.cli import main

        query = tmp_path / "scenario.sql"
        query.write_text(
            "DECLARE PARAMETER @current_week AS RANGE 0 TO 9 STEP BY 1;\n"
            "SELECT DemandModel(@current_week, 3) AS demand INTO results;\n"
        )
        assert (
            main(
                [
                    "run", str(query),
                    "--samples", "400",
                    "--rtol", "0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive rtol=0.05" in out
        assert "saved" in out

    def test_adaptive_estimates_worker_invariant_via_cli(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        query = tmp_path / "scenario.sql"
        query.write_text(
            "DECLARE PARAMETER @current_week AS RANGE 0 TO 6 STEP BY 1;\n"
            "SELECT DemandModel(@current_week, 3) AS demand INTO results;\n"
        )
        args = ["run", str(query), "--samples", "300", "--rtol", "0.1"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out.splitlines()[1:] == serial_out.splitlines()[1:]

    def test_rtol_validation(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "q.sql", "--rtol", "-0.5"])
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "q.sql", "--confidence", "1.5"])
        capsys.readouterr()

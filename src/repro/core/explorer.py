"""Batch parameter-space exploration with fingerprint reuse (paper §2.3, §3).

The explorer plays the role of the Parameter Enumerator plus the dashed PDB
box of paper Figure 3.  For each parameter point it runs the first ``m``
Monte Carlo rounds (which double as the fingerprint), probes the basis store,
and either

* reuses a mapped basis — skipping the remaining ``n − m`` rounds — or
* completes the full simulation and registers a new basis.

Treating the *entire* Monte Carlo simulation as the stochastic function F is
the paper's "taken to one extreme" usage and is what the evaluation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.blackbox.base import BlackBox, ParamKey, Params, param_key
from repro.core.adaptive import AdaptiveBudget, grow_samples
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import Mapping
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank, SweepSeeds

#: A simulation is any deterministic-under-seed scalar function of a
#: parameter point — typically an entire PDB query over black boxes.
Simulation = Callable[[Params, int], float]

#: A batch simulation evaluates one point under many seeds in one call.
BatchSimulation = Callable[[Params, np.ndarray], np.ndarray]

#: A rounds provider returns ``count`` Monte Carlo rounds of a point,
#: starting at global round ``start``, one value vector per output column:
#: ``rounds(point, count, start) -> {column: values}``.  Round ``0`` opens
#: every point (its fingerprint rounds); the sharded engine injects
#: recording and playback providers through this one signature.
Rounds = Callable[[Params, int, int], Dict[str, np.ndarray]]

#: The explorer's one output column: the simulation's scalar value.
VALUE = "value"


def make_batch_simulation(simulation) -> BatchSimulation:
    """Adapt any simulation to the batched ``(params, seeds) -> vector`` form.

    Black boxes (or objects exposing ``sample_batch``) use their native
    vectorized path; bound ``BlackBox.sample`` methods are unwrapped to
    their box's batch path; everything else falls back to a scalar loop that
    is bit-identical to calling ``simulation(params, seed)`` per seed.
    """
    if isinstance(simulation, BlackBox):
        return simulation.sample_batch
    bound_self = getattr(simulation, "__self__", None)
    if (
        isinstance(bound_self, BlackBox)
        and getattr(simulation, "__name__", "") == "sample"
    ):
        return bound_self.sample_batch
    batch = getattr(simulation, "sample_batch", None)
    if batch is not None:
        return batch

    def fallback(params: Params, seeds: np.ndarray) -> np.ndarray:
        return np.array(
            [float(simulation(params, int(seed))) for seed in np.atleast_1d(seeds)],
            dtype=np.float64,
        )

    return fallback


@dataclass
class ExplorerStats:
    """Machine-independent work accounting for one exploration run."""

    points_total: int = 0
    points_reused: int = 0
    bases_created: int = 0
    fingerprint_samples: int = 0
    full_samples: int = 0

    @property
    def samples_drawn(self) -> int:
        return self.fingerprint_samples + self.full_samples

    @property
    def reuse_fraction(self) -> float:
        if self.points_total == 0:
            return 0.0
        return self.points_reused / self.points_total


@dataclass
class PointResult:
    """Outcome for one parameter point.

    ``samples_drawn`` is the total draws this point cost (fingerprint
    rounds included); under a fixed budget it is ``fingerprint_size`` for
    reused points and ``samples_per_point`` otherwise, while an
    :class:`~repro.core.adaptive.AdaptiveBudget` lets fully simulated
    points stop anywhere in ``[min_samples, cap]``.
    """

    params: Dict[str, float]
    metrics: MetricSet
    reused: bool
    basis_id: int
    mapping: Optional[Mapping]
    fingerprint: Fingerprint
    samples_drawn: int = 0


@dataclass
class ExplorationResult:
    """All per-point outcomes plus aggregate statistics.

    ``stats`` always carries the canonical (serial-equivalent) accounting,
    so counters are invariant to how the sweep was executed; when the run
    came from :class:`repro.core.parallel.ParallelExplorer`, ``parallel``
    additionally reports the shard-side work (duplicates, resimulations).
    """

    points: Dict[ParamKey, PointResult] = field(default_factory=dict)
    stats: ExplorerStats = field(default_factory=ExplorerStats)
    parallel: Optional[object] = None

    def metrics(self, params: Params) -> MetricSet:
        return self.points[param_key(params)].metrics

    def result(self, params: Params) -> PointResult:
        return self.points[param_key(params)]

    def __len__(self) -> int:
        return len(self.points)


class ParameterExplorer:
    """Sweeps a parameter space, reusing Monte Carlo work via fingerprints."""

    def __init__(
        self,
        simulation: Simulation,
        samples_per_point: int = 1000,
        fingerprint_size: int = 10,
        basis_store: Optional[BasisStore] = None,
        index_strategy: str = "normalization",
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        adaptive: Optional[AdaptiveBudget] = None,
    ):
        if fingerprint_size < 1:
            raise ValueError("fingerprint_size must be at least 1")
        if samples_per_point < fingerprint_size:
            raise ValueError(
                "samples_per_point must be >= fingerprint_size (fingerprint "
                "rounds double as the first simulation rounds)"
            )
        self.simulation = simulation
        self.adaptive = adaptive
        self._batch_simulation = make_batch_simulation(simulation)
        self.samples_per_point = samples_per_point
        self.fingerprint_size = fingerprint_size
        self.estimator = estimator or Estimator()
        # A repro.api.Session stands in for its store wherever a
        # basis_store is accepted (duck-typed: no core -> api import).
        if basis_store is not None and hasattr(
            basis_store, "resolve_basis_store"
        ):
            basis_store = basis_store.resolve_basis_store()
        # `is None`, not `or`: an empty BasisStore has len() == 0 and is
        # falsy, so `or` would silently discard a caller's fresh store
        # (and its mapping family / index strategy) in favor of the
        # default — exactly the stores callers most often pass in.
        if basis_store is None:
            basis_store = BasisStore(
                index_strategy=index_strategy, estimator=self.estimator
            )
        self.store = basis_store
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self._seeds = SweepSeeds(
            self.seed_bank, fingerprint_size, samples_per_point
        )

    def _simulate_rounds(
        self, params: Params, count: int, start: int
    ) -> Dict[str, np.ndarray]:
        """The live rounds provider: one batched simulation call."""
        seeds = self._seeds(count, start)
        return {VALUE: self._batch_simulation(params, seeds)}

    def explore_point(self, params: Params) -> PointResult:
        """Evaluate one parameter point with reuse (paper Algorithm 3).

        The fingerprint rounds and (on a miss) the completion rounds are
        each one batched call: two array operations per fully simulated
        point, one for a reused point.  The store probe itself is columnar
        (:meth:`BasisStore.match` is the single-probe form of
        ``match_batch``): all index candidates are validated through one
        vectorized FindMapping kernel rather than a per-candidate Python
        loop.  Probes stay per-point because a miss *inserts* a basis that
        later points may legitimately match — batching across points would
        change the reuse decisions the paper's Algorithm 3 makes.  With an
        adaptive budget, the completion rounds instead grow in geometric
        blocks until the confidence interval is inside tolerance (or the
        fixed budget is exhausted); the reuse decision is fingerprint-only
        either way, so enabling the policy never changes which points are
        reused.
        """
        return self._explore_point(params, self._simulate_rounds)

    def _explore_point(self, params: Params, rounds: Rounds) -> PointResult:
        """:meth:`explore_point` drawing its rounds from ``rounds``; the
        sharded engine (:mod:`repro.core.parallel`) passes its recording and
        playback providers here so this one step serves every execution
        mode."""
        fingerprint_values = rounds(params, self.fingerprint_size, 0)[VALUE]
        fingerprint = Fingerprint(fingerprint_values)
        matched = self.store.match(fingerprint)
        if matched is not None:
            basis, mapping = matched
            metrics = self.store.metrics_for(basis, mapping)
            return PointResult(
                params=dict(params),
                metrics=metrics,
                reused=True,
                basis_id=basis.basis_id,
                mapping=mapping,
                fingerprint=fingerprint,
                samples_drawn=self.fingerprint_size,
            )
        samples = grow_samples(
            {VALUE: fingerprint_values},
            lambda start, count: rounds(params, count, start),
            self.samples_per_point,
            self.adaptive,
        )[VALUE]
        basis = self.store.add(fingerprint, samples)
        return PointResult(
            params=dict(params),
            metrics=basis.metrics,
            reused=False,
            basis_id=basis.basis_id,
            mapping=None,
            fingerprint=fingerprint,
            samples_drawn=int(samples.size),
        )

    def run(self, space: Iterable[Params]) -> ExplorationResult:
        """Explore every point of ``space`` (the Parameter Enumerator loop)."""
        return self._sweep(space, self._simulate_rounds)

    def _sweep(
        self, space: Iterable[Params], rounds: Rounds
    ) -> ExplorationResult:
        """:meth:`run` with an injected rounds provider; stats count every
        visited point, repeated parameter points included."""
        result = ExplorationResult()
        stats = result.stats
        for params in space:
            point = self._explore_point(params, rounds)
            result.points[param_key(params)] = point
            stats.points_total += 1
            stats.fingerprint_samples += self.fingerprint_size
            if point.reused:
                stats.points_reused += 1
            else:
                stats.bases_created += 1
                stats.full_samples += (
                    point.samples_drawn - self.fingerprint_size
                )
        return result


class NaiveExplorationResult(Dict[ParamKey, MetricSet]):
    """Per-point metrics of a naive sweep plus its work accounting.

    Subclasses ``dict`` so existing ``result[param_key(point)]`` consumers
    keep working; ``stats`` gives benchmarks the same machine-independent
    counters the fingerprinting explorer reports (every round is a full
    sample — ``fingerprint_samples`` stays 0 and nothing is ever reused).
    """

    def __init__(self) -> None:
        super().__init__()
        self.stats = ExplorerStats()


class NaiveExplorer:
    """Baseline: full Monte Carlo at every point, no fingerprinting.

    The paper's "naive generate-everything approach" (section 6.2); shares
    the seed bank so its outputs are sample-for-sample comparable with the
    fingerprinting explorer.
    """

    def __init__(
        self,
        simulation: Simulation,
        samples_per_point: int = 1000,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
    ):
        self.simulation = simulation
        self._batch_simulation = make_batch_simulation(simulation)
        self.samples_per_point = samples_per_point
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()
        self._seeds = self.seed_bank.seed_array(self.samples_per_point)

    def explore_point(self, params: Params) -> MetricSet:
        samples = self._batch_simulation(params, self._seeds)
        return self.estimator.estimate(samples)

    def run(self, space: Iterable[Params]) -> NaiveExplorationResult:
        result = NaiveExplorationResult()
        for params in space:
            result[param_key(params)] = self.explore_point(params)
            result.stats.points_total += 1
            result.stats.full_samples += self.samples_per_point
        return result

"""Batch scenario execution: naive and fingerprint-reusing modes.

The runner generalizes :class:`repro.core.explorer.ParameterExplorer` to
multi-column scenarios.  One Monte Carlo round computes *all* output columns
(one set of black-box invocations), so the fingerprint decision is joint: a
point skips its remaining rounds only when **every** column's fingerprint
maps onto a stored basis.  This is precisely why the paper's boolean
Overload column halves the achievable speedup of its query (section 6.2) —
one unmappable column forces the full simulation for the whole row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.blackbox.base import ParamKey, param_key
from repro.core.adaptive import AdaptiveBudget, grow_samples
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator, MetricSet
from repro.core.explorer import Rounds
from repro.core.fingerprint import Fingerprint
from repro.core.parallel import ParallelStats, sharded_sweep
from repro.core.supervise import SupervisionPolicy
from repro.core.mapping import (
    IdentityMappingFamily,
    LinearMappingFamily,
    Mapping,
    MappingFamily,
)
from repro.core.optimizer import ResultRow, Selector
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank, SweepSeeds
from repro.probdb.expressions import BatchUnsupported
from repro.scenario.scenario import Scenario


@dataclass
class RunnerStats:
    """Joint work accounting across all output columns."""

    points_total: int = 0
    points_reused: int = 0
    rounds_executed: int = 0
    bases_created: int = 0

    @property
    def reuse_fraction(self) -> float:
        if self.points_total == 0:
            return 0.0
        return self.points_reused / self.points_total


@dataclass
class ScenarioResult:
    """Per-point, per-column metrics plus accounting.

    ``stats`` is the canonical (serial-equivalent) accounting regardless of
    how many workers executed the sweep; ``parallel`` carries the
    shard-side work when the run was sharded (see
    :mod:`repro.core.parallel`).
    """

    metrics: Dict[ParamKey, Dict[str, MetricSet]] = field(default_factory=dict)
    points: Dict[ParamKey, Dict[str, float]] = field(default_factory=dict)
    stats: RunnerStats = field(default_factory=RunnerStats)
    parallel: Optional[ParallelStats] = None

    def metrics_for(
        self, params: Mapping[str, float]
    ) -> Dict[str, MetricSet]:
        return self.metrics[param_key(params)]

    def rows(self) -> List[ResultRow]:
        """Rows in the Selector's input format."""
        return [
            (self.points[key], self.metrics[key]) for key in self.metrics
        ]

    def optimize(self, selector: Selector):
        """Run an OPTIMIZE clause over the explored results table."""
        return selector.solve(self.rows())

    def __len__(self) -> int:
        return len(self.metrics)


class ScenarioRunner:
    """Executes a scenario over its whole parameter space with reuse.

    ``column_families`` optionally overrides the mapping family per column;
    boolean outputs default to identity-only matching (a 0/1 fingerprint
    admits no meaningful affine remap — scaling probabilities would be
    statistically wrong).

    ``workers > 1`` shards the parameter space across a fork pool (see
    :mod:`repro.core.parallel`): each worker sweeps its shard with its own
    per-column basis stores, then the master replays the canonical point
    order against the merged stores, so per-point metrics and counters are
    bit-identical to the serial sweep for any worker count.
    """

    def __init__(
        self,
        scenario: Scenario,
        samples_per_point: int = 1000,
        fingerprint_size: int = 10,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        index_strategy: str = "normalization",
        column_families: Optional[Mapping[str, MappingFamily]] = None,
        use_fingerprints: bool = True,
        workers: int = 1,
        adaptive: Optional[AdaptiveBudget] = None,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint: Optional[str] = None,
    ):
        if fingerprint_size < 1:
            raise ValueError("fingerprint_size must be at least 1")
        if samples_per_point < fingerprint_size:
            raise ValueError("samples_per_point must be >= fingerprint_size")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.scenario = scenario
        self.samples_per_point = samples_per_point
        self.fingerprint_size = fingerprint_size
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()
        self.use_fingerprints = use_fingerprints
        self.workers = int(workers)
        self.adaptive = adaptive
        self.supervision = supervision
        self.checkpoint = checkpoint
        self._index_strategy = index_strategy
        self._family_overrides = dict(column_families or {})
        self._seeds = SweepSeeds(
            self.seed_bank, fingerprint_size, samples_per_point
        )
        self._stores: Dict[str, BasisStore] = {}
        for column in scenario.output_columns:
            family = self._family_overrides.get(
                column, LinearMappingFamily()
            )
            self._stores[column] = BasisStore(
                mapping_family=family,
                index_strategy=index_strategy,
                estimator=self.estimator,
            )

    def store_for(self, column: str) -> BasisStore:
        return self._stores[column]

    @property
    def stores(self) -> Dict[str, BasisStore]:
        """Per-column basis stores, keyed by output column (a copy: the
        runner's column -> store binding itself is not caller-mutable)."""
        return dict(self._stores)

    def basis_count(self) -> int:
        """Total bases across every column's store (CLI/diagnostics)."""
        return sum(len(store) for store in self._stores.values())

    def save_stores(self, path: str, metadata=None) -> None:
        """Snapshot every column's basis store for later warm starts.

        Atomic and versioned (see :mod:`repro.core.persist`); records the
        runner's seed bank so a later load can refuse cross-bank reuse.
        """
        from repro.api import Session

        Session(self._stores, seed_bank=self.seed_bank).save(
            path, metadata=metadata
        )

    def load_stores(self, path: str, mmap: bool = True) -> None:
        """Warm-start this runner from a :meth:`save_stores` snapshot.

        The snapshot must cover exactly this scenario's output columns,
        and each column's store must match the runner's configured mapping
        family, index strategy, tolerances, estimator, and seed bank —
        any mismatch raises a typed
        :class:`~repro.errors.SnapshotCompatibilityError` instead of
        silently reusing incompatible state.  Loaded stores are
        memory-mapped read-only by default; sweeps that add bases promote
        copy-on-write and leave the snapshot untouched.  Sharded runs
        (``workers > 1``) warm-start too: the canonical replay probes the
        loaded stores, so results stay bit-identical to a serial warm run.
        """
        from repro.api import Session

        self._stores = Session.open(
            path,
            like=self._stores,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            mmap=mmap,
        ).stores

    def match_stats(self) -> Dict[str, "object"]:
        """Per-column basis-match counters (StoreStats), for diagnostics.

        Every column's store answers probes through the columnar match
        engine (:meth:`BasisStore.match` — the single-probe form of
        ``match_batch``); ``candidates_tested``/``matches`` here are
        deterministic and identical for any worker count, while
        ``match_seconds`` reports the engine's wall clock.
        """
        return {
            column: store.stats for column, store in self._stores.items()
        }

    def _clone_serial(self) -> "ScenarioRunner":
        """A fresh single-worker runner with this runner's configuration
        (shard workers build their local per-column stores through this)."""
        return ScenarioRunner(
            self.scenario,
            samples_per_point=self.samples_per_point,
            fingerprint_size=self.fingerprint_size,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            index_strategy=self._index_strategy,
            column_families=self._family_overrides,
            use_fingerprints=self.use_fingerprints,
            workers=1,
            adaptive=self.adaptive,
        )

    def run(self) -> ScenarioResult:
        if (
            self.workers > 1
            or self.checkpoint is not None
            or self.supervision is not None
        ):
            # Checkpointed or supervised runs route through the sharded
            # engine even with one worker: shard records are the resumable
            # unit, supervision watches shard attempts, and the canonical
            # replay makes the result bit-identical to the plain serial
            # loop regardless.
            return sharded_sweep(
                self,
                self._clone_serial,
                list(self.scenario.space.points()),
                columns=tuple(self.scenario.output_columns),
                stats_type=RunnerStats,
                identity={
                    "engine": "scenario",
                    "use_fingerprints": bool(self.use_fingerprints),
                },
                workers=self.workers,
                supervision=self.supervision,
                checkpoint=self.checkpoint,
            )
        return self._sweep(self.scenario.space.points(), self._simulate_rounds)

    def _sweep(
        self, points: Iterable[Dict[str, float]], rounds: Rounds
    ) -> ScenarioResult:
        """The serial loop over ``points`` with an injected rounds provider
        (the sharded engine's shard jobs and canonical replay run it too)."""
        result = ScenarioResult()
        for point in points:
            key = param_key(point)
            result.points[key] = dict(point)
            result.metrics[key] = self._run_point(point, result.stats, rounds)
        return result

    def _simulate_rounds(
        self, point: Dict[str, float], count: int, start: int
    ) -> Dict[str, np.ndarray]:
        """``count`` Monte Carlo rounds for every column, batched when the
        scenario plan supports it (bit-identical to the per-seed loop)."""
        seeds = self._seeds(count, start)
        try:
            columns = self.scenario.simulate_batch(point, seeds)
            return {
                name: np.asarray(values, dtype=float)
                for name, values in columns.items()
            }
        except BatchUnsupported:
            rows = [
                self.scenario.simulate(point, int(seed)) for seed in seeds
            ]
            return {
                column: np.array(
                    [row[column] for row in rows], dtype=float
                )
                for column in self.scenario.output_columns
            }

    def _run_point(
        self, point: Dict[str, float], stats: RunnerStats, rounds: Rounds
    ) -> Dict[str, MetricSet]:
        """One point of the sweep: probe, reuse or fully simulate.

        ``rounds`` serves the point's Monte Carlo rounds: the live
        :meth:`_simulate_rounds` in a serial run, the sharded engine's
        recording or playback provider otherwise, so this exact code path
        (and its accounting) serves every mode.
        """
        columns = self.scenario.output_columns
        m = self.fingerprint_size
        stats.points_total += 1

        # Fingerprint rounds (double as the first m simulation rounds).
        column_values = rounds(point, m, 0)
        stats.rounds_executed += m

        if self.use_fingerprints:
            # One columnar probe per column, short-circuiting on the first
            # unmappable column (each column has its own store, and the
            # scalar-identical counters require that stores past the first
            # miss are *not* probed — so this cannot be one cross-store
            # match_batch call).
            matches: Dict[str, Tuple[object, Mapping]] = {}
            for column in columns:
                fingerprint = Fingerprint(column_values[column])
                matched = self._stores[column].match(fingerprint)
                if matched is None:
                    break
                matches[column] = matched
            if len(matches) == len(columns):
                stats.points_reused += 1
                return {
                    column: self._stores[column].metrics_for(
                        basis, mapping  # type: ignore[arg-type]
                    )
                    for column, (basis, mapping) in matches.items()
                }

        # Full simulation: complete the remaining rounds and register bases.
        # One Monte Carlo round costs every column jointly, so an adaptive
        # stopping decision is joint too — mirroring how one unmappable
        # column forces the whole row's simulation in the reuse decision.
        column_samples = grow_samples(
            column_values,
            lambda start, count: rounds(point, count, start),
            self.samples_per_point,
            self.adaptive,
        )
        stats.rounds_executed += len(column_samples[columns[0]]) - m

        metrics: Dict[str, MetricSet] = {}
        for column in columns:
            samples = column_samples[column]
            fingerprint = Fingerprint(samples[:m])
            if self.use_fingerprints:
                basis = self._stores[column].add(fingerprint, samples)
                stats.bases_created += 1
                metrics[column] = basis.metrics
            else:
                metrics[column] = self.estimator.estimate(samples)
        return metrics


def boolean_column_families(
    scenario: Scenario, boolean_columns: Tuple[str, ...]
) -> Dict[str, MappingFamily]:
    """Convenience: identity-only matching for indicator columns."""
    families: Dict[str, MappingFamily] = {}
    for column in boolean_columns:
        if column not in scenario.output_columns:
            raise ValueError(f"unknown column {column!r}")
        families[column] = IdentityMappingFamily()
    return families

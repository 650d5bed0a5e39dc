"""Reproduction runners for every table and figure in paper section 6.

Each ``run_figN`` function regenerates the corresponding experiment and
returns a :class:`~repro.bench.harness.FigureResult` (or a text table for
Figure 7) whose series mirror the paper's plot.  Sizes default to a
laptop-friendly scale; pass ``scale="paper"`` for the paper-sized sweeps
(1000 samples/point over the full spaces — minutes of wall clock in pure
Python).
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.engines import CoreEngine, WrapperEngine, default_query_for
from repro.bench.harness import FigureResult, Series
from repro.bench.workloads import (
    PAPER_FINGERPRINT_SIZE,
    capacity_workload,
    demand_workload,
    markov_branch_model,
    markov_step_model,
    overload_workload,
    synth_basis_workload,
    user_selection_workload,
    SweepWorkload,
)
from repro.core.basis import BasisStore
from repro.core.explorer import NaiveExplorer, ParameterExplorer
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import IdentityMappingFamily, LinearMappingFamily
from repro.core.adaptive import (
    AdaptiveBudget,
    fixed_budget_samples,
    saved_fraction,
)
from repro.core.markov import MarkovJumpRunner, NaiveMarkovRunner
from repro.core.parallel import ParallelExplorer
from repro.core.seeds import DEFAULT_SEED_BANK
from repro.core import persist
from repro.util import timing
from repro.util.tables import format_table

#: Recognized workload scales: ``smoke`` is the CI regression-gate size
#: (seconds for the whole suite), ``quick`` the laptop default, ``paper``
#: the paper-sized sweeps.
SCALES = ("smoke", "quick", "paper")


def _pick(scale: str, smoke, quick, paper):
    """Choose a size knob by scale name (validates the name)."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    return {"smoke": smoke, "quick": quick, "paper": paper}[scale]


class WarmStores:
    """Per-figure warm-start bookkeeping for ``run_all.py --warm-store``.

    One instance wraps a snapshot directory: each sweep asks for its store
    by a deterministic label — loaded from ``<root>/<label>`` when a
    snapshot exists there (built by an earlier run), cold otherwise — and
    saves the (possibly grown) store back after the sweep, so the *next*
    bench run warm-starts from it.  ``publish`` records the observed
    ``warm_reuse_fraction`` into the figure's counters; warm counters
    legitimately differ from cold ones, which is why the driver tags warm
    documents and refuses them as cold-baseline replacements.
    """

    def __init__(self, root: str):
        self.root = root
        self.points_total = 0
        self.points_reused = 0
        self.loaded_bases = 0

    def _path(self, label: str) -> str:
        return os.path.join(self.root, re.sub(r"[^-A-Za-z0-9_.]", "_", label))

    def store_for(self, label: str, template: BasisStore) -> BasisStore:
        """The warm store for one sweep: snapshot-loaded, else ``template``.

        The template pins the expected configuration, so a stale snapshot
        built under another family/strategy/tolerance regime is refused
        (typed error) instead of silently reused.
        """
        path = self._path(label)
        if not os.path.isdir(path):
            return template
        store = persist.load_store(
            path, like=template, seed_bank=DEFAULT_SEED_BANK
        )
        self.loaded_bases += len(store)
        return store

    def save(self, label: str, store: BasisStore) -> None:
        persist.save_store(
            store, self._path(label), seed_bank=DEFAULT_SEED_BANK
        )

    def record(self, stats) -> None:
        self.points_total += stats.points_total
        self.points_reused += stats.points_reused

    def publish(self, result: FigureResult) -> None:
        result.counters["warm_reuse_fraction"] = (
            self.points_reused / self.points_total
            if self.points_total
            else 0.0
        )
        # Bases the figure's sweeps started from (0 on the cold pass that
        # populates the directory) — deterministic for a given snapshot
        # set, like every other warm counter.
        result.counters["warm_loaded_bases"] = float(self.loaded_bases)


def _warm_context(warm_store: Optional[str]) -> Optional[WarmStores]:
    """A figure's :class:`WarmStores` (or None when running cold)."""
    return WarmStores(warm_store) if warm_store else None


def sweep_checkpoint_path(root: Optional[str], label: str) -> Optional[str]:
    """Per-sweep checkpoint directory under ``--checkpoint``'s root.

    Same label sanitization as :class:`WarmStores`, so each sweep of a
    figure resumes from exactly its own completed-shard records."""
    if not root:
        return None
    return os.path.join(root, re.sub(r"[^-A-Za-z0-9_.]", "_", label))


def _make_explorer(
    simulation,
    samples: int,
    fingerprint_size: int,
    index_strategy: str = "normalization",
    mapping_family=None,
    workers: int = 1,
    adaptive: Optional[AdaptiveBudget] = None,
    warm: Optional[WarmStores] = None,
    warm_label: str = "",
    checkpoint: Optional[str] = None,
):
    """Serial or sharded explorer with identical counters and estimates.

    The sharded engine's canonical replay keeps every counter the bench
    JSON records bit-identical to the serial sweep, so ``--workers`` only
    ever changes wall-clock columns — never the regression-gated values.
    An adaptive budget *does* change counters (that is its point), which
    is why adaptive bench runs are never merged into a fixed baseline;
    the same applies to a ``warm`` store (reuse against prior-run bases
    is the whole point), so warm documents are tagged and refused too.
    """
    store = BasisStore(
        mapping_family=mapping_family, index_strategy=index_strategy
    )
    if warm is not None:
        store = warm.store_for(warm_label, store)
    if workers > 1 or checkpoint is not None:
        # Checkpointing rides on the sharded engine's shard records, so a
        # checkpointed sweep routes through it even single-worker — the
        # canonical replay keeps counters bit-identical regardless.
        return ParallelExplorer(
            simulation,
            workers=workers,
            samples_per_point=samples,
            fingerprint_size=fingerprint_size,
            index_strategy=index_strategy,
            mapping_family=mapping_family,
            adaptive=adaptive,
            basis_store=store,
            checkpoint=checkpoint,
        )
    return ParameterExplorer(
        simulation,
        samples_per_point=samples,
        fingerprint_size=fingerprint_size,
        basis_store=store,
        adaptive=adaptive,
    )


class _AdaptiveAccounting:
    """Accumulates actual-vs-fixed-budget sample counts across sweeps.

    Publishes ``samples_saved_fraction`` — the fraction of the fixed
    budget the adaptive policy did not draw — into a figure's counters.
    Inactive (publishes nothing) when no policy is given, so default
    bench documents stay byte-identical to pre-adaptive baselines.
    """

    def __init__(self, adaptive: Optional[AdaptiveBudget]):
        self.adaptive = adaptive
        self.actual = 0
        self.budget = 0

    def record(self, stats, samples: int, fingerprint_size: int) -> None:
        if self.adaptive is None:
            return
        self.actual += stats.samples_drawn
        self.budget += fixed_budget_samples(
            stats.points_total,
            stats.points_reused,
            samples,
            fingerprint_size,
        )

    def publish(self, result: FigureResult) -> None:
        if self.adaptive is None:
            return
        result.counters["samples_saved_fraction"] = saved_fraction(
            self.actual, self.budget
        )


def _match_counter_baseline(store: BasisStore) -> Dict[str, float]:
    """The store's match counters before a sweep runs against it.

    A cold store reads all zeros; a warm (snapshot-loaded) store carries
    its cumulative lifetime counters, which must not leak into a figure's
    per-run accounting — figures fold the *delta* across the run, so warm
    counters are deterministic for a given starting snapshot regardless
    of how many runs produced it.
    """
    stats = store.stats
    return {
        "candidates_tested": float(stats.candidates_tested),
        "matches": float(stats.matches),
        "match_seconds": stats.match_seconds,
    }


def _match_counter_delta(
    store: BasisStore, baseline: Optional[Dict[str, float]]
) -> Dict[str, float]:
    """Match counters accumulated since ``baseline`` (None = all of them)."""
    current = _match_counter_baseline(store)
    if baseline is None:
        return current
    return {key: current[key] - baseline[key] for key in current}


def _fold_match_counters(
    counters: Dict[str, float],
    candidates_tested: float,
    matches_found: float,
    match_seconds: float,
) -> None:
    """Accumulate one store's match-engine counters into figure totals.

    ``candidates_tested`` and ``matches_found`` are deterministic and
    regression-gated; ``match_seconds`` is informational wall clock
    (rounded so the JSON stays tidy).
    """
    counters["candidates_tested"] = counters.get(
        "candidates_tested", 0.0
    ) + float(candidates_tested)
    counters["matches_found"] = counters.get("matches_found", 0.0) + float(
        matches_found
    )
    counters["match_seconds"] = round(
        counters.get("match_seconds", 0.0) + match_seconds, 6
    )


def _sweep_digest(run) -> Dict[str, float]:
    """Deterministic summary of one explorer sweep's estimates."""
    expectations = [p.metrics.expectation for p in run.points.values()]
    stddevs = [p.metrics.stddev for p in run.points.values()]
    return {
        "mean_expectation": float(np.mean(expectations)),
        "mean_stddev": float(np.mean(stddevs)),
        "points_reused": float(run.stats.points_reused),
        "bases_created": float(run.stats.bases_created),
    }


# ---------------------------------------------------------------------------
# Figure 7 (table): wrapper vs core engine, seconds per parameter combination


def run_fig7(scale: str = "quick") -> str:
    """User-interface wrapper vs core engine timing comparison."""
    samples = _pick(scale, 20, 40, 1000)
    point_budget = _pick(scale, 2, 3, 5)

    workloads = [
        demand_workload(weeks=10, features=(5.0,)),
        capacity_workload(weeks=10, purchase_step=5),
        overload_workload(weeks=10, purchase_step=5),
        user_selection_workload(
            weeks=4, user_count=_pick(scale, 150, 400, 2000)
        ),
    ]
    rows: List[List[object]] = []
    for workload in workloads:
        points = workload.points[:point_budget]
        wrapper = WrapperEngine(
            workload.box,
            default_query_for(workload.box),
            samples_per_point=samples,
        )
        core = CoreEngine(workload.box, samples_per_point=samples)
        start = timing.perf_counter()
        for point in points:
            wrapper.evaluate_point(point)
        wrapper_seconds = (timing.perf_counter() - start) / len(points)
        start = timing.perf_counter()
        for point in points:
            core.evaluate_point(point)
        core_seconds = (timing.perf_counter() - start) / len(points)
        rows.append(
            [
                workload.name,
                wrapper_seconds,
                core_seconds,
                wrapper_seconds / core_seconds,
            ]
        )
    return format_table(
        ["Model", "Online s/pc", "Offline s/pc", "Online/Offline"],
        rows,
        title=(
            "Figure 7: User Interface Wrapper vs Core Engine Simulator "
            "(time per parameter combination)"
        ),
    )


# ---------------------------------------------------------------------------
# Figure 8: Jigsaw vs fully exploring the parameter space


def _explore_pair(
    workload: SweepWorkload,
    mapping_family=None,
    workers: int = 1,
    adaptive: Optional[AdaptiveBudget] = None,
    warm: Optional[WarmStores] = None,
    warm_label: str = "",
    checkpoint_root: Optional[str] = None,
) -> Tuple[float, float, Dict[str, float], "object"]:
    """(naive s, jigsaw s, extras, jigsaw stats) for one sweep workload."""
    simulation = workload.simulation()

    start = timing.perf_counter()
    naive = NaiveExplorer(
        simulation, samples_per_point=workload.samples_per_point
    )
    naive_run = naive.run(workload.points)
    naive_seconds = timing.perf_counter() - start

    explorer = _make_explorer(
        simulation,
        samples=workload.samples_per_point,
        fingerprint_size=workload.fingerprint_size,
        mapping_family=mapping_family or LinearMappingFamily(),
        workers=workers,
        adaptive=adaptive,
        warm=warm,
        warm_label=warm_label,
        checkpoint=sweep_checkpoint_path(checkpoint_root, warm_label),
    )
    match_baseline = _match_counter_baseline(explorer.store)
    start = timing.perf_counter()
    result = explorer.run(workload.points)
    jigsaw_seconds = timing.perf_counter() - start
    if warm is not None:
        warm.record(result.stats)
        warm.save(warm_label, explorer.store)
    match_delta = _match_counter_delta(explorer.store, match_baseline)
    extras = {
        "bases": float(result.stats.bases_created),
        "reuse_fraction": result.stats.reuse_fraction,
        "naive_samples": float(naive_run.stats.samples_drawn),
        "jigsaw_samples": float(result.stats.samples_drawn),
        "candidates_tested": match_delta["candidates_tested"],
        "matches_found": match_delta["matches"],
        "match_seconds": match_delta["match_seconds"],
    }
    extras.update(_sweep_digest(result))
    return naive_seconds, jigsaw_seconds, extras, result.stats


def run_fig8(
    scale: str = "quick",
    workers: int = 1,
    adaptive: Optional[AdaptiveBudget] = None,
    warm_store: Optional[str] = None,
    checkpoint: Optional[str] = None,
) -> FigureResult:
    """Jigsaw vs full evaluation on Usage, Capacity, Overload, MarkovStep."""
    # The paper's 1000 samples/point are affordable even at quick scale with
    # the batch sampling engine; quick now shrinks only the parameter spaces.
    # Full evaluation cost scales with samples/point while reused points do
    # not, so this is also what Figure 8 is actually about.
    samples = _pick(scale, 250, 1000, 1000)
    result = FigureResult(
        figure="Figure 8",
        caption="Jigsaw vs fully exploring the parameter space",
        x_label="workload",
        y_label="computation time (s)",
    )
    full_series = Series("Full Evaluation")
    jigsaw_series = Series("Jigsaw")

    workloads = [
        (
            "Usage",
            user_selection_workload(
                weeks=_pick(scale, 3, 4, 8),
                user_count=_pick(scale, 40, 60, 500),
            ),
            LinearMappingFamily(),
        ),
        (
            "Capacity",
            capacity_workload(
                weeks=_pick(scale, 10, 16, 52),
                purchase_step=_pick(scale, 8, 8, 4),
            ),
            LinearMappingFamily(),
        ),
        (
            "Overload",
            overload_workload(
                weeks=_pick(scale, 10, 20, 52),
                purchase_step=_pick(scale, 8, 8, 4),
            ),
            IdentityMappingFamily(),
        ),
    ]
    reuse_fractions = []
    accounting = _AdaptiveAccounting(adaptive)
    warm = _warm_context(warm_store)
    for label_index, (label, workload, family) in enumerate(workloads):
        workload.samples_per_point = samples
        naive_seconds, jigsaw_seconds, extras, stats = _explore_pair(
            workload, mapping_family=family, workers=workers,
            adaptive=adaptive, warm=warm, warm_label=f"fig8-{label}",
            checkpoint_root=checkpoint,
        )
        accounting.record(stats, samples, workload.fingerprint_size)
        full_series.add(float(label_index), naive_seconds)
        jigsaw_series.add(float(label_index), jigsaw_seconds)
        result.counters["samples_drawn"] = result.counters.get(
            "samples_drawn", 0.0
        ) + extras["naive_samples"] + extras["jigsaw_samples"]
        _fold_match_counters(
            result.counters,
            extras["candidates_tested"],
            extras["matches_found"],
            extras["match_seconds"],
        )
        reuse_fractions.append(extras["reuse_fraction"])
        result.data[label] = {
            "points": float(len(workload.points)),
            "bases": extras["bases"],
            "reuse_fraction": extras["reuse_fraction"],
            "naive_samples": extras["naive_samples"],
            "jigsaw_samples": extras["jigsaw_samples"],
            "mean_expectation": extras["mean_expectation"],
            "mean_stddev": extras["mean_stddev"],
        }
        result.notes.append(
            f"{label}: {len(workload.points)} points, "
            f"{int(extras['bases'])} bases, "
            f"reuse {extras['reuse_fraction']:.1%}, "
            f"speedup {naive_seconds / jigsaw_seconds:.1f}x"
        )
    result.counters["reuse_fraction"] = sum(reuse_fractions) / len(
        reuse_fractions
    )
    accounting.publish(result)
    if warm is not None:
        warm.publish(result)

    # MarkovStep: chain evaluation, naive vs jump.  Chains are sequential
    # in their step index, so this comparison stays single-process at any
    # worker count (sharding applies to parameter sweeps, not chains).
    steps = _pick(scale, 60, 160, 2500)
    instances = _pick(scale, 60, 150, 1000)
    model = markov_step_model()
    naive_runner = NaiveMarkovRunner(model, instance_count=instances)
    start = timing.perf_counter()
    naive_runner.run(steps)
    naive_seconds = timing.perf_counter() - start
    model.reset_invocations()
    jump_runner = MarkovJumpRunner(
        model,
        instance_count=instances,
        fingerprint_size=PAPER_FINGERPRINT_SIZE,
    )
    start = timing.perf_counter()
    jump_result = jump_runner.run(steps)
    jigsaw_seconds = timing.perf_counter() - start
    index = float(len(workloads))
    full_series.add(index, naive_seconds)
    jigsaw_series.add(index, jigsaw_seconds)
    result.notes.append(
        f"MarkovStep: {steps} steps, {len(jump_result.jumps)} jumps, "
        f"{jump_result.full_steps} full steps, "
        f"speedup {naive_seconds / jigsaw_seconds:.1f}x"
    )
    result.counters["markov_step_invocations"] = float(
        jump_result.step_invocations
    )
    result.data["MarkovStep"] = {
        "jumps": float(len(jump_result.jumps)),
        "full_steps": float(jump_result.full_steps),
        "step_invocations": float(jump_result.step_invocations),
    }
    result.notes.append(
        "x axis order: 0=Usage 1=Capacity 2=Overload 3=MarkovStep"
    )
    result.series = [full_series, jigsaw_series]
    return result


# ---------------------------------------------------------------------------
# Figure 9: computation time vs structure size (Capacity model)


def _accumulate_run_counters(
    result: FigureResult, run, match_counters=None
) -> None:
    """Fold one explorer run's work counters into the figure's totals.

    ``match_counters`` (a :func:`_match_counter_delta` over the explorer's
    basis store — serial or merged-parallel, either way carrying the
    canonical replay counters) contributes the match-engine counters:
    ``candidates_tested`` and ``matches_found`` are deterministic and
    regression-gated; ``match_seconds`` is informational wall clock spent
    inside match()/match_batch().  Deltas, not store totals: a
    warm-started store arrives carrying its lifetime counters, and only
    the work of *this* run belongs to this figure.
    """
    counters = result.counters
    counters["samples_drawn"] = counters.get("samples_drawn", 0.0) + float(
        run.stats.samples_drawn
    )
    counters["points_total"] = counters.get("points_total", 0.0) + float(
        run.stats.points_total
    )
    counters["points_reused"] = counters.get("points_reused", 0.0) + float(
        run.stats.points_reused
    )
    counters["reuse_fraction"] = (
        counters["points_reused"] / counters["points_total"]
    )
    if match_counters is not None:
        _fold_match_counters(
            counters,
            match_counters["candidates_tested"],
            match_counters["matches"],
            match_counters["match_seconds"],
        )


def run_fig9(
    scale: str = "quick",
    structure_sizes: Optional[Tuple[float, ...]] = None,
    workers: int = 1,
    adaptive: Optional[AdaptiveBudget] = None,
    warm_store: Optional[str] = None,
    checkpoint: Optional[str] = None,
) -> FigureResult:
    if structure_sizes is None:
        structure_sizes = _pick(
            scale,
            (0.0, 5.0, 10.0),
            (0.0, 2.0, 5.0, 10.0, 16.0),
            tuple(range(0, 21, 2)),
        )
    samples = _pick(scale, 60, 120, 1000)
    weeks = _pick(scale, 12, 26, 52)
    result = FigureResult(
        figure="Figure 9",
        caption="Computation time versus structure size (Capacity model)",
        x_label="structure size",
        y_label="time (ms/point)",
    )
    strategies = ("array", "normalization", "sorted_sid")
    series = {name: Series(_strategy_label(name)) for name in strategies}
    accounting = _AdaptiveAccounting(adaptive)
    warm = _warm_context(warm_store)
    for structure_size in structure_sizes:
        workload = capacity_workload(
            weeks=weeks, purchase_step=8, structure_size=float(structure_size)
        )
        workload.samples_per_point = samples
        for strategy in strategies:
            warm_label = f"fig9-structure{structure_size:g}-{strategy}"
            explorer = _make_explorer(
                workload.simulation(),
                samples=samples,
                fingerprint_size=workload.fingerprint_size,
                index_strategy=strategy,
                workers=workers,
                adaptive=adaptive,
                warm=warm,
                warm_label=warm_label,
                checkpoint=sweep_checkpoint_path(checkpoint, warm_label),
            )
            match_baseline = _match_counter_baseline(explorer.store)
            start = timing.perf_counter()
            run = explorer.run(workload.points)
            elapsed = timing.perf_counter() - start
            if warm is not None:
                warm.record(run.stats)
                warm.save(warm_label, explorer.store)
            series[strategy].add(
                float(structure_size),
                1000.0 * elapsed / len(workload.points),
            )
            _accumulate_run_counters(
                result, run,
                _match_counter_delta(explorer.store, match_baseline),
            )
            accounting.record(run.stats, samples, workload.fingerprint_size)
            result.data[f"structure={structure_size:g}|{strategy}"] = (
                _sweep_digest(run)
            )
            if strategy == "array":
                result.notes.append(
                    f"structure={structure_size}: "
                    f"{run.stats.bases_created} bases over "
                    f"{len(workload.points)} points"
                )
    result.series = [series[s] for s in strategies]
    accounting.publish(result)
    if warm is not None:
        warm.publish(result)
    return result


# ---------------------------------------------------------------------------
# Figures 10 and 11: indexing strategies vs number of basis distributions


def run_fig10(
    scale: str = "quick",
    basis_counts: Optional[Tuple[int, ...]] = None,
    workers: int = 1,
    adaptive: Optional[AdaptiveBudget] = None,
    warm_store: Optional[str] = None,
    checkpoint: Optional[str] = None,
) -> FigureResult:
    """Static parameter space: time relative to the Array scan."""
    if basis_counts is None:
        basis_counts = _pick(
            scale, (10, 40), (10, 50, 150), (10, 25, 50, 100, 200)
        )
    point_count = _pick(scale, 200, 600, 1000)
    samples = _pick(scale, 40, 60, 1000)
    result = FigureResult(
        figure="Figure 10",
        caption="Indexing in a static parameter space",
        x_label="# basis distributions",
        y_label="time relative to Array",
    )
    strategies = ("array", "normalization", "sorted_sid")
    series = {name: Series(_strategy_label(name)) for name in strategies}
    accounting = _AdaptiveAccounting(adaptive)
    warm = _warm_context(warm_store)
    for basis_count in basis_counts:
        timings: Dict[str, float] = {}
        for strategy in strategies:
            workload = synth_basis_workload(basis_count, point_count)
            workload.samples_per_point = samples
            warm_label = f"fig10-bases{basis_count}-{strategy}"
            explorer = _make_explorer(
                workload.simulation(),
                samples=samples,
                fingerprint_size=workload.fingerprint_size,
                index_strategy=strategy,
                workers=workers,
                adaptive=adaptive,
                warm=warm,
                warm_label=warm_label,
                checkpoint=sweep_checkpoint_path(checkpoint, warm_label),
            )
            match_baseline = _match_counter_baseline(explorer.store)
            start = timing.perf_counter()
            run = explorer.run(workload.points)
            timings[strategy] = timing.perf_counter() - start
            if warm is not None:
                warm.record(run.stats)
                warm.save(warm_label, explorer.store)
            _accumulate_run_counters(
                result, run,
                _match_counter_delta(explorer.store, match_baseline),
            )
            accounting.record(run.stats, samples, workload.fingerprint_size)
            result.data[f"bases={basis_count}|{strategy}"] = _sweep_digest(
                run
            )
        for strategy in strategies:
            series[strategy].add(
                float(basis_count), timings[strategy] / timings["array"]
            )
    result.series = [series[s] for s in strategies]
    accounting.publish(result)
    if warm is not None:
        warm.publish(result)
    return result


def run_fig11(
    scale: str = "quick",
    basis_counts: Optional[Tuple[int, ...]] = None,
    workers: int = 1,
    adaptive: Optional[AdaptiveBudget] = None,
    warm_store: Optional[str] = None,
    checkpoint: Optional[str] = None,
) -> FigureResult:
    """Parameter space grown with basis size (basis = 10% of the space)."""
    if basis_counts is None:
        basis_counts = _pick(
            scale,
            (20, 60),
            (25, 75, 150),
            (50, 100, 200, 300, 400, 500),
        )
    samples = _pick(scale, 40, 60, 1000)
    result = FigureResult(
        figure="Figure 11",
        caption="Indexing, growing the parameter space with basis size",
        x_label="# basis distributions",
        y_label="time (s/point)",
    )
    strategies = ("array", "normalization", "sorted_sid")
    series = {name: Series(_strategy_label(name)) for name in strategies}
    accounting = _AdaptiveAccounting(adaptive)
    warm = _warm_context(warm_store)
    for basis_count in basis_counts:
        point_count = basis_count * 10
        for strategy in strategies:
            workload = synth_basis_workload(basis_count, point_count)
            workload.samples_per_point = samples
            warm_label = f"fig11-bases{basis_count}-{strategy}"
            explorer = _make_explorer(
                workload.simulation(),
                samples=samples,
                fingerprint_size=workload.fingerprint_size,
                index_strategy=strategy,
                workers=workers,
                adaptive=adaptive,
                warm=warm,
                warm_label=warm_label,
                checkpoint=sweep_checkpoint_path(checkpoint, warm_label),
            )
            match_baseline = _match_counter_baseline(explorer.store)
            start = timing.perf_counter()
            run = explorer.run(workload.points)
            elapsed = timing.perf_counter() - start
            if warm is not None:
                warm.record(run.stats)
                warm.save(warm_label, explorer.store)
            series[strategy].add(
                float(basis_count), elapsed / point_count
            )
            _accumulate_run_counters(
                result, run,
                _match_counter_delta(explorer.store, match_baseline),
            )
            accounting.record(run.stats, samples, workload.fingerprint_size)
            result.data[f"bases={basis_count}|{strategy}"] = _sweep_digest(
                run
            )
    result.series = [series[s] for s in strategies]
    accounting.publish(result)
    if warm is not None:
        warm.publish(result)
    return result


# ---------------------------------------------------------------------------
# Figure 12: Markov process performance vs branching factor


def run_fig12(
    scale: str = "quick",
    branchings: Optional[Tuple[float, ...]] = None,
) -> FigureResult:
    if branchings is None:
        branchings = _pick(
            scale,
            (1e-3, 0.1),
            (1e-4, 1e-3, 1e-2, 0.1),
            (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1),
        )
    steps = _pick(scale, 64, 128, 128)
    # The batch stepping engine makes the paper's full instance population
    # affordable even at quick scale, and the population size is what the
    # naive-vs-jump comparison actually measures (n versus m lanes).
    instances = _pick(scale, 400, 1000, 1000)
    result = FigureResult(
        figure="Figure 12",
        caption="Performance for a Markov process",
        x_label="branching factor",
        y_label="time (ms/step)",
    )
    naive_series = Series("Naive")
    jigsaw_series = Series("Jigsaw")
    for branching in branchings:
        model = markov_branch_model(branching)
        naive_runner = NaiveMarkovRunner(model, instance_count=instances)
        start = timing.perf_counter()
        naive_runner.run(steps)
        naive_ms = 1000.0 * (timing.perf_counter() - start) / steps

        model = markov_branch_model(branching)
        jump_runner = MarkovJumpRunner(
            model,
            instance_count=instances,
            fingerprint_size=PAPER_FINGERPRINT_SIZE,
        )
        start = timing.perf_counter()
        jump_result = jump_runner.run(steps)
        jigsaw_ms = 1000.0 * (timing.perf_counter() - start) / steps

        naive_series.add(branching, naive_ms)
        jigsaw_series.add(branching, jigsaw_ms)
        result.data[f"branching={branching:g}"] = {
            "jumps": float(len(jump_result.jumps)),
            "full_steps": float(jump_result.full_steps),
            "step_invocations": float(jump_result.step_invocations),
        }
        result.counters["step_invocations"] = result.counters.get(
            "step_invocations", 0.0
        ) + float(instances * steps + jump_result.step_invocations)
        result.notes.append(
            f"branching={branching:g}: {len(jump_result.jumps)} jumps, "
            f"{jump_result.full_steps} full steps, "
            f"naive/jigsaw = {naive_ms / jigsaw_ms:.2f}x"
        )
    result.series = [naive_series, jigsaw_series]
    return result


# ---------------------------------------------------------------------------
# Match microbenchmark: the columnar FindMatch engine in isolation


def run_match(scale: str = "quick") -> FigureResult:
    """Batched basis matching against synthetic stores, per index strategy.

    Isolates :meth:`BasisStore.match_batch` from sampling: stores are
    preloaded with deterministic fingerprints, then a fixed probe mix
    (affine images that must match, perturbed vectors that must not) is
    matched in one batch per store.  ``candidates_tested`` and
    ``matches_found`` are pure functions of the construction, so the
    smoke regression gate diffs them exactly; ``match_seconds`` tracks
    the engine's wall clock per probe.
    """
    basis_counts = _pick(scale, (32,), (64, 256), (64, 256, 1024))
    probe_count = _pick(scale, 240, 2400, 12000)
    fingerprint_size = PAPER_FINGERPRINT_SIZE
    result = FigureResult(
        figure="Match microbenchmark",
        caption="Columnar FindMatch over preloaded stores",
        x_label="# basis distributions",
        y_label="match time (us/probe)",
    )
    strategies = ("array", "normalization", "sorted_sid")
    series = {name: Series(_strategy_label(name)) for name in strategies}
    rng = np.random.default_rng(20110613)  # deterministic, scale-independent
    for basis_count in basis_counts:
        bases = rng.standard_normal((basis_count, fingerprint_size))
        probes = []
        for probe in range(probe_count):
            source = bases[probe % basis_count]
            alpha = 1.0 + 0.25 * (probe % 7)
            beta = float(probe % 5) - 2.0
            values = alpha * source + beta
            if probe % 4 == 3:
                # A miss: break the affine relation on one entry.
                values = values.copy()
                values[probe % fingerprint_size] += 0.5
            probes.append(Fingerprint(values))
        found_by: Dict[str, int] = {}
        for strategy in strategies:
            store = BasisStore(index_strategy=strategy)
            for row in bases:
                store.add(Fingerprint(row), row)
            start = timing.perf_counter()
            matches = store.match_batch(probes)
            elapsed = timing.perf_counter() - start
            series[strategy].add(
                float(basis_count), 1.0e6 * elapsed / probe_count
            )
            found_by[strategy] = sum(
                1 for match in matches if match is not None
            )
            _fold_match_counters(
                result.counters,
                store.stats.candidates_tested,
                found_by[strategy],
                store.stats.match_seconds,
            )
            result.data[f"bases={basis_count}|{strategy}"] = {
                "lookups": float(store.stats.lookups),
                "candidates_tested": float(store.stats.candidates_tested),
                "matches_found": float(found_by[strategy]),
            }
        per_strategy = ", ".join(
            f"{strategy}={found_by[strategy]}" for strategy in strategies
        )
        result.notes.append(
            f"bases={basis_count}: {probe_count} probes, "
            f"matched {per_strategy}"
        )
    result.series = [series[s] for s in strategies]
    return result


def _strategy_label(strategy: str) -> str:
    return {
        "array": "Array",
        "normalization": "Normalization",
        "sorted_sid": "Sorted SID",
    }[strategy]

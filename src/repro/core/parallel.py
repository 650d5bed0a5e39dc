"""Sharded parallel sweeps with mergeable basis stores.

PR 1 made one process as fast as NumPy allows; this module scales a sweep
across cores.  The key observation (Kennedy & Nath's fingerprint reuse) is
that a sweep is *embarrassingly shardable*: each point's fingerprint rounds
are independent, and a missed reuse opportunity only ever costs duplicate
work — never correctness — so shard-local basis stores can speculate freely
and be reconciled afterwards.

One engine (:func:`sharded_sweep`) serves both front ends,
:class:`ParallelExplorer` and :class:`~repro.scenario.ScenarioRunner`; the
explorer is its one-column case.  Each front end contributes its one serial
loop, which draws every point's Monte Carlo rounds through a *rounds
provider* ``(point, count, start) -> {column: values}``.  The engine runs
that loop in two phases:

1. **Speculate** (parallel): the parameter space is split into contiguous
   shards, one fork-pool worker per shard.  Each worker runs the serial
   loop over its shard with its own cold stores, a fresh standard-draw
   cache, and a *recording* provider, and ships back one record per
   visited point: the fingerprint rounds plus — for points it fully
   simulated — the rounds past the fingerprint, per column.
2. **Replay-merge** (serial, cheap): the master runs the same serial loop
   over the canonical space order against the merged stores with a
   *playback* provider, re-probing every incoming fingerprint so
   cross-shard duplicate bases collapse into mappings.  A replay miss
   consumes the worker's recorded rounds; in the rare case a shard reused
   a point the canonical order simulates fully, the master re-runs that
   point's completion rounds itself.
   (:meth:`BasisStore.merge` / :meth:`FingerprintIndex.merge` apply the
   same collapse rule at store granularity — point order forgotten — for
   offline merging of independently built stores; the replay here works
   point-by-point because the bit-parity invariant needs the canonical
   visit order.)

Because simulations are deterministic under the shared seed bank, the
replay *is* the serial algorithm with sampling outsourced: per-point
metrics, reuse decisions, basis ids, mappings, and counters are all
bit-identical to the serial sweep for every worker count.  (The engine
therefore guarantees more than the documented invariant — estimates may
never differ; decisions happen not to either.)  Only the *shard-side* work
varies with the shard count; :class:`ParallelStats` accounts for it.

Both phases run on the columnar match engine: shard stores and the merged
replay store validate each probe's candidates through the vectorized
``find_matrix`` kernels (with contiguous fingerprint/key matrices grown
incrementally as bases are adopted), so sharding and columnar matching
compose — and because the columnar path is bit-identical to the scalar
loop, the replay-merge parity invariant is untouched.  Offline store
reconciliation (:meth:`BasisStore.merge`) adopts a shard's columnar
matrices with one concatenate per fingerprint size in verbatim mode and
re-probes incoming bases through the same columnar engine otherwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import os
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.blackbox import draws
from repro.blackbox.base import Params
from repro.core.adaptive import AdaptiveBudget
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator
from repro.core.explorer import (
    VALUE,
    ExplorationResult,
    ExplorerStats,
    ParameterExplorer,
    Rounds,
    Simulation,
)
from repro.core.mapping import MappingFamily
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank
from repro.core.supervise import (
    ShardSupervisor,
    SupervisionPolicy,
    SupervisionReport,
)

# ---------------------------------------------------------------------------
# Fork fan-out
#
# Workers are forked, not spawned: the shard context (simulation callable,
# front-end factory, scenario object, ...) is handed over through inherited
# memory instead of pickling, so closures and bound methods parallelize as
# well as module-level functions.  Only the shard *results* cross the wire.
#
# Execution routes through repro.core.supervise: each shard attempt is an
# individually submitted future the supervisor can deadline, retry on a
# rebuilt pool after a worker death, or — once retries exhaust — recompute
# in-process, so one dead or hung worker no longer costs the whole sweep.
# Shards are deterministic under the shared seed bank, so none of that
# recovery can change results.

#: Token -> (context, runner).  Entries are registered *before* the pool
#: forks, so every child inherits the full dict; the token each worker is
#: handed picks its own sweep's entry, which is what lets two sweeps fork
#: concurrently (the old design had a single context slot and had to hold
#: its lock for the pool's entire lifetime, fully serializing them).
_SHARD_CONTEXTS: Dict[int, Tuple[Any, Callable[[Any, int], Any]]] = {}
#: Guards only the registry mutations, never held across a fork or a
#: pool's lifetime.  Forked children must not touch it at all — another
#: parent thread could have held it at fork time, which would deadlock
#: the child — so ``_invoke_shard`` reads the dict with a bare ``get``
#: (atomic under the GIL, and the fork itself happens while the forking
#: thread holds the GIL, so children see a consistent dict).
_SHARD_CONTEXT_LOCK = threading.Lock()
_SHARD_TOKENS = itertools.count()
_IN_WORKER = False


def default_worker_count() -> int:
    """Worker count when the caller does not choose one (all cores)."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether fork-based pools exist on this platform (Linux: yes)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_initializer() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    draws.initialize_worker()


def _invoke_shard(token: int, index: int) -> Any:
    entry = _SHARD_CONTEXTS.get(token)
    assert entry is not None, "shard context lost across fork"
    context, runner = entry
    return runner(context, index)


class _ForkShardPool:
    """Supervisable pool over a fork-context ``ProcessPoolExecutor``.

    Workers resolve their sweep's context through the inherited registry
    by token.  ``abandon`` terminates the worker processes outright —
    it is the supervisor's remedy for a broken pool or a worker stuck
    past its deadline, where a clean shutdown would block forever.
    """

    def __init__(self, token: int, workers: int):
        self._token = token
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_initializer,
        )

    def submit(self, index: int):
        return self._executor.submit(_invoke_shard, self._token, index)

    def abandon(self) -> None:
        processes = list(getattr(self._executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=1.0)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def fork_map(
    runner: Callable[[Any, int], Any],
    context: Any,
    shard_count: int,
    workers: int,
    *,
    policy: Optional[SupervisionPolicy] = None,
    indices: Optional[Iterable[int]] = None,
    on_shard_complete: Optional[Callable[[int, Any], None]] = None,
    report_sink: Optional[Callable[[SupervisionReport], None]] = None,
) -> List[Any]:
    """Run ``runner(context, i)`` for every shard, forking when it helps.

    Falls back to in-process execution — same code path, same results —
    when one worker suffices, fork is unavailable (gated, not emulated
    with spawn: spawn would require pickling arbitrary simulations), or
    we are already inside a worker (no nested pools).

    Execution is supervised (see :mod:`repro.core.supervise`): ``policy``
    sets retry/timeout/degrade behavior (default
    :data:`~repro.core.supervise.DEFAULT_POLICY`), ``indices`` restricts
    the run to a subset of ``range(shard_count)`` (checkpoint resumes
    recompute only the remainder; results come back in ``indices`` order),
    ``on_shard_complete(index, result)`` fires as each shard's result is
    accepted (checkpoint writers hook in here), and ``report_sink``
    receives the :class:`~repro.core.supervise.SupervisionReport` after
    the run.
    """
    if indices is None:
        indices = range(shard_count)
    indices = [int(i) for i in indices]
    workers = min(int(workers), len(indices)) if indices else 0
    pooled = workers > 1 and not _IN_WORKER and fork_available()
    token: Optional[int] = None
    pool_factory = None
    if pooled:
        token = next(_SHARD_TOKENS)
        with _SHARD_CONTEXT_LOCK:
            _SHARD_CONTEXTS[token] = (context, runner)

        def pool_factory(token=token, workers=workers):
            return _ForkShardPool(token, workers)

    supervisor = ShardSupervisor(
        runner,
        context,
        indices,
        policy,
        pool_factory=pool_factory,
        on_shard_complete=on_shard_complete,
    )
    try:
        results = supervisor.run()
    finally:
        if token is not None:
            with _SHARD_CONTEXT_LOCK:
                _SHARD_CONTEXTS.pop(token, None)
    if report_sink is not None:
        report_sink(supervisor.report)
    return [results[index] for index in indices]


def shard_slices(total: int, shard_count: int) -> List[slice]:
    """Split ``range(total)`` into contiguous, balanced slices.

    Contiguity matters: replay order is concatenation order, so contiguous
    shards keep every shard's internal visit order identical to the serial
    sweep's (shard 0's speculation is exactly the serial prefix).
    """
    shard_count = max(1, min(shard_count, total)) if total else 1
    bounds = np.linspace(0, total, shard_count + 1).astype(int)
    return [
        slice(int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


# ---------------------------------------------------------------------------
# The sharded sweep engine (shared by ParallelExplorer and ScenarioRunner)


@dataclass
class ParallelStats:
    """Shard-side work accounting (what the canonical stats hide).

    ``ExplorationResult.stats`` reports the serial-equivalent counters so
    estimates and bench counters are invariant to the shard count; this
    records what the shards actually did, including the speculation that
    the merge collapsed.
    """

    workers: int = 0
    shard_sizes: Tuple[int, ...] = ()
    #: Samples actually drawn inside shards (>= stats.samples_drawn).  For
    #: scenario sweeps this counts Monte Carlo rounds (one round covers all
    #: output columns), matching ``RunnerStats.rounds_executed``.
    shard_samples_drawn: int = 0
    #: Shard-created bases that collapsed into mappings during the merge.
    bases_collapsed: int = 0
    #: Points the canonical replay had to resimulate because their shard
    #: reused them while the canonical order demanded a full simulation.
    points_resimulated: int = 0
    #: Per-shard work counters (ExplorerStats or RunnerStats instances).
    shard_stats: List[object] = field(default_factory=list)
    #: Shards whose outcomes were consumed from a resumable checkpoint
    #: instead of being recomputed this run.
    shards_resumed: int = 0
    #: The :class:`~repro.core.supervise.SupervisionReport` for the shard
    #: fan-out (None when every shard came from a checkpoint).
    supervision: Optional[object] = None


@dataclass
class _ShardRecord:
    """One visited point's shipped rounds, per output column.

    ``fingerprints`` are the point's fingerprint rounds.  ``samples`` is
    set only when the shard simulated the point: the rounds it drew past
    the fingerprint.  Under an adaptive budget their length IS the point's
    adaptive count, and the canonical replay consumes them block by block
    (the stopping rule is a pure function of the sample values, so the
    replay asks for exactly these rounds back in exactly these blocks).
    """

    fingerprints: Dict[str, np.ndarray]
    samples: Optional[Dict[str, np.ndarray]] = None

    @property
    def rounds(self) -> int:
        """Monte Carlo rounds the shard drew for this point."""
        column = next(iter(self.fingerprints))
        drawn = len(self.fingerprints[column])
        if self.samples is not None:
            drawn += len(self.samples[column])
        return drawn


@dataclass
class _ShardOutcome:
    records: List[_ShardRecord]
    stats: Any  # the front end's ExplorerStats or RunnerStats


class _Recorder:
    """Rounds provider for a shard job: draws live, keeps every point's
    rounds as a :class:`_ShardRecord` (one per visited point, in order)."""

    def __init__(self, live: Rounds):
        self._live = live
        self.records: List[_ShardRecord] = []

    def __call__(
        self, point: Params, count: int, start: int
    ) -> Dict[str, np.ndarray]:
        values = self._live(point, count, start)
        if start == 0:  # fingerprint rounds open each point
            self.records.append(_ShardRecord(values))
            return values
        record = self.records[-1]
        if record.samples is None:
            record.samples = values
        else:  # a later adaptive block
            record.samples = {
                column: np.concatenate([drawn, values[column]])
                for column, drawn in record.samples.items()
            }
        return values


class _Playback:
    """Rounds provider for the canonical replay: serves the shards' records.

    Fingerprint rounds (``start == 0``) open the next record; completion
    rounds are slices of the record's samples.  Only when a shard reused
    a point the canonical order must simulate does a request fall through
    to the live provider; such points are counted once, at their first
    completion block, however many blocks they draw.
    """

    def __init__(
        self,
        records: Iterable[_ShardRecord],
        live: Rounds,
        fingerprint_size: int,
    ):
        self._records = iter(records)
        self._live = live
        self._fingerprint_size = fingerprint_size
        self._record: Optional[_ShardRecord] = None
        self.points_resimulated = 0

    def __call__(
        self, point: Params, count: int, start: int
    ) -> Dict[str, np.ndarray]:
        if start == 0:
            self._record = next(self._records)
            return self._record.fingerprints
        offset = start - self._fingerprint_size
        if self._record.samples is not None:
            return {
                column: samples[offset:offset + count]
                for column, samples in self._record.samples.items()
            }
        if offset == 0:
            self.points_resimulated += 1
        return self._live(point, count, start)


@dataclass
class _ShardJobs:
    """Inherited-by-fork description of one sweep's shard jobs."""

    #: Builds a serial front end with fresh, cold stores for one shard.
    make_serial: Callable[[], Any]
    shards: List[List[Dict[str, float]]]


def _run_shard(jobs: _ShardJobs, index: int) -> _ShardOutcome:
    serial = jobs.make_serial()
    recorder = _Recorder(serial._simulate_rounds)
    result = serial._sweep(jobs.shards[index], recorder)
    return _ShardOutcome(recorder.records, result.stats)


def space_digest(points: List[Dict[str, float]]) -> str:
    """Order-sensitive digest of a parameter space (bitwise on floats).

    Checkpoint configs carry this so a resume against a *different* space
    (or the same points in a different order — replay order is sacred)
    refuses instead of silently mixing sweeps.
    """
    canonical = json.dumps(
        [
            [[str(k), float(v).hex()] for k, v in sorted(p.items())]
            for p in points
        ],
        separators=(",", ":"),
    )
    return f"{zlib.crc32(canonical.encode()):08x}"


def _checkpoint_config(
    serial, points, shards, columns: Tuple[str, ...], identity: dict
) -> dict:
    """A sweep's checkpoint identity: what a resume must agree on."""
    budget: Optional[AdaptiveBudget] = serial.adaptive
    adaptive = None
    if budget is not None:
        adaptive = {
            "rtol": float(budget.rtol).hex(),
            "atol": float(budget.atol).hex(),
            "confidence": float(budget.confidence).hex(),
            "max_samples": budget.max_samples,
            "min_samples": budget.min_samples,
            "method": budget.method,
        }
    return {
        **identity,
        "columns": list(columns),
        "space": space_digest(points),
        "shard_sizes": [len(shard) for shard in shards],
        "samples_per_point": int(serial.samples_per_point),
        "fingerprint_size": int(serial.fingerprint_size),
        "seed_master": int(serial.seed_bank.master_seed),
        "adaptive": adaptive,
    }


def _encode_outcome(
    outcome: _ShardOutcome, columns: Tuple[str, ...]
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Checkpoint encoding of one shard outcome (meta dict + arrays).

    Column arrays are keyed positionally (``fp{point}c{column}``): the
    checkpoint config pins the column list, so positions are stable.
    """
    arrays: Dict[str, np.ndarray] = {}
    for position, record in enumerate(outcome.records):
        for col, column in enumerate(columns):
            arrays[f"fp{position}c{col}"] = np.asarray(
                record.fingerprints[column], dtype=np.float64
            )
            if record.samples is not None:
                arrays[f"s{position}c{col}"] = np.asarray(
                    record.samples[column], dtype=np.float64
                )
    meta = {
        "simulated": [r.samples is not None for r in outcome.records],
        "stats": dataclasses.asdict(outcome.stats),
    }
    return meta, arrays


def _decode_outcome(
    meta: dict,
    arrays: Dict[str, np.ndarray],
    columns: Tuple[str, ...],
    stats_type: type,
) -> _ShardOutcome:
    def point_arrays(prefix: str, position: int) -> Dict[str, np.ndarray]:
        return {
            column: np.asarray(arrays[f"{prefix}{position}c{col}"])
            for col, column in enumerate(columns)
        }

    records = [
        _ShardRecord(
            point_arrays("fp", position),
            point_arrays("s", position) if simulated else None,
        )
        for position, simulated in enumerate(meta["simulated"])
    ]
    return _ShardOutcome(records, stats_type(**meta["stats"]))


def sharded_sweep(
    replay,
    make_shard: Callable[[], Any],
    points: List[Dict[str, float]],
    *,
    columns: Tuple[str, ...],
    stats_type: type,
    identity: dict,
    workers: int,
    supervision: Optional[SupervisionPolicy],
    checkpoint: Optional[str],
):
    """Speculate in shards, then replay the canonical order; one engine for
    :class:`ParallelExplorer` and :class:`~repro.scenario.ScenarioRunner`.

    ``replay`` is a serial front end whose stores become the merged
    stores; ``make_shard()`` builds a serial front end with cold stores
    for one shard job.  Both expose the front end's one serial loop,
    ``_sweep(points, rounds)``, and its live rounds provider,
    ``_simulate_rounds``.  Shard jobs run the loop with a recording
    provider; the replay runs it over every point with a playback
    provider — so reuse decisions, per-point metrics, and counters are
    serial by construction, and cross-shard duplicate bases collapse
    exactly where a serial sweep would have reused them.

    ``columns`` are the front end's output columns, ``stats_type`` its
    stats dataclass, and ``identity`` its entries in the checkpoint
    config.  With ``checkpoint`` set, completed-shard outcomes are
    persisted as they arrive and a restarted run consumes the valid
    records, recomputing only the remainder — bit-identical to an
    uninterrupted run either way.
    """
    shards = [points[s] for s in shard_slices(len(points), workers)]
    loaded: Dict[int, _ShardOutcome] = {}
    on_complete = None
    if checkpoint is not None:
        from repro.core.persist import SweepCheckpoint

        store = SweepCheckpoint(
            checkpoint,
            _checkpoint_config(replay, points, shards, columns, identity),
        )
        loaded = {
            index: _decode_outcome(meta, arrays, columns, stats_type)
            for index, (meta, arrays) in store.load().items()
            if 0 <= index < len(shards)
        }

        def on_complete(index: int, outcome: _ShardOutcome) -> None:
            store.record(index, *_encode_outcome(outcome, columns))

    remaining = [i for i in range(len(shards)) if i not in loaded]
    reports: List[SupervisionReport] = []
    by_index = dict(loaded)
    if remaining:
        computed = fork_map(
            _run_shard,
            _ShardJobs(make_shard, shards),
            len(shards),
            workers,
            policy=supervision,
            indices=remaining,
            on_shard_complete=on_complete,
            report_sink=reports.append,
        )
        by_index.update(zip(remaining, computed))
    outcomes = [by_index[index] for index in range(len(shards))]
    records = [record for outcome in outcomes for record in outcome.records]
    playback = _Playback(
        records, replay._simulate_rounds, replay.fingerprint_size
    )
    result = replay._sweep(points, playback)
    # A resimulated point creates bases (one per column) the shards never
    # did; every other canonical basis adopted a shard's.
    adopted = (
        result.stats.bases_created
        - playback.points_resimulated * len(columns)
    )
    shard_bases = sum(outcome.stats.bases_created for outcome in outcomes)
    result.parallel = ParallelStats(
        workers=workers,
        shard_sizes=tuple(len(outcome.records) for outcome in outcomes),
        shard_samples_drawn=sum(record.rounds for record in records),
        bases_collapsed=shard_bases - adopted,
        points_resimulated=playback.points_resimulated,
        shard_stats=[outcome.stats for outcome in outcomes],
        shards_resumed=len(loaded),
        supervision=reports[0] if reports else None,
    )
    return result


class ParallelExplorer:
    """A :class:`ParameterExplorer` sharded across a pool of workers.

    Same ``run(space) -> ExplorationResult`` contract; per-point metrics
    (and in this implementation even reuse decisions and counters) are
    bit-identical to the serial explorer for any ``workers``.  The merged
    basis store is available as ``store`` afterwards, exactly like the
    serial explorer's.  Each worker's shard-local store mirrors the
    serial constructor's (``mapping_family`` + ``index_strategy`` +
    shared estimator).

    ``basis_store`` warm-starts the sweep: a caller-provided (typically
    snapshot-loaded, see :mod:`repro.core.persist`) store becomes the
    canonical replay/merge store, exactly as passing ``basis_store`` to
    the serial explorer would.  Shard workers still speculate against
    fresh cold stores — speculation only ever costs duplicate samples,
    and the canonical replay probes the warm store, so per-point metrics
    and decisions stay bit-identical to a serial warm sweep for any
    worker count (a point a shard simulated but the warm store covers is
    simply reused, its shipped samples dropped; the rare converse falls
    through to a real resimulation, as ever).
    """

    def __init__(
        self,
        simulation: Simulation,
        workers: Optional[int] = None,
        samples_per_point: int = 1000,
        fingerprint_size: int = 10,
        index_strategy: str = "normalization",
        mapping_family: Optional[MappingFamily] = None,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        adaptive: Optional[AdaptiveBudget] = None,
        basis_store: Optional[BasisStore] = None,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint: Optional[str] = None,
    ):
        if fingerprint_size < 1:
            raise ValueError("fingerprint_size must be at least 1")
        if samples_per_point < fingerprint_size:
            raise ValueError(
                "samples_per_point must be >= fingerprint_size (fingerprint "
                "rounds double as the first simulation rounds)"
            )
        self.workers = (
            default_worker_count() if workers is None else int(workers)
        )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.simulation = simulation
        self.samples_per_point = samples_per_point
        self.fingerprint_size = fingerprint_size
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()
        self.adaptive = adaptive
        self._index_strategy = index_strategy
        self._mapping_family = mapping_family
        # A repro.api.Session stands in for its store wherever a
        # basis_store is accepted (duck-typed: no core -> api import).
        if basis_store is not None and hasattr(
            basis_store, "resolve_basis_store"
        ):
            basis_store = basis_store.resolve_basis_store()
        # `is None`, not `or`: an empty warm store is falsy (len() == 0)
        # and must still win over the default.
        self.store = (
            basis_store if basis_store is not None else self._new_store()
        )
        self.supervision = supervision
        self.checkpoint = checkpoint

    def _new_store(self) -> BasisStore:
        return BasisStore(
            mapping_family=self._mapping_family,
            index_strategy=self._index_strategy,
            estimator=self.estimator,
        )

    def _serial(self, store: BasisStore) -> ParameterExplorer:
        return ParameterExplorer(
            self.simulation,
            samples_per_point=self.samples_per_point,
            fingerprint_size=self.fingerprint_size,
            basis_store=store,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            adaptive=self.adaptive,
        )

    def run(self, space: Iterable[Params]) -> ExplorationResult:
        """Explore every point of ``space``: speculate in shards, then merge
        (see :func:`sharded_sweep`; ``checkpoint`` makes it resumable)."""
        return sharded_sweep(
            self._serial(self.store),
            lambda: self._serial(self._new_store()),
            [dict(p) for p in space],
            columns=(VALUE,),
            stats_type=ExplorerStats,
            identity={"engine": "explorer"},
            workers=self.workers,
            supervision=self.supervision,
            checkpoint=self.checkpoint,
        )

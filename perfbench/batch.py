"""The two batch workloads: ``query-capacity`` and ``sweep-synth``.

Each repetition runs in a fresh interpreter (``python3 perfbench/batch.py
--workload W --seed N --spawned T --trace 0|1``), so every repetition
pays what a one-shot query pays: interpreter start, imports, a cold
standard-draw cache.  The repetition prints one JSON document: its
set-up and run times, work counters, peak RSS, the answer digests the
parent checks, and (traced) the per-layer span totals.

query-capacity
    The capacity-planning query of the paper's introduction at 52 weeks
    x purchase step 4 (53 x 14 x 14 = 10,388 points), 1000 samples,
    fingerprint 10: compiled by ``repro.lang``, run by
    ``ScenarioRunner``, answered by its ``OPTIMIZE`` clause.  Chosen as
    the analyst's front door: it crosses lang, probdb, scenario, the
    stores and the optimizer, and it mostly *reads* the stores (almost
    every point reuses one of ~100 bases).
sweep-synth
    ``ParameterExplorer`` over ``SynthBasisModel`` (2000 basis classes,
    16,000 points, 1000 samples) in a seeded visit order.  Chosen
    because it bypasses lang/probdb/scenario and *writes* the store:
    one point in eight misses, simulates fully and adds a basis, so the
    store grows to 2000 bases while it is probed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from pace import host_pace, paced, time_reference
from spans import (
    Tracer,
    merge_snapshots,
    store_ratios,
    trace_backend,
    trace_box,
    trace_estimator,
    trace_store,
)

WEEKS = 52
PURCHASE_STEP = 4
SAMPLES = 1000
FINGERPRINT = 10
SYNTH_BASES = 2000
SYNTH_POINTS = 16000
RISK_BOUND = 0.2
#: Cores bought per purchase.  The introduction example's 12 cannot keep
#: up with 52 weeks of demand growth, so every plan would be infeasible
#: and OPTIMIZE would answer None; 30 makes the answer a real plan.
PURCHASE_VOLUME = 30.0

QUERY = f"""
DECLARE PARAMETER @current_week AS RANGE 0 TO {WEEKS} STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO {WEEKS} STEP BY {PURCHASE_STEP};
DECLARE PARAMETER @purchase2 AS RANGE 0 TO {WEEKS} STEP BY {PURCHASE_STEP};
SELECT DemandModel(@current_week, 14) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < {RISK_BOUND}
GROUP BY purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
"""


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def stamped(points, total: int, marks: list, tracer=None):
    """Yield ``points``, timing the host's pace at SEGMENTS evenly spaced
    points of the visit order: ``marks`` gets (clock, reference seconds)
    there, the clock read just before the reference ran.  Traced, the
    reference is a span of its own, so no layer's self time holds it."""
    clock = time.perf_counter
    reference = time_reference
    if tracer is not None:
        reference = tracer.wrap(PACE_SPAN, time_reference)
    boundaries = {total * k // SEGMENTS for k in range(SEGMENTS)}
    for index, point in enumerate(points):
        if index in boundaries:
            marks.append((clock(), reference()))
        yield point


def segment_times(marks, started: float, ended: float) -> list:
    """(seconds, reference seconds) per segment of the run: the run cut
    at the marks, less the reference's own time."""
    ends = [before for before, _ in marks[1:]] + [ended]
    starts = [started] + [before for before, _ in marks[1:]]
    return [
        (end - start - pace, pace)
        for start, end, (_, pace) in zip(starts, ends, marks)
    ]


def paced_run(document) -> float:
    """A repetition's run time at the fixed host pace (see pace.py),
    paced by the mean of the reference times taken through the run."""
    segments = document["segments"]
    seconds = sum(seconds for seconds, _ in segments)
    return paced(seconds, sum(pace for _, pace in segments) / len(segments))


def _metrics_text(metrics) -> str:
    from repro.core.persist import encode_metrics

    return json.dumps(encode_metrics(metrics), sort_keys=True)


# -- query-capacity ---------------------------------------------------------


def _query_registry(tracer):
    from repro.blackbox import BlackBoxRegistry, CapacityModel, DemandModel

    registry = BlackBoxRegistry()
    boxes = (
        (DemandModel(), "DemandModel"),
        (
            CapacityModel(
                base_capacity=16.0,
                purchase_volume=PURCHASE_VOLUME,
                structure_size=1.5,
            ),
            "CapacityModel",
        ),
    )
    for box, name in boxes:
        if tracer is not None:
            trace_box(tracer, box)
        registry.register(box, name)
    return registry


def setup_query(seed: int, tracer):
    """Compile the query and build its runner; returns a ``run`` callable."""
    from repro import ScenarioRunner, compile_query
    from repro.core.seeds import SeedBank
    from repro.scenario import boolean_column_families

    registry = _query_registry(tracer)
    compile_started = time.perf_counter()
    bound = compile_query(QUERY, registry)
    compile_seconds = time.perf_counter() - compile_started
    runner = ScenarioRunner(
        bound.scenario,
        samples_per_point=SAMPLES,
        fingerprint_size=FINGERPRINT,
        seed_bank=SeedBank(seed),
        column_families=boolean_column_families(
            bound.scenario, ("overload",)
        ),
    )
    selector = bound.selector
    marks = []
    space = runner.scenario.space
    points = space.points
    total = (WEEKS + 1) * (WEEKS // PURCHASE_STEP + 1) ** 2
    space.points = lambda: stamped(points(), total, marks, tracer)
    run = runner.run
    if tracer is not None:
        tracer.total["lang.compile"] += compile_seconds
        tracer.calls["lang.compile"] += 1
        for store in runner.stores.values():
            trace_store(tracer, store)
        trace_estimator(tracer, runner.estimator)
        trace_backend(tracer)
        tracer.patch(bound.scenario, "simulate_batch", "probdb.execute")
        tracer.patch(selector, "solve", "core.optimizer.solve")
        run = tracer.wrap("scenario.runner", runner.run)

    def work():
        result = run()
        answer = result.optimize(selector)
        return result, answer

    def summarize(outcome) -> dict:
        result, answer = outcome
        keys = sorted(result.metrics)
        estimates = _sha(
            f"{key}|{column}|{_metrics_text(metrics)}"
            for key in keys
            for column, metrics in sorted(result.metrics[key].items())
        )
        stats = result.stats
        return {
            "points": stats.points_total,
            "samples": stats.rounds_executed,
            "check": {
                "estimates_sha256": estimates,
                "runner": {
                    "points_total": stats.points_total,
                    "points_reused": stats.points_reused,
                    "rounds_executed": stats.rounds_executed,
                    "bases_created": stats.bases_created,
                },
                "stores": {
                    column: store.stats.as_dict()
                    for column, store in sorted(runner.stores.items())
                },
                "answer": (
                    None
                    if answer.best is None
                    else answer.best_parameters()
                ),
                "feasible_groups": len(answer.feasible_groups),
            },
            "oracle_failures": _query_oracle(result, answer),
            "store_counters": _sum_store_stats(runner.stores.values()),
        }

    return work, summarize, marks


def _query_oracle(result, answer) -> list:
    """Re-derive the OPTIMIZE answer from the per-point expectations.

    An independent restatement of the query's constraint and objectives
    (max over weeks of E[overload] below the bound; latest purchase1,
    then latest purchase2), so an optimizer fault shows on every seed.
    """
    failures = []
    points = (WEEKS + 1) * (WEEKS // PURCHASE_STEP + 1) ** 2
    if len(result.metrics) != points:
        failures.append(f"answered {len(result.metrics)} points, not {points}")
    worst = {}
    for key, columns in result.metrics.items():
        point = result.points[key]
        risk = columns["overload"].expectation
        if not 0.0 <= risk <= 1.0:
            failures.append(f"E[overload] {risk} outside [0, 1] at {point}")
        group = (point["purchase1"], point["purchase2"])
        worst[group] = max(worst.get(group, -1.0), risk)
    feasible = [group for group, risk in worst.items() if risk < RISK_BOUND]
    expected = max(feasible) if feasible else None
    got = (
        None
        if answer.best is None
        else (
            answer.best_parameters()["purchase1"],
            answer.best_parameters()["purchase2"],
        )
    )
    if got != expected:
        failures.append(f"OPTIMIZE answered {got}, oracle says {expected}")
    return failures


# -- sweep-synth ------------------------------------------------------------


def setup_sweep(seed: int, tracer):
    from repro.blackbox import SynthBasisModel
    from repro.core.explorer import ParameterExplorer
    from repro.core.seeds import SeedBank

    order = np.random.default_rng(seed).permutation(SYNTH_POINTS)
    space = [{"point": float(point)} for point in order]
    box = SynthBasisModel(basis_count=SYNTH_BASES)
    if tracer is not None:
        trace_box(tracer, box)
    bank = SeedBank(seed)
    explorer = ParameterExplorer(
        box,
        samples_per_point=SAMPLES,
        fingerprint_size=FINGERPRINT,
        seed_bank=bank,
    )
    run = explorer.run
    if tracer is not None:
        trace_store(tracer, explorer.store)
        trace_estimator(tracer, explorer.estimator)
        trace_backend(tracer)
        run = tracer.wrap("core.explorer", explorer.run)

    marks = []

    def work():
        return run(stamped(space, len(space), marks, tracer))

    def summarize(result) -> dict:
        points = [result.points[key] for key in sorted(result.points)]
        stats = result.stats
        return {
            "points": stats.points_total,
            "samples": stats.samples_drawn,
            "check": {
                "estimates_sha256": _sha(
                    f"{p.params['point']}|{_metrics_text(p.metrics)}"
                    for p in points
                ),
                "reuse_sha256": _sha(
                    f"{p.params['point']}|{p.reused}|{p.basis_id}"
                    for p in points
                ),
                "explorer": {
                    "points_total": stats.points_total,
                    "points_reused": stats.points_reused,
                    "bases_created": stats.bases_created,
                    "samples_drawn": stats.samples_drawn,
                },
                "store": explorer.store.stats.as_dict(),
            },
            "oracle_failures": _sweep_oracle(result, box, bank, seed),
            "store_counters": _sum_store_stats([explorer.store]),
        }

    return work, summarize, marks


def _sweep_oracle(result, box, bank, seed) -> list:
    """SynthBasis has exactly one basis per residue class by construction.

    Every point must reuse the basis its class's first visit created,
    and a sample of reused points must carry the estimate a full direct
    simulation gives (the class mappings are exact affine maps).
    """
    from repro.core.estimator import Estimator

    failures = []
    creator_class = {
        p.basis_id: int(p.params["point"]) % SYNTH_BASES
        for p in result.points.values()
        if not p.reused
    }
    if len(creator_class) != SYNTH_BASES:
        failures.append(
            f"{len(creator_class)} bases created, expected {SYNTH_BASES}"
        )
    reused = [p for p in result.points.values() if p.reused]
    for p in reused:
        if creator_class.get(p.basis_id) != int(p.params["point"]) % SYNTH_BASES:
            failures.append(f"point {p.params['point']} reused a foreign basis")
            break
    rng = np.random.default_rng(seed + 1)
    seeds = bank.seed_array(SAMPLES)
    estimator = Estimator()
    for index in rng.choice(len(reused), size=min(16, len(reused)), replace=False):
        p = reused[int(index)]
        direct = estimator.estimate(box.sample_batch(p.params, seeds))
        scale = max(1.0, abs(direct.expectation))
        if abs(direct.expectation - p.metrics.expectation) > 1e-9 * scale:
            failures.append(
                f"point {p.params['point']}: reused E={p.metrics.expectation!r}"
                f", direct E={direct.expectation!r}"
            )
    return failures


def _sum_store_stats(stores) -> dict:
    total = {}
    for store in stores:
        for key, value in store.stats.as_dict().items():
            total[key] = total.get(key, 0) + value
    return total


SETUPS = {"query-capacity": setup_query, "sweep-synth": setup_sweep}
SETUP_SAMPLES = 3
#: Host pace samples per repetition, at evenly spaced points of the visit
#: order (~0.15 s apart on query-capacity, ~0.04 s on sweep-synth): the
#: host's speed flips within seconds, so a run is paced by many samples.
SEGMENTS = 64
PACE_SPAN = "perfbench.pace"
#: Inputs per untraced run: repetition i runs input seed
#: ``seed * INPUTS_PER_RUN + i % INPUTS_PER_RUN``.  The work an input
#: takes depends on its seed (sweep-synth tests 14k-28k index candidates,
#: query-capacity creates 66-150 bases), so a median over several inputs
#: moves less from one run's seed to the next than one input's would.
#: A traced run keeps to the first input, so its work counts are those
#: of one input.
INPUTS_PER_RUN = 3

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
EXPECTED_PATH = os.path.join(_HERE, "expected.json")


def repetition(workload: str, seed: int, spawned: float, traced: bool) -> dict:
    """One cold repetition; ``spawned`` is the parent's monotonic clock at
    process creation, so set-up includes interpreter start and imports."""
    tracer = Tracer() if traced else None
    work, summarize, marks = SETUPS[workload](seed, tracer)
    setup_seconds = time.monotonic() - spawned
    setup_pace = host_pace()
    started = time.perf_counter()
    outcome = work()
    ended = time.perf_counter()
    # Snapshot before the checks: the oracles call traced layers too.
    spans = None if tracer is None else tracer.snapshot()
    document = summarize(outcome)
    document.update(
        setup_s=paced(setup_seconds, setup_pace),
        raw_setup_s=setup_seconds,
        run_s=ended - started,
        segments=segment_times(marks, started, ended),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        trace=spans,
    )
    return document


def spawn_repetition(workload: str, seed: int, traced: bool,
                     setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its document."""
    import subprocess

    spawned = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(seed),
            "--spawned", repr(spawned),
            "--trace", "1" if traced else "0",
        ] + (["--setup-only"] if setup_only else []),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=_SRC),
        text=True,
        timeout=150,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def expected_checks(workload: str) -> dict:
    """Committed answers per input seed (see record_expected.py)."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle).get(workload, {})


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat cold repetitions for ``seconds``; medians and checks.

    Traced runs alternate untraced and traced repetitions so the tracing
    overhead is measured under the same host conditions.
    """
    from run import format_layers, layer_table, median

    first = seed * INPUTS_PER_RUN
    inputs = [first] if traced else [first + k for k in range(INPUTS_PER_RUN)]
    # Extra set-up-only processes: set-up is short and noisy, so its
    # median needs more samples than the repetitions alone give.
    setups = [
        spawn_repetition(
            workload, inputs[index % len(inputs)], False, setup_only=True
        )["setup_s"]
        for index in range(SETUP_SAMPLES)
    ]
    plain, traced_docs = [], []
    started = time.monotonic()
    while True:
        use_trace = traced and len(traced_docs) < len(plain)
        input_seed = inputs[len(plain) % len(inputs)]
        document = spawn_repetition(workload, input_seed, use_trace)
        document["seed"] = input_seed
        (traced_docs if use_trace else plain).append(document)
        elapsed = time.monotonic() - started
        done = len(plain) + len(traced_docs)
        enough = plain and (traced_docs or not traced)
        # Start another repetition while at least half of it fits.
        if enough and elapsed * (done + 0.5) / done > seconds:
            break
    documents = plain + traced_docs

    failures = []
    committed = expected_checks(workload)
    earlier = {}
    failed = 0
    for index, document in enumerate(documents):
        input_seed = document["seed"]
        wrong = list(document["oracle_failures"])
        reference = earlier.setdefault(input_seed, document)
        if document["check"] != reference["check"]:
            wrong.append(
                f"repetition {index} answered input seed {input_seed} "
                f"differently from an earlier repetition"
            )
        expected = committed.get(str(input_seed))
        if expected is not None and document["check"] != expected:
            wrong.append(
                f"repetition {index} differs from the committed answer "
                f"for input seed {input_seed}"
            )
        if wrong:
            failed += document["points"]
            failures.extend(wrong)
    attempted = sum(document["points"] for document in documents)

    points = plain[0]["points"]
    run_times = [document["run_s"] for document in plain]
    run_s = median(paced_run(d) for d in plain)
    points_per_s = points / run_s
    samples_per_point = plain[0]["samples"] / points
    setup_s = median(setups + [d["setup_s"] for d in plain])
    rss = median(d["peak_rss_mb"] for d in plain)
    lines = [
        f"workload {workload} seed {seed}: {len(plain)} untraced + "
        f"{len(traced_docs)} traced cold repetitions of {points} points "
        f"(input seeds {' '.join(str(d['seed']) for d in plain)})",
        "  (times are paced: seconds at a fixed host speed, see pace.py)",
        f"  points_per_s       {points_per_s:.2f} 1/s (median over runs; "
        f"unpaced {points / median(run_times):.2f})",
        f"  answer latency     {1000.0 * run_s:.1f} ms (the median run: a batch "
        f"answers every point when it ends)",
        f"  samples_per_point  {samples_per_point:.4f} count (input seed {first})",
        f"  setup_s            {setup_s:.4f} s (median of {len(setups) + len(plain)}; "
        f"unpaced {median(d['raw_setup_s'] for d in plain):.4f})",
        f"  peak_rss_mb        {rss:.2f} MB",
        f"  failed_fraction    {failed / attempted:.4f} ({failed} of {attempted} answers)",
        f"  run times (s)      {' '.join(f'{t:.3f}' for t in run_times)} (unpaced)",
    ]
    if not traced:
        metrics = {
            "setup_s": setup_s,
            "answers_per_s": points_per_s,
            "peak_rss_mb": rss,
        }
        return dict(metrics=metrics, lines=lines, failures=failures,
                    attempted=attempted, failed=failed)

    count = len(traced_docs)
    snapshot = merge_snapshots(d["trace"] for d in traced_docs)
    # The traced wall clock less the pace reference calls made in it.
    wall = sum(
        seconds for d in traced_docs for seconds, _ in d["segments"]
    ) / count
    rows, other = layer_table(
        snapshot, count, wall, setup_spans=("lang.compile", PACE_SPAN)
    )
    lines += format_layers(rows, other, wall)
    metrics = batch_layer_metrics(snapshot, count, plain[0]["store_counters"])
    metrics.update({
        "trace.base_s": wall,
        "trace.other_s": other,
        "trace.overhead": median(paced_run(d) for d in traced_docs) / run_s - 1.0,
        "samples_per_point": samples_per_point,
    })
    return dict(metrics=metrics, lines=lines, failures=failures,
                attempted=attempted, failed=failed)


def batch_layer_metrics(snapshot: dict, count: int, store: dict) -> dict:
    """Per-layer metrics of one traced repetition (means over ``count``)."""
    from run import empty_layers

    calls = lambda name: snapshot["calls"].get(name, 0) / count  # noqa: E731
    total = lambda name: snapshot["total"].get(name, 0.0) / count  # noqa: E731
    own = lambda name: snapshot["self"].get(name, 0.0) / count  # noqa: E731
    counted = lambda name: snapshot["counts"].get(name, 0) / count  # noqa: E731
    metrics = empty_layers()
    metrics.update({
        "blackbox.sample_batch.calls": calls("blackbox.sample_batch"),
        "blackbox.sample_batch.s": total("blackbox.sample_batch"),
        "blackbox.samples": counted("blackbox.samples"),
        "probdb.execute.self_s": own("probdb.execute"),
        "scenario.runner.self_s": own("scenario.runner"),
        "core.explorer.self_s": own("core.explorer"),
        "core.index.candidates.calls": calls("core.index.candidates"),
        "core.index.candidates.s": total("core.index.candidates"),
        "core.index.candidates_per_probe": (
            counted("core.index.candidates") / calls("core.index.candidates")
            if calls("core.index.candidates") else 0.0
        ),
        "core.mapping.validate.calls": calls("core.mapping.validate"),
        "core.mapping.validate.s": total("core.mapping.validate"),
        "core.mapping.rows_validated": counted("core.mapping.rows"),
        "core.basis.match.self_s": own("core.basis.match"),
        "core.basis.match_batch.s": total("core.basis.match_batch"),
        "core.basis.add.calls": calls("core.basis.add"),
        "core.basis.add.s": total("core.basis.add"),
        "core.estimator.estimate.s": total("core.estimator.estimate"),
        "core.estimator.remap.s": total("core.estimator.remap"),
        "core.optimizer.solve.s": total("core.optimizer.solve"),
        "lang.compile.s": total("lang.compile"),
    })
    for kernel in ("draw_block", "affine_validate", "sid_orders", "normal_forms"):
        metrics[f"core.backend.{kernel}.calls"] = calls(f"core.backend.{kernel}")
        metrics[f"core.backend.{kernel}.s"] = total(f"core.backend.{kernel}")
    metrics.update(store_ratios(store))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one batch repetition")
    parser.add_argument("--workload", choices=sorted(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop once ready to run; report only the set-up time",
    )
    args = parser.parse_args(argv)
    if args.setup_only:
        SETUPS[args.workload](args.seed, None)
        setup_seconds = time.monotonic() - args.spawned
        document = {"setup_s": paced(setup_seconds, host_pace())}
        sys.stdout.write(json.dumps(document) + "\n")
        return 0
    document = repetition(
        args.workload, args.seed, args.spawned, bool(args.trace)
    )
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI bench-regression gate: smoke-scale counters must match the baseline.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py [--workers N]
        [--baseline benchmarks/BENCH_smoke_baseline.json]
        [--time-factor 25.0] [--save-to out.json]

Runs the full ``run_all.py`` suite at ``smoke`` scale into a temporary
file, then compares against the committed baseline:

* **Deterministic counters** (``samples_drawn``, ``reuse_fraction``,
  ``step_invocations``, ...; every per-figure key except ``seconds``) must
  match **exactly**.  They are pure functions of the fixed seed bank, so
  any drift is a real behavior change — either a bug or an intentional
  change that must ship with a refreshed baseline (see ROADMAP subsystem
  notes for the refresh procedure).
* **Wall clock** is compared within a deliberately generous factor
  (default 25x) so the gate catches order-of-magnitude performance
  regressions without flaking on slow shared CI runners.

``--workers N`` runs the sweep sharded; by the parallel engine's
replay-merge invariant the counters must *still* match the serial
baseline, so CI runs this gate twice (serial and ``--workers 4``) against
one committed file.

``--faults-check`` runs the fault-injection smoke verification instead
of the gate: the full suite at ``--workers 4`` with a deterministic
fault plan that kills one shard's first attempt mid-sweep.  Shard
supervision (:mod:`repro.core.supervise`) must retry the crashed shard
and — because every shard is a pure function of the seed bank — land on
deterministic counters that match the committed serial baseline
**exactly**.  The check also asserts the fault actually fired, so a
silently disabled injection seam cannot turn the check into a no-op.

``--lifecycle-check`` runs the store-lifecycle smoke verification
instead of the gate: a fixture store is warmed by a deterministic probe
stream, half its bases are evicted by the reuse-value policy, and every
surviving answer — basis identity, mapping parameters, per-probe
``candidates_tested`` work — is exact-diffed against a fresh store built
from only the survivors.  The committed version-1 snapshot fixture must
also still load through the snapshot version-compat branch.

``--warm-check`` runs the warm-start smoke verification instead of the
gate: a cold ``--scale smoke`` pass that saves every sweep's basis store
(``run_all.py --warm-store``), then a warm serial rerun and a warm
``--workers 4`` rerun from those snapshots.  It verifies that (a) the
cold pass's deterministic counters still equal the committed baseline —
warm plumbing over an empty store directory is bitwise-neutral; (b) the
warm reruns reproduce the cold per-figure estimates *exactly* while
drawing strictly fewer samples; and (c) the warm serial and warm sharded
reruns agree exactly (counters and data points).

Exit status 0 on success, 1 on any mismatch (differences are printed).
"""

import argparse
import importlib.util
import json
import os
import sys
import tempfile

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(_BENCH_DIR, "BENCH_smoke_baseline.json")

#: Per-figure keys that legitimately vary between runs and machines.
#: ``match_seconds`` is the wall clock spent inside the basis-matching
#: engine (informational, like ``seconds``); the match engine's
#: *deterministic* counters — ``candidates_tested``, ``matches_found`` —
#: are exact-diffed like every other counter.
NON_DETERMINISTIC_KEYS = frozenset({"seconds", "match_seconds"})


def _load_run_all():
    spec = importlib.util.spec_from_file_location(
        "_run_all_for_gate", os.path.join(_BENCH_DIR, "run_all.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def deterministic_counters(document):
    """The regression-gated view of a bench document: figure -> counters."""
    return {
        figure: {
            key: value
            for key, value in entry.items()
            if key not in NON_DETERMINISTIC_KEYS
        }
        for figure, entry in document["figures"].items()
    }


def compare(baseline, measured, time_factor):
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    if measured.get("scale") != baseline.get("scale"):
        failures.append(
            f"scale mismatch: baseline {baseline.get('scale')!r}, "
            f"measured {measured.get('scale')!r}"
        )
    expected = deterministic_counters(baseline)
    actual = deterministic_counters(measured)
    for figure in sorted(set(expected) | set(actual)):
        if figure not in actual:
            failures.append(f"{figure}: missing from measured run")
            continue
        if figure not in expected:
            failures.append(f"{figure}: not present in baseline")
            continue
        for key in sorted(set(expected[figure]) | set(actual[figure])):
            want = expected[figure].get(key)
            got = actual[figure].get(key)
            if want != got:
                failures.append(
                    f"{figure}.{key}: baseline {want!r} != measured {got!r}"
                )
    budget = baseline.get("total_seconds", 0.0) * time_factor
    total = measured.get("total_seconds", 0.0)
    if budget > 0 and total > budget:
        failures.append(
            f"wall clock regression: {total:.2f}s exceeds "
            f"{time_factor:.0f}x the baseline "
            f"({baseline['total_seconds']:.2f}s)"
        )
    return failures


#: Figures that read/write warm stores (run_all's adaptive_figures); the
#: remaining figures must be byte-identical between cold and warm runs.
WARM_FIGURES = ("fig8", "fig9", "fig10", "fig11")

#: Counters only a --warm-store run records; stripped before comparing a
#: warm-driver cold pass against the (cold, untagged) committed baseline.
WARM_ONLY_KEYS = frozenset({"warm_reuse_fraction", "warm_loaded_bases"})

#: Per-figure ``FigureResult.data`` sub-keys that must be reproduced
#: exactly by a warm rerun.  Work counters inside the data digests
#: (points_reused, bases_created, ...) legitimately differ — warm runs
#: reuse prior-run bases — but the *estimates* may not move by a single
#: bit.
WARM_EXACT_DATA_KEYS = ("mean_expectation", "mean_stddev")


def _run_suite(run_all, scratch, tag, store_dir, workers):
    """One smoke run_all pass with warm stores; returns (bench, data)."""
    bench_path = os.path.join(scratch, f"{tag}.json")
    data_path = os.path.join(scratch, f"{tag}_data.json")
    run_all.main(
        [
            "--scale", "smoke",
            "--bench-out", bench_path,
            "--data-out", data_path,
            "--warm-store", store_dir,
            "--workers", str(workers),
        ]
    )
    with open(bench_path) as handle:
        bench = json.load(handle)
    with open(data_path) as handle:
        data = json.load(handle)
    return bench, data


def warm_check(baseline_path):
    """The warm-start smoke verification; returns failure strings."""
    failures = []
    baseline = None
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        failures.append(f"cannot read baseline {baseline_path}: {error}")

    run_all = _load_run_all()
    with tempfile.TemporaryDirectory() as scratch:
        store_dir = os.path.join(scratch, "stores")
        cold, cold_data = _run_suite(run_all, scratch, "cold", store_dir, 1)
        warm, warm_data = _run_suite(run_all, scratch, "warm", store_dir, 1)
        warm4, warm4_data = _run_suite(
            run_all, scratch, "warm4", store_dir, 4
        )

    # (a) Warm plumbing over an empty store directory is bitwise-neutral:
    # the cold pass must reproduce the committed baseline exactly (modulo
    # the warm_reuse_fraction annotation the warm driver adds).
    if baseline is not None:
        expected = deterministic_counters(baseline)
        measured = deterministic_counters(cold)
        for figure in sorted(set(expected) | set(measured)):
            got = {
                key: value
                for key, value in measured.get(figure, {}).items()
                if key not in WARM_ONLY_KEYS
            }
            if got != expected.get(figure):
                failures.append(
                    f"cold pass drifted from baseline at {figure}: "
                    f"{got!r} != {expected.get(figure)!r}"
                )

    # (b) Warm rerun: exact estimates, strictly fewer samples.
    for figure in WARM_FIGURES:
        cold_entry = cold["figures"].get(figure, {})
        warm_entry = warm["figures"].get(figure, {})
        cold_samples = cold_entry.get("samples_drawn")
        warm_samples = warm_entry.get("samples_drawn")
        if cold_samples is None or warm_samples is None:
            failures.append(f"{figure}: samples_drawn missing from a run")
        elif not warm_samples < cold_samples:
            failures.append(
                f"{figure}: warm rerun drew {warm_samples} samples, not "
                f"strictly fewer than the cold run's {cold_samples}"
            )
        for key, cold_point in cold_data.get(figure, {}).items():
            warm_point = warm_data.get(figure, {}).get(key)
            if warm_point is None:
                failures.append(f"{figure}.{key}: missing from warm data")
                continue
            for metric in WARM_EXACT_DATA_KEYS:
                if metric not in cold_point:
                    continue
                if warm_point.get(metric) != cold_point[metric]:
                    failures.append(
                        f"{figure}.{key}.{metric}: warm "
                        f"{warm_point.get(metric)!r} != cold "
                        f"{cold_point[metric]!r} (estimates must be "
                        f"reproduced exactly)"
                    )

    # (b') Figures with no store to persist (fig7/fig12/match) must be
    # untouched by warm plumbing: cold and warm runs agree exactly.
    cold_counters = deterministic_counters(cold)
    warm_counters = deterministic_counters(warm)
    for figure in sorted(set(cold_counters) | set(warm_counters)):
        if figure in WARM_FIGURES:
            continue
        if warm_counters.get(figure) != cold_counters.get(figure):
            failures.append(
                f"{figure}: warm run counters drifted from cold "
                f"({warm_counters.get(figure)!r} != "
                f"{cold_counters.get(figure)!r}) though the figure has no "
                f"warm store"
            )
        if warm_data.get(figure) != cold_data.get(figure):
            failures.append(
                f"{figure}: warm run data drifted from cold though the "
                f"figure has no warm store"
            )

    # (c) Warm serial and warm sharded agree exactly.
    if deterministic_counters(warm) != deterministic_counters(warm4):
        failures.append(
            "warm serial and warm --workers 4 deterministic counters "
            "disagree"
        )
    if warm_data != warm4_data:
        failures.append(
            "warm serial and warm --workers 4 figure data disagree"
        )
    return failures


def faults_check(baseline_path):
    """The fault-injection smoke verification; returns failure strings.

    Runs the whole smoke suite sharded (``--workers 4``) with a crash
    injected into shard 1's first attempt of every sweep.  The
    supervisor must retry the shard and reproduce the committed serial
    baseline's deterministic counters bit-for-bit.
    """
    failures = []
    baseline = None
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot read baseline {baseline_path}: {error}"]

    from repro.testing import FaultPlan, use_faults

    run_all = _load_run_all()
    plan = FaultPlan({(1, 1): "crash"})
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "faulted.json")
        with use_faults(plan):
            run_all.main(
                [
                    "--scale", "smoke",
                    "--bench-out", out,
                    "--workers", "4",
                ]
            )
        with open(out) as handle:
            measured = json.load(handle)

    if not plan.triggered:
        failures.append(
            "fault plan never fired: the injection seam is disconnected, "
            "so the check exercised nothing"
        )
    expected = deterministic_counters(baseline)
    actual = deterministic_counters(measured)
    for figure in sorted(set(expected) | set(actual)):
        if actual.get(figure) != expected.get(figure):
            failures.append(
                f"{figure}: counters under injected shard crash drifted "
                f"from baseline ({actual.get(figure)!r} != "
                f"{expected.get(figure)!r})"
            )
    return failures


#: Committed version-1 snapshot fixture (see ROADMAP subsystem notes):
#: the lifecycle check proves the compat branch still reads it.
V1_FIXTURE = os.path.join(
    _BENCH_DIR, os.pardir, "tests", "unit", "data", "snapshot_v1"
)


def lifecycle_check():
    """The store-lifecycle smoke verification; returns failure strings.

    Warms a fixture store with a deterministic probe stream, evicts half
    of it by the reuse-value policy, and exact-diffs every surviving
    answer — basis identity, mapping parameters, per-probe
    ``candidates_tested`` work — against a fresh store built from only
    the survivors.  Also proves the committed version-1 snapshot fixture
    still loads through the version-compat branch.
    """
    failures = []
    from repro.api import EstimateRequest, MatchRequest
    from repro.core import persist
    from repro.core.basis import BasisStore, EvictionPolicy
    from repro.serve import build_fixture_session, build_request_stream

    session = build_fixture_session(bases=32, seed=2026)
    store = session.store()
    store._verify_remaining = 0
    probes = [
        request.fingerprint
        for request in build_request_stream(
            session, 200, seed=9, stats_every=0
        )
        if isinstance(request, (MatchRequest, EstimateRequest))
    ]
    from repro.core.fingerprint import Fingerprint

    fingerprints = [Fingerprint(values) for values in probes]
    for fingerprint in fingerprints:  # warm: bump reuse counters
        store.match(fingerprint)

    bound = len(store) // 2
    evicted = store.evict(EvictionPolicy(max_bases=bound))
    if len(store) != bound:
        failures.append(
            f"eviction left {len(store)} bases, wanted the bound {bound}"
        )
    if len(evicted) != 32 - bound:
        failures.append(
            f"evicted {len(evicted)} bases, expected {32 - bound}"
        )

    rebuild = BasisStore(
        mapping_family=type(store.mapping_family)(),
        index_strategy=type(store.index).strategy,
    )
    rebuild.columnar_min_candidates = store.columnar_min_candidates
    rebuild._verify_remaining = 0
    id_map = {}
    for new_id, basis in enumerate(store.bases):
        id_map[basis.basis_id] = new_id
        rebuild.add(basis.fingerprint, basis.samples)

    for index, fingerprint in enumerate(fingerprints):
        lived_before = store.stats.candidates_tested
        fresh_before = rebuild.stats.candidates_tested
        lived = store.match(fingerprint)
        fresh = rebuild.match(fingerprint)
        lived_work = store.stats.candidates_tested - lived_before
        fresh_work = rebuild.stats.candidates_tested - fresh_before
        if (lived is None) != (fresh is None):
            failures.append(
                f"probe {index}: lifecycle store "
                f"{'missed' if lived is None else 'matched'} but the "
                f"survivors-only rebuild did not agree"
            )
            continue
        if lived_work != fresh_work:
            failures.append(
                f"probe {index}: candidates_tested {lived_work} != "
                f"rebuild's {fresh_work}"
            )
        if lived is None:
            continue
        if id_map.get(lived.basis.basis_id) != fresh.basis.basis_id:
            failures.append(
                f"probe {index}: basis {lived.basis.basis_id} does not "
                f"map to the rebuild's {fresh.basis.basis_id}"
            )
        if lived.mapping != fresh.mapping:
            failures.append(
                f"probe {index}: mapping parameters drifted from the "
                f"survivors-only rebuild"
            )
        if lived.basis.basis_id in evicted:
            failures.append(
                f"probe {index}: matched evicted basis "
                f"{lived.basis.basis_id}"
            )

    try:
        info = persist.snapshot_info(V1_FIXTURE)
        if info["version"] != 1:
            failures.append(
                f"v1 fixture reports version {info['version']}, not 1"
            )
        loaded = persist.load_store(V1_FIXTURE, mmap=False)
        if len(loaded) != 5:
            failures.append(
                f"v1 fixture loaded {len(loaded)} bases, expected 5"
            )
        if any(basis.hits != 0 for basis in loaded.bases):
            failures.append(
                "v1 fixture restored non-zero hits; version-1 snapshots "
                "predate reuse counters and must restore cold"
            )
        if loaded.match(loaded.bases[0].fingerprint) is None:
            failures.append("v1 fixture store cannot answer a probe")
    except Exception as error:  # noqa: BLE001 - any load failure gates
        failures.append(
            f"version-1 snapshot fixture no longer loads: {error}"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the sweep; counters must still match the serial baseline",
    )
    parser.add_argument(
        "--time-factor",
        type=float,
        default=25.0,
        help="fail only when wall clock exceeds this multiple of baseline",
    )
    parser.add_argument(
        "--save-to",
        default=None,
        help=(
            "keep the measured smoke document here (e.g. to refresh the "
            "committed baseline after an intentional change)"
        ),
    )
    parser.add_argument(
        "--warm-check",
        action="store_true",
        help=(
            "run the warm-start smoke verification (cold save, warm "
            "reload serial and --workers 4, exact-diff counters and "
            "estimates) instead of the baseline gate"
        ),
    )
    parser.add_argument(
        "--faults-check",
        action="store_true",
        help=(
            "run the fault-injection smoke verification (kill one shard "
            "mid-sweep at --workers 4; supervised retry must still match "
            "the committed serial baseline exactly) instead of the gate"
        ),
    )
    parser.add_argument(
        "--lifecycle-check",
        action="store_true",
        help=(
            "run the store-lifecycle smoke verification (warm a store, "
            "evict half by policy, exact-diff survivors against a "
            "survivors-only rebuild; v1 snapshot fixture must still "
            "load) instead of the gate"
        ),
    )
    args = parser.parse_args(argv)

    if args.lifecycle_check:
        failures = lifecycle_check()
        if failures:
            print(
                "store-lifecycle smoke verification FAILED:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(
            "store-lifecycle smoke verification passed: evicted store "
            "answers exactly like a survivors-only rebuild, and the "
            "version-1 snapshot fixture still loads"
        )
        return 0

    if args.faults_check:
        failures = faults_check(args.baseline)
        if failures:
            print(
                "fault-injection smoke verification FAILED:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(
            "fault-injection smoke verification passed: one shard crashed "
            "and was retried in every sweep, counters still match the "
            "serial baseline exactly"
        )
        return 0

    if args.warm_check:
        failures = warm_check(args.baseline)
        if failures:
            print("warm-start smoke verification FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(
            "warm-start smoke verification passed: cold pass matches the "
            "baseline, warm reruns (serial and 4 workers) reproduce cold "
            "estimates exactly with strictly fewer samples"
        )
        return 0

    baseline = None
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        if not args.save_to:
            print(
                f"cannot read baseline {args.baseline}: {error}",
                file=sys.stderr,
            )
            return 1
        # Bootstrapping: measure and save without a comparison.
        print(
            f"no usable baseline at {args.baseline}; measuring fresh "
            f"({error})",
            file=sys.stderr,
        )

    run_all = _load_run_all()
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "smoke.json")
        run_argv = [
            "--scale", "smoke",
            "--bench-out", out,
            "--workers", str(args.workers),
        ]
        run_all.main(run_argv)
        with open(out) as handle:
            measured = json.load(handle)

    if args.save_to:
        with open(args.save_to, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"measured smoke document saved to {args.save_to}")
        if baseline is None:
            return 0
        if os.path.realpath(args.save_to) == os.path.realpath(
            args.baseline
        ):
            # Refresh flow, not a gate run: the old baseline was just
            # replaced on purpose, so report what changed and succeed.
            changes = compare(baseline, measured, args.time_factor)
            if changes:
                print("baseline refreshed; counters that changed:")
                for change in changes:
                    print(f"  - {change}")
                print("commit the diff alongside an explanation.")
            else:
                print("baseline refreshed; no counter changes.")
            return 0

    failures = compare(baseline, measured, args.time_factor)
    if failures:
        print("bench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf this change is intentional, refresh the baseline:\n"
            f"  PYTHONPATH=src python benchmarks/check_regression.py "
            f"--save-to {os.path.relpath(args.baseline)}\n"
            "and commit the diff alongside an explanation.",
            file=sys.stderr,
        )
        return 1
    workers_note = (
        f" (sharded, {args.workers} workers)" if args.workers > 1 else ""
    )
    print(
        f"bench regression gate passed{workers_note}: "
        f"{len(deterministic_counters(measured))} figures, counters exact, "
        f"wall clock {measured.get('total_seconds', 0.0):.2f}s within "
        f"{args.time_factor:.0f}x of "
        f"{baseline.get('total_seconds', 0.0):.2f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

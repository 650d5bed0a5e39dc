#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation as text.

Usage::

    python benchmarks/run_all.py [--scale smoke|quick|paper] [--workers N]
                                 [--warm-store DIR]
                                 [--out results.txt]
                                 [--bench-out BENCH_run_all.json]
                                 [--data-out figure_data.json]

``quick`` (default) runs laptop-sized sweeps in seconds on the batch
sampling engine; ``paper`` runs the paper-sized configurations (1000
samples/point over the full parameter spaces); ``smoke`` is the tiny
deterministic configuration the CI regression gate
(``benchmarks/check_regression.py``) compares against its committed
baseline.  Either way the *shapes* — who wins, by roughly what factor,
where crossovers fall — are the reproduced quantity; absolute times depend
on the host.

``--workers N`` shards the explorer sweeps (fig8-11) across N processes
via :class:`repro.core.parallel.ParallelExplorer`.  Deterministic counters
(samples drawn, reuse fractions, step invocations) are bit-identical to
the serial run by the engine's replay-merge invariant; only wall clocks
change, which is why a sharded run is recorded with its worker count and
never merged into (or allowed to overwrite) a serial baseline.

``--warm-store DIR`` persists the explorer sweeps' basis stores under
``DIR`` (one snapshot per sweep, see :mod:`repro.core.persist`) and
warm-starts from whatever snapshots a previous run left there: the first
run is cold and saves, a rerun reuses the stored bases and draws only
fingerprint rounds for covered points, reproducing the cold estimates
exactly.  Warm figures record ``warm_reuse_fraction``; warm documents are
tagged ``warm_store`` and refused as replacements for (or merge targets
of) cold baselines — the same protection adaptive documents get.

Alongside the text report, a machine-readable ``BENCH_run_all.json`` is
written with per-figure wall-clock seconds and work counters (samples
drawn, reuse fraction) so future changes have a perf trajectory to regress
against.  ``--data-out`` additionally dumps each figure's deterministic
data points (``FigureResult.data``) for exact estimate comparisons.
"""

import argparse
import json
import os
import platform
import sys
import time

from repro.bench.figures import (
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_match,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _classify_baseline(bench_out, scale, workers=1, adaptive=None,
                       warm=False):
    """Classify the file at ``bench_out`` for overwrite/merge decisions.

    Returns ``(kind, existing)``; ``kind`` is ``"missing"`` (no file),
    ``"unusable"`` (unparseable or unrecognized shape), ``"other-scale"``
    (well-formed baseline for a different scale), ``"other-workers"``
    (well-formed baseline measured at a different worker count — sharded
    wall clocks must never replace or be merged into the serial perf
    trajectory), ``"other-adaptive"`` (adaptive stopping policy differs —
    adaptive runs draw fewer samples by design, so their counters must
    never replace or be merged into a fixed-budget baseline, nor vice
    versa), ``"other-warm"`` (one run warm-started from a persisted
    store, the other did not — warm runs reuse prior-run bases and draw
    fewer samples by design, so their counters must never replace or be
    merged into a cold baseline, nor vice versa), or ``"compatible"``
    (well-formed, same
    configuration).  ``existing`` is the parsed document except for the
    first two kinds.
    """
    if not os.path.exists(bench_out):
        return "missing", None
    try:
        with open(bench_out) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return "unusable", None
    if not (
        isinstance(existing, dict)
        and isinstance(existing.get("figures"), dict)
        and all(
            isinstance(entry, dict) for entry in existing["figures"].values()
        )
    ):
        return "unusable", None
    if existing.get("scale") != scale:
        return "other-scale", existing
    if existing.get("workers", 1) != workers:
        return "other-workers", existing
    if existing.get("adaptive") != adaptive:
        return "other-adaptive", existing
    if bool(existing.get("warm_store", False)) != bool(warm):
        return "other-warm", existing
    return "compatible", existing


def _refuse_overwrite(bench_out, reason):
    print(
        f"not overwriting {bench_out}: {reason}; pass --bench-out to "
        f"write elsewhere",
        file=sys.stderr,
    )


def _warm_mismatch_reason(existing, bench):
    if bench.get("warm_store", False):
        return (
            "existing baseline is a cold run, this run warm-started from "
            "a persisted store (its counters reflect cross-run reuse)"
        )
    return (
        "existing baseline warm-started from a persisted store, this run "
        "is cold"
    )


def _merge_partial(bench_out, bench, all_figures):
    """Fold a ``--only`` run into an existing full-suite baseline.

    A partial run must never erase the other figures' entries: the JSON at
    the default path is the perf-regression baseline that acceptance
    criteria compare against.  If a compatible baseline exists (same scale,
    well-formed figure entries), update just the selected figure and
    recompute the total from the per-figure seconds.  Any existing file
    that cannot be merged — unparseable, unrecognized shape, or a
    different scale — is left untouched: returning None tells the caller
    to skip writing rather than overwrite it.  Whenever the resulting file
    covers fewer than all figures, it carries a ``partial`` key listing
    what it does cover, and any figure entry stitched in by an ``--only``
    run stays listed under ``merged_figures`` — so nobody mistakes the
    file for one full-suite measurement (a plain full run writes neither
    key).
    """
    kind, existing = _classify_baseline(
        bench_out,
        bench["scale"],
        bench.get("workers", 1),
        bench.get("adaptive"),
        bench.get("warm_store", False),
    )
    if kind == "unusable":
        _refuse_overwrite(
            bench_out, "existing file is unreadable or has an unrecognized shape"
        )
        return None
    if kind == "other-scale":
        _refuse_overwrite(
            bench_out,
            f"existing baseline is {existing.get('scale')!r} scale, "
            f"this run is {bench['scale']!r}",
        )
        return None
    if kind == "other-workers":
        _refuse_overwrite(
            bench_out,
            f"existing baseline was measured with "
            f"{existing.get('workers', 1)} worker(s), this run used "
            f"{bench.get('workers', 1)}",
        )
        return None
    if kind == "other-adaptive":
        _refuse_overwrite(
            bench_out,
            f"existing baseline used adaptive policy "
            f"{existing.get('adaptive')!r}, this run used "
            f"{bench.get('adaptive')!r}",
        )
        return None
    if kind == "other-warm":
        _refuse_overwrite(
            bench_out,
            _warm_mismatch_reason(existing, bench),
        )
        return None
    merged_figures = set(bench["figures"])
    if existing is not None:
        merged_figures |= set(existing.get("merged_figures", ()))
        figures = dict(existing["figures"])
        figures.update(bench["figures"])
        bench = dict(existing, **bench)
        bench["figures"] = figures
        bench["total_seconds"] = round(
            sum(entry.get("seconds", 0.0) for entry in figures.values()), 4
        )
    else:
        bench = dict(bench)
    bench["merged_figures"] = sorted(merged_figures)
    if set(bench["figures"]) >= set(all_figures):
        bench.pop("partial", None)
    else:
        bench["partial"] = sorted(bench["figures"])
    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=("smoke", "quick", "paper"),
        default="quick",
        help=(
            "workload sizes: smoke (CI regression gate), quick (seconds) "
            "or paper (minutes)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard the explorer sweeps (fig8-11) across this many "
            "processes; deterministic counters are bit-identical to the "
            "serial run, and sharded wall clocks are never merged into a "
            "serial baseline"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--bench-out",
        default=os.path.join(_REPO_ROOT, "BENCH_run_all.json"),
        help="machine-readable per-figure timings (empty string disables)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="run a single experiment, e.g. --only fig9",
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=None,
        help=(
            "enable adaptive per-point stopping at this relative "
            "tolerance for the explorer sweeps (fig8-11); figures then "
            "record samples_saved_fraction, and the resulting document "
            "is never merged into a fixed-budget baseline"
        ),
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for --rtol stopping (default 0.95)",
    )
    parser.add_argument(
        "--warm-store",
        default=None,
        help=(
            "persist the explorer sweeps' basis stores (fig8-11) under "
            "this directory and warm-start from any snapshots already "
            "there; figures then record warm_reuse_fraction, and the "
            "resulting document is tagged and never merged into a cold "
            "baseline"
        ),
    )
    parser.add_argument(
        "--data-out",
        default=None,
        help=(
            "also write each figure's deterministic data points "
            "(FigureResult.data) to this JSON file — e.g. for the "
            "warm-start gate's exact estimate comparison"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help=(
            "persist the explorer sweeps' (fig8-11) completed-shard "
            "outcomes under this directory as they run; an interrupted "
            "run (exit code 130) re-invoked with the same arguments "
            "resumes from them, with counters bit-identical to an "
            "uninterrupted run (delete the directory after a completed "
            "run — stale records would merely be re-consumed, but cost "
            "disk)"
        ),
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    adaptive = None
    if args.rtol is not None:
        from repro.core.adaptive import AdaptiveBudget

        try:
            adaptive = AdaptiveBudget(
                rtol=args.rtol, confidence=args.confidence
            )
        except Exception as error:
            parser.error(str(error))
    elif args.confidence != 0.95:
        print(
            "--confidence has no effect without --rtol",
            file=sys.stderr,
        )

    warm_store = args.warm_store or None
    checkpoint = args.checkpoint or None
    runners = {
        "fig7": lambda: run_fig7(args.scale),
        "fig8": lambda: run_fig8(
            args.scale, workers=args.workers, adaptive=adaptive,
            warm_store=warm_store, checkpoint=checkpoint,
        ),
        "fig9": lambda: run_fig9(
            args.scale, workers=args.workers, adaptive=adaptive,
            warm_store=warm_store, checkpoint=checkpoint,
        ),
        "fig10": lambda: run_fig10(
            args.scale, workers=args.workers, adaptive=adaptive,
            warm_store=warm_store, checkpoint=checkpoint,
        ),
        "fig11": lambda: run_fig11(
            args.scale, workers=args.workers, adaptive=adaptive,
            warm_store=warm_store, checkpoint=checkpoint,
        ),
        "fig12": lambda: run_fig12(args.scale),
        # The columnar FindMatch engine in isolation (no sampling): its
        # candidates_tested / matches_found counters are deterministic and
        # regression-gated like any figure's.
        "match": lambda: run_match(args.scale),
    }
    all_figures = tuple(runners)
    #: Figures whose runner takes the stopping policy (and the warm-store
    #: directory); fig7, fig12, and the match microbenchmark have no
    #: per-point sample budget to adapt nor a basis store to persist.
    adaptive_figures = ("fig8", "fig9", "fig10", "fig11")
    if args.only is not None:
        if args.only not in runners:
            parser.error(
                f"unknown experiment {args.only!r}; choose from "
                f"{sorted(runners)}"
            )
        runners = {args.only: runners[args.only]}
    if adaptive is not None and not any(
        name in adaptive_figures for name in runners
    ):
        # Nothing selected consumes the policy: the run is bit-identical
        # to a fixed-budget one, so don't tag (and later refuse to merge)
        # a document the flag never influenced.
        print(
            f"--rtol has no effect on {'/'.join(runners)}; "
            f"running fixed-budget",
            file=sys.stderr,
        )
        adaptive = None
    if warm_store is not None and not any(
        name in adaptive_figures for name in runners
    ):
        # Same neutrality rule for the warm store: nothing selected reads
        # or writes snapshots, so don't tag the document.
        print(
            f"--warm-store has no effect on {'/'.join(runners)}; "
            f"running cold",
            file=sys.stderr,
        )
        warm_store = None

    sections = []
    bench = {
        "scale": args.scale,
        "python": platform.python_version(),
        "workers": args.workers,
        "figures": {},
    }
    if adaptive is not None:
        # Recorded so adaptive documents can never be mistaken for (or
        # merged into) fixed-budget baselines; absent otherwise to keep
        # default documents byte-identical to pre-adaptive ones.
        bench["adaptive"] = {
            "rtol": adaptive.rtol,
            "confidence": adaptive.confidence,
        }
    if warm_store is not None:
        # Same tagging pattern: a warm run's reuse/sample counters reflect
        # cross-run amortization and must never be mistaken for (or merged
        # into) a cold baseline; absent on cold runs so default documents
        # stay byte-identical to pre-warm-start ones.
        bench["warm_store"] = True
    total_seconds = 0.0
    data_doc = {}
    for name, runner in runners.items():
        started = time.perf_counter()
        print(f"running {name} ({args.scale} scale)...", file=sys.stderr)
        try:
            result = runner()
        except KeyboardInterrupt:
            # Figure sweeps flush completed-shard records through
            # --checkpoint as they arrive (each write is atomic), so
            # everything finished before Ctrl-C is already on disk; the
            # partially measured figure is discarded (its wall clocks
            # would be meaningless) and the same invocation resumes it.
            note = (
                f"; re-run with --checkpoint {checkpoint} to resume"
                if checkpoint
                else ""
            )
            print(f"interrupted during {name}{note}", file=sys.stderr)
            return 130
        elapsed = time.perf_counter() - started
        total_seconds += elapsed
        if isinstance(result, str):
            text, counters = result, {}
        else:
            text, counters = result.to_text(), dict(result.counters)
            data_doc[name] = result.data
        entry = {"seconds": round(elapsed, 4)}
        entry.update(
            {key: round(float(value), 6) for key, value in counters.items()}
        )
        bench["figures"][name] = entry
        sections.append(f"{text}\n  [regenerated in {elapsed:.1f}s]")
    bench["total_seconds"] = round(total_seconds, 4)

    write_bench = bool(args.bench_out)
    if args.only is not None and args.bench_out:
        bench = _merge_partial(args.bench_out, bench, all_figures)
        write_bench = bench is not None
    elif args.bench_out:
        # A full run at another scale, worker count, or adaptive policy
        # must not clobber the committed baseline either — same data-loss
        # class _merge_partial guards.  (A full run may replace a
        # missing/unusable/compatible file: it produces a complete fresh
        # baseline.)
        kind, existing = _classify_baseline(
            args.bench_out, args.scale, args.workers, bench.get("adaptive"),
            bench.get("warm_store", False),
        )
        if kind == "other-scale":
            _refuse_overwrite(
                args.bench_out,
                f"existing baseline is {existing.get('scale')!r} scale, "
                f"this run is {args.scale!r}",
            )
            write_bench = False
        elif kind == "other-workers":
            _refuse_overwrite(
                args.bench_out,
                f"existing baseline was measured with "
                f"{existing.get('workers', 1)} worker(s), this run used "
                f"{args.workers}",
            )
            write_bench = False
        elif kind == "other-adaptive":
            _refuse_overwrite(
                args.bench_out,
                f"existing baseline used adaptive policy "
                f"{existing.get('adaptive')!r}, this run used "
                f"{bench.get('adaptive')!r}",
            )
            write_bench = False
        elif kind == "other-warm":
            _refuse_overwrite(
                args.bench_out, _warm_mismatch_reason(existing, bench)
            )
            write_bench = False

    report = ("\n\n" + "=" * 76 + "\n\n").join(sections)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"\nwritten to {args.out}", file=sys.stderr)
    if args.data_out:
        with open(args.data_out, "w") as handle:
            json.dump(data_doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"figure data written to {args.data_out}", file=sys.stderr)
    if write_bench:
        with open(args.bench_out, "w") as handle:
            json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"bench counters written to {args.bench_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

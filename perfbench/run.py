#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload query-capacity|sweep-synth|serve-mixed
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
second, traced run that reports the per-layer metrics (self times,
work counts, ratios) plus the tracing overhead against untraced
repetitions made in the same run.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/INTERACTIONS.md`` says which end-to-end
metric each layer metric should move, and on which workload.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every wrong answer counts in
``failed`` and makes the command exit 1.  Without a source tree next to
it (``src/repro``) the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("query-capacity", "sweep-synth", "serve-mixed")


def median(values) -> float:
    return float(statistics.median(values))


def layer_table(snapshot: dict, repetitions: int, wall: float,
                setup_spans=()) -> tuple:
    """Self-time accounting of one traced repetition (means over reps).

    Returns (rows, other) where rows are (span, self seconds) for every
    span that ran during the measured work and ``other`` is the traced
    wall clock those spans do not cover.
    """
    rows = sorted(
        (
            (name, seconds / repetitions)
            for name, seconds in snapshot["self"].items()
            if name not in setup_spans
        ),
        key=lambda row: -row[1],
    )
    other = wall - sum(seconds for _, seconds in rows)
    return rows, other


def format_layers(rows, other: float, wall: float,
                  base: str = "traced wall clock") -> list:
    lines = [f"layer self times (base: {base} {wall:.4f} s)"]
    for name, seconds in rows + [("other", other)]:
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"  {name:<32} {seconds:10.4f} s  {share:7.2%}")
    covered = sum(seconds for _, seconds in rows) + other
    lines.append(f"  {'sum':<32} {covered:10.4f} s  {covered / wall:7.2%}")
    return lines


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def empty_layers() -> dict:
    """Every per-layer metric at zero: a layer a workload never enters
    reports no work rather than a missing name."""
    return {m["name"]: 0.0 for m in load_benchmark()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no source tree at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still stops the processes it started: SystemExit
    # unwinds through the workloads' cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    benchmark = load_benchmark()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}

    if args.workload == "serve-mixed":
        import serve

        outcome = serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        import batch

        outcome = batch.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    for line in outcome["lines"]:
        print(line)
    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(
            f"perfbench: metric set drifted from BENCHMARK.json "
            f"(missing {missing}, extra {extra})",
            file=sys.stderr,
        )
        return 3
    failures = list(outcome["failures"])
    for name in units:
        if not math.isfinite(metrics[name]):
            failures.append(f"{name} was not measured")
            metrics[name] = 0.0
    for failure in failures[:20]:
        print(f"WRONG: {failure}")
    correct = not failures and outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

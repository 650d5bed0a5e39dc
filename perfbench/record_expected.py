#!/usr/bin/env python3
"""Record the committed answers the batch workloads are checked against.

Usage (from the root of a checkout)::

    python3 perfbench/record_expected.py --seeds 0 1 2 3

Runs one cold repetition of ``query-capacity`` and ``sweep-synth`` per
input seed (a run with ``--seed N`` uses input seeds 3N, 3N+1 and 3N+2;
see ``batch.INPUTS_PER_RUN``) and writes their answer documents
(per-point estimate digests, reuse decisions, ``StoreStats`` counters,
the ``OPTIMIZE`` answer) into ``perfbench/expected.json``, keeping
seeds already recorded.  Re-record only for an intended change of
answers, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import batch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(batch.EXPECTED_PATH) as handle:
        recorded = json.load(handle)
    for workload in sorted(batch.SETUPS):
        for seed in args.seeds:
            document = batch.spawn_repetition(workload, seed, traced=False)
            if document["oracle_failures"]:
                print(f"{workload} seed {seed}: oracle failed, not recorded:")
                for failure in document["oracle_failures"]:
                    print(f"  {failure}")
                return 1
            recorded.setdefault(workload, {})[str(seed)] = document["check"]
            print(f"{workload} seed {seed}: recorded")
    with open(batch.EXPECTED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

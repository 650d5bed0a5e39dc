"""A fixed reference computation that measures how fast the host runs.

The benchmark runs on shared hosts whose speed moves by up to 2x over
minutes and flips by ~1.4x for seconds at a time, as other tenants come
and go.  Every gated timing is therefore taken together with the time of
this reference, measured in the same process at the same moments, and
reported in seconds at a fixed host pace::

    paced seconds = measured seconds * REFERENCE_S / reference seconds

A change to the program moves the measured seconds and not the
reference, so it moves the paced figure by the same share; a change of
host speed moves both and largely cancels.  The reference is a loop of
numpy calls on small arrays, the kind of call the program's hot paths
are made of: of the candidates tried (an interpreted dict/float loop, a
large sort, small linear solves, small numpy calls, mixes of them), it
tracked both batch workloads' times across host speed changes nearly as
well as the best mix for each.  It lives here, outside ``src/``, so no
change to the program can alter it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About what one reference call takes on an unloaded 2.0 GHz Xeon core;
#: it only fixes the scale of the paced figures.
REFERENCE_S = 0.0008

_VALUES = np.random.default_rng(20110612).standard_normal(256)


def reference() -> float:
    total = 0.0
    values = _VALUES
    for _ in range(150):
        total += float(np.sort(values)[3]) + float(values @ values)
    return total


def time_reference() -> float:
    """Seconds one reference call takes now."""
    clock = time.perf_counter
    started = clock()
    reference()
    return clock() - started


def host_pace(calls: int = 12) -> float:
    """Median seconds per reference call over a short burst of calls."""
    return statistics.median(time_reference() for _ in range(calls))


def paced(seconds: float, pace: float) -> float:
    """``seconds`` measured while the reference took ``pace`` seconds,
    as seconds at the fixed pace REFERENCE_S."""
    return seconds * REFERENCE_S / pace

"""Span tracing from outside the program: wrap calls into each layer.

The benchmark never edits ``src/``.  It times a layer by replacing a
public method on an object it constructed (or on the process's compute
backend) with a wrapper that records a span.  Spans nest per thread, so
a layer's *self* time is its span's duration minus the part its child
spans cover, and the self times of every span plus the unwrapped
remainder (``other``) add up to the traced wall clock.

Spans are aggregated by name as they close (calls, total, child time):
a sweep makes hundreds of thousands of them, so keeping each one would
cost more memory than the work being measured.

The ``trace_*`` helpers below name the repo's layers: which methods of
which objects each per-layer metric is made of.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict


class Tracer:
    """Per-name span totals and counters, safe across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable, count=None) -> Callable:
        """``function`` recorded as span ``name``.

        ``count(args, result)``, when given, returns ``{counter: amount}``
        to add to :attr:`counts` — work sizes such as samples drawn or
        candidates returned.
        """
        clock = self.clock
        stack_of = self._stack
        lock = self._lock
        calls, total, child = self.calls, self.total, self.child

        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    calls[name] += 1
                    total[name] += elapsed
                    child[name] += covered
            if count is not None:
                for key, value in count(args, result).items():
                    self.count(key, value)
            return result

        traced.__wrapped__ = function
        return traced

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` with its traced form."""
        setattr(
            owner,
            attribute,
            self.wrap(name, getattr(owner, attribute), count=count),
        )

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def snapshot(self) -> dict:
        """Plain-data totals (JSON-ready; crosses process boundaries)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total": dict(self.total),
                "self": {
                    name: self.total[name] - self.child[name]
                    for name in self.total
                },
                "counts": dict(self.counts),
            }


def merge_snapshots(snapshots) -> dict:
    """Sum several :meth:`Tracer.snapshot` documents key by key."""
    merged = {"calls": {}, "total": {}, "self": {}, "counts": {}}
    for snapshot in snapshots:
        for section, values in snapshot.items():
            target = merged[section]
            for key, value in values.items():
                target[key] = target.get(key, 0) + value
    return merged


# -- the repo's layers ----------------------------------------------------


def trace_store(tracer, store) -> None:
    """Wrap one basis store and the index and mapping family it holds."""
    tracer.patch(store, "match", "core.basis.match")
    tracer.patch(store, "match_batch", "core.basis.match_batch")
    tracer.patch(store, "add", "core.basis.add")
    tracer.patch(store, "metrics_for", "core.estimator.remap")
    tracer.patch(
        store.index,
        "candidates",
        "core.index.candidates",
        count=lambda args, result: {"core.index.candidates": len(result)},
    )
    tracer.patch(
        store.index,
        "candidates_batch",
        "core.index.candidates",
        count=lambda args, result: {
            "core.index.candidates": sum(len(c) for c in result)
        },
    )
    family = store.mapping_family
    tracer.patch(
        family,
        "find",
        "core.mapping.validate",
        count=lambda args, result: {"core.mapping.rows": 1},
    )
    tracer.patch(
        family,
        "find_matrix",
        "core.mapping.validate",
        count=lambda args, result: {"core.mapping.rows": len(args[0])},
    )


def trace_estimator(tracer, estimator) -> None:
    tracer.patch(estimator, "estimate", "core.estimator.estimate")


def trace_backend(tracer) -> None:
    """Wrap the process-active compute backend's four kernels."""
    from repro.core.backend import active_backend

    backend = active_backend()
    for kernel in ("draw_block", "affine_validate", "sid_orders", "normal_forms"):
        tracer.patch(backend, kernel, f"core.backend.{kernel}")


def trace_box(tracer, box) -> None:
    tracer.patch(
        box,
        "sample_batch",
        "blackbox.sample_batch",
        count=lambda args, result: {"blackbox.samples": len(result)},
    )


def store_ratios(store: dict) -> dict:
    """StoreStats counters and the two ratios of useful to attempted work."""
    lookups, tested, matches = (
        store.get("lookups", 0), store.get("candidates_tested", 0), store.get("matches", 0)
    )
    return {
        "core.basis.lookups": lookups,
        "core.basis.candidates_tested": tested,
        "core.basis.matches": matches,
        "core.basis.hit_ratio": matches / lookups if lookups else 0.0,
        "core.basis.validation_yield": matches / tested if tested else 0.0,
    }

"""Typed request/response messages for the unified session API.

One message vocabulary serves two transports: in-process calls on
:class:`repro.api.Session` pass these dataclasses directly, and the
serving daemon (:mod:`repro.serve`) moves them over a socket through
:func:`encode_request`/:func:`decode_response`.  Because both sides speak
the same types — and every float crosses the wire as ``float.hex()``,
the snapshot manifest convention — a daemon response is *bitwise* equal
to the in-process result for the same request, which is what the serve
parity suite pins.

Requests
--------

* :class:`MatchRequest` — probe the store with a fingerprint; answers
  with the matched basis id and the witness mapping (paper FindMatch).
* :class:`EstimateRequest` — FindMatch plus the remapped output metrics
  (``Mest``): the full interactive what-if answer for a covered point.
* :class:`RefineRequest` — fold fresh samples (already mapped into basis
  coordinates through M⁻¹, the interactive engine's convention) into a
  stored basis and return its refreshed metrics.
* :class:`StatsRequest` — the deterministic :class:`StoreStats` counters
  and basis counts per store (bench gates diff these exactly).
* :class:`EvictRequest` — admin: apply a reuse-value-aware
  :class:`~repro.core.basis.EvictionPolicy` bound (``max_bases`` /
  ``max_bytes``) to one store or all of them.
* :class:`CompactRequest` — admin: force the columnar matrices
  tombstone-free now instead of at the next threshold crossing or save.
* :class:`ShutdownRequest` — ask a daemon to drain and exit (the
  signal-free alternative to SIGTERM, for tests and orchestrators).

``request_id`` is an opaque caller token echoed on the response, so
pipelined clients can correlate answers; ``store`` names the target
store in a multi-store snapshot (``"default"`` for single-store ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.estimator import MetricSet
from repro.core.mapping import Mapping
from repro.core.persist import (
    decode_float,
    decode_mapping,
    decode_metrics,
    encode_float,
    encode_mapping,
    encode_metrics,
)
from repro.errors import ProtocolError

DEFAULT_STORE = "default"


def _float_tuple(values) -> Tuple[float, ...]:
    return tuple(float(v) for v in values)


# ---------------------------------------------------------------------------
# Requests


@dataclass(frozen=True)
class MatchRequest:
    """FindMatch probe: which stored basis (if any) maps onto this
    fingerprint, and through which mapping?"""

    fingerprint: Tuple[float, ...]
    store: str = DEFAULT_STORE
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fingerprint", _float_tuple(self.fingerprint)
        )

    kind = "match"


@dataclass(frozen=True)
class EstimateRequest:
    """FindMatch plus metric remapping: the full cheap-answer path."""

    fingerprint: Tuple[float, ...]
    store: str = DEFAULT_STORE
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fingerprint", _float_tuple(self.fingerprint)
        )

    kind = "estimate"


@dataclass(frozen=True)
class RefineRequest:
    """Extend a stored basis with fresh samples (basis coordinates)."""

    basis_id: int
    samples: Tuple[float, ...]
    store: str = DEFAULT_STORE
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _float_tuple(self.samples))

    kind = "refine"


@dataclass(frozen=True)
class StatsRequest:
    """Deterministic store counters and basis counts."""

    request_id: Optional[int] = None

    kind = "stats"


@dataclass(frozen=True)
class EvictRequest:
    """Admin: bound a store (or every store) by an eviction policy.

    At least one of ``max_bases``/``max_bytes`` must be set; ``keep``
    selects the :class:`~repro.core.basis.EvictionPolicy` ranking
    (``"value"`` or ``"recent"``).  ``store=None`` applies the bound to
    every store in the session.
    """

    max_bases: Optional[int] = None
    max_bytes: Optional[int] = None
    keep: str = "value"
    store: Optional[str] = None
    request_id: Optional[int] = None

    kind = "evict"


@dataclass(frozen=True)
class CompactRequest:
    """Admin: compact the columnar matrices tombstone-free now.

    ``store=None`` compacts every store in the session.
    """

    store: Optional[str] = None
    request_id: Optional[int] = None

    kind = "compact"


@dataclass(frozen=True)
class ShutdownRequest:
    """Drain in-flight requests, flush state, and stop the daemon."""

    request_id: Optional[int] = None

    kind = "shutdown"


Request = (
    MatchRequest,
    EstimateRequest,
    RefineRequest,
    StatsRequest,
    EvictRequest,
    CompactRequest,
    ShutdownRequest,
)


# ---------------------------------------------------------------------------
# Responses


@dataclass(frozen=True)
class MatchResponse:
    """Outcome of a FindMatch probe.

    ``candidates_tested`` is the probe's deterministic work counter —
    candidates visited up to and including the first match (all of them
    on a miss) — identical between the scalar and columnar engines, so
    parity suites can pin it across transports too.
    """

    matched: bool
    basis_id: Optional[int] = None
    mapping: Optional[Mapping] = None
    candidates_tested: int = 0
    store: str = DEFAULT_STORE
    request_id: Optional[int] = None

    kind = "match"


@dataclass(frozen=True)
class EstimateResponse:
    """A covered point's remapped metrics (``metrics is None`` on a miss:
    the caller must fall back to real simulation — the daemon never
    simulates)."""

    matched: bool
    basis_id: Optional[int] = None
    mapping: Optional[Mapping] = None
    metrics: Optional[MetricSet] = None
    candidates_tested: int = 0
    store: str = DEFAULT_STORE
    request_id: Optional[int] = None

    kind = "estimate"


@dataclass(frozen=True)
class RefineResponse:
    """A basis's refreshed state after folding in refinement samples."""

    basis_id: int
    sample_count: int
    metrics: MetricSet
    store: str = DEFAULT_STORE
    request_id: Optional[int] = None

    kind = "refine"


@dataclass(frozen=True)
class StatsResponse:
    """Per-store deterministic counters (``StoreStats.as_dict``) and
    basis counts; wall-clock fields are deliberately absent."""

    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    bases: Dict[str, int] = field(default_factory=dict)
    request_id: Optional[int] = None

    kind = "stats"


@dataclass(frozen=True)
class EvictResponse:
    """Outcome of an eviction bound: which ids each store retired (in
    eviction order) and how many bases each store holds afterwards."""

    evicted: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    bases: Dict[str, int] = field(default_factory=dict)
    request_id: Optional[int] = None

    kind = "evict"


@dataclass(frozen=True)
class CompactResponse:
    """Outcome of a forced compaction: tombstoned rows dropped per store
    and the (unchanged) per-store basis counts."""

    rows_dropped: Dict[str, int] = field(default_factory=dict)
    bases: Dict[str, int] = field(default_factory=dict)
    request_id: Optional[int] = None

    kind = "compact"


@dataclass(frozen=True)
class ShutdownResponse:
    """Acknowledged; the daemon drains and exits after answering."""

    draining: bool = True
    request_id: Optional[int] = None

    kind = "shutdown"


@dataclass(frozen=True)
class ErrorResponse:
    """A request that could not be served (the stream keeps going)."""

    code: str
    message: str
    request_id: Optional[int] = None

    kind = "error"


Response = (
    MatchResponse,
    EstimateResponse,
    RefineResponse,
    StatsResponse,
    EvictResponse,
    CompactResponse,
    ShutdownResponse,
    ErrorResponse,
)


# ---------------------------------------------------------------------------
# Wire codec (hex floats throughout; see module docstring)


def encode_request(request) -> dict:
    """Request dataclass -> JSON-able dict (floats hex-encoded)."""
    body: dict = {"kind": request.kind, "id": request.request_id}
    if isinstance(request, (MatchRequest, EstimateRequest)):
        body["store"] = request.store
        body["fingerprint"] = [encode_float(v) for v in request.fingerprint]
    elif isinstance(request, RefineRequest):
        body["store"] = request.store
        body["basis_id"] = int(request.basis_id)
        body["samples"] = [encode_float(v) for v in request.samples]
    elif isinstance(request, EvictRequest):
        body["max_bases"] = (
            None if request.max_bases is None else int(request.max_bases)
        )
        body["max_bytes"] = (
            None if request.max_bytes is None else int(request.max_bytes)
        )
        body["keep"] = str(request.keep)
        body["store"] = request.store
    elif isinstance(request, CompactRequest):
        body["store"] = request.store
    elif isinstance(request, (StatsRequest, ShutdownRequest)):
        pass
    else:
        raise ProtocolError(
            f"cannot encode request of type {type(request).__name__}"
        )
    return body


def decode_request(body: dict):
    """JSON dict -> request dataclass (inverse of :func:`encode_request`)."""
    try:
        kind = body["kind"]
        request_id = body.get("id")
        if kind == "match":
            return MatchRequest(
                fingerprint=tuple(
                    decode_float(v) for v in body["fingerprint"]
                ),
                store=body.get("store", DEFAULT_STORE),
                request_id=request_id,
            )
        if kind == "estimate":
            return EstimateRequest(
                fingerprint=tuple(
                    decode_float(v) for v in body["fingerprint"]
                ),
                store=body.get("store", DEFAULT_STORE),
                request_id=request_id,
            )
        if kind == "refine":
            return RefineRequest(
                basis_id=int(body["basis_id"]),
                samples=tuple(decode_float(v) for v in body["samples"]),
                store=body.get("store", DEFAULT_STORE),
                request_id=request_id,
            )
        if kind == "stats":
            return StatsRequest(request_id=request_id)
        if kind == "evict":
            max_bases = body.get("max_bases")
            max_bytes = body.get("max_bytes")
            return EvictRequest(
                max_bases=None if max_bases is None else int(max_bases),
                max_bytes=None if max_bytes is None else int(max_bytes),
                keep=str(body.get("keep", "value")),
                store=body.get("store"),
                request_id=request_id,
            )
        if kind == "compact":
            return CompactRequest(
                store=body.get("store"),
                request_id=request_id,
            )
        if kind == "shutdown":
            return ShutdownRequest(request_id=request_id)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"malformed {body.get('kind', '?')!r} request "
            f"({type(error).__name__}: {error})"
        ) from error
    raise ProtocolError(f"unknown request kind {body.get('kind')!r}")


def _encode_optional_mapping(mapping: Optional[Mapping]):
    return None if mapping is None else encode_mapping(mapping)


def _decode_optional_mapping(obj) -> Optional[Mapping]:
    return None if obj is None else decode_mapping(obj)


def encode_response(response) -> dict:
    """Response dataclass -> JSON-able dict (floats hex-encoded)."""
    body: dict = {"kind": response.kind, "id": response.request_id}
    if isinstance(response, MatchResponse):
        body.update(
            matched=bool(response.matched),
            basis_id=response.basis_id,
            mapping=_encode_optional_mapping(response.mapping),
            candidates_tested=int(response.candidates_tested),
            store=response.store,
        )
    elif isinstance(response, EstimateResponse):
        body.update(
            matched=bool(response.matched),
            basis_id=response.basis_id,
            mapping=_encode_optional_mapping(response.mapping),
            metrics=(
                None
                if response.metrics is None
                else encode_metrics(response.metrics)
            ),
            candidates_tested=int(response.candidates_tested),
            store=response.store,
        )
    elif isinstance(response, RefineResponse):
        body.update(
            basis_id=int(response.basis_id),
            sample_count=int(response.sample_count),
            metrics=encode_metrics(response.metrics),
            store=response.store,
        )
    elif isinstance(response, StatsResponse):
        body.update(
            counters={
                name: {k: int(v) for k, v in counters.items()}
                for name, counters in response.counters.items()
            },
            bases={name: int(v) for name, v in response.bases.items()},
        )
    elif isinstance(response, EvictResponse):
        body.update(
            evicted={
                name: [int(i) for i in ids]
                for name, ids in response.evicted.items()
            },
            bases={name: int(v) for name, v in response.bases.items()},
        )
    elif isinstance(response, CompactResponse):
        body.update(
            rows_dropped={
                name: int(v) for name, v in response.rows_dropped.items()
            },
            bases={name: int(v) for name, v in response.bases.items()},
        )
    elif isinstance(response, ShutdownResponse):
        body["draining"] = bool(response.draining)
    elif isinstance(response, ErrorResponse):
        body.update(code=response.code, message=response.message)
    else:
        raise ProtocolError(
            f"cannot encode response of type {type(response).__name__}"
        )
    return body


def decode_response(body: dict):
    """JSON dict -> response dataclass (inverse of :func:`encode_response`)."""
    try:
        kind = body["kind"]
        request_id = body.get("id")
        if kind == "match":
            return MatchResponse(
                matched=bool(body["matched"]),
                basis_id=body.get("basis_id"),
                mapping=_decode_optional_mapping(body.get("mapping")),
                candidates_tested=int(body.get("candidates_tested", 0)),
                store=body.get("store", DEFAULT_STORE),
                request_id=request_id,
            )
        if kind == "estimate":
            metrics = body.get("metrics")
            return EstimateResponse(
                matched=bool(body["matched"]),
                basis_id=body.get("basis_id"),
                mapping=_decode_optional_mapping(body.get("mapping")),
                metrics=None if metrics is None else decode_metrics(metrics),
                candidates_tested=int(body.get("candidates_tested", 0)),
                store=body.get("store", DEFAULT_STORE),
                request_id=request_id,
            )
        if kind == "refine":
            return RefineResponse(
                basis_id=int(body["basis_id"]),
                sample_count=int(body["sample_count"]),
                metrics=decode_metrics(body["metrics"]),
                store=body.get("store", DEFAULT_STORE),
                request_id=request_id,
            )
        if kind == "stats":
            return StatsResponse(
                counters={
                    name: {k: int(v) for k, v in counters.items()}
                    for name, counters in body.get("counters", {}).items()
                },
                bases={
                    name: int(v) for name, v in body.get("bases", {}).items()
                },
                request_id=request_id,
            )
        if kind == "evict":
            return EvictResponse(
                evicted={
                    name: tuple(int(i) for i in ids)
                    for name, ids in body.get("evicted", {}).items()
                },
                bases={
                    name: int(v) for name, v in body.get("bases", {}).items()
                },
                request_id=request_id,
            )
        if kind == "compact":
            return CompactResponse(
                rows_dropped={
                    name: int(v)
                    for name, v in body.get("rows_dropped", {}).items()
                },
                bases={
                    name: int(v) for name, v in body.get("bases", {}).items()
                },
                request_id=request_id,
            )
        if kind == "shutdown":
            return ShutdownResponse(
                draining=bool(body.get("draining", True)),
                request_id=request_id,
            )
        if kind == "error":
            return ErrorResponse(
                code=str(body["code"]),
                message=str(body["message"]),
                request_id=request_id,
            )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"malformed {body.get('kind', '?')!r} response "
            f"({type(error).__name__}: {error})"
        ) from error
    raise ProtocolError(f"unknown response kind {body.get('kind')!r}")

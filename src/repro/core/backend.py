"""The four dense numpy kernels under sampling and matching.

The reproduction has two dense hot paths — the standard-draw matrices
behind batch sampling (:mod:`repro.blackbox.fastrng`) and the per-size
fingerprint matrices behind columnar FindMatch
(:mod:`repro.core.mapping` / :mod:`repro.core.fingerprint`).  Their
array work is four kernels: ``draw_block``, ``affine_validate``,
``sid_orders`` and ``normal_forms``.

Callers reach every kernel through this module at call time
(``backend.affine_validate(...)``), never through an imported name, so
one object — :func:`active_backend` — holds all four and a tracer can
wrap them in place.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np


def draw_block(
    seeds: np.ndarray, kinds: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Accept-chain ziggurat draws ``(out, ok)`` over lockstep stream
    positions.

    ``out`` is the ``(len(seeds), len(kinds))`` draw matrix under the
    single-raw-output-per-draw assumption; ``ok[i]`` is False where some
    draw consumed more than one raw output (a ziggurat rejection),
    meaning row ``i`` must be replayed through a real per-seed
    ``Generator``.
    """
    from repro.blackbox.fastrng import _KIND_RAW, raw_block

    raw = raw_block(seeds, len(kinds))
    n = seeds.shape[0]
    out = np.empty((n, len(kinds)), dtype=np.float64)
    ok = np.ones(n, dtype=bool)
    for j, kind in enumerate(kinds):
        values, accepted = _KIND_RAW[kind](raw[j])
        out[:, j] = values
        if accepted is not None:
            ok &= accepted
    return out, ok


def affine_validate(
    sources: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    target: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Row-wise ``|alpha*source + beta - target| <= tol`` accept mask."""
    deviation = np.abs(alpha[:, None] * sources + beta[:, None] - target)
    return (deviation <= tol).all(axis=1)


def sid_orders(matrix: np.ndarray) -> np.ndarray:
    """Row-wise stable argsort (ascending SID-order keys)."""
    return np.argsort(matrix, axis=1, kind="stable")


def normal_forms(
    matrix: np.ndarray, rel_tol: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normal-form components ``(has_pair, position, forward, reflected)``
    for a stack of same-size fingerprints, with matrix arithmetic
    elementwise identical to :meth:`Fingerprint.normal_form`."""
    from repro.core.fingerprint import NORMAL_FORM_DECIMALS, rows_first_distinct

    has_pair, position = rows_first_distinct(matrix, rel_tol)
    lows = matrix.min(axis=1)
    spans = matrix.max(axis=1) - lows
    # Constant rows never read their (possibly zero) span.
    safe_spans = np.where(has_pair, spans, 1.0)
    normalized = (matrix - lows[:, None]) / safe_spans[:, None]
    forward = np.round(normalized, NORMAL_FORM_DECIMALS)
    forward[forward == 0] = 0.0  # collapse -0.0 and 0.0 keys
    reflected = np.round(1.0 - forward, NORMAL_FORM_DECIMALS)
    reflected[reflected == 0] = 0.0
    return has_pair, position, forward, reflected


def active_backend():
    """The object whose kernel attributes every caller looks up: this
    module."""
    return sys.modules[__name__]

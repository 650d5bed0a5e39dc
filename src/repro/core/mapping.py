"""Mapping functions and mapping-function families (paper section 3.1).

A *mapping function* M witnesses the similarity of two stochastic functions:
``F(Pi) ∼M F(Pj)`` when M maps every fingerprint entry of one onto the other.
The paper's desiderata: easy to parameterize, validate, compute, and apply to
aggregate properties.  Linear maps ``M(x) = αx + β`` (Algorithm 2,
FindLinearMapping) satisfy all four and are the default; the family concept
is user-extensible, so identity-only (for boolean outputs), shift-only,
scale-only, and monotone (piecewise-linear) families are also provided.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import backend
from repro.core.fingerprint import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    Fingerprint,
    rows_first_distinct,
    values_close,
)
from repro.errors import MappingError


class Mapping(ABC):
    """A concrete mapping function from one distribution's domain to another's."""

    @abstractmethod
    def apply(self, value: float) -> float:
        """Map one sample value."""

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Map a vector of sample values (defaults to elementwise apply)."""
        return np.array([self.apply(float(v)) for v in values], dtype=float)

    @abstractmethod
    def inverse(self) -> "Mapping":
        """The inverse mapping M⁻¹ (paper section 5 uses it to recycle
        samples from a point of interest back into its basis)."""

    @property
    def is_affine(self) -> bool:
        return False


@dataclass(frozen=True)
class AffineMapping(Mapping):
    """M(x) = alpha * x + beta."""

    alpha: float
    beta: float

    def apply(self, value: float) -> float:
        return self.alpha * value + self.beta

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        return self.alpha * np.asarray(values, dtype=float) + self.beta

    def inverse(self) -> "AffineMapping":
        if self.alpha == 0:
            raise MappingError("degenerate affine mapping has no inverse")
        return AffineMapping(1.0 / self.alpha, -self.beta / self.alpha)

    @property
    def is_affine(self) -> bool:
        return True

    @property
    def is_identity(self) -> bool:
        return self.alpha == 1.0 and self.beta == 0.0

    def compose(self, inner: "AffineMapping") -> "AffineMapping":
        """Return M(x) = self(inner(x))."""
        return AffineMapping(
            self.alpha * inner.alpha, self.alpha * inner.beta + self.beta
        )

    def __repr__(self) -> str:
        return f"AffineMapping(x -> {self.alpha:.6g}*x + {self.beta:.6g})"


IDENTITY = AffineMapping(1.0, 0.0)


@dataclass(frozen=True)
class PiecewiseLinearMapping(Mapping):
    """Monotone interpolation mapping through fingerprint point pairs.

    Supports the Sorted-SID index path where no affine map exists but a
    monotone one does.  Between knots the map interpolates linearly; outside
    the knot range it extrapolates from the boundary segment.
    """

    knots_x: Tuple[float, ...]
    knots_y: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.knots_x) != len(self.knots_y):
            raise MappingError("knot arrays must have equal length")
        if len(self.knots_x) < 2:
            raise MappingError("piecewise mapping needs at least two knots")
        if any(
            self.knots_x[i] >= self.knots_x[i + 1]
            for i in range(len(self.knots_x) - 1)
        ):
            raise MappingError("knots_x must be strictly increasing")

    def apply(self, value: float) -> float:
        xs, ys = self.knots_x, self.knots_y
        position = bisect.bisect_left(xs, value)
        if position <= 0:
            lo, hi = 0, 1
        elif position >= len(xs):
            lo, hi = len(xs) - 2, len(xs) - 1
        else:
            lo, hi = position - 1, position
        span = xs[hi] - xs[lo]
        t = (value - xs[lo]) / span
        return ys[lo] + t * (ys[hi] - ys[lo])

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized interpolation, bit-identical to :meth:`apply`.

        ``np.interp`` is deliberately not used: it clips instead of
        extrapolating and evaluates ``slope * (x - x_lo) + y_lo``, whose
        IEEE rounding differs from the scalar ``y_lo + t * (y_hi - y_lo)``
        form.  This mirrors the scalar arithmetic operation for operation
        (``searchsorted(side="left")`` is ``bisect_left``), so sample
        remapping through a monotone mapping stays bitwise unchanged.
        """
        values = np.asarray(values, dtype=float)
        xs = np.asarray(self.knots_x, dtype=float)
        ys = np.asarray(self.knots_y, dtype=float)
        position = np.searchsorted(xs, values, side="left")
        lo = np.where(
            position <= 0,
            0,
            np.where(position >= len(xs), len(xs) - 2, position - 1),
        )
        hi = lo + 1
        span = xs[hi] - xs[lo]
        t = (values - xs[lo]) / span
        return ys[lo] + t * (ys[hi] - ys[lo])

    def inverse(self) -> "PiecewiseLinearMapping":
        pairs = sorted(zip(self.knots_y, self.knots_x))
        ys = tuple(p[0] for p in pairs)
        xs = tuple(p[1] for p in pairs)
        if any(ys[i] >= ys[i + 1] for i in range(len(ys) - 1)):
            raise MappingError("mapping is not invertible (non-strict image)")
        return PiecewiseLinearMapping(ys, xs)


#: Result of :meth:`MappingFamily.find_matrix`: a per-row plausibility mask
#: plus a builder that materializes the exact mapping for one row.  The mask
#: is sound (``False`` guarantees :meth:`MappingFamily.find` returns None for
#: that row) but may over-approximate; ``build(row)`` gives the authoritative
#: answer for plausible rows and may still return ``None``.
MatrixFind = Tuple[np.ndarray, Callable[[int], Optional[Mapping]]]


class MappingFamily(ABC):
    """A searchable class of mapping functions (user-extensible).

    ``find`` returns a member mapping the *source* fingerprint onto the
    *target* fingerprint, or ``None``; per the paper the family must make
    this test cheap, and may additionally admit index support (a normal form
    and/or monotonicity, section 3.2).
    """

    #: Whether fingerprints admit a canonical form under this family, making
    #: the Normalization index applicable.
    supports_normal_form: bool = False

    #: Whether every member is monotone, making the Sorted-SID index exact.
    monotone_members: bool = True

    #: Whether :meth:`find_matrix` is a true vectorized kernel.  The
    #: columnar match engine in :class:`repro.core.basis.BasisStore` only
    #: engages for families that set this; user-defined families keep the
    #: scalar per-candidate path (the generic ``find_matrix`` below is
    #: correct but not faster than the loop it replaces).
    supports_find_matrix: bool = False

    @abstractmethod
    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[Mapping]:
        """Return M with M(source[k]) == target[k] for all k, else None."""

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        """:meth:`find` against a ``(rows, m)`` stack of source fingerprints.

        The accept set and the returned mapping parameters are identical to
        calling ``find`` row by row — vectorized implementations mirror the
        scalar arithmetic operation for operation, so even the IEEE rounding
        of ``alpha``/``beta`` matches bitwise.  ``sources`` rows must already
        have the target's entry count (the columnar store guarantees this).
        ``keys``, when given, exposes precomputed per-row index-key matrices
        (``sid_asc()`` — see :class:`repro.core.columnar.CandidateKeys`) so
        monotone order checks read order statistics instead of re-sorting.
        """
        sources = np.asarray(sources, dtype=float)
        plausible = np.ones(len(sources), dtype=bool)

        def build(row: int) -> Optional[Mapping]:
            return self.find(
                Fingerprint(sources[row]), target, rel_tol, abs_tol
            )

        return plausible, build

    def find_arrays(
        self,
        source: np.ndarray,
        target: np.ndarray,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[Mapping]:
        """:meth:`find` on raw value vectors — same accept set.

        The generic implementation wraps the vectors in fingerprints;
        families on hot paths (the Markov jump probe loop) override it with
        allocation-free array arithmetic.
        """
        return self.find(
            Fingerprint(source), Fingerprint(target), rel_tol, abs_tol
        )

    def name(self) -> str:
        return type(self).__name__


def _rows_affine_valid(
    sources: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    target: Fingerprint,
    rel_tol: float,
    abs_tol: float,
) -> np.ndarray:
    """Row-wise :func:`_validates` for affine candidates.

    Literally ``alpha * source + beta`` per row — the same IEEE multiply
    and add :meth:`AffineMapping.apply_array` performs — against the same
    per-probe tolerance, so the accept set matches the scalar loop bitwise.
    """
    tol = max(rel_tol * max(target.scale(), 1.0), abs_tol)
    return backend.affine_validate(
        np.asarray(sources, dtype=np.float64),
        np.asarray(alpha, dtype=np.float64),
        np.asarray(beta, dtype=np.float64),
        target.array,
        tol,
    )


class LinearMappingFamily(MappingFamily):
    """Algorithm 2: FindLinearMapping, generalized with float tolerance.

    Anchors α and β on the first two distinct source entries, then validates
    the remaining entries.  Constant-source fingerprints are handled
    explicitly (the paper's ``θ1[1] − θ1[2]`` would divide by zero): a
    constant source maps onto a constant target by pure shift.
    """

    supports_normal_form = True
    monotone_members = True  # each member is monotone (increasing or
    # decreasing); Sorted-SID probes both orders.
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        pair = source.first_distinct_pair(rel_tol)
        if pair is None:
            # Constant source: only a constant target is reachable.
            if not target.is_constant(rel_tol):
                return None
            return AffineMapping(1.0, target[0] - source[0])
        if target.is_constant(rel_tol):
            # A non-constant source reaches a constant target only through a
            # degenerate (α ≈ 0) member.  Those are excluded from the
            # family: they are not invertible (sample recycling needs M⁻¹,
            # paper section 5) and the normal-form index key is only
            # invariant under non-degenerate maps, so admitting them would
            # break the index's no-false-negative contract.
            return None
        i, j = pair
        alpha = (target[j] - target[i]) / (source[j] - source[i])
        beta = target[i] - alpha * source[i]
        candidate = AffineMapping(alpha, beta)
        if _validates(candidate, source, target, rel_tol, abs_tol):
            return candidate
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        """Algorithm 2 across all candidate rows in one array pass."""
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        alpha = np.ones(rows)
        beta = np.zeros(rows)
        valid = np.zeros(rows, dtype=bool)
        if rows:
            has_pair, position = rows_first_distinct(sources, rel_tol)
            target_array = target.array
            if target.is_constant(rel_tol):
                # Constant target: only constant sources reach it (by pure
                # shift, accepted without validation — exactly `find`).
                constant = ~has_pair
                valid[constant] = True
                beta[constant] = target_array[0] - sources[constant, 0]
            elif bool(has_pair.any()):
                fit = np.nonzero(has_pair)[0]
                anchors = position[fit]
                fit_sources = sources[fit]
                fit_alpha = (target_array[anchors] - target_array[0]) / (
                    fit_sources[np.arange(len(fit)), anchors]
                    - fit_sources[:, 0]
                )
                fit_beta = target_array[0] - fit_alpha * fit_sources[:, 0]
                alpha[fit] = fit_alpha
                beta[fit] = fit_beta
                valid[fit] = _rows_affine_valid(
                    fit_sources,
                    fit_alpha,
                    fit_beta,
                    target,
                    rel_tol,
                    abs_tol,
                )

        def build(row: int) -> AffineMapping:
            return AffineMapping(float(alpha[row]), float(beta[row]))

        return valid, build


class IdentityMappingFamily(MappingFamily):
    """Only the identity map: reuse requires exactly equal fingerprints.

    This is all that remains for information-destroying outputs such as the
    boolean Overload model (section 6.2) — equal fingerprints still allow
    reuse, but no remapping is possible.
    """

    supports_normal_form = False  # the normal form erases the information
    # (shift/scale) that identity matching must preserve.
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        if _validates(IDENTITY, source, target, rel_tol, abs_tol):
            return IDENTITY
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        valid = (
            _rows_affine_valid(
                sources,
                np.ones(rows),
                np.zeros(rows),
                target,
                rel_tol,
                abs_tol,
            )
            if rows
            else np.zeros(0, dtype=bool)
        )
        return valid, lambda row: IDENTITY


class ShiftMappingFamily(MappingFamily):
    """M(x) = x + β: pure translations (uniform drift absorption)."""

    supports_normal_form = False
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        candidate = AffineMapping(1.0, target[0] - source[0])
        if _validates(candidate, source, target, rel_tol, abs_tol):
            return candidate
        return None

    def find_arrays(
        self,
        source: np.ndarray,
        target: np.ndarray,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.shape != target.shape:
            return None
        beta = float(target[0]) - float(source[0])
        tol = max(
            rel_tol * max(float(np.max(np.abs(target))) or 1.0, 1.0), abs_tol
        )
        if bool((np.abs(1.0 * source + beta - target) <= tol).all()):
            return AffineMapping(1.0, beta)
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        beta = np.zeros(rows)
        valid = np.zeros(rows, dtype=bool)
        if rows:
            beta = target.array[0] - sources[:, 0]
            valid = _rows_affine_valid(
                sources,
                np.ones(rows),
                beta,
                target,
                rel_tol,
                abs_tol,
            )
        return valid, lambda row: AffineMapping(1.0, float(beta[row]))


class ScaleMappingFamily(MappingFamily):
    """M(x) = αx: pure rescalings."""

    supports_normal_form = False
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[AffineMapping]:
        if source.size != target.size:
            return None
        anchor = None
        for k in range(source.size):
            if abs(source[k]) > abs_tol:
                anchor = k
                break
        if anchor is None:
            # Zero source maps to zero target under any α; use identity.
            if target.is_constant(rel_tol) and abs(target[0]) <= abs_tol:
                return IDENTITY
            return None
        candidate = AffineMapping(target[anchor] / source[anchor], 0.0)
        if _validates(candidate, source, target, rel_tol, abs_tol):
            return candidate
        return None

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        alpha = np.ones(rows)
        zero_source = np.zeros(rows, dtype=bool)
        valid = np.zeros(rows, dtype=bool)
        if rows:
            nonzero = np.abs(sources) > abs_tol
            has_anchor = nonzero.any(axis=1)
            zero_source = ~has_anchor
            # Zero source rows map to a zero target under any α: identity.
            if target.is_constant(rel_tol) and abs(target[0]) <= abs_tol:
                valid[zero_source] = True
            if bool(has_anchor.any()):
                fit = np.nonzero(has_anchor)[0]
                anchors = nonzero[fit].argmax(axis=1)
                fit_sources = sources[fit]
                fit_alpha = (
                    target.array[anchors]
                    / fit_sources[np.arange(len(fit)), anchors]
                )
                alpha[fit] = fit_alpha
                valid[fit] = _rows_affine_valid(
                    fit_sources,
                    fit_alpha,
                    np.zeros(len(fit)),
                    target,
                    rel_tol,
                    abs_tol,
                )

        def build(row: int) -> AffineMapping:
            if zero_source[row]:
                return IDENTITY
            return AffineMapping(float(alpha[row]), 0.0)

        return valid, build


class MonotoneMappingFamily(MappingFamily):
    """Any strictly monotone map, represented piecewise-linearly.

    A monotone mapping between two fingerprints exists precisely when sorting
    both produces consistent sample-identifier orders (either equal for an
    increasing map or reversed for a decreasing one) — the invariant behind
    the Sorted-SID index.  Aggregate reuse is limited: quantiles map through
    M, but means and variances require sample remapping.
    """

    supports_normal_form = False
    monotone_members = True
    supports_find_matrix = True

    def find(
        self,
        source: Fingerprint,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ) -> Optional[Mapping]:
        if source.size != target.size:
            return None
        increasing = source.sid_order() == target.sid_order()
        decreasing = source.sid_order() == target.sid_order(descending=True)
        if not increasing and not decreasing:
            return None
        return _monotone_from_values(
            source.values, target.values, rel_tol, abs_tol
        )

    def find_matrix(
        self,
        sources: np.ndarray,
        target: Fingerprint,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
        keys: Optional["object"] = None,
    ) -> MatrixFind:
        """Order-statistics screen over all rows, exact build per survivor.

        A monotone map exists only when the source's ascending SID order
        equals the target's ascending (increasing) or descending
        (decreasing) order, so one integer-matrix comparison against the
        candidates' precomputed SID-order rows prunes the stack; knot
        construction (which can still reject, e.g. equal source entries
        mapping to unequal targets) runs only for rows that pass.
        """
        sources = np.asarray(sources, dtype=float)
        rows = len(sources)
        if rows == 0:
            plausible = np.zeros(0, dtype=bool)
        else:
            if keys is not None:
                source_orders = keys.sid_asc()
            else:
                source_orders = backend.sid_orders(sources)
            target_asc = np.asarray(target.sid_order(), dtype=np.int64)
            target_desc = np.asarray(
                target.sid_order(descending=True), dtype=np.int64
            )
            plausible = (source_orders == target_asc).all(axis=1) | (
                source_orders == target_desc
            ).all(axis=1)

        def build(row: int) -> Optional[Mapping]:
            return _monotone_from_values(
                tuple(float(v) for v in sources[row]),
                target.values,
                rel_tol,
                abs_tol,
            )

        return plausible, build


def _monotone_from_values(
    source_values: Sequence[float],
    target_values: Sequence[float],
    rel_tol: float,
    abs_tol: float,
) -> Optional[Mapping]:
    """Knot construction shared by the scalar and matrix monotone paths.

    Callers have already established order consistency; this dedups equal
    source entries, verifies they map to equal targets, checks the image's
    monotonicity, and materializes the piecewise mapping.
    """
    pairs = sorted(zip(source_values, target_values))
    xs: List[float] = []
    ys: List[float] = []
    for x, y in pairs:
        if xs and values_close(x, xs[-1], rel_tol, abs_tol):
            # Equal source entries must map to equal target entries.
            if not values_close(y, ys[-1], rel_tol, abs_tol):
                return None
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        return AffineMapping(1.0, ys[0] - xs[0]) if xs else None
    direction = ys[-1] - ys[0]
    for a, b in zip(ys, ys[1:]):
        if direction >= 0 and b < a - abs_tol:
            return None
        if direction < 0 and b > a + abs_tol:
            return None
    if direction < 0:
        ys = [-y for y in ys]
        return _NegatedPiecewise(
            PiecewiseLinearMapping(tuple(xs), tuple(ys))
        )
    return PiecewiseLinearMapping(tuple(xs), tuple(ys))


@dataclass(frozen=True)
class _NegatedPiecewise(Mapping):
    """Decreasing monotone mapping: negation of an increasing one."""

    inner: PiecewiseLinearMapping

    def apply(self, value: float) -> float:
        return -self.inner.apply(value)

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        return -self.inner.apply_array(values)

    def inverse(self) -> Mapping:
        raise MappingError("inverse of negated piecewise mapping unsupported")


def _validates(
    mapping: Mapping,
    source: Fingerprint,
    target: Fingerprint,
    rel_tol: float,
    abs_tol: float,
) -> bool:
    """Check M(source[k]) == target[k] for every entry (Algorithm 2 loop)."""
    tol = max(rel_tol * max(target.scale(), 1.0), abs_tol)
    if isinstance(mapping, AffineMapping):
        # Hot path of every index probe: one vector expression instead of a
        # per-entry Python loop (same IEEE operations, same accept set).
        deviation = np.abs(mapping.apply_array(source.array) - target.array)
        return bool((deviation <= tol).all())
    return all(
        abs(mapping.apply(s) - t) <= tol
        for s, t in zip(source.values, target.values)
    )


def find_linear_mapping(
    source: Sequence[float],
    target: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Optional[AffineMapping]:
    """Convenience wrapper exposing paper Algorithm 2 on raw value vectors."""
    return LinearMappingFamily().find(
        Fingerprint(tuple(float(v) for v in source)),
        Fingerprint(tuple(float(v) for v in target)),
        rel_tol=rel_tol,
    )

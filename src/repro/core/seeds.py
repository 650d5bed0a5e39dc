"""The global seed set {σk} (paper section 3.1).

Jigsaw's fingerprinting hinges on evaluating every stochastic black box under
the *same, fixed* sequence of pseudorandom seeds.  The paper generates the
seed set once at initialization and holds it constant for the lifetime of the
system; :class:`SeedBank` plays that role here.

Seeds are derived from a single master seed with a splitmix-style mixer so
that (a) the k-th seed is a pure function of ``(master_seed, k)``, (b) seeds
for different indices are statistically independent, and (c) per-step Markov
seeds (section 4) can be derived from an instance seed without collisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Union

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood 2014): a fixed bijective mixer
# gives us reproducible, well-distributed derived seeds with no RNG state.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 finalizer: bijectively scramble a 64-bit integer."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def derive_seed(*components: int) -> int:
    """Combine integer components into one well-mixed 64-bit seed.

    Deterministic, order-sensitive, and collision-resistant for the modest
    component counts used here (seed index, step index, instance index).
    """
    state = 0x243F6A8885A308D3  # pi fractional bits; arbitrary fixed IV
    for component in components:
        state = mix64((state + _GAMMA) ^ mix64(component & _MASK64))
    return state


_IV64 = np.uint64(0x243F6A8885A308D3)
_GAMMA64 = np.uint64(_GAMMA)
_MIX1_64 = np.uint64(_MIX1)
_MIX2_64 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

SeedComponents = Union[int, Sequence[int], np.ndarray]


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array (bit-identical)."""
    values = np.asarray(values, dtype=np.uint64)
    values = (values ^ (values >> _S30)) * _MIX1_64
    values = (values ^ (values >> _S27)) * _MIX2_64
    return values ^ (values >> _S31)


def derive_seed_array(*components: SeedComponents) -> np.ndarray:
    """Vectorized :func:`derive_seed`: scalar and array components broadcast.

    ``derive_seed_array(master, np.arange(n))[k] == derive_seed(master, k)``
    exactly; used by the batch sampling paths so seed derivation stays out
    of per-sample Python loops.
    """
    arrays = [np.atleast_1d(np.asarray(c, dtype=np.uint64)) for c in components]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    state = np.broadcast_to(_IV64, shape)
    for component in arrays:
        state = mix64_array((state + _GAMMA64) ^ mix64_array(component))
    return np.asarray(state, dtype=np.uint64)


@dataclass(frozen=True)
class SeedSlice:
    """A picklable handle on a contiguous run of a bank's seed sequence.

    Parallel sweep workers receive slices instead of materialized arrays:
    a slice is three integers on the wire, and :meth:`materialize` rebuilds
    the exact ``seed_array(count, start)`` vector (bit-identical, since
    every seed is a pure function of ``(master_seed, index)``).
    """

    master_seed: int
    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.count < 0:
            raise ValueError("start and count must be non-negative")

    @property
    def bank(self) -> "SeedBank":
        return SeedBank(self.master_seed)

    def materialize(self) -> np.ndarray:
        """The slice's seeds as a uint64 array (σ_start .. σ_start+count-1)."""
        return self.bank.seed_array(self.count, start=self.start)

    def __len__(self) -> int:
        return self.count


class SeedBank:
    """A fixed, indexable sequence of i.i.d. pseudorandom seeds.

    ``seed(k)`` is the paper's σk.  Fingerprints use ``k in [0, m)``; the
    remaining Monte Carlo instances use ``k in [m, n)``, so fingerprint rounds
    double as the first ``m`` simulation rounds (section 3.1, "the fingerprint
    of F(Pi) is essentially the outputs of first m simulation rounds").
    """

    def __init__(self, master_seed: int = 0x51AC5A11):
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self._master_seed = master_seed & _MASK64

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def seed(self, index: int) -> int:
        """Return σ_index, the fixed seed for simulation round ``index``."""
        if index < 0:
            raise ValueError("seed index must be non-negative")
        return derive_seed(self._master_seed, index)

    def seeds(self, count: int, start: int = 0) -> List[int]:
        """Return ``[σ_start, ..., σ_(start+count-1)]``."""
        return [self.seed(start + i) for i in range(count)]

    def seed_array(self, count: int, start: int = 0) -> np.ndarray:
        """Vectorized :meth:`seeds`: a uint64 array, bit-identical entries."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if start < 0:
            raise ValueError("start must be non-negative")
        indices = np.arange(start, start + count, dtype=np.uint64)
        return derive_seed_array(self._master_seed, indices)

    def slice(self, count: int, start: int = 0) -> SeedSlice:
        """A picklable :class:`SeedSlice` over ``[σ_start, σ_start+count)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if start < 0:
            raise ValueError("start must be non-negative")
        return SeedSlice(self._master_seed, start, count)

    def step_seed_array(
        self, instance_indices: np.ndarray, step: int
    ) -> np.ndarray:
        """Vectorized :meth:`step_seed` for many instances at one step."""
        if step < 0:
            raise ValueError("step must be non-negative")
        indices = np.asarray(instance_indices, dtype=np.uint64)
        return derive_seed_array(self._master_seed, indices, step + 1)

    def step_seed_matrix(
        self, instance_count: int, steps: int, start_step: int = 0
    ) -> np.ndarray:
        """(steps, instances) matrix of per-step seeds, bit-identical to
        :meth:`step_seed` — the Markov runners' block-planning input."""
        if instance_count < 1:
            raise ValueError("instance_count must be positive")
        if steps < 0 or start_step < 0:
            raise ValueError("steps and start_step must be non-negative")
        indices = np.arange(instance_count, dtype=np.uint64)[None, :]
        step_ids = np.arange(
            start_step + 1, start_step + steps + 1, dtype=np.uint64
        )[:, None]
        return derive_seed_array(self._master_seed, indices, step_ids)

    def iter_seeds(self, start: int = 0) -> Iterator[int]:
        """Yield σ_start, σ_start+1, ... without bound."""
        index = start
        while True:
            yield self.seed(index)
            index += 1

    def step_seed(self, index: int, step: int) -> int:
        """Seed for instance ``index`` at Markov-chain ``step`` (section 4).

        Every step of the chain needs fresh randomness, but instance ``index``
        must remain reproducible, so the step seed is a pure function of
        (master, index, step).
        """
        if step < 0:
            raise ValueError("step must be non-negative")
        return derive_seed(self._master_seed, index, step + 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SeedBank)
            and other._master_seed == self._master_seed
        )

    def __hash__(self) -> int:
        return hash(("SeedBank", self._master_seed))

    def __repr__(self) -> str:
        return f"SeedBank(master_seed={self._master_seed:#x})"


class SweepSeeds:
    """A sweep's seed arrays by round range ``(count, start)``.

    Every point of a sweep draws its fingerprint rounds ``[0, m)`` and, at
    a fixed budget, its completion rounds ``[m, n)`` under the same seeds,
    so those two arrays are derived once; only an adaptive budget's other
    blocks derive theirs per call.
    """

    def __init__(
        self, bank: SeedBank, fingerprint_size: int, samples_per_point: int
    ):
        self._bank = bank
        self._fingerprint = bank.seed_array(fingerprint_size)
        self._completion = bank.seed_array(
            samples_per_point - fingerprint_size, start=fingerprint_size
        )

    def __call__(self, count: int, start: int) -> np.ndarray:
        if start == 0 and count == self._fingerprint.size:
            return self._fingerprint
        if start == self._fingerprint.size and count == self._completion.size:
            return self._completion
        return self._bank.seed_array(count, start=start)


DEFAULT_SEED_BANK = SeedBank()
"""Module-level bank used when callers do not supply one explicitly."""

"""Unit tests for the global seed bank (paper section 3.1)."""

import numpy as np
import pytest

from repro.core.seeds import (
    DEFAULT_SEED_BANK,
    SeedBank,
    SweepSeeds,
    derive_seed,
    mix64,
)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {mix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_output_fits_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(value) < 2**64

    def test_negative_input_masked(self):
        assert mix64(-1) == mix64(2**64 - 1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_arity_sensitive(self):
        assert derive_seed(1) != derive_seed(1, 0)

    def test_no_collisions_over_grid(self):
        outputs = {
            derive_seed(a, b) for a in range(100) for b in range(100)
        }
        assert len(outputs) == 100 * 100


class TestSeedBank:
    def test_same_master_same_seeds(self):
        a = SeedBank(7)
        b = SeedBank(7)
        assert a.seeds(20) == b.seeds(20)

    def test_different_master_different_seeds(self):
        assert SeedBank(1).seeds(5) != SeedBank(2).seeds(5)

    def test_seed_index_stability(self):
        bank = SeedBank(42)
        assert bank.seed(3) == bank.seeds(10)[3]

    def test_seeds_with_start_offset(self):
        bank = SeedBank(42)
        assert bank.seeds(5, start=5) == bank.seeds(10)[5:]

    def test_iter_seeds_matches_indexed(self):
        bank = SeedBank(42)
        iterator = bank.iter_seeds()
        assert [next(iterator) for _ in range(8)] == bank.seeds(8)

    def test_iter_seeds_with_start(self):
        bank = SeedBank(42)
        iterator = bank.iter_seeds(start=3)
        assert next(iterator) == bank.seed(3)

    def test_all_seeds_distinct(self):
        bank = SeedBank(42)
        seeds = bank.seeds(5000)
        assert len(set(seeds)) == 5000

    def test_step_seed_distinct_from_plain_seed(self):
        bank = SeedBank(42)
        plain = set(bank.seeds(100))
        stepped = {bank.step_seed(i, 0) for i in range(100)}
        assert not plain & stepped

    def test_step_seed_varies_by_step(self):
        bank = SeedBank(42)
        assert bank.step_seed(0, 1) != bank.step_seed(0, 2)

    def test_step_seed_varies_by_instance(self):
        bank = SeedBank(42)
        assert bank.step_seed(1, 0) != bank.step_seed(2, 0)

    def test_negative_seed_index_rejected(self):
        with pytest.raises(ValueError):
            SeedBank(42).seed(-1)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            SeedBank(42).step_seed(0, -1)

    def test_negative_master_rejected(self):
        with pytest.raises(ValueError):
            SeedBank(-5)

    def test_equality_and_hash(self):
        assert SeedBank(9) == SeedBank(9)
        assert SeedBank(9) != SeedBank(10)
        assert hash(SeedBank(9)) == hash(SeedBank(9))

    def test_default_bank_is_stable(self):
        assert DEFAULT_SEED_BANK.seed(0) == SeedBank().seed(0)

    def test_repr_mentions_master(self):
        assert "master_seed" in repr(SeedBank(3))


class TestSweepSeeds:
    def test_fixed_ranges_are_precomputed_and_others_derived(self):
        bank = SeedBank(5)
        seeds = SweepSeeds(bank, fingerprint_size=10, samples_per_point=100)
        # The fingerprint and fixed-completion arrays are built once.
        assert seeds(10, 0) is seeds(10, 0)
        assert seeds(90, 10) is seeds(90, 10)
        for count, start in ((10, 0), (90, 10), (22, 10), (5, 40)):
            np.testing.assert_array_equal(
                seeds(count, start), bank.seed_array(count, start=start)
            )

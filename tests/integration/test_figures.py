"""Smoke + shape tests for the figure-reproduction runners.

These drive the same code paths as ``benchmarks/run_all.py`` at tiny sizes
so a plain ``pytest tests/`` run validates every experiment harness without
benchmark-scale wall clock.

Two deterministic layers replace what used to be wall-clock assertions:

* **Golden-figure regression** — each figure's deterministic data points
  (``FigureResult.data``) are compared *exactly* against the committed
  files under ``benchmarks/golden/`` (refresh procedure:
  ``benchmarks/refresh_golden.py``; see ROADMAP subsystem notes).
* **Work-counter shapes** — cost claims ("the array scan gets slower with
  more bases") are asserted on the deterministic cost drivers
  (candidates tested per lookup) rather than on milliseconds, and the
  timing *plumbing* is exercised under an injected
  :class:`repro.util.timing.FakeClock`, making every assertion exact.
"""

import importlib.util
import json
import os

import pytest

from repro.bench.figures import (
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.bench.workloads import capacity_workload, synth_basis_workload
from repro.core import BasisStore, ParameterExplorer
from repro.util.timing import FakeClock, use_clock

_BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)


def _load_refresh_golden():
    """The golden refresh/check script, shared so the runner registry and
    measurement logic cannot drift between CI's check and this suite."""
    spec = importlib.util.spec_from_file_location(
        "_refresh_golden_under_test",
        os.path.join(_BENCHMARKS_DIR, "refresh_golden.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refresh_golden = _load_refresh_golden()


class TestFig7:
    def test_table_renders_and_shapes(self):
        text = run_fig7("quick")
        assert "Figure 7" in text
        lines = [l for l in text.splitlines() if l and not l.startswith("-")]
        assert any(l.startswith("Demand") for l in lines)
        assert any(l.startswith("UserSelect") for l in lines)
        # Last column is the online/offline ratio: >1 for Demand, <1 for
        # UserSelect.
        demand_ratio = float(
            next(l for l in lines if l.startswith("Demand")).split()[-1]
        )
        users_ratio = float(
            next(l for l in lines if l.startswith("UserSelect")).split()[-1]
        )
        assert demand_ratio > 1.0
        assert users_ratio < 1.0

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            run_fig7("huge")


class TestFig8:
    def test_jigsaw_beats_full_on_every_workload(self):
        """Jigsaw does strictly less work than full evaluation on every
        workload — asserted on the deterministic cost drivers (samples
        drawn; jumps taken for the Markov chain), not on wall-clock
        ordering, which scheduler noise can invert at quick scale."""
        result = run_fig8("quick")
        assert set(result.data) == {
            "Usage", "Capacity", "Overload", "MarkovStep"
        }
        for label, entry in result.data.items():
            if label == "MarkovStep":
                # The jump engine skipped work: jumps replace full steps.
                assert entry["jumps"] > 0
                assert entry["full_steps"] > 0
            else:
                assert entry["jigsaw_samples"] < entry["naive_samples"], (
                    label
                )
                assert entry["reuse_fraction"] > 0.0, label

    def test_series_cover_all_workloads_under_fake_clock(self):
        """The timing series themselves, deterministic: one tick per
        timed region, so both series exist, align, and carry the exact
        per-read tick — no scheduler noise term.  Jigsaw sweeps also
        time every store match through the same clock (two readings per
        point, one match per point); the Markov jump runner probes no
        store."""
        with use_clock(FakeClock(tick=0.125)):
            result = run_fig8("quick")
        full = dict(result.series_named("Full Evaluation").points)
        jigsaw = dict(result.series_named("Jigsaw").points)
        assert set(full) == set(jigsaw) == {0.0, 1.0, 2.0, 3.0}
        assert all(seconds == 0.125 for seconds in full.values())
        for index, label in enumerate(("Usage", "Capacity", "Overload")):
            points = result.data[label]["points"]
            assert jigsaw[float(index)] == 0.125 * (1 + 2 * points), label
        assert jigsaw[3.0] == 0.125

    def test_to_text_includes_notes(self):
        text = run_fig8("quick").to_text()
        assert "speedup" in text
        assert "MarkovStep" in text


class TestFig9:
    def test_bases_grow_with_structure(self):
        result = run_fig9("quick", structure_sizes=(0.0, 8.0))
        notes = "\n".join(result.notes)
        assert "structure=0.0: 1 bases" in notes
        assert len(result.series) == 3
        for series in result.series:
            assert len(series.points) == 2

    def test_cost_rises_with_structure(self):
        """More structure -> more bases -> more candidates per lookup.

        Milliseconds per point on a loaded host can transiently invert,
        so the cost claim is asserted on its deterministic driver: the
        array scan's candidates-tested count per lookup grows with the
        structure size.  (Formerly a best-of-3 wall-clock retry loop.)
        """
        per_lookup = {}
        for structure in (0.0, 12.0):
            workload = capacity_workload(
                weeks=26, purchase_step=8, structure_size=structure
            )
            workload.samples_per_point = 120
            store = BasisStore(index_strategy="array")
            ParameterExplorer(
                workload.simulation(),
                samples_per_point=120,
                fingerprint_size=workload.fingerprint_size,
                basis_store=store,
            ).run(workload.points)
            assert store.stats.lookups > 0
            per_lookup[structure] = (
                store.stats.candidates_tested / store.stats.lookups
            )
        assert per_lookup[12.0] > per_lookup[0.0]

    def test_fig9_timing_deterministic_under_fake_clock(self):
        """With the injected clock every sweep spans exactly one tick, so
        all three strategies report the *identical* ms/point value — an
        exact-equality assertion with no scheduler noise term at all.
        (The tick is a power of two so the clock's accumulation stays
        exact in binary floating point.)"""
        with use_clock(FakeClock(tick=0.25)):
            result = run_fig9("quick", structure_sizes=(0.0, 8.0))
        reference = dict(result.series[0].points)
        assert all(value > 0 for value in reference.values())
        for series in result.series[1:]:
            assert dict(series.points) == reference, series.name


class TestFig10And11:
    def test_fig10_relative_to_array(self):
        """Normalization beats the array scan at 40 bases — asserted on
        the deterministic cost driver (candidates tested per lookup)
        instead of single-digit-millisecond timing ratios that scheduler
        noise can spike.  (Formerly a best-of-3 wall-clock retry loop.)
        """
        tested = {}
        for strategy in ("array", "normalization"):
            workload = synth_basis_workload(40, 200)
            workload.samples_per_point = 60
            store = BasisStore(index_strategy=strategy)
            ParameterExplorer(
                workload.simulation(),
                samples_per_point=60,
                fingerprint_size=workload.fingerprint_size,
                basis_store=store,
            ).run(workload.points)
            assert store.stats.lookups == 200
            tested[strategy] = store.stats.candidates_tested
        # The array scan tests every stored basis per probe; the
        # normalization index prunes to the probe's bucket.
        assert tested["normalization"] < tested["array"] / 2

    def test_fig10_ratios_exact_under_fake_clock(self):
        """The relative-to-array arithmetic itself, with timing noise
        removed: every sweep spans one tick, so every ratio is exactly
        1.0 — and the Array reference column is exactly 1.0 by
        construction."""
        with use_clock(FakeClock(tick=0.5)):
            result = run_fig10("quick", basis_counts=(5, 40))
        for series in result.series:
            for _, ratio in series.points:
                assert ratio == 1.0, series.name

    def test_fig11_series_cover_counts(self):
        result = run_fig11("quick", basis_counts=(10, 30))
        for series in result.series:
            assert sorted(series.xs) == [10, 30]
            assert all(y > 0 for y in series.ys)


class TestFig12:
    def test_advantage_decays_with_branching(self):
        result = run_fig12("quick", branchings=(1e-3, 0.1))
        naive = dict(result.series_named("Naive").points)
        jigsaw = dict(result.series_named("Jigsaw").points)
        ratio_low = naive[1e-3] / jigsaw[1e-3]
        ratio_high = naive[0.1] / jigsaw[0.1]
        assert ratio_low > ratio_high
        assert ratio_low > 3.0


class TestHarnessTable:
    def test_missing_series_lookup(self):
        result = run_fig12("quick", branchings=(1e-2,))
        with pytest.raises(KeyError):
            result.series_named("NoSuchSeries")


class TestGoldenFigures:
    """Exact-compare smoke-scale figure *data points* against the files
    committed under ``benchmarks/golden/``.

    This pins the actual estimates (mean expectations, reuse decisions,
    jump counts) — not just the aggregate counters the bench gate
    watches — so a change that shifts what the figures *report* fails
    even when the work accounting happens to be unchanged.  Refresh via
    ``PYTHONPATH=src python benchmarks/refresh_golden.py`` and commit the
    diff with an explanation.
    """

    @staticmethod
    def _golden(figure):
        with open(refresh_golden.golden_path(figure)) as handle:
            return json.load(handle)

    @pytest.mark.parametrize(
        "figure", sorted(refresh_golden.RUNNERS)
    )
    def test_data_points_match_golden_exactly(self, figure):
        golden = self._golden(figure)
        assert golden["scale"] == refresh_golden.SCALE == "smoke"
        # measure() is the same code CI's --check runs, so the registry
        # and measurement logic cannot drift between the two gates.  One
        # json round-trip normalizes float formatting on our side; the
        # values themselves must then match bit-for-bit.
        measured = json.loads(json.dumps(refresh_golden.measure(figure)))
        assert measured["data"] == golden["data"]

    def test_golden_files_carry_real_data_points(self):
        """Every golden file pins actual per-x data, not empty shells."""
        for figure in refresh_golden.RUNNERS:
            golden = self._golden(figure)
            assert golden["data"], figure
            for key, entry in golden["data"].items():
                assert entry, (figure, key)
                assert all(
                    isinstance(value, (int, float))
                    for value in entry.values()
                ), (figure, key)

"""Driver-level tests for ``benchmarks/run_all.py``'s baseline protections.

``BENCH_run_all.json`` is the committed perf-regression baseline, so the
driver must never let a partial (``--only``), differently-scaled, or
sharded (``--workers``) run clobber it.  These tests exercise that logic
end to end through ``main`` with stubbed figure runners — tmp-path
baselines, malformed JSON, scale and worker mismatches, ``partial`` /
``merged_figures`` marking — plus one real smoke-sized run proving the
``--workers`` counters are bit-identical to the serial driver run.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro.bench.harness import FigureResult, Series

_RUN_ALL_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "run_all.py",
)

ALL_FIGURES = (
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "match"
)


@pytest.fixture()
def run_all():
    """A private module instance so monkeypatching never leaks."""
    spec = importlib.util.spec_from_file_location(
        "_run_all_under_test", _RUN_ALL_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("_run_all_under_test", None)


def _stub_result(name, counter=1.0):
    result = FigureResult(
        figure=name,
        caption="stub",
        x_label="x",
        y_label="y",
        series=[Series("Stub", [(0.0, 1.0)])],
        counters={"samples_drawn": counter},
    )
    return result


def _install_stubs(monkeypatch, run_all, counter=1.0):
    monkeypatch.setattr(run_all, "run_fig7", lambda scale: "Figure 7 stub")
    monkeypatch.setattr(
        run_all, "run_match", lambda scale: _stub_result("match", counter)
    )
    for name in ALL_FIGURES[1:]:
        if not name.startswith("fig"):
            continue
        number = name[3:]
        if name in ("fig8", "fig9", "fig10", "fig11"):
            monkeypatch.setattr(
                run_all,
                f"run_fig{number}",
                lambda scale, workers=1, adaptive=None, warm_store=None,
                checkpoint=None, _n=name: _stub_result(_n, counter),
            )
        else:
            monkeypatch.setattr(
                run_all,
                f"run_fig{number}",
                lambda scale, _n=name: _stub_result(_n, counter),
            )


def _read(path):
    with open(path) as handle:
        return json.load(handle)


class TestFullRuns:
    def test_writes_complete_baseline(self, tmp_path, monkeypatch, run_all):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out)])
        bench = _read(out)
        assert set(bench["figures"]) == set(ALL_FIGURES)
        assert bench["scale"] == "quick"
        assert bench["workers"] == 1
        assert "partial" not in bench
        assert "merged_figures" not in bench
        assert bench["figures"]["fig9"]["samples_drawn"] == 1.0
        assert bench["total_seconds"] >= 0.0

    def test_interrupt_during_figure_exits_130(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)

        def interrupted(
            scale, workers=1, adaptive=None, warm_store=None, checkpoint=None
        ):
            raise KeyboardInterrupt

        monkeypatch.setattr(run_all, "run_fig9", interrupted)
        out = tmp_path / "bench.json"
        code = run_all.main(
            [
                "--bench-out", str(out),
                "--checkpoint", str(tmp_path / "ckpt"),
            ]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted during fig9" in err
        # The operator is told how to resume the interrupted sweep.
        assert "--checkpoint" in err

    def test_interrupt_without_checkpoint_suggests_nothing(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)

        def interrupted(
            scale, workers=1, adaptive=None, warm_store=None, checkpoint=None
        ):
            raise KeyboardInterrupt

        monkeypatch.setattr(run_all, "run_fig9", interrupted)
        assert run_all.main(["--bench-out", ""]) == 130
        err = capsys.readouterr().err
        assert "interrupted during fig9" in err
        assert "--checkpoint" not in err

    def test_other_scale_full_run_refuses_overwrite(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out), "--scale", "quick"])
        before = _read(out)
        run_all.main(["--bench-out", str(out), "--scale", "smoke"])
        assert _read(out) == before
        assert "not overwriting" in capsys.readouterr().err

    def test_sharded_full_run_never_replaces_serial_baseline(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out)])
        before = _read(out)
        run_all.main(["--bench-out", str(out), "--workers", "4"])
        assert _read(out) == before
        assert "worker" in capsys.readouterr().err

    def test_sharded_run_records_worker_count(
        self, tmp_path, monkeypatch, run_all
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "sharded.json"
        run_all.main(["--bench-out", str(out), "--workers", "4"])
        assert _read(out)["workers"] == 4

    def test_legacy_baseline_without_workers_key_is_serial(
        self, tmp_path, monkeypatch, run_all
    ):
        """Pre-PR-2 baselines carry no ``workers`` key: they were serial."""
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out)])
        bench = _read(out)
        bench.pop("workers")
        out.write_text(json.dumps(bench))
        kind, _ = run_all._classify_baseline(str(out), "quick", 1)
        assert kind == "compatible"
        kind, _ = run_all._classify_baseline(str(out), "quick", 4)
        assert kind == "other-workers"

    def test_warm_run_is_tagged_and_never_replaces_cold_baseline(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        """A --warm-store run records the tag and refuses to clobber a
        cold baseline (and vice versa) — the adaptive-tagging pattern."""
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out)])
        before = _read(out)
        assert "warm_store" not in before  # cold documents stay untagged
        run_all.main(
            ["--bench-out", str(out), "--warm-store", str(tmp_path / "s")]
        )
        assert _read(out) == before
        assert "warm" in capsys.readouterr().err
        # A warm document written elsewhere carries the tag...
        warm_out = tmp_path / "warm.json"
        run_all.main(
            [
                "--bench-out", str(warm_out),
                "--warm-store", str(tmp_path / "s"),
            ]
        )
        assert _read(warm_out)["warm_store"] is True
        # ... and a cold run refuses to clobber it.
        run_all.main(["--bench-out", str(warm_out)])
        assert _read(warm_out)["warm_store"] is True
        assert "warm" in capsys.readouterr().err

    def test_warm_only_merge_refused_into_cold_baseline(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out)])
        before = _read(out)
        run_all.main(
            [
                "--bench-out", str(out), "--only", "fig9",
                "--warm-store", str(tmp_path / "s"),
            ]
        )
        assert _read(out) == before
        assert "not overwriting" in capsys.readouterr().err

    def test_warm_store_without_consuming_figures_runs_cold(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        """fig12 has no store to persist: the document must stay untagged
        (it is bit-identical to a cold run) and merge cleanly."""
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out)])
        run_all.main(
            [
                "--bench-out", str(out), "--only", "fig12",
                "--warm-store", str(tmp_path / "s"),
            ]
        )
        bench = _read(out)
        assert "warm_store" not in bench
        assert bench["merged_figures"] == ["fig12"]
        assert "no effect" in capsys.readouterr().err


class TestOnlyMerge:
    def _seed_baseline(self, monkeypatch, run_all, out):
        _install_stubs(monkeypatch, run_all, counter=1.0)
        run_all.main(["--bench-out", str(out)])
        return _read(out)

    def test_merges_into_compatible_baseline(
        self, tmp_path, monkeypatch, run_all
    ):
        out = tmp_path / "bench.json"
        before = self._seed_baseline(monkeypatch, run_all, out)
        _install_stubs(monkeypatch, run_all, counter=9.0)
        run_all.main(["--bench-out", str(out), "--only", "fig9"])
        merged = _read(out)
        assert merged["figures"]["fig9"]["samples_drawn"] == 9.0
        for name in ALL_FIGURES:
            if name != "fig9":
                assert merged["figures"][name] == before["figures"][name]
        assert merged["merged_figures"] == ["fig9"]
        assert "partial" not in merged  # still covers every figure
        assert merged["total_seconds"] == pytest.approx(
            round(
                sum(
                    entry["seconds"]
                    for entry in merged["figures"].values()
                ),
                4,
            )
        )

    def test_only_without_baseline_marks_partial(
        self, tmp_path, monkeypatch, run_all
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        run_all.main(["--bench-out", str(out), "--only", "fig10"])
        bench = _read(out)
        assert set(bench["figures"]) == {"fig10"}
        assert bench["partial"] == ["fig10"]
        assert bench["merged_figures"] == ["fig10"]

    def test_refuses_malformed_json(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        out.write_text("{not json at all")
        run_all.main(["--bench-out", str(out), "--only", "fig9"])
        assert out.read_text() == "{not json at all"
        assert "not overwriting" in capsys.readouterr().err

    def test_refuses_unrecognized_shape(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        _install_stubs(monkeypatch, run_all)
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"figures": [1, 2, 3]}))
        run_all.main(["--bench-out", str(out), "--only", "fig9"])
        assert _read(out) == {"figures": [1, 2, 3]}
        assert "not overwriting" in capsys.readouterr().err

    def test_refuses_scale_mismatch(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        out = tmp_path / "bench.json"
        before = self._seed_baseline(monkeypatch, run_all, out)
        run_all.main(
            ["--bench-out", str(out), "--only", "fig9", "--scale", "smoke"]
        )
        assert _read(out) == before
        assert "scale" in capsys.readouterr().err

    def test_refuses_workers_mismatch(
        self, tmp_path, monkeypatch, run_all, capsys
    ):
        out = tmp_path / "bench.json"
        before = self._seed_baseline(monkeypatch, run_all, out)
        run_all.main(
            ["--bench-out", str(out), "--only", "fig9", "--workers", "2"]
        )
        assert _read(out) == before
        assert "worker" in capsys.readouterr().err

    def test_unknown_figure_rejected(self, monkeypatch, run_all, capsys):
        _install_stubs(monkeypatch, run_all)
        with pytest.raises(SystemExit):
            run_all.main(["--only", "fig99", "--bench-out", ""])


class TestShardedCountersMatchSerial:
    def test_real_smoke_fig10_counters_identical(self, tmp_path, run_all):
        """A real (unstubbed) sharded driver run reproduces the serial
        counters exactly — the acceptance invariant behind CI's second
        ``check_regression.py --workers 4`` pass."""
        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        run_all.main(
            [
                "--scale", "smoke", "--only", "fig10",
                "--bench-out", str(serial_out),
            ]
        )
        run_all.main(
            [
                "--scale", "smoke", "--only", "fig10",
                "--bench-out", str(sharded_out), "--workers", "4",
            ]
        )
        serial = _read(serial_out)["figures"]["fig10"]
        sharded = _read(sharded_out)["figures"]["fig10"]
        for entry in (serial, sharded):
            entry.pop("seconds")  # wall clock varies with sharding ...
            entry.pop("match_seconds")  # ... as does match engine time
        assert sharded == serial

"""Tests for the parallel batch benchmark runner."""

from __future__ import annotations

import json

import pytest

from repro.benchsuite.runner import (
    QUICK_ANALYSES, QUICK_CONTEXTS, QUICK_PROGRAMS, BenchTask,
    build_matrix, default_programs, run_batch, run_task,
)
from repro.errors import ReproError


class TestMatrix:
    def test_pairs_analyses_with_compatible_programs(self):
        tasks = build_matrix(["eta", "pairs"],
                             ["mcfa", "fj-poly"], [0, 1])
        cells = {(task.program, task.analysis, task.parameter)
                 for task in tasks}
        assert cells == {
            ("eta", "mcfa", 0), ("eta", "mcfa", 1),
            ("pairs", "fj-poly", 0), ("pairs", "fj-poly", 1),
        }

    def test_zero_emitted_once_despite_many_contexts(self):
        tasks = build_matrix(["eta"], ["zero"], [0, 1, 2])
        assert len(tasks) == 1

    def test_pushdown_emitted_once_despite_many_contexts(self):
        # The pushdown summary rep is context-free like 0CFA: no knob.
        tasks = build_matrix(["eta"], ["pushdown"], [0, 1, 2])
        assert len(tasks) == 1

    def test_unknown_program_rejected(self):
        with pytest.raises(ReproError):
            build_matrix(["nope"], ["mcfa"], [0])

    def test_unknown_analysis_rejected_not_dropped(self):
        with pytest.raises(ReproError, match="mfca"):
            build_matrix(["eta"], ["kcfa", "mfca"], [0])

    def test_copies_apply_to_scheme_programs_only(self):
        tasks = build_matrix(["eta", "pairs"], ["mcfa", "fj-poly"],
                             [1], copies=3)
        by_program = {task.program: task for task in tasks}
        assert by_program["eta"].copies == 3
        assert by_program["pairs"].copies == 1

    def test_default_programs_cover_both_languages(self):
        names = default_programs()
        assert "eta" in names and "pairs" in names

    def test_obj_depth_axis_expands_the_hybrid_ladder(self):
        tasks = build_matrix(["pairs"], ["fj-hybrid"], [1],
                             obj_depths=[0, 2, 1])
        assert [task.obj_depth for task in tasks] == [0, 1, 2]
        assert tasks[0].task_id == "pairs:fj-hybrid(1,obj=0)"

    def test_obj_depth_rejected_for_non_hybrid_analyses(self):
        with pytest.raises(ReproError, match="obj-depth"):
            build_matrix(["pairs"], ["fj-hybrid", "fj-poly"], [1],
                         obj_depths=[1])

    def test_fj_chain_ladder_is_an_fj_program(self):
        tasks = build_matrix(["fjchain5"], ["fj-poly", "zero"], [0])
        assert [task.analysis for task in tasks] == ["fj-poly"]

    def test_fj_chain_task_runs(self):
        row = run_task(BenchTask("fjchain5", "fj-poly", 0))
        assert row["status"] == "ok"
        assert row["engine_path"] == "specialized:zero-fj-flat"

    def test_fj_random_ladder_is_an_fj_program(self):
        tasks = build_matrix(["fjrand42"], ["fj-poly", "zero"], [0])
        assert [task.analysis for task in tasks] == ["fj-poly"]

    def test_fj_random_resolves_deterministically(self):
        """`bench --programs fjrand42` must mean the same program on
        every invocation: the seed alone pins the generated source,
        and re-running the cell reproduces the result columns."""
        from repro.benchsuite.runner import task_source
        from repro.generators.fj_random import fj_random_source
        task = BenchTask("fjrand42", "fj-poly", 0)
        assert task_source(task) == task_source(task)
        assert task_source(task) == fj_random_source(42)
        first = run_task(task)
        second = run_task(task)
        assert first["status"] == "ok"
        volatile = ("pid", "wall_seconds", "elapsed")
        strip = lambda row: {key: value for key, value in row.items()
                             if key not in volatile}
        assert strip(first) == strip(second)

    def test_fj_random_via_bench_cli(self, capsys, tmp_path):
        from repro.__main__ import main
        assert main(["bench", "--programs", "fjrand42",
                     "--analyses", "fj-poly", "--contexts", "0",
                     "--serial", "--output", "-"]) == 0
        out = capsys.readouterr().out
        assert "fjrand42:fj-poly(0)" in out


class TestRunTask:
    def test_ok_row_carries_summary(self):
        row = run_task(BenchTask("eta", "mcfa", 1))
        assert row["status"] == "ok"
        assert row["steps"] > 0
        assert row["task"] == "eta:mcfa(1)"

    def test_row_reports_monomorphic_sites(self):
        # The client-layer precision metric rides every summary: both
        # languages' bench rows carry it, and the table renders it.
        from repro.reporting import bench_report_table
        scheme = run_task(BenchTask("eta", "mcfa", 1))
        assert scheme["mono_sites"] >= 0
        fj = run_task(BenchTask("pairs", "fj-kcfa", 1))
        assert fj["mono_sites"] >= 0
        report = run_batch([BenchTask("eta", "mcfa", 1)],
                           serial=True)
        table = bench_report_table(report)
        header = table.splitlines()[0]
        assert "mono" in header
        assert str(scheme["mono_sites"]) in table

    def test_timeout_is_a_status_not_an_error(self):
        row = run_task(BenchTask("interp", "kcfa-naive", 1,
                                 timeout=0.2))
        assert row["status"] == "timeout"
        assert row["wall_seconds"] >= 0.2

    def test_fj_task_runs(self):
        row = run_task(BenchTask("pairs", "fj-kcfa", 1))
        assert row["status"] == "ok"
        assert row["configs"] > 0

    def test_broken_task_reports_error(self):
        row = run_task(BenchTask("eta", "kcfa", -1))
        assert row["status"] == "error"
        assert "k must be non-negative" in row["error"]

    def test_rows_record_which_engine_path_ran(self):
        """Bench cells are one-shot runs: the default tier, which
        never generates source."""
        paths = {analysis: run_task(BenchTask(program, analysis,
                                              context))["engine_path"]
                 for program, analysis, context in (
                     ("eta", "zero", 0), ("eta", "mcfa", 1),
                     ("eta", "kcfa", 1), ("pairs", "fj-poly", 0))}
        assert paths == {"zero": "generic", "mcfa": "generic",
                         "kcfa": "specialized:shared",
                         "fj-poly": "specialized:zero-fj-flat"}

    def test_opted_out_spec_reports_generic_even_when_asked(self):
        row = run_task(BenchTask("eta", "kcfa-naive", 1))
        assert row["status"] == "ok"
        assert row["engine_path"] == "generic"

    def test_obj_depth_row_runs_and_is_tagged(self):
        row = run_task(BenchTask("pairs", "fj-hybrid", 1,
                                 obj_depth=2))
        assert row["status"] == "ok"
        assert row["obj_depth"] == 2
        assert row["task"] == "pairs:fj-hybrid(1,obj=2)"


class TestRunBatch:
    def test_serial_batch_preserves_task_order(self):
        tasks = build_matrix(["eta", "map"], ["mcfa", "zero"], [0])
        report = run_batch(tasks, serial=True)
        assert [row["task"] for row in report.rows] == \
            [task.task_id for task in tasks]
        assert report.counts() == {"ok": len(tasks)}

    def test_parallel_batch_same_rows_as_serial(self):
        tasks = build_matrix(["eta"], ["mcfa", "zero"], [0, 1])
        serial = run_batch(tasks, serial=True)
        parallel = run_batch(tasks, jobs=2)
        # The fixpoint (configs, store sizes, inlinings) is
        # deterministic; drop per-process measurements (pid, timings)
        # and `steps`, whose worklist order shifts with each worker's
        # hash seed.
        volatile = ("pid", "wall_seconds", "elapsed", "steps")
        strip = lambda row: {key: value for key, value in row.items()
                             if key not in volatile}
        assert [strip(row) for row in serial.rows] == \
            [strip(row) for row in parallel.rows]

    def test_report_round_trips_through_json(self, tmp_path):
        tasks = [BenchTask("eta", "zero", 0)]
        report = run_batch(tasks, serial=True)
        path = report.write(str(tmp_path / "BENCH_test.json"))
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["rows"][0]["task"] == "eta:zero(0)"
        assert data["cpu_count"] >= 1
        assert data["rows"][0]["status"] == "ok"

    def test_progress_streams_once_per_task(self):
        tasks = build_matrix(["eta"], ["mcfa"], [0, 1])
        lines = []
        run_batch(tasks, serial=True, progress=lines.append)
        assert len(lines) == len(tasks)
        assert lines[0].startswith("[1/2] ")


class TestEngineTiers:
    """The ``bench --quick`` cells through every engine tier: codegen,
    specialized and generic must agree on every result column —
    ``steps`` included — and on the rendered report bytes."""

    @pytest.mark.parametrize(
        "task", build_matrix(QUICK_PROGRAMS, QUICK_ANALYSES,
                             QUICK_CONTEXTS),
        ids=lambda task: task.task_id)
    def test_quick_cells_identical_across_tiers(self, task):
        from repro.analysis.engine import TIERS
        from repro.analysis.registry import registry
        from repro.benchsuite.runner import task_source
        from repro.service.jobs import (
            render_fj_reports, render_reports, run_fj_analysis,
            run_scheme_analysis,
        )
        source = task_source(task)
        if registry().get(task.analysis).language == "fj":
            from repro.fj import parse_fj
            program = parse_fj(source)
            run, render = run_fj_analysis, render_fj_reports
        else:
            from repro.scheme.cps_transform import compile_program
            program = compile_program(source)
            run, render = run_scheme_analysis, render_reports
        outcomes = {}
        for tier in TIERS:
            result = run(program, task.analysis, task.parameter,
                         tier=tier)
            summary = result.summary()
            del summary["elapsed"]
            outcomes[tier] = (summary, render(program, result))
        assert outcomes["codegen"] == outcomes["specialized"]
        assert outcomes["specialized"] == outcomes["generic"]


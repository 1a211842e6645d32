"""Tests for the reporting module and the command-line interface."""

import pytest

from repro.__main__ import main
from repro.analysis import analyze_kcfa, analyze_mcfa
from repro.fj import analyze_fj_kcfa, parse_fj
from repro.fj.examples import DISPATCH, PAIRS
from repro.reporting import (
    environment_report, fj_report, flow_report, inlining_report,
    job_event_line, render_flow_set, render_value,
    service_stats_report, summary_table,
)
from repro.scheme.cps_transform import compile_program

SOURCE = """
(define (compose f g) (lambda (x) (f (g x))))
((compose (lambda (a) (+ a 1)) (lambda (b) (* b 2))) 20)
"""


@pytest.fixture(scope="module")
def result():
    return analyze_mcfa(compile_program(SOURCE), 1)


class TestRendering:
    def test_render_basic(self):
        from repro.analysis import BASIC
        assert render_value(BASIC) == "⊤"

    def test_render_const(self):
        from repro.analysis import AConst
        assert render_value(AConst(7)) == "7"

    def test_render_closure(self, result):
        closures = [v for values in
                    (values for _a, values in result.store.items())
                    for v in values if hasattr(v, "lam")]
        assert render_value(closures[0]).startswith("λ@")

    def test_render_flow_set_sorted(self):
        from repro.analysis import AConst
        text = render_flow_set({AConst(2), AConst(1)})
        assert text == "{1, 2}"


class TestReports:
    def test_flow_report_mentions_user_variables(self, result):
        report = flow_report(result)
        assert "compose" in report
        assert "result:" in report

    def test_flow_report_elides_generated(self, result):
        report = flow_report(result)
        assert "rv%" not in report
        full = flow_report(result, include_generated=True)
        assert len(full) >= len(report)

    def test_inlining_report(self, result):
        report = inlining_report(result)
        assert "supported inlinings: 4" in report
        assert "INLINE" in report

    def test_environment_report(self, result):
        report = environment_report(result)
        assert "total:" in report
        assert "λ@" in report

    def test_fj_report(self):
        fj_result = analyze_fj_kcfa(parse_fj(DISPATCH), 1)
        report = fj_report(fj_result)
        assert "abstract objects per class" in report
        assert "MONO" in report or "poly" in report

    def test_summary_table(self):
        program = compile_program(SOURCE)
        table = summary_table([analyze_mcfa(program, 1),
                               analyze_kcfa(program, 1)])
        assert "m-CFA" in table and "k-CFA" in table

    def test_flow_report_row_cap(self, result):
        capped = flow_report(result, max_rows=1,
                             include_generated=True)
        assert "more rows" in capped


class TestServiceReporting:
    def test_job_event_lines(self):
        assert job_event_line({"event": "queued", "job": "c1",
                               "key": "ab" * 32}) \
            == "[c1] queued (key abababababab)"
        assert job_event_line({"event": "running", "job": "c1"}) \
            == "[c1] running"
        assert "coalesced" in job_event_line(
            {"event": "running", "job": "c1", "coalesced": True})
        done = job_event_line({"event": "done", "job": "c1",
                               "status": "ok", "cached": True,
                               "wall_seconds": 0.25})
        assert done == "[c1] ok cached in 0.25s"
        assert job_event_line({"event": "error", "job": "c1",
                               "error": "boom"}) \
            == "[c1] error: boom"

    def test_service_stats_report(self):
        stats = {"endpoint": "127.0.0.1:7557", "protocol": 1,
                 "workers": 4, "uptime_seconds": 12.3,
                 "jobs": {"submitted": 10, "completed": 9, "ok": 7,
                          "timeout": 1, "error": 1, "coalesced": 2,
                          "rejected": 0, "executed": 5},
                 "inflight": 1,
                 "cache": {"hits": 3, "misses": 7, "writes": 5,
                           "rejected": 0, "failed": 2}}
        report = service_stats_report(stats)
        assert "127.0.0.1:7557" in report
        assert "10 submitted" in report
        assert "2 coalesced" in report
        assert "3 hits" in report
        assert "2 failed writes" in report

    def test_service_stats_report_without_cache(self):
        report = service_stats_report({"jobs": {}, "cache": None})
        assert "cache: disabled" in report


class TestCLI:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_analyze_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.scm", SOURCE)
        assert main(["analyze", path, "--analysis", "mcfa",
                     "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "supported inlinings" in out

    def test_analyze_with_simplify(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.scm", SOURCE)
        assert main(["analyze", path, "--simplify",
                     "--report", "flow"]) == 0
        assert "flow facts" in capsys.readouterr().out

    @pytest.mark.parametrize("analysis", [
        "kcfa", "mcfa", "poly", "zero", "kcfa-naive", "kcfa-gc"])
    def test_every_analysis_selectable(self, tmp_path, capsys,
                                       analysis):
        path = self._write(tmp_path, "p.scm", "((lambda (x) x) 1)")
        assert main(["analyze", path, "--analysis", analysis]) == 0

    def test_run_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.scm", "(+ 40 2)")
        assert main(["run", path]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_run_direct_machine(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.scm", "(cons 1 2)")
        assert main(["run", path, "--machine", "direct"]) == 0
        assert "(1 . 2)" in capsys.readouterr().out

    def test_run_flat_machine(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.scm", "(* 6 7)")
        assert main(["run", path, "--machine", "flat"]) == 0
        assert "42" in capsys.readouterr().out

    def test_fj_command(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.java", PAIRS)
        assert main(["fj", path, "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "Pair" in out

    def test_fj_gc_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, "p.java", DISPATCH)
        assert main(["fj", path, "--gc"]) == 0
        assert "FJ-k-CFA+GC" in capsys.readouterr().out

    def test_missing_file_is_error(self, capsys):
        assert main(["analyze", "/nonexistent/x.scm"]) == 1
        assert "error" in capsys.readouterr().err

    def test_scheme_error_reported(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.scm", "(lambda (x)")
        assert main(["analyze", path]) == 1
        assert "error" in capsys.readouterr().err

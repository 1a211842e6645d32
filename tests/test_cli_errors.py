"""CLI usage errors: exit status 2, one-line message, no traceback.

Unknown analysis names and invalid ``--context``/``-k`` values used
to surface as raw tracebacks (machine ``ValueError``\\ s) or as
inconsistent exit-1 paths from the dispatch tables.  They now route
through :class:`repro.errors.UsageError` — a
:class:`~repro.errors.ReproError` subclass — and the CLI's ``main``
prints a single ``error: ...`` line and returns 2, matching the
argparse convention for malformed flags.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.errors import ReproError, UsageError

SCHEME = "(define (id x) x) (id 3)"
FJ = """
class Main extends Object {
  Main() { super(); }
  Object main() { Object o; o = this; return o; }
}
"""


@pytest.fixture()
def scheme_file(tmp_path):
    path = tmp_path / "prog.scm"
    path.write_text(SCHEME, encoding="utf-8")
    return str(path)


@pytest.fixture()
def fj_file(tmp_path):
    path = tmp_path / "prog.java"
    path.write_text(FJ, encoding="utf-8")
    return str(path)


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1, f"expected one error line, got {err!r}"
    assert lines[0].startswith("error: ")
    assert "Traceback" not in err
    return lines[0]


class TestAnalyze:
    def test_unknown_analysis_exits_2(self, scheme_file, capsys):
        code = main(["analyze", scheme_file, "--analysis",
                     "super-cfa"])
        assert code == 2
        line = _error_line(capsys)
        assert "unknown analysis 'super-cfa'" in line
        assert "kcfa" in line  # the message lists valid choices

    def test_negative_context_exits_2(self, scheme_file, capsys):
        code = main(["analyze", scheme_file, "--analysis", "kcfa",
                     "-n", "-3"])
        assert code == 2
        assert "non-negative" in _error_line(capsys)

    def test_simplify_with_fj_analysis_exits_2(self, fj_file, capsys):
        code = main(["analyze", fj_file, "--analysis", "fj-mcfa",
                     "--simplify"])
        assert code == 2
        assert "--simplify" in _error_line(capsys)

    def test_scheme_report_with_fj_analysis_exits_2(self, fj_file,
                                                    capsys):
        code = main(["analyze", fj_file, "--analysis", "fj-kcfa",
                     "--report", "flow"])
        assert code == 2
        assert "Scheme-only" in _error_line(capsys)

    def test_valid_fj_analyze_succeeds(self, fj_file, capsys):
        assert main(["analyze", fj_file, "--analysis", "fj-kcfa",
                     "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("program:")
        assert "FJ-k-CFA" in out


class TestSubmit:
    def test_unknown_analysis_exits_2_without_a_server(self, capsys):
        # Client-side validation: a typo needs neither a server nor
        # the source file, and exits 2 like analyze does.
        code = main(["submit", "nosuch.scm", "--analysis",
                     "super-cfa", "--port", "1"])
        assert code == 2
        assert "unknown analysis" in _error_line(capsys)

    def test_negative_context_exits_2_without_a_server(self, capsys):
        code = main(["submit", "nosuch.scm", "--analysis", "kcfa",
                     "-n", "-1", "--port", "1"])
        assert code == 2
        assert "non-negative" in _error_line(capsys)

    def test_fj_simplify_exits_2_without_a_server(self, capsys):
        # The Scheme-only-flag rules are part of the same client-side
        # contract, not just the server's validate().
        code = main(["submit", "nosuch.java", "--analysis", "fj-mcfa",
                     "--simplify", "--port", "1"])
        assert code == 2
        assert "--simplify" in _error_line(capsys)


class TestFailFast:
    def test_unknown_analysis_beats_missing_file(self, capsys):
        # The usage error (exit 2) must win over the file error
        # (exit 1): options are validated before the source is read.
        code = main(["analyze", "does-not-exist.scm", "--analysis",
                     "super-cfa"])
        assert code == 2
        assert "unknown analysis" in _error_line(capsys)


class TestRemovedFlags:
    """Flags that selected the value domain or a min-of-N timing loop
    are gone; passing one is a malformed command line (argparse's
    exit 2), never silently ignored."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "{file}", "--values", "plain"],
                     id="analyze--values"),
        pytest.param(["query", "{file}", "--kind", "mono",
                      "--values", "plain"], id="query--values"),
        pytest.param(["submit", "{file}", "--values", "plain",
                      "--port", "1"], id="submit--values"),
        pytest.param(["bench", "--programs", "eta", "--values",
                      "plain"], id="bench--values"),
        pytest.param(["bench", "--programs", "eta", "--repeat", "3"],
                     id="bench--repeat"),
    ])
    def test_removed_flag_exits_2(self, argv, scheme_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(file=scheme_file) for arg in argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFJCommand:
    def test_negative_k_exits_2(self, fj_file, capsys):
        code = main(["fj", fj_file, "-k", "-1"])
        assert code == 2
        assert "non-negative" in _error_line(capsys)


class TestBench:
    def test_unknown_analysis_exits_2(self, capsys):
        code = main(["bench", "--programs", "eta", "--analyses",
                     "turbo-cfa", "--output", "-"])
        assert code == 2
        assert "unknown analyses" in _error_line(capsys)

    def test_unknown_program_exits_2(self, capsys):
        code = main(["bench", "--programs", "nosuch", "--analyses",
                     "mcfa", "--output", "-"])
        assert code == 2
        assert "unknown benchmark program" in _error_line(capsys)

    def test_malformed_contexts_exits_2(self, capsys):
        code = main(["bench", "--programs", "eta", "--analyses",
                     "mcfa", "--contexts", "1,x", "--output", "-"])
        assert code == 2
        assert "--contexts" in _error_line(capsys)

    def test_negative_contexts_exits_2(self, capsys):
        # Fail fast with exit 2, not one error row per matrix cell.
        code = main(["bench", "--programs", "eta", "--analyses",
                     "mcfa", "--contexts", "-1", "--output", "-"])
        assert code == 2
        assert "non-negative" in _error_line(capsys)


class TestObjDepth:
    def test_obj_depth_on_non_hybrid_exits_2(self, capsys):
        # --obj-depth only exists on the hybrid ladder; anywhere else
        # it must be a one-line usage error, not a traceback or a
        # silently ignored axis.
        code = main(["bench", "--programs", "eta", "--analyses",
                     "zero", "--obj-depth", "1,2", "--output", "-"])
        assert code == 2
        line = _error_line(capsys)
        assert "--obj-depth" in line
        assert "fj-hybrid" in line  # names the analyses that have it

    def test_negative_obj_depth_exits_2(self, capsys):
        code = main(["bench", "--programs", "pairs", "--analyses",
                     "fj-hybrid", "--obj-depth", "-1",
                     "--output", "-"])
        assert code == 2
        assert "non-negative" in _error_line(capsys)

    def test_malformed_obj_depth_exits_2(self, capsys):
        code = main(["bench", "--programs", "pairs", "--analyses",
                     "fj-hybrid", "--obj-depth", "1,x",
                     "--output", "-"])
        assert code == 2
        assert "--obj-depth" in _error_line(capsys)

    def test_negative_obj_depth_is_a_usage_error_in_the_library(self):
        # The hybrid analyzer itself routes parameter validation
        # through UsageError (historically a bare ValueError that
        # escaped the CLI as a traceback).
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        from repro.fj.hybrid import analyze_fj_hybrid
        program = parse_fj(ALL_EXAMPLES["pairs"])
        with pytest.raises(UsageError, match="non-negative"):
            analyze_fj_hybrid(program, 1, obj_depth=-1)
        with pytest.raises(UsageError, match="non-negative"):
            analyze_fj_hybrid(program, -1)


class TestHierarchy:
    def test_usage_error_is_a_repro_error(self):
        # Service clients catching ReproError keep working.
        assert issubclass(UsageError, ReproError)

    def test_usage_error_is_a_value_error(self):
        # Policy-parameter validation (negative k/m/n/obj_depth) used
        # to raise bare ValueError; callers that caught that keep
        # working through the dual inheritance.
        assert issubclass(UsageError, ValueError)

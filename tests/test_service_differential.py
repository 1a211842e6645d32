"""Differential suite: the service must be byte-identical to analyze.

For random programs plus the bench suite, the server's rendered
report — produced in a worker process, streamed back over the NDJSON
protocol — must equal the output of in-process
``python -m repro analyze`` *exactly*, for every Scheme analysis,
across context depths, report selections and the simplify flag —
and, in the ``plain`` cells, ``analyze`` run over the tests'
frozenset oracle (``tests/plain_domain.py``).  Any drift between the
serving path and the one-shot path is a correctness bug, not a
formatting nit: the cache stores these bytes and replays them to
future clients.
"""

from __future__ import annotations

import pytest

from plain_domain import VALUE_MODES, value_domain
from shared_corpus import EXPLODES, random_source as _random_source, \
    small_sources

from repro.__main__ import main
from repro.benchsuite.programs import BY_NAME
from repro.service.client import ServiceClient
from repro.service.jobs import FJ_ANALYSES, SCHEME_ANALYSES
from repro.service.server import AnalysisServer

#: Small programs crossed with the *full* analysis × domain matrix —
#: the same corpus the golden suite pins (tests/shared_corpus.py).
SMALL = small_sources()

#: Larger suite programs, checked on the polynomial analyses.
LARGE = ("sat", "regex", "interp", "scm2java", "scm2c")


@pytest.fixture(scope="module")
def client():
    server = AnalysisServer(port=0, workers=2).start()
    with ServiceClient(port=server.port) as connection:
        yield connection
    server.stop()


def analyze_output(tmp_path, capsys, source: str, *flags: str) -> str:
    """The exact bytes ``python -m repro analyze`` prints."""
    path = tmp_path / "prog.scm"
    path.write_text(source, encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", str(path), *flags]) == 0
    return capsys.readouterr().out


class TestFullMatrix:
    @pytest.mark.parametrize("values", VALUE_MODES)
    @pytest.mark.parametrize("analysis", SCHEME_ANALYSES)
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_byte_identical(self, name, analysis, values, client,
                            tmp_path, capsys):
        if (name, analysis) in EXPLODES:
            pytest.skip("naive driver explodes here by design")
        source = SMALL[name]
        with value_domain(values):
            expected = analyze_output(
                tmp_path, capsys, source, "--analysis", analysis,
                "-n", "1", "--timeout", "120")
        final = client.submit(source=source, analysis=analysis,
                              context=1, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected


class TestSuitePrograms:
    @pytest.mark.parametrize("analysis", ("mcfa", "zero"))
    @pytest.mark.parametrize("name", LARGE)
    def test_byte_identical(self, name, analysis, client, tmp_path,
                            capsys):
        source = BY_NAME[name].source
        expected = analyze_output(
            tmp_path, capsys, source, "--analysis", analysis,
            "-n", "1", "--timeout", "120")
        final = client.submit(source=source, analysis=analysis,
                              context=1, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected


class TestOptionAxes:
    @pytest.mark.parametrize("context", (0, 1, 2))
    def test_context_sweep(self, context, client, tmp_path, capsys):
        source = SMALL["eta"]
        expected = analyze_output(
            tmp_path, capsys, source, "--analysis", "mcfa",
            "-n", str(context), "--timeout", "120")
        final = client.submit(source=source, analysis="mcfa",
                              context=context, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected

    @pytest.mark.parametrize("report", ("flow", "inlining", "envs"))
    def test_report_selection(self, report, client, tmp_path, capsys):
        source = SMALL["rand7"]
        expected = analyze_output(
            tmp_path, capsys, source, "--analysis", "kcfa", "-n", "1",
            "--report", report, "--timeout", "120")
        final = client.submit(source=source, analysis="kcfa",
                              context=1, report=report, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected

    def test_simplify_flag(self, client, tmp_path, capsys):
        source = SMALL["map"]
        expected = analyze_output(
            tmp_path, capsys, source, "--analysis", "mcfa", "-n", "1",
            "--simplify", "--timeout", "120")
        final = client.submit(source=source, analysis="mcfa",
                              context=1, simplify=True, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected


class TestRandomPool:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_mcfa(self, seed, client, tmp_path,
                                  capsys):
        source = _random_source(seed, 4)
        expected = analyze_output(
            tmp_path, capsys, source, "--analysis", "mcfa", "-n", "1",
            "--timeout", "120")
        final = client.submit(source=source, analysis="mcfa",
                              context=1, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected


class TestFJMatrix:
    """Featherweight Java flows through the same job core: the
    server's bytes must equal ``analyze``'s for every registered FJ
    analysis (including the post-kernel policies)."""

    def _fj_sources(self):
        from repro.fj.examples import ALL_EXAMPLES
        return {"pairs": ALL_EXAMPLES["pairs"],
                "oo_identity": ALL_EXAMPLES["oo_identity"]}

    @pytest.mark.parametrize("analysis", FJ_ANALYSES)
    @pytest.mark.parametrize("name", ("pairs", "oo_identity"))
    def test_byte_identical(self, name, analysis, client, tmp_path,
                            capsys):
        source = self._fj_sources()[name]
        path = tmp_path / "prog.java"
        path.write_text(source, encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", str(path), "--analysis", analysis,
                     "-n", "1", "--timeout", "120"]) == 0
        expected = capsys.readouterr().out
        assert expected.startswith("program:")
        final = client.submit(source=source, analysis=analysis,
                              context=1, timeout=120.0)
        assert final["status"] == "ok", final.get("error")
        assert final["stdout"] == expected

"""CLI coverage: thin analyze paths and the serve/submit commands.

The ``zero`` and ``poly`` analyses previously reached ``main`` only
through the parametrized smoke test; here their end-to-end output is
pinned down.  The serve/submit half drives a real server — started
through ``main(["serve", ...])`` in a thread, discovered via
``--ready-file`` — with the ``submit`` CLI, including the cache-hit
resubmission, stats, error paths and clean shutdown.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import pytest

from repro.__main__ import main
from repro.generators.worstcase import worst_case_source

SOURCE = "(define (id x) x)\n(+ (id 3) (id 4))\n"


def _write(tmp_path, text: str = SOURCE) -> str:
    path = tmp_path / "prog.scm"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestThinAnalyzePaths:
    def test_zero_end_to_end(self, tmp_path, capsys):
        assert main(["analyze", _write(tmp_path),
                     "--analysis", "zero"]) == 0
        out = capsys.readouterr().out
        assert "flow facts — 0CFA(0)" in out
        assert "supported inlinings" in out
        assert "environments per lambda" in out

    def test_poly_end_to_end(self, tmp_path, capsys):
        assert main(["analyze", _write(tmp_path),
                     "--analysis", "poly", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "flow facts — poly-k-CFA(1)" in out
        assert "supported inlinings" in out

    def test_zero_report_selection(self, tmp_path, capsys):
        assert main(["analyze", _write(tmp_path), "--analysis",
                     "zero", "--report", "flow"]) == 0
        out = capsys.readouterr().out
        assert "flow facts" in out
        assert "call-site resolution" not in out

    @pytest.mark.parametrize("analysis", ["zero", "poly"])
    def test_values_plain_matches_interned(self, analysis, tmp_path,
                                           capsys):
        """``analyze`` prints the same bytes over the tests' frozenset
        oracle as over interned bitsets."""
        from plain_domain import plain_values
        path = _write(tmp_path)
        assert main(["analyze", path, "--analysis", analysis]) == 0
        interned = capsys.readouterr().out
        with plain_values():
            assert main(["analyze", path, "--analysis", analysis]) == 0
        assert capsys.readouterr().out == interned

    def test_timeout_surfaces_as_error(self, tmp_path, capsys):
        path = _write(tmp_path, worst_case_source(14))
        assert main(["analyze", path, "--analysis", "kcfa", "-n",
                     "2", "--timeout", "0.2"]) == 1
        assert "time budget" in capsys.readouterr().err


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A real server behind ``main(["serve", ...])`` in a thread."""
    base = tmp_path_factory.mktemp("serve")
    ready = base / "endpoint"
    state: dict[str, int] = {}

    def run():
        state["code"] = main(
            ["serve", "--port", "0", "--workers", "1",
             "--cache-dir", str(base / "cache"),
             "--job-timeout", "60",
             "--ready-file", str(ready)])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not ready.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ready.exists(), "server never wrote its ready file"
    host, port = ready.read_text(encoding="utf-8") \
        .strip().rsplit(":", 1)
    yield {"host": host, "port": port, "thread": thread,
           "state": state}
    if thread.is_alive():
        main(["submit", "--host", host, "--port", port,
              "--shutdown"])
        thread.join(timeout=30)


class TestSessionCLI:
    """submit --session / edit / query end to end through main().

    Runs before :class:`TestServeSubmitCLI`, whose final test shuts
    the module's server down.
    """

    def _connection(self, served):
        return ["--host", served["host"], "--port", served["port"]]

    def _open_session(self, served, tmp_path, capsys) -> str:
        path = _write(tmp_path)
        assert main(["submit", path, "--session", "--analysis",
                     "kcfa", "-n", "1",
                     *self._connection(served)]) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines()
                    if l.startswith("session "))
        return line.split()[1]

    def test_session_edit_query_roundtrip(self, served, tmp_path,
                                          capsys):
        session = self._open_session(served, tmp_path, capsys)
        assert session.startswith("s")

        edited = _write(tmp_path, SOURCE.replace("(id 4)", "(id 5)"))
        assert main(["edit", session, edited,
                     *self._connection(served)]) == 0
        first = capsys.readouterr()
        assert "(id 5)" not in first.out  # reports, not source
        assert f"session {session}:" in first.err

        # The second edit reports exactly what a one-shot analyze of
        # the same source prints.
        edited2 = _write(tmp_path,
                         SOURCE.replace("(id 4)", "(id 6)"))
        assert main(["edit", session, edited2,
                     *self._connection(served)]) == 0
        second = capsys.readouterr()
        assert f"session {session}: re-analyzed (" in second.err
        assert "engine steps)" in second.err
        assert main(["analyze", edited2, "--analysis", "kcfa",
                     "-n", "1"]) == 0
        assert capsys.readouterr().out == second.out

        assert main(["query", session, "value-of", "x",
                     *self._connection(served)]) == 0
        answer = capsys.readouterr().out
        assert "value-of x" in answer
        assert "3" in answer and "6" in answer

        assert main(["submit", "--server-stats",
                     *self._connection(served)]) == 0
        stats = capsys.readouterr().out
        assert "sessions:" in stats
        assert "2 edits" in stats

    def test_edit_unknown_session_fails(self, served, tmp_path,
                                        capsys):
        path = _write(tmp_path)
        assert main(["edit", "s313373", path,
                     *self._connection(served)]) == 1
        assert "unknown session" in capsys.readouterr().err

    def test_query_unknown_session_fails(self, served, capsys):
        assert main(["query", "s313373", "value-of", "x",
                     *self._connection(served)]) == 1
        assert "unknown session" in capsys.readouterr().err


class TestServeSubmitCLI:
    def _submit_args(self, served, *extra):
        return ["submit", *extra, "--host", served["host"],
                "--port", served["port"]]

    def test_submit_matches_analyze(self, served, tmp_path, capsys):
        path = _write(tmp_path)
        assert main(["analyze", path, "--analysis", "mcfa",
                     "-n", "1"]) == 0
        expected = capsys.readouterr().out
        assert main(self._submit_args(
            served, path, "--analysis", "mcfa", "-n", "1")) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "queued" in captured.err
        assert "running" in captured.err

    def test_resubmission_hits_cache(self, served, tmp_path, capsys):
        path = _write(tmp_path)
        args = self._submit_args(
            served, path, "--analysis", "kcfa", "-n", "1", "--quiet")
        assert main(args) == 0
        first = capsys.readouterr()
        assert "(cached result)" not in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "(cached result)" in second.err

    def test_server_stats(self, served, capsys):
        assert main(self._submit_args(served, "--server-stats")) == 0
        out = capsys.readouterr().out
        assert "analysis service" in out
        assert "jobs:" in out
        assert "cache:" in out

    def test_submit_requires_a_file(self, served, capsys):
        assert main(self._submit_args(served)) == 2
        assert "needs a file" in capsys.readouterr().err

    def test_bad_program_is_a_job_error(self, served, tmp_path,
                                        capsys):
        path = _write(tmp_path, "(lambda (x)")
        assert main(self._submit_args(served, path, "--quiet")) == 1
        assert "error" in capsys.readouterr().err

    def test_client_endpoint_parsing(self, served):
        from repro.service.client import ServiceClient
        endpoint = f"{served['host']}:{served['port']}"
        with ServiceClient.connect(endpoint) as client:
            assert client.ping()["event"] == "pong"

    # Keep last in the class: stops the module's server.
    def test_shutdown_stops_the_server(self, served, capsys):
        assert main(self._submit_args(served, "--shutdown")) == 0
        assert "shutting down" in capsys.readouterr().err
        served["thread"].join(timeout=30)
        assert not served["thread"].is_alive()
        assert served["state"]["code"] == 0


class TestSubmitWithoutServer:
    def test_unreachable_server(self, tmp_path, capsys):
        path = _write(tmp_path)
        assert main(["submit", path, "--host", "127.0.0.1",
                     "--port", "1"]) == 1
        assert "cannot reach server" in capsys.readouterr().err


class TestUnixSocket:
    def test_unix_socket_roundtrip(self):
        from repro.service.client import ServiceClient
        from repro.service.server import AnalysisServer
        # A short path: AF_UNIX caps sun_path around 107 bytes, and
        # pytest tmp dirs can blow past that.
        base = tempfile.mkdtemp(prefix="repro-svc-")
        socket_path = os.path.join(base, "repro.sock")
        server = AnalysisServer(socket_path=socket_path,
                                workers=1).start()
        try:
            assert server.endpoint == socket_path
            with ServiceClient(socket_path=socket_path) as client:
                assert client.ping()["protocol"] == 1
                final = client.submit(source=SOURCE, analysis="zero",
                                      context=0, timeout=60.0)
                assert final["status"] == "ok"
                assert "0CFA" in final["stdout"]
        finally:
            server.stop()
        assert not os.path.exists(socket_path)
        os.rmdir(base)

"""Unit coverage for the service wire protocol and job core.

The differential and stress suites exercise the happy paths end to
end; this file pins down the edges: frame decoding errors, submit
validation (every bad field), the shared analysis dispatch (including
the FJ side the socket service does not expose), ``run_job`` status
rows, and the server's behavior on garbage input.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import ReproError
from repro.fj import analyze_fj_kcfa, parse_fj
from repro.fj.examples import PAIRS
from repro.service.jobs import (
    JobSpec, job_cache_key, run_fj_analysis, run_job,
    run_scheme_analysis,
)
from repro.service.protocol import (
    MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError, decode_message,
    encode_message, read_frame, read_messages, submit_spec,
)

SOURCE = "(define (id x) x)\n(+ (id 3) (id 4))\n"


class TestFraming:
    def test_roundtrip(self):
        message = {"op": "submit", "source": "(λ ⊤ \"two\nlines\")"}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1  # newlines stay escaped
        assert decode_message(line) == message

    def test_bad_json_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_message(b"{nope")

    def test_non_object_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2]")

    def test_non_utf8_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_message(b"\xff\xfe{}")

    def test_oversized_frame_is_a_protocol_error(self):
        frame = b"x" * (MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(frame)

    def test_read_messages_skips_blank_lines(self):
        stream = [b"\n", encode_message({"op": "ping"}), b"  \n",
                  encode_message({"op": "stats"})]
        ops = [m["op"] for m in read_messages(stream)]
        assert ops == ["ping", "stats"]

    def test_read_frame_skips_blanks_and_stops_at_eof(self):
        import io
        stream = io.BytesIO(b"\n  \n" + encode_message({"op": "ping"}))
        assert decode_message(read_frame(stream)) == {"op": "ping"}
        assert read_frame(stream) is None

    def test_read_frame_bounds_unterminated_lines(self):
        """An endless line must error at the cap, not balloon memory
        waiting for a newline that never comes."""
        import io
        stream = io.BytesIO(b"x" * (MAX_LINE_BYTES + 100))
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(stream)


class TestSubmitSpec:
    def test_minimal_submit(self):
        spec = submit_spec({"op": "submit", "source": SOURCE})
        assert spec.analysis == "mcfa"
        assert spec.context == 1
        assert spec.timeout is None

    def test_path_is_read_server_side(self, tmp_path):
        path = tmp_path / "p.scm"
        path.write_text(SOURCE, encoding="utf-8")
        spec = submit_spec({"op": "submit", "path": str(path),
                            "analysis": "kcfa"})
        assert spec.source == SOURCE
        assert spec.analysis == "kcfa"

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ProtocolError, match="cannot read path"):
            submit_spec({"op": "submit",
                         "path": str(tmp_path / "missing.scm")})

    def test_non_string_path(self):
        with pytest.raises(ProtocolError, match="path must be"):
            submit_spec({"op": "submit", "path": 7})

    @pytest.mark.parametrize("message", [
        {"op": "submit"},                                # neither
        {"op": "submit", "source": "x", "path": "y"},    # both
    ])
    def test_exactly_one_of_source_and_path(self, message):
        with pytest.raises(ProtocolError, match="exactly one"):
            submit_spec(message)

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ProtocolError, match="contxt"):
            submit_spec({"op": "submit", "source": "x", "contxt": 2})

    @pytest.mark.parametrize("field_name,value,needle", [
        ("analysis", "tajima", "unknown analysis"),
        ("context", -1, "non-negative"),
        ("context", True, "non-negative"),
        ("context", "two", "non-negative"),
        ("report", "everything", "unknown report"),
        ("values", "boxed", "unknown values domain"),
        ("timeout", 0, "positive"),
        ("timeout", -3.5, "positive"),
        ("timeout", "fast", "positive"),
    ])
    def test_bad_fields(self, field_name, value, needle):
        message = {"op": "submit", "source": SOURCE,
                   field_name: value}
        with pytest.raises(ProtocolError, match=needle):
            submit_spec(message)

    def test_empty_source_is_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            submit_spec({"op": "submit", "source": "   "})

    def test_simplify_must_be_a_real_boolean(self):
        """bool("false") is True — coercion would silently simplify;
        the field must be validated, not coerced."""
        with pytest.raises(ProtocolError, match="simplify"):
            submit_spec({"op": "submit", "source": SOURCE,
                         "simplify": "false"})


class TestDispatch:
    def test_unknown_scheme_analysis(self):
        from repro.scheme.cps_transform import compile_program
        program = compile_program(SOURCE)
        with pytest.raises(ReproError, match="unknown analysis"):
            run_scheme_analysis(program, "super-cfa", 1)

    def test_unknown_fj_analysis(self):
        program = parse_fj(PAIRS)
        with pytest.raises(ReproError, match="unknown analysis"):
            run_fj_analysis(program, "fj-super", 1)

    @pytest.mark.parametrize("analysis", ["fj-kcfa", "fj-poly",
                                          "fj-kcfa-gc"])
    def test_fj_dispatch_runs(self, analysis):
        program = parse_fj(PAIRS)
        result = run_fj_analysis(program, analysis, 1)
        assert result.configs

    def test_fj_dispatch_matches_direct_call(self):
        program = parse_fj(PAIRS)
        via_jobs = run_fj_analysis(program, "fj-kcfa", 1).summary()
        direct = analyze_fj_kcfa(program, 1).summary()
        via_jobs.pop("elapsed")
        direct.pop("elapsed")
        assert via_jobs == direct


class TestRunJob:
    def test_ok_row(self):
        row = run_job(JobSpec(source=SOURCE, analysis="kcfa",
                              context=1, timeout=60.0))
        assert row["status"] == "ok"
        assert row["stdout"].startswith("program:")
        assert row["summary"]["analysis"] == "k-CFA"
        assert row["wall_seconds"] >= 0

    def test_parse_error_row(self):
        row = run_job(JobSpec(source="(lambda (x)"))
        assert row["status"] == "error"
        assert row["error"]
        assert "stdout" not in row

    def test_timeout_row(self):
        from repro.generators.worstcase import worst_case_source
        row = run_job(JobSpec(source=worst_case_source(14),
                              analysis="kcfa", context=2,
                              timeout=0.2))
        assert row["status"] == "timeout"
        assert "budget" in row["error"]

    def test_validate_returns_self(self):
        spec = JobSpec(source=SOURCE)
        assert spec.validate() is spec

    def test_prestarted_budget_clock_survives_the_engine(self):
        """run_job starts the budget before the front end; the engine
        must not reset that clock, or a job could run ~2x its
        timeout (compile up to the limit, then a fresh fixpoint
        allowance)."""
        from repro.errors import AnalysisTimeout
        from repro.scheme.cps_transform import compile_program
        from repro.util.budget import Budget
        program = compile_program(SOURCE)
        budget = Budget(max_seconds=1.0, check_every=1).start()
        budget._started_at -= 2.0  # the front end "burned" 2s
        with pytest.raises(AnalysisTimeout):
            run_scheme_analysis(program, "kcfa", 1, budget)

    def test_key_is_stable_across_processes(self):
        # SHA-256 of canonical JSON: no PYTHONHASHSEED dependence.
        spec = JobSpec(source=SOURCE, analysis="kcfa")
        assert job_cache_key(spec) == job_cache_key(
            JobSpec(source=SOURCE, analysis="kcfa"))


@pytest.fixture(scope="module")
def raw_server():
    from repro.service.server import AnalysisServer
    server = AnalysisServer(port=0, workers=1).start()
    yield server
    server.stop()


def _raw_roundtrip(server, payload: bytes, replies: int = 1) -> list:
    """Send raw bytes, read NDJSON replies off the same socket."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as conn:
        conn.sendall(payload)
        stream = conn.makefile("rb")
        return [json.loads(stream.readline())
                for _ in range(replies)]


class TestServerProtocolEdges:
    def test_garbage_line_yields_error_event(self, raw_server):
        (event,) = _raw_roundtrip(raw_server, b"this is not json\n")
        assert event["event"] == "error"
        assert "JSON" in event["error"]

    def test_unknown_op_yields_error_event(self, raw_server):
        (event,) = _raw_roundtrip(
            raw_server, encode_message({"op": "dance"}))
        assert event["event"] == "error"
        assert "unknown op" in event["error"]

    def test_bad_submit_keeps_the_connection_alive(self, raw_server):
        payload = encode_message({"op": "submit", "id": "bad-1",
                                  "source": SOURCE,
                                  "analysis": "tajima"}) \
            + encode_message({"op": "ping"})
        events = _raw_roundtrip(raw_server, payload, replies=2)
        assert events[0]["event"] == "error"
        assert events[0]["job"] == "bad-1"
        assert events[1]["event"] == "pong"
        assert events[1]["protocol"] == PROTOCOL_VERSION

    def test_rejections_are_counted(self, raw_server):
        from repro.service.client import ServiceClient
        with ServiceClient(port=raw_server.port) as client:
            assert client.stats()["jobs"]["rejected"] >= 2

    def test_submit_by_path(self, raw_server, tmp_path):
        path = tmp_path / "p.scm"
        path.write_text(SOURCE, encoding="utf-8")
        payload = encode_message({"op": "submit", "id": "p1",
                                  "path": str(path),
                                  "analysis": "zero", "context": 0,
                                  "timeout": 60.0})
        events = _raw_roundtrip(raw_server, payload, replies=3)
        assert [e["event"] for e in events] \
            == ["queued", "running", "done"]
        assert events[2]["status"] == "ok"
        assert "0CFA" in events[2]["stdout"]

    def test_client_detects_closed_connection(self, raw_server):
        from repro.service.client import ServiceClient
        client = ServiceClient(port=raw_server.port)
        client.close()
        with pytest.raises(OSError):
            client.ping()


class TestAnalysesOp:
    """The ROADMAP's service-side registry introspection: remote
    clients discover policies over the wire, from the same registry
    every other front end dispatches off."""

    def test_analyses_op_serves_the_registry(self, raw_server):
        from repro.analysis.registry import registry_listing
        (event,) = _raw_roundtrip(
            raw_server, encode_message({"op": "analyses"}))
        assert event["event"] == "analyses"
        assert event["analyses"] == registry_listing()
        assert event["count"] == len(registry_listing())

    def test_language_filter(self, raw_server):
        from repro.analysis.registry import registry_listing
        (event,) = _raw_roundtrip(
            raw_server,
            encode_message({"op": "analyses", "language": "fj"}))
        assert event["analyses"] == registry_listing("fj")
        assert all(row["language"] == "fj"
                   for row in event["analyses"])

    def test_bad_language_is_an_error_event(self, raw_server):
        (event,) = _raw_roundtrip(
            raw_server,
            encode_message({"op": "analyses", "language": "cobol"}))
        assert event["event"] == "error"
        assert "language" in event["error"]

    def test_unknown_field_is_an_error_event(self, raw_server):
        (event,) = _raw_roundtrip(
            raw_server,
            encode_message({"op": "analyses", "lang": "fj"}))
        assert event["event"] == "error"
        assert "lang" in event["error"]

    def test_client_analyses_helper(self, raw_server):
        from repro.analysis.registry import registry_listing
        from repro.service.client import ServiceClient
        with ServiceClient(port=raw_server.port) as client:
            assert client.analyses() == registry_listing()
            assert client.analyses("scheme") \
                == registry_listing("scheme")

    def test_hybrid_row_declares_the_obj_depth_axis(self, raw_server):
        from repro.service.client import ServiceClient
        with ServiceClient(port=raw_server.port) as client:
            rows = {row["name"]: row for row in client.analyses()}
        assert rows["fj-hybrid"]["takes_obj_depth"] is True
        assert rows["kcfa-naive"]["specialized"] is False


class TestTierIsNotOnTheWire:
    """The engine tier follows from where a job runs, not from the
    request: the old ``specialize``/``codegen`` fields are unknown
    fields now, and fail loudly like any typo."""

    @pytest.mark.parametrize("field", ("specialize", "codegen"))
    def test_tier_fields_are_unknown_submit_fields(self, field):
        with pytest.raises(ProtocolError, match=f"unknown.*{field}"):
            submit_spec({"op": "submit", "source": SOURCE,
                         field: False})

    @pytest.mark.parametrize("field", ("specialize", "codegen"))
    def test_tier_fields_are_unknown_query_fields(self, field):
        from repro.service.protocol import query_job_spec
        with pytest.raises(ProtocolError, match=f"unknown.*{field}"):
            query_job_spec({"op": "query", "kind": "mono",
                            "source": SOURCE, field: False})


class TestLeaderDisconnect:
    def test_leader_disconnect_does_not_leak_the_flight(self):
        """A leader whose client vanishes right after submitting must
        still run to completion and retire its flight — a leaked
        flight would hang every future identical submission forever."""
        import socket
        import time
        from repro.service.client import ServiceClient
        from repro.service.protocol import encode_message
        from repro.service.server import AnalysisServer

        server = AnalysisServer(port=0, workers=1).start()
        try:
            # Submit raw and slam the connection shut without reading
            # a single event: the server's fan-out must tolerate the
            # dead subscriber.
            ghost = socket.create_connection(
                ("127.0.0.1", server.port), timeout=10.0)
            ghost.sendall(encode_message(
                {"op": "submit", "id": "ghost", "source": SOURCE,
                 "analysis": "mcfa", "context": 1, "timeout": 30.0}))
            ghost.close()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if server._jobs["submitted"] >= 1 \
                        and server._inflight.pending() == 0:
                    break
                time.sleep(0.05)
            assert server._jobs["submitted"] >= 1, \
                "the ghost's submission never reached the scheduler"
            assert server._inflight.pending() == 0, \
                "the dead leader's flight was never retired"
            # And an identical job from a live client completes.
            with ServiceClient(port=server.port) as client:
                final = client.submit(source=SOURCE, analysis="mcfa",
                                      context=1, timeout=30.0)
            assert final["status"] == "ok"
        finally:
            server.stop()


class TestDeadFleet:
    def test_submit_with_no_live_workers_retires_the_flight(self):
        """If every worker is gone the job must report an error and
        the in-flight entry must be retired — otherwise every
        identical submission after it would hang forever."""
        import time
        from repro.service.client import ServiceClient
        from repro.service.server import AnalysisServer

        server = AnalysisServer(port=0, workers=1).start()
        try:
            for worker_id in server._fleet.live_workers():
                server._fleet.kill(worker_id)
            deadline = time.monotonic() + 30
            while server._fleet.live_workers() \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not server._fleet.live_workers()
            # The ring empties via the death callback on the server's
            # loop; poll through a real client until it has.
            with ServiceClient(port=server.port) as client:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    final = client.submit(source=SOURCE,
                                          analysis="mcfa", context=1,
                                          timeout=30.0)
                    if final["status"] == "error":
                        break
                    time.sleep(0.05)
                for _ in range(2):  # a leaked flight would hang here
                    final = client.submit(source=SOURCE,
                                          analysis="mcfa", context=1,
                                          timeout=30.0)
                    assert final["status"] == "error"
                    assert "no live workers" in final["error"]
                assert client.stats()["inflight"] == 0
        finally:
            server.stop()


class TestSessionValidators:
    """Field-level validation of the session wire ops."""

    def test_submit_wants_session(self):
        from repro.service.protocol import submit_wants_session
        assert submit_wants_session({"op": "submit"}) is False
        assert submit_wants_session({"session": False}) is False
        assert submit_wants_session({"session": True}) is True

    @pytest.mark.parametrize("session", [1, "yes", None, [True]])
    def test_submit_session_must_be_a_real_boolean(self, session):
        from repro.service.protocol import submit_wants_session
        with pytest.raises(ProtocolError, match="JSON boolean"):
            submit_wants_session({"session": session})

    def test_edit_request_happy_path(self):
        from repro.service.protocol import edit_request
        assert edit_request({"op": "edit", "session": "s1",
                             "source": SOURCE, "timeout": 5}) \
            == ("s1", SOURCE, 5)
        assert edit_request({"op": "edit", "session": "s1",
                             "source": SOURCE}) \
            == ("s1", SOURCE, None)

    def test_edit_unknown_fields_are_rejected(self):
        from repro.service.protocol import edit_request
        with pytest.raises(ProtocolError, match="unknown edit"):
            edit_request({"op": "edit", "session": "s1",
                          "source": SOURCE, "analysis": "kcfa"})

    @pytest.mark.parametrize("session", [None, "", 7])
    def test_edit_needs_a_session_id(self, session):
        from repro.service.protocol import edit_request
        message = {"op": "edit", "source": SOURCE}
        if session is not None:
            message["session"] = session
        with pytest.raises(ProtocolError, match="needs 'session'"):
            edit_request(message)

    @pytest.mark.parametrize("timeout", [0, -1, True, "fast"])
    def test_edit_timeout_must_be_positive(self, timeout):
        from repro.service.protocol import edit_request
        with pytest.raises(ProtocolError, match="timeout"):
            edit_request({"op": "edit", "session": "s1",
                          "source": SOURCE, "timeout": timeout})

    def test_query_request_happy_path(self):
        from repro.service.protocol import query_request
        assert query_request({"op": "query", "session": "s2",
                              "kind": "value-of", "target": "x"}) \
            == ("s2", "value-of", "x")

    def test_query_unknown_kind(self):
        from repro.service.protocol import query_request
        with pytest.raises(ProtocolError, match="unknown query"):
            query_request({"op": "query", "session": "s1",
                           "kind": "points-to", "target": "x"})

    @pytest.mark.parametrize("target", [None, "", 3])
    def test_query_needs_a_target(self, target):
        from repro.service.protocol import query_request
        message = {"op": "query", "session": "s1",
                   "kind": "value-of"}
        if target is not None:
            message["target"] = target
        with pytest.raises(ProtocolError, match="target"):
            query_request(message)

    def test_query_unknown_fields_are_rejected(self):
        from repro.service.protocol import query_request
        with pytest.raises(ProtocolError, match="unknown query"):
            query_request({"op": "query", "session": "s1",
                           "kind": "value-of", "target": "x",
                           "depth": 2})


class _ScriptedServer:
    """A fake NDJSON server whose replies are scripted per request:
    each script entry is a list of event dicts sent verbatim after
    one request line is read.  ``{job}`` placeholders are filled with
    the id of the request the entry answers — ``{job0}`` with the id
    of the first request seen."""

    def __init__(self, script):
        self.script = script
        self.seen_ids: list[str] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve,
                                       daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            stream = conn.makefile("rb")
            for replies in self.script:
                line = stream.readline()
                if not line:
                    return
                job_id = json.loads(line).get("id")
                self.seen_ids.append(job_id)
                for event in replies:
                    rendered = {
                        key: (value.format(
                            job=job_id, job0=self.seen_ids[0])
                            if isinstance(value, str) else value)
                        for key, value in event.items()}
                    conn.sendall(encode_message(rendered))

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


class TestClientEventAttribution:
    """Regression for the stale-event bug: the old filter
    ``event.get("job") not in (job_id, None)`` accepted *untagged*
    frames, so a stale unattributed ``done`` could terminate the
    wrong busy-retry attempt with another job's payload."""

    def test_stale_events_between_retries_are_skipped(self):
        from repro.service.client import ServiceClient
        server = _ScriptedServer([
            # Attempt 1: queued, then bounced busy.
            [{"event": "queued", "job": "{job}"},
             {"event": "busy", "job": "{job}", "retry_after": 0.0}],
            # Attempt 2 first sees two stale frames — one untagged,
            # one tagged with attempt 1's id — before its own.
            [{"event": "done", "status": "ok",
              "stdout": "STALE-UNTAGGED"},
             {"event": "done", "job": "{job0}", "status": "ok",
              "stdout": "STALE-OLD"},
             {"event": "queued", "job": "{job}"},
             {"event": "done", "job": "{job}", "status": "ok",
              "stdout": "FRESH"}],
        ])
        try:
            client = ServiceClient(port=server.port)
            try:
                final = client.submit(source=SOURCE,
                                      busy_retries=2)
            finally:
                client.close()
            assert final["event"] == "done"
            assert final["stdout"] == "FRESH"
            assert len(server.seen_ids) == 2
            assert server.seen_ids[0] != server.seen_ids[1]
        finally:
            server.close()

    def test_untagged_error_is_terminal(self):
        from repro.service.client import ServiceClient
        server = _ScriptedServer([
            [{"event": "error",
              "error": "connection-level rejection"}],
        ])
        try:
            client = ServiceClient(port=server.port)
            try:
                final = client.submit(source=SOURCE)
            finally:
                client.close()
            assert final["event"] == "error"
            assert "rejection" in final["error"]
        finally:
            server.close()

    def test_foreign_tagged_error_is_not_terminal(self):
        from repro.service.client import ServiceClient
        server = _ScriptedServer([
            [{"event": "error", "job": "someone-else",
              "error": "not yours"},
             {"event": "done", "job": "{job}", "status": "ok",
              "stdout": "MINE"}],
        ])
        try:
            client = ServiceClient(port=server.port)
            try:
                final = client.submit(source=SOURCE)
            finally:
                client.close()
            assert final["stdout"] == "MINE"
        finally:
            server.close()


class TestSessionWire:
    """Live session ops over raw sockets against a one-worker
    server."""

    def _events(self, server, message, replies):
        return _raw_roundtrip(server, encode_message(message),
                              replies=replies)

    def test_session_lifecycle(self, raw_server):
        queued, running, opened = self._events(
            raw_server,
            {"op": "submit", "id": "w-open", "source": SOURCE,
             "analysis": "kcfa", "context": 1, "session": True},
            replies=3)
        assert queued["event"] == "queued"
        assert running["event"] == "running"
        assert opened["event"] == "done"
        assert opened["status"] == "ok"
        session = opened["session"]
        assert running["session"] == session
        assert opened["stdout"]

        # Edit from another connection: shard affinity is server-side.
        edited = self._events(
            raw_server,
            {"op": "edit", "id": "w-edit", "session": session,
             "source": SOURCE.replace("(id 4)", "(id 5)")},
            replies=3)[-1]
        assert edited["event"] == "done"
        assert edited["status"] == "ok"
        assert edited["session"] == session
        assert edited["stdout"] == run_job(JobSpec(
            source=SOURCE.replace("(id 4)", "(id 5)"),
            analysis="kcfa", context=1))["stdout"]

        answered = self._events(
            raw_server,
            {"op": "query", "id": "w-query", "session": session,
             "kind": "value-of", "target": "x"},
            replies=3)[-1]
        assert answered["event"] == "done"
        assert answered["status"] == "ok"
        assert answered["answer"]["query"] == "value-of"
        assert answered["answer"]["values"]

    def test_unknown_session_is_rejected_fast(self, raw_server):
        (event,) = self._events(
            raw_server,
            {"op": "edit", "id": "w-lost", "session": "s424242",
             "source": SOURCE},
            replies=1)
        assert event["event"] == "error"
        assert "unknown session" in event["error"]

    def test_bad_edit_fields_are_an_error_event(self, raw_server):
        (event,) = self._events(
            raw_server,
            {"op": "edit", "id": "w-bad", "session": "s1",
             "source": SOURCE, "analysis": "kcfa"},
            replies=1)
        assert event["event"] == "error"
        assert "unknown edit" in event["error"]

    def test_bad_query_kind_is_an_error_event(self, raw_server):
        (event,) = self._events(
            raw_server,
            {"op": "query", "id": "w-kind", "session": "s1",
             "kind": "points-to", "target": "x"},
            replies=1)
        assert event["event"] == "error"
        assert "unknown query" in event["error"]

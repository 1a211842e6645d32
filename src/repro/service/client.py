"""A thin client for the analysis service.

Speaks the NDJSON protocol of :mod:`repro.service.protocol` over one
blocking socket connection.  Used by ``python -m repro submit`` and
directly from tests::

    from repro.service.client import ServiceClient
    with ServiceClient(port=server.port) as client:
        final = client.submit(source="((lambda (x) x) 1)",
                              analysis="kcfa", context=1)
        assert final["status"] == "ok"
        print(final["stdout"])

A client is single-flight: :meth:`submit` blocks until the job's
terminal event arrives (streaming intermediate events to an optional
callback).  Concurrency comes from opening more clients — the stress
suite drives eight at once — not from pipelining on one connection.
"""

from __future__ import annotations

import itertools
import random
import socket
import time

from repro.service.protocol import (
    ProtocolError, decode_message, encode_message, read_frame,
)

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 7557

#: Events that end a submitted job.
TERMINAL_EVENTS = ("done", "error")

#: How many times :meth:`ServiceClient.submit` re-offers a job the
#: server bounced with ``busy`` before giving up.
BUSY_RETRIES = 8

#: First backoff step after a ``busy`` bounce, in seconds; each
#: further bounce doubles it (capped), and every sleep is jittered
#: ±50% so a herd of bounced clients does not retry in lockstep.
BUSY_BACKOFF_BASE = 0.05
BUSY_BACKOFF_CAP = 2.0


def busy_backoff(attempt: int, base: float = BUSY_BACKOFF_BASE,
                 cap: float = BUSY_BACKOFF_CAP,
                 rng: random.Random | None = None) -> float:
    """The jittered exponential backoff delay for retry *attempt*
    (0-based): ``min(cap, base * 2**attempt)`` scaled by a uniform
    factor in [0.5, 1.5]."""
    delay = min(cap, base * (2 ** attempt))
    jitter = (rng or random).uniform(0.5, 1.5)
    return delay * jitter


class ServiceClient:
    """One connection to a running :class:`AnalysisServer`."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 socket_path: str | None = None,
                 connect_timeout: float = 10.0):
        if socket_path:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(connect_timeout)
            sock.connect(socket_path)
        else:
            sock = socket.create_connection(
                (host, int(port)), timeout=connect_timeout)
        sock.settimeout(None)  # jobs block for their full budget
        self._sock = sock
        self._stream = sock.makefile("rb")
        self._ids = itertools.count(1)

    @classmethod
    def connect(cls, endpoint: str,
                connect_timeout: float = 10.0) -> "ServiceClient":
        """From an endpoint string: ``host:port`` or a socket path
        (the format ``serve --ready-file`` writes)."""
        if "/" in endpoint or ":" not in endpoint:
            return cls(socket_path=endpoint,
                       connect_timeout=connect_timeout)
        host, port = endpoint.rsplit(":", 1)
        return cls(host=host, port=int(port),
                   connect_timeout=connect_timeout)

    # -- plumbing --------------------------------------------------------

    def _send(self, message: dict) -> None:
        self._sock.sendall(encode_message(message))

    def _next_event(self) -> dict:
        raw = read_frame(self._stream)
        if raw is None:
            raise ConnectionError("server closed the connection")
        return decode_message(raw)

    def _roundtrip(self, message: dict, expect: str) -> dict:
        self._send(message)
        while True:
            event = self._next_event()
            if event.get("event") != expect and "job" in event:
                # A late frame from an earlier submission (e.g. a
                # follower's `running` trailing its `done`) — skip.
                continue
            if event.get("event") != expect:
                raise ProtocolError(
                    f"expected a {expect!r} event, got {event!r}")
            return event

    # -- operations ------------------------------------------------------

    def ping(self) -> dict:
        """Liveness probe; returns the ``pong`` event."""
        return self._roundtrip({"op": "ping"}, "pong")

    def stats(self) -> dict:
        """The server's counters (one ``stats`` snapshot dict)."""
        return self._roundtrip({"op": "stats"}, "stats")["stats"]

    def analyses(self, language: str | None = None) -> list[dict]:
        """The server's registered analyses (one registry row per
        dict, as served by the ``analyses`` op)."""
        message: dict = {"op": "analyses"}
        if language is not None:
            message["language"] = language
        return self._roundtrip(message, "analyses")["analyses"]

    def shutdown(self) -> dict:
        """Ask the server to stop; returns its ``bye`` event."""
        return self._roundtrip({"op": "shutdown"}, "bye")

    def _attempt(self, message: dict, on_event) -> dict:
        """Send one request and block until its ``busy`` or terminal
        event, streaming intermediates to *on_event*.

        Only events carrying exactly this request's job id belong to
        it.  A frame tagged with a *different* id is a stray from an
        earlier attempt on this connection (e.g. a coalesced
        follower's ``running`` trailing its ``done``, or a late frame
        from a busy-bounced attempt) and must never be mistaken for
        this request's — accepting unattributed frames here once let
        a stale event terminate the wrong retry attempt.  The one
        exception: an *untagged* ``error`` is a connection-level
        rejection the server could not attribute to any job, and is
        terminal for whatever is in flight.
        """
        job_id = message["id"]
        self._send(message)
        while True:
            event = self._next_event()
            if event.get("job") != job_id:
                if "job" in event or event.get("event") != "error":
                    continue
            if event.get("event") == "busy":
                return event
            if event.get("event") in TERMINAL_EVENTS:
                return event
            if on_event is not None:
                on_event(event)

    def _with_busy_retries(self, base: dict, on_event,
                           busy_retries: int) -> dict:
        """Run *base* to a terminal event, retrying ``busy`` bounces
        up to *busy_retries* times with jittered exponential backoff,
        under a fresh job id each attempt.  Only after the last
        bounce does the ``busy`` event itself come back, so callers
        can distinguish "gave up on a saturated fleet" from a
        result."""
        for attempt in range(busy_retries + 1):
            message = dict(base, id=f"c{next(self._ids)}")
            event = self._attempt(message, on_event)
            if event.get("event") != "busy" \
                    or attempt >= busy_retries:
                return event
            if on_event is not None:
                on_event(event)
            time.sleep(max(event.get("retry_after", 0.0),
                           busy_backoff(attempt)))

    def submit(self, source: str | None = None,
               path: str | None = None, analysis: str = "mcfa",
               context: int = 1, simplify: bool = False,
               report: str = "all", timeout: float | None = None,
               session: bool = False,
               on_event=None,
               busy_retries: int = BUSY_RETRIES) -> dict:
        """Submit one job and block until its terminal event.

        Intermediate events (``queued``, ``running``) stream to
        *on_event* as they arrive.  Returns the ``done`` event —
        check its ``status`` — or an ``error`` event for requests the
        server rejected outright.  ``busy`` bounces are retried
        transparently (see :meth:`_with_busy_retries`).

        With ``session=True`` the submit opens a warm analysis
        session on its worker; the ``done`` event then carries the
        ``session`` id to pass to :meth:`edit` and :meth:`query`.
        """
        base: dict = {"op": "submit", "analysis": analysis,
                      "context": context, "simplify": simplify,
                      "report": report}
        if session:
            # Only sent when set: older servers reject unknown submit
            # fields strictly, so the default case must stay
            # wire-compatible with them.
            base["session"] = True
        if source is not None:
            base["source"] = source
        if path is not None:
            base["path"] = path
        if timeout is not None:
            base["timeout"] = timeout
        return self._with_busy_retries(base, on_event, busy_retries)

    def edit(self, session: str, source: str | None = None,
             path: str | None = None, timeout: float | None = None,
             on_event=None,
             busy_retries: int = BUSY_RETRIES) -> dict:
        """Re-analyze *session* against edited source and block until
        the terminal event; its ``done`` carries the new report and
        the run's engine ``steps``."""
        base: dict = {"op": "edit", "session": session}
        if source is not None:
            base["source"] = source
        if path is not None:
            base["path"] = path
        if timeout is not None:
            base["timeout"] = timeout
        return self._with_busy_retries(base, on_event, busy_retries)

    def query(self, session: str | None = None,
              kind: str | None = None, target: str | None = None, *,
              source: str | None = None, path: str | None = None,
              analysis: str = "mcfa", context: int = 1,
              simplify: bool = False, timeout: float | None = None,
              on_event=None,
              busy_retries: int = BUSY_RETRIES) -> dict:
        """One client query; the ``done`` event carries ``answer``.

        With *session* set this is the warm-session form (``kind``
        plus ``target`` as the kind demands).  Without it the query
        is *sessionless*: ``source``/``path`` and the job options
        describe an ordinary cached analysis job, and the pass named
        by ``kind`` runs over its result server-side.
        """
        base: dict = {"op": "query", "kind": kind}
        if target is not None:
            base["target"] = target
        if session is not None:
            base["session"] = session
            return self._with_busy_retries(base, on_event,
                                           busy_retries)
        base["analysis"] = analysis
        base["context"] = context
        base["simplify"] = simplify
        if source is not None:
            base["source"] = source
        if path is not None:
            base["path"] = path
        if timeout is not None:
            base["timeout"] = timeout
        return self._with_busy_retries(base, on_event, busy_retries)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

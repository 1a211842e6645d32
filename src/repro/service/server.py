"""The async front door behind ``python -m repro serve``.

One always-resident process runs an asyncio event loop (in a
dedicated thread) that accepts thousands of concurrent NDJSON
connections, and a fleet of long-lived worker processes
(:mod:`repro.service.fleet`) that actually run analyses.  Submitted
jobs flow through three tiers, cheapest first:

1. **disk cache** — a previously completed identical job is answered
   immediately (``done`` with ``cached: true``, no ``running`` event);
2. **in-flight coalescing** — an identical job currently running
   absorbs the submission as a follower; when the leader's analysis
   lands, every subscriber receives the same ``done`` event
   (followers with ``coalesced: true``);
3. **the worker fleet** — otherwise the job is routed by consistent
   hash of its cache key (:mod:`repro.service.sharding`) to one
   long-lived worker, which keeps compiled programs and their
   generated step modules warm across jobs, and runs each under the
   job's cooperative wall-clock :class:`~repro.util.budget.Budget`.

Identical means *same cache key and same budget*: the cache key
deliberately excludes the timeout (a completed answer does not depend
on it), but two in-flight submissions only coalesce when their budgets
agree, so a 1-second probe can never be handed a 60-second run's
timeout verdict or vice versa.

Fleet-wide coordination lives here, not in the workers: the front
door owns the one :class:`~repro.cache.InflightTable` and the one
:class:`~repro.cache.ResultCache`, so coalescing and caching span the
whole fleet.  Completion ordering still matters for the
no-duplicate-work guarantee: a finished job is written to the disk
cache *before* its in-flight entry is retired, and a submission that
becomes a flight's *leader* re-checks the cache before dispatching.
Together the two close the race: a submission that missed the first
cache probe while an identical job was finishing either joins the
still-open flight or finds the freshly written entry on the re-check
— there is no window in which it re-runs the analysis.

Admission control bounds each worker's queue: when the target shard
already has ``max_queue`` jobs in flight, the leader's flight is
abandoned and the client gets a ``busy`` event with a ``retry_after``
hint (:class:`~repro.service.client.ServiceClient` retries with
jittered exponential backoff).  When a worker dies mid-job the pump
thread reports it, the ring drops the shard, and every orphaned job
is re-dispatched to the key's next live shard — already-admitted jobs
bypass admission so a death can never bounce them.

Concurrency rules (why there are no locks here):

* **Every** piece of scheduler state — the counters, the hash ring,
  the assignment and depth tables, the in-flight joins — is touched
  only from the event-loop thread.  Fleet pump threads marshal
  results and deaths in via ``loop.call_soon_threadsafe``.
* ``_handle_submit`` is fully synchronous (no awaits), so the
  cache-probe / flight-join sequence is atomic by construction.  It
  does touch the disk cache inline; at this payload size that is a
  sub-millisecond pause the loop absorbs.
* A connection never blocks the loop on a slow peer: writes go
  through a bounded per-connection queue drained by its own task
  (``await drain()``); a peer that stops reading past the bound is
  dropped, and fan-out sends never raise, so a flight always retires.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from dataclasses import replace

from repro.cache import CACHE_SCHEMA_VERSION, InflightTable
from repro.service.fleet import WorkerFleet
from repro.service.jobs import cache_payload, job_cache_key
from repro.service.protocol import (
    MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError,
    analyses_request_language, decode_message, edit_request,
    encode_message, query_job_spec, query_request, submit_spec,
    submit_wants_session,
)
from repro.service.sharding import HashRing

#: Queued-but-unsent events tolerated per connection before the peer
#: is declared pathologically slow and dropped (an honest client
#: reads a handful of events per job).
MAX_SEND_QUEUE = 256

#: Per-worker queue depth bound when ``serve --max-queue`` is not
#: given: deep enough to keep a worker busy, shallow enough that a
#: burst turns into ``busy`` + client backoff instead of a pile-up.
DEFAULT_MAX_QUEUE = 8

#: The ``retry_after`` hint (seconds) carried by ``busy`` events.
BUSY_RETRY_HINT = 0.05


class _Connection:
    """One client connection's write side: a bounded queue drained by
    a dedicated task, so scheduler code can ``send`` synchronously
    without ever blocking the loop or raising on a dead peer."""

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._outbox: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._task = asyncio.get_running_loop().create_task(
            self._drain())

    def send(self, message: dict) -> None:
        """Queue one event (loop thread only; never blocks, never
        raises — a gone or over-slow peer just stops receiving)."""
        if self._closed:
            return
        if self._outbox.qsize() >= MAX_SEND_QUEUE:
            # The peer has not read hundreds of events: drop it
            # rather than buffer without bound.
            self._closed = True
            self._outbox.put_nowait(None)
            return
        self._outbox.put_nowait(encode_message(message))

    async def _drain(self) -> None:
        try:
            while True:
                data = await self._outbox.get()
                if data is None:
                    break
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._closed = True
            try:
                self._writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def aclose(self) -> None:
        """Flush queued events (bounded wait), then close."""
        if not self._closed:
            self._closed = True
            self._outbox.put_nowait(None)
        try:
            await asyncio.wait_for(
                asyncio.shield(self._task), timeout=2.0)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._task.cancel()


class AnalysisServer:
    """A persistent analysis server; see the module docstring.

    Construct, :meth:`start`, then read :attr:`endpoint` (useful with
    ``port=0``, which binds a free port).  :meth:`stop` is idempotent
    and also runs on ``shutdown`` requests from clients.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 socket_path: str | None = None,
                 workers: int | None = None, cache=None,
                 default_timeout: float | None = 60.0,
                 codegen_dir=None,
                 max_queue: int = DEFAULT_MAX_QUEUE):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.cache = cache
        self.default_timeout = default_timeout
        #: Where fleet workers keep generated modules (``--cache-dir``
        #: relocates it beside the result cache; None = the default).
        #: Workers run the ``codegen`` engine tier: they reuse each
        #: generated module across jobs, which one-shot runs cannot.
        self.codegen_dir = codegen_dir
        self.max_queue = max(1, max_queue)
        self._inflight = InflightTable()
        self._jobs = {"submitted": 0, "executed": 0, "completed": 0,
                      "ok": 0, "timeout": 0, "error": 0,
                      "coalesced": 0, "rejected": 0, "busy": 0,
                      "redispatched": 0, "sessions": 0, "edits": 0,
                      "queries": 0}
        self._job_ids = itertools.count(1)
        self._tickets = itertools.count(1)
        #: ticket -> ("job", worker_id, flight, key, spec) for every
        #: one-shot job currently at a worker, or
        #: ("session"|"edit"|"query", worker_id, send, job_id,
        #: session_id) for a session operation; the death handler
        #: re-dispatches orphaned jobs (session ops cannot move — the
        #: session died with the worker, so they error out), the
        #: result handler retires them.
        self._assignments: dict[int, tuple] = {}
        #: session id -> worker id.  Sessions are *pinned to their
        #: shard*: the session's result lives in one worker, so
        #: every edit/query for the id routes there, bypassing the
        #: hash ring.
        self._sessions: dict[str, str] = {}
        self._session_ids = itertools.count(1)
        self._depth: dict[str, int] = {}
        self._ring = HashRing()
        self._fleet: WorkerFleet | None = None
        self._connections: set[_Connection] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._stopping = False
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._stop_requested = threading.Event()
        self._stopped = threading.Event()
        self._teardown_lock = threading.Lock()
        self._torn_down = False
        self._started_at: float | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "AnalysisServer":
        """Spawn the fleet and the event loop; returns once bound."""
        self._fleet = WorkerFleet(self.workers, self._post_result,
                                  self._post_death,
                                  codegen_dir=self.codegen_dir
                                  ).start()
        for worker_id in self._fleet.live_workers():
            self._ring.add(worker_id)
            self._depth[worker_id] = 0
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop",
            daemon=True)
        self._loop_thread.start()
        self._started.wait()
        if self._start_error is not None:
            self.stop()
            raise self._start_error
        return self

    @property
    def endpoint(self) -> str:
        """``host:port`` or the Unix socket path."""
        if self.socket_path:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server stops; True iff it has."""
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop accepting, drop connections, retire the fleet."""
        self._stop_requested.set()
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass  # closed between the check and the call
        thread = self._loop_thread
        if thread is not None \
                and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        self._teardown()

    def _teardown(self) -> None:
        with self._teardown_lock:
            if self._torn_down:
                return
            self._torn_down = True
        if self._fleet is not None:
            self._fleet.stop()
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._stopped.set()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as error:  # never strand start()/wait()
            if self._start_error is None:
                self._start_error = error
        finally:
            try:
                loop.close()
            except OSError:
                pass
            self._started.set()  # no-op when startup succeeded
            self._teardown()

    async def _serve(self) -> None:
        self._shutdown_event = asyncio.Event()
        if self._stop_requested.is_set():
            self._shutdown_event.set()
        try:
            # limit bounds each connection's read buffer: a peer
            # streaming an endless unterminated line hits the cap and
            # is dropped, exactly like the protocol module's
            # read_frame promises.
            if self.socket_path:
                if os.path.exists(self.socket_path):
                    os.unlink(self.socket_path)
                server = await asyncio.start_unix_server(
                    self._serve_connection, path=self.socket_path,
                    limit=MAX_LINE_BYTES + 2, backlog=1024)
            else:
                server = await asyncio.start_server(
                    self._serve_connection, host=self.host,
                    port=self.port, limit=MAX_LINE_BYTES + 2,
                    backlog=1024)
                self.port = server.sockets[0].getsockname()[1]
        except OSError as error:
            self._start_error = error
            self._started.set()
            return
        self._started_at = time.monotonic()
        self._started.set()
        try:
            await self._shutdown_event.wait()
        finally:
            self._stopping = True
            server.close()
            await server.wait_closed()
            # Let farewell frames (`bye`, final `done`s) flush before
            # the axe falls on the remaining handler tasks.
            if self._connections:
                await asyncio.gather(
                    *[connection.aclose()
                      for connection in list(self._connections)],
                    return_exceptions=True)
            current = asyncio.current_task()
            tasks = [task for task in asyncio.all_tasks()
                     if task is not current]
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    def _begin_shutdown(self) -> None:
        self._stopping = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    # -- stats -----------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """The scheduler's counters, as one JSON-able dict.

        ``jobs.submitted`` counts every submission; each ends up as
        exactly one of a cache hit (``cache.hits``), a coalesced
        follower (``jobs.coalesced``), a backpressure bounce
        (``jobs.busy``) or an executed analysis (``jobs.executed``)
        — the stress suite asserts that identity.  ``redispatched``
        counts executed jobs that additionally survived a worker
        death (they are not re-counted as executed).
        """
        jobs = dict(self._jobs)
        uptime = 0.0 if self._started_at is None \
            else time.monotonic() - self._started_at
        fleet = []
        if self._fleet is not None:
            for row in self._fleet.stats_rows():
                row["depth"] = self._depth.get(row["worker"], 0)
                fleet.append(row)
        return {
            "endpoint": self.endpoint,
            "protocol": PROTOCOL_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "workers": self.workers,
            "max_queue": self.max_queue,
            "uptime_seconds": round(uptime, 3),
            "jobs": jobs,
            "inflight": self._inflight.pending(),
            "sessions": {"open": len(self._sessions)},
            "fleet": fleet,
            "cache": (self.cache.stats.as_dict()
                      if self.cache is not None else None),
        }

    # -- connection handling ---------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        try:
            while not self._stopping:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # Line blew the StreamReader limit; cannot resync
                    # mid-line, so report and drop the connection.
                    self._jobs["rejected"] += 1
                    connection.send({
                        "event": "error",
                        "error": f"frame exceeds {MAX_LINE_BYTES} "
                                 f"bytes"})
                    break
                except (ConnectionError, OSError):
                    break
                if not raw:
                    break  # EOF: client is done
                if not raw.strip():
                    continue
                if len(raw) > MAX_LINE_BYTES:
                    self._jobs["rejected"] += 1
                    connection.send({
                        "event": "error",
                        "error": f"frame exceeds {MAX_LINE_BYTES} "
                                 f"bytes"})
                    break
                try:
                    self._dispatch(raw, connection)
                except ProtocolError as error:
                    self._jobs["rejected"] += 1
                    connection.send({"event": "error",
                                     "error": str(error)})
                except _Shutdown:
                    break
        except asyncio.CancelledError:
            raise
        finally:
            self._connections.discard(connection)
            await connection.aclose()

    def _dispatch(self, raw: bytes, connection: _Connection) -> None:
        message = decode_message(raw)
        op = message.get("op", "submit")
        if op == "submit":
            self._handle_submit(message, connection.send)
        elif op == "edit":
            self._handle_edit(message, connection.send)
        elif op == "query":
            self._handle_query(message, connection.send)
        elif op == "ping":
            connection.send({"event": "pong",
                             "protocol": PROTOCOL_VERSION})
        elif op == "stats":
            connection.send({"event": "stats",
                             "stats": self.stats_snapshot()})
        elif op == "analyses":
            from repro.analysis.registry import registry_listing
            language = analyses_request_language(message)
            rows = registry_listing(language)
            event = {"event": "analyses", "count": len(rows),
                     "analyses": rows}
            if "id" in message:
                event["job"] = str(message["id"])
            connection.send(event)
        elif op == "shutdown":
            connection.send({"event": "bye"})
            # stop() joins the loop thread, so it cannot run here.
            threading.Thread(target=self.stop, daemon=True).start()
            raise _Shutdown()
        else:
            raise ProtocolError(
                f"unknown op {op!r}; choose from submit, edit, "
                f"query, stats, ping, shutdown")

    # -- the scheduler (loop thread only) --------------------------------

    def _handle_submit(self, message: dict, send) -> None:
        job_id = str(message["id"]) if "id" in message \
            else f"job-{next(self._job_ids)}"
        try:
            spec = submit_spec(message)
            wants_session = submit_wants_session(message)
        except ProtocolError as error:
            self._jobs["rejected"] += 1
            send({"event": "error", "job": job_id,
                  "error": str(error)})
            return
        if spec.timeout is None and self.default_timeout is not None:
            spec = replace(spec, timeout=self.default_timeout)
        key = job_cache_key(spec)
        self._jobs["submitted"] += 1
        send({"event": "queued", "job": job_id, "key": key})
        if wants_session:
            # Session submits skip the cache and coalescing entirely:
            # their value is the warm mutable state on a worker, not
            # the one-shot answer, so every one must actually run.
            self._handle_session_open(job_id, key, spec, send)
            return
        self._schedule(job_id, key, spec, send)

    def _schedule(self, job_id: str, key: str, spec, send) -> None:
        """Run one cacheable job: cache probe, coalescing, sharded
        dispatch.  Shared by plain submits and sessionless queries —
        a batch query *is* an ordinary job whose spec carries the
        query fields."""
        payload = self._cache_get(key)
        if payload is not None:
            self._jobs["completed"] += 1
            self._jobs["ok"] += 1
            send(self._cached_done_event(job_id, key, payload))
            return
        flight = (key, spec.timeout)
        if not self._inflight.join(flight, (send, job_id)):
            self._jobs["coalesced"] += 1
            send({"event": "running", "job": job_id,
                  "coalesced": True})
            return
        # Leader.  Re-check the cache: an identical job may have
        # finished between the probe above and the join — the
        # write-before-retire order in _finish guarantees its entry
        # is visible by now (see the module docstring).  The probe
        # above already counted this submission's miss; don't count
        # the re-probe too.
        payload = self._cache_get(key, count_miss=False)
        if payload is not None:
            row = {"status": "ok",
                   "stdout": payload.get("stdout"),
                   "summary": payload.get("summary"),
                   "wall_seconds": payload.get("wall_seconds")}
            if "answer" in payload:
                row["answer"] = payload["answer"]
            self._settle(flight, key, row, cached=True)
            return
        try:
            worker_id = self._ring.node_for(key)
        except LookupError:
            self._settle(flight, key,
                         {"status": "error",
                          "error": "no live workers in the fleet",
                          "wall_seconds": 0.0})
            return
        # Admission control: the target shard is saturated — bounce
        # with `busy` instead of queueing without bound.  Only the
        # leader can get here (followers coalesced above), so popping
        # the flight un-leads exactly this submission.
        if self._depth.get(worker_id, 0) >= self.max_queue:
            self._inflight.complete(flight)
            self._jobs["busy"] += 1
            send({"event": "busy", "job": job_id, "key": key,
                  "worker": worker_id,
                  "retry_after": BUSY_RETRY_HINT})
            return
        # `running` goes out before the dispatch so the leader can
        # never observe `done` first, however fast the job is.
        send({"event": "running", "job": job_id, "coalesced": False})
        self._jobs["executed"] += 1
        self._dispatch_job(worker_id, flight, key, spec)

    def _dispatch_job(self, worker_id: str, flight, key: str,
                      spec) -> None:
        ticket = next(self._tickets)
        self._assignments[ticket] = ("job", worker_id, flight, key,
                                     spec)
        self._depth[worker_id] = self._depth.get(worker_id, 0) + 1
        if not self._fleet.dispatch(worker_id, ("job", ticket, spec)):
            # The worker died between routing and dispatch; undo the
            # bookkeeping and route to the next live shard.
            del self._assignments[ticket]
            self._depth[worker_id] -= 1
            self._ring.remove(worker_id)
            self._redispatch(flight, key, spec)

    # -- sessions (loop thread only) --------------------------------------

    def _handle_session_open(self, job_id: str, key: str, spec,
                             send) -> None:
        """Open a session: route by cache key (so repeats of the
        same program land on the worker already holding it compiled),
        then pin the new session id to that shard."""
        while True:
            try:
                worker_id = self._ring.node_for(key)
            except LookupError:
                self._jobs["completed"] += 1
                self._jobs["error"] += 1
                send({"event": "done", "job": job_id, "key": key,
                      "status": "error", "cached": False,
                      "coalesced": False, "wall_seconds": 0.0,
                      "error": "no live workers in the fleet"})
                return
            if self._depth.get(worker_id, 0) >= self.max_queue:
                self._jobs["busy"] += 1
                send({"event": "busy", "job": job_id, "key": key,
                      "worker": worker_id,
                      "retry_after": BUSY_RETRY_HINT})
                return
            session_id = f"s{next(self._session_ids)}"
            ticket = next(self._tickets)
            self._assignments[ticket] = ("session", worker_id, send,
                                         job_id, session_id)
            self._depth[worker_id] = self._depth.get(worker_id, 0) + 1
            if self._fleet.dispatch(
                    worker_id, ("session", ticket, session_id, spec)):
                break
            # Dead between routing and dispatch: undo, drop the
            # shard, and route the session somewhere alive.
            del self._assignments[ticket]
            self._depth[worker_id] -= 1
            self._ring.remove(worker_id)
        self._sessions[session_id] = worker_id
        self._jobs["executed"] += 1
        self._jobs["sessions"] += 1
        send({"event": "running", "job": job_id, "coalesced": False,
              "session": session_id})

    def _session_op(self, kind: str, message: dict, send,
                    parse) -> None:
        """The shared shape of ``edit`` and ``query``: validate, find
        the session's pinned worker, admission-check, dispatch."""
        job_id = str(message["id"]) if "id" in message \
            else f"job-{next(self._job_ids)}"
        try:
            session_id, request = parse(message)
        except ProtocolError as error:
            self._jobs["rejected"] += 1
            send({"event": "error", "job": job_id,
                  "error": str(error)})
            return
        worker_id = self._sessions.get(session_id)
        if worker_id is None or worker_id not in self._depth:
            self._jobs["rejected"] += 1
            send({"event": "error", "job": job_id,
                  "session": session_id,
                  "error": f"unknown session {session_id!r} (never "
                           f"opened, expired, or lost to a worker "
                           f"death)"})
            return
        send({"event": "queued", "job": job_id,
              "session": session_id})
        # Session ops share the shard's admission bound with one-shot
        # jobs — they run in the same serial worker loop.
        if self._depth.get(worker_id, 0) >= self.max_queue:
            self._jobs["busy"] += 1
            send({"event": "busy", "job": job_id,
                  "session": session_id, "worker": worker_id,
                  "retry_after": BUSY_RETRY_HINT})
            return
        send({"event": "running", "job": job_id, "coalesced": False,
              "session": session_id})
        ticket = next(self._tickets)
        self._assignments[ticket] = (kind, worker_id, send, job_id,
                                     session_id)
        self._depth[worker_id] += 1
        self._jobs["executed"] += 1
        self._jobs[kind + "s" if kind == "edit" else "queries"] += 1
        if not self._fleet.dispatch(
                worker_id, (kind, ticket, session_id) + request):
            # The pinned worker is dead; the warm state is gone with
            # it, so there is nowhere to re-dispatch.  _on_death will
            # also fire, but the assignment is already retired here.
            del self._assignments[ticket]
            self._depth[worker_id] -= 1
            self._lose_session(session_id, send, job_id)

    def _handle_edit(self, message: dict, send) -> None:
        def parse(msg):
            session_id, source, timeout = edit_request(msg)
            if timeout is None:
                timeout = self.default_timeout
            return session_id, (source, timeout)
        self._session_op("edit", message, send, parse)

    def _handle_query(self, message: dict, send) -> None:
        if "session" not in message:
            self._handle_batch_query(message, send)
            return

        def parse(msg):
            session_id, kind, target = query_request(msg)
            return session_id, (kind, target)
        self._session_op("query", message, send, parse)

    def _handle_batch_query(self, message: dict, send) -> None:
        """A sessionless query: an ordinary cached job whose spec
        carries the client-pass fields."""
        job_id = str(message["id"]) if "id" in message \
            else f"job-{next(self._job_ids)}"
        try:
            spec = query_job_spec(message)
        except ProtocolError as error:
            self._jobs["rejected"] += 1
            send({"event": "error", "job": job_id,
                  "error": str(error)})
            return
        if spec.timeout is None and self.default_timeout is not None:
            spec = replace(spec, timeout=self.default_timeout)
        key = job_cache_key(spec)
        self._jobs["submitted"] += 1
        self._jobs["queries"] += 1
        send({"event": "queued", "job": job_id, "key": key})
        self._schedule(job_id, key, spec, send)

    def _lose_session(self, session_id: str, send,
                      job_id: str) -> None:
        self._sessions.pop(session_id, None)
        self._jobs["completed"] += 1
        self._jobs["error"] += 1
        send({"event": "done", "job": job_id, "session": session_id,
              "status": "error", "cached": False, "coalesced": False,
              "wall_seconds": 0.0,
              "error": f"worker holding session {session_id!r} died; "
                       f"the warm state is lost — submit again with "
                       f"session: true"})

    def _cache_get(self, key: str, count_miss: bool = True):
        if self.cache is None:
            return None
        return self.cache.get(key, count_miss=count_miss)

    @staticmethod
    def _cached_done_event(job_id: str, key: str,
                           payload: dict) -> dict:
        event = {"event": "done", "job": job_id, "key": key,
                 "status": "ok", "stdout": payload.get("stdout"),
                 "summary": payload.get("summary"),
                 "wall_seconds": payload.get("wall_seconds"),
                 "cached": True, "coalesced": False}
        if "answer" in payload:
            event["answer"] = payload["answer"]
        return event

    # -- fleet callbacks (pump threads -> loop) --------------------------

    def _post_result(self, worker_id: str, ticket: int, row: dict,
                     stats: dict) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._on_result, ticket, row)
        except RuntimeError:
            pass  # loop already closed: shutting down

    def _post_death(self, worker_id: str) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._on_death, worker_id)
        except RuntimeError:
            pass

    def _on_result(self, ticket: int, row: dict) -> None:
        assignment = self._assignments.pop(ticket, None)
        if assignment is None:
            return  # retired by a racing shutdown
        kind, worker_id = assignment[0], assignment[1]
        if worker_id in self._depth:
            self._depth[worker_id] = max(
                0, self._depth[worker_id] - 1)
        if kind == "job":
            _, _, flight, key, _spec = assignment
            self._finish(flight, key, row)
        else:
            _, _, send, job_id, session_id = assignment
            self._finish_session_op(kind, send, job_id, session_id,
                                    row)

    def _on_death(self, worker_id: str) -> None:
        """A worker died: drop its shard, re-dispatch its orphaned
        jobs, error out its orphaned session ops.

        The pump thread delivers every result the worker sent before
        dying *before* reporting the death (FIFO through
        call_soon_threadsafe), so an orphan here is genuinely
        unfinished — a completed job is never run twice.  Session ops
        are *not* re-dispatched: the session they target died with
        the worker, so the client gets a terminal error and must open
        a fresh session.
        """
        if self._stopping:
            return
        self._ring.remove(worker_id)
        self._depth.pop(worker_id, None)
        orphans = [ticket
                   for ticket, assignment in self._assignments.items()
                   if assignment[1] == worker_id]
        for ticket in orphans:
            assignment = self._assignments.pop(ticket)
            if assignment[0] == "job":
                _, _, flight, key, spec = assignment
                self._jobs["redispatched"] += 1
                self._redispatch(flight, key, spec)
            else:
                _, _, send, job_id, session_id = assignment
                self._lose_session(session_id, send, job_id)
        # Sessions idle on the dead worker (no op in flight) are just
        # as gone; forget them so later edits fail fast server-side.
        for session_id in [sid for sid, wid in self._sessions.items()
                           if wid == worker_id]:
            del self._sessions[session_id]

    def _redispatch(self, flight, key: str, spec) -> None:
        """Route an already-admitted job to the key's next live
        shard; admission is bypassed (a death must never bounce a job
        that was already accepted)."""
        try:
            worker_id = self._ring.node_for(key)
        except LookupError:
            self._settle(flight, key,
                         {"status": "error",
                          "error": "worker died and no live workers "
                                   "remain",
                          "wall_seconds": 0.0})
            return
        self._dispatch_job(worker_id, flight, key, spec)

    # -- completion ------------------------------------------------------

    def _finish(self, flight, key: str, row: dict) -> None:
        """Persist, retire the flight, fan out.

        Cache write strictly precedes the in-flight pop — see the
        module docstring for why that order closes the re-run race.
        """
        if self.cache is not None and row["status"] == "ok":
            self.cache.put(key, cache_payload(row))
        self._settle(flight, key, row)

    def _finish_session_op(self, kind: str, send, job_id: str,
                           session_id: str, row: dict) -> None:
        """Complete a session open/edit/query: one subscriber, no
        flight, no cache — just the done event with the row's
        session-specific fields attached."""
        status = row.get("status", "error")
        self._jobs["completed"] += 1
        self._jobs[status] += 1
        event = {"event": "done", "job": job_id,
                 "session": session_id, "status": status,
                 "cached": False, "coalesced": False,
                 "wall_seconds": row.get("wall_seconds")}
        if status == "ok":
            for field in ("stdout", "summary", "steps", "answer",
                          "session_stats"):
                if field in row:
                    event[field] = row[field]
        else:
            event["error"] = row.get("error", "")
            # A failed open never installed worker state; a timed-out
            # edit dropped it.  Either way the id is dead.
            if kind == "session" or row.get("session_dropped"):
                self._sessions.pop(session_id, None)
        send(event)

    def _settle(self, flight, key: str, row: dict,
                cached: bool = False) -> None:
        """Retire a flight and fan *row* out to every subscriber."""
        subscribers = self._inflight.complete(flight)
        self._jobs["completed"] += len(subscribers)
        self._jobs[row["status"]] += len(subscribers)
        event = {"event": "done", "key": key,
                 "status": row["status"],
                 "wall_seconds": row.get("wall_seconds"),
                 "cached": cached}
        if row["status"] == "ok":
            event["stdout"] = row.get("stdout")
            event["summary"] = row.get("summary")
            if "answer" in row:
                event["answer"] = row["answer"]
        else:
            event["error"] = row.get("error", "")
        for index, (send, job_id) in enumerate(subscribers):
            message = dict(event)
            message["job"] = job_id
            message["coalesced"] = index > 0
            send(message)  # a gone subscriber is silently skipped


class _Shutdown(Exception):
    """Internal: unwind a connection loop after a shutdown request."""

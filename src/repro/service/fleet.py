"""The sharded worker fleet behind the asyncio front door.

A :class:`WorkerFleet` owns N **long-lived** worker processes — not a
task pool: the whole point of consistent-hash routing
(:mod:`repro.service.sharding`) is that the *same* worker sees the
same program again, and that only pays off if the worker survives
between jobs, keeping its :class:`~repro.cache.ProgramCache` of
compiled ``Program`` objects and its generated step modules warm
across submissions.

Threading model (the part that has to be right):

* Each worker child runs :func:`_worker_main`: a plain recv → run →
  send loop over its end of a duplex pipe.  It processes jobs
  serially, FIFO; queue depth is bounded by the *front door's*
  admission control, never by blocking here.
* The parent side gives every worker two daemon threads.  A **sender**
  drains an unbounded in-process outbox onto the pipe, so dispatching
  never blocks the event loop even when a worker is busy and the pipe
  buffer is full of 16 MB sources.  A **pump** blocks in
  :func:`multiprocessing.connection.wait` on the pipe *and* the
  process sentinel, delivering results via ``on_result`` and — after
  draining any results the worker managed to send before dying —
  reporting death via ``on_death``.  Both callbacks fire on pump
  threads; the server marshals them into its event loop with
  ``loop.call_soon_threadsafe``.
* Exactly-once death reporting: a dead worker fires ``on_death`` once,
  and never during :meth:`WorkerFleet.stop` (shutdown is not an
  outage).
* Shutdown is ordered (:meth:`WorkerFleet.stop`): every sender
  forwards the ``None`` stop sentinel before any pipe is closed.
  Closing the parent's end is *not* a stop signal: the pump thread's
  ``wait`` on that end keeps the socket open, so the child would
  never see EOF.

Workers use the ``forkserver`` start method where available (fork
from a single-threaded helper — forking the threaded, asyncio-running
parent directly is deprecated), falling back to ``spawn``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from multiprocessing.connection import wait as _wait_connections


#: How long :meth:`WorkerFleet.stop` lets workers finish the job in
#: hand before killing them.
STOP_GRACE_SECONDS = 2.0


def _fleet_context():
    """A start method safe for a threaded parent (see module doc)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn")


def _worker_main(conn, worker_id: str,
                 codegen_dir=None) -> None:
    """The worker child's whole life: recv a kind-tagged request, run
    it warm, send the row back with cumulative stats.  Exits on the
    ``None`` stop sentinel (the clean shutdown signal), pipe EOF or a
    broken pipe.

    Request kinds (see :meth:`WorkerFleet.dispatch`):

    * ``("job", ticket, spec)`` — one-shot analysis;
    * ``("session", ticket, session_id, spec)`` — open a session;
    * ``("edit", ticket, session_id, source, timeout)`` — re-analyze
      a session from scratch against an edited source;
    * ``("query", ticket, session_id, kind, target)`` — point query.

    Session state lives here, in the worker, next to the program
    cache — the parent only routes by session id.  Sessions run the
    one-shot default tier; jobs run the ``codegen`` engine tier
    (``run_job`` with the worker's program cache), so each program's
    generated module is emitted and compiled once and reused by every
    later job here.
    """
    from repro.cache import CodegenCache, ProgramCache
    from repro.analysis.codegen import (
        default_codegen_cache, set_default_codegen_cache,
    )
    from repro.service.jobs import WorkerSessions, run_job
    programs = ProgramCache()
    # The worker's generated-module store: installed as the process
    # default so the codegen stage inside run_job hits it without
    # plumbing.  Disk entries persist across worker restarts (keys
    # are content hashes), so a respawned shard re-warms from disk
    # for free.  ``codegen_dir`` relocates it next to a ``serve
    # --cache-dir`` result cache (the fleet spawns, so the parent's
    # default does not carry over).
    if codegen_dir is not None:
        try:
            codegen = CodegenCache(codegen_dir)
        except OSError:
            codegen = CodegenCache()
        set_default_codegen_cache(codegen)
    else:
        codegen = default_codegen_cache()
    sessions = WorkerSessions(programs=programs)
    jobs_done = 0
    plans_reused = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:  # explicit stop sentinel
            return
        kind, ticket = message[0], message[1]
        if kind == "session":
            row = sessions.create(message[2], message[3])
        elif kind == "edit":
            row = sessions.edit(message[2], message[3], message[4])
        elif kind == "query":
            row = sessions.query(message[2], message[3], message[4])
        else:
            row = run_job(message[2], programs=programs)
        jobs_done += 1
        # A program-cache hit reuses the compiled Program *object*,
        # and with it every plan the engine tiers already built and
        # cached on it — that is the warm-worker win the sharding
        # tests observe.
        if row.get("warm"):
            plans_reused += 1
        stats = {"jobs": jobs_done, "plans_reused": plans_reused,
                 "programs": programs.as_dict(),
                 "codegen": codegen.as_dict(),
                 "sessions": sessions.counters()}
        try:
            conn.send((ticket, row, stats))
        except (OSError, BrokenPipeError):
            return


class WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, worker_id: str, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.outbox: queue.Queue = queue.Queue()
        self.sender: threading.Thread | None = None
        self.alive = True
        # Cumulative stats as last reported by the worker (updated by
        # the pump thread; plain int reads are safe cross-thread).
        self.jobs = 0
        self.plans_reused = 0
        # Last-reported cache counter dicts.  ``programs`` was always
        # shipped in the stats tuple but dropped on the floor here;
        # both stores now surface symmetrically in stats_row.
        self.programs: dict = {}
        self.codegen: dict = {}

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def stats_row(self) -> dict:
        return {"worker": self.worker_id, "pid": self.pid,
                "alive": self.alive, "jobs": self.jobs,
                "plans_reused": self.plans_reused,
                "programs": dict(self.programs),
                "codegen": dict(self.codegen)}


class WorkerFleet:
    """N long-lived workers plus their sender/pump threads.

    ``on_result(worker_id, ticket, row, stats)`` and
    ``on_death(worker_id)`` are invoked **from pump threads**; the
    caller is responsible for marshalling into its own loop.
    """

    def __init__(self, size: int, on_result, on_death,
                 codegen_dir=None):
        if size < 1:
            raise ValueError(f"fleet needs at least one worker, got "
                             f"{size}")
        self.size = size
        self.on_result = on_result
        self.on_death = on_death
        self.codegen_dir = codegen_dir
        self._handles: dict[str, WorkerHandle] = {}
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerFleet":
        context = _fleet_context()
        for index in range(self.size):
            worker_id = f"w{index}"
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, worker_id, self.codegen_dir),
                name=f"repro-{worker_id}", daemon=True)
            process.start()
            child_conn.close()  # the child's copy lives in the child
            handle = WorkerHandle(worker_id, process, parent_conn)
            self._handles[worker_id] = handle
            threads = [threading.Thread(
                target=target, args=(handle,), daemon=True,
                name=f"repro-{worker_id}-{target.__name__}")
                for target in (self._sender, self._pump)]
            handle.sender = threads[0]
            for thread in threads:
                thread.start()
            self._threads += threads
        return self

    def stop(self) -> None:
        """Retire every worker, in order: queued requests are dropped
        and each sender forwards the ``None`` stop sentinel; once the
        senders are done the workers are joined (a worker finishes
        the job in hand, then exits 0), and only then are the pipes
        closed.  A worker still alive :data:`STOP_GRACE_SECONDS`
        after the stop began is killed."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        deadline = time.monotonic() + STOP_GRACE_SECONDS
        handles = list(self._handles.values())
        for handle in handles:
            try:
                while True:
                    handle.outbox.get_nowait()
            except queue.Empty:
                pass
            handle.outbox.put(None)  # forwarded, then the sender exits
        for handle in handles:
            handle.sender.join(max(0.0, deadline - time.monotonic()))
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
            handle.alive = False
        for thread in self._threads:
            thread.join(timeout=1.0)
        for handle in handles:
            try:
                handle.conn.close()
            except OSError:
                pass

    # -- parent-side operations ------------------------------------------

    def dispatch(self, worker_id: str, request: tuple) -> bool:
        """Queue one kind-tagged request (see :func:`_worker_main`)
        for *worker_id*; never blocks.  False when the worker is
        already known-dead (the caller re-routes or errors out)."""
        handle = self._handles.get(worker_id)
        if handle is None or not handle.alive:
            return False
        handle.outbox.put(request)
        return True

    def live_workers(self) -> list[str]:
        return [worker_id
                for worker_id, handle in self._handles.items()
                if handle.alive]

    def handle(self, worker_id: str) -> WorkerHandle | None:
        return self._handles.get(worker_id)

    def stats_rows(self) -> list[dict]:
        return [handle.stats_row()
                for _, handle in sorted(self._handles.items())]

    def kill(self, worker_id: str) -> None:
        """Hard-kill one worker (SIGKILL) — the fault-injection hook.
        Death detection and re-dispatch then run the normal path, as
        they would for an OOM kill in production."""
        handle = self._handles[worker_id]
        handle.process.kill()

    # -- per-worker threads ----------------------------------------------

    def _sender(self, handle: WorkerHandle) -> None:
        """Drain the outbox onto the pipe.  Blocking in conn.send is
        fine *here* — this thread exists so the event loop never
        does."""
        while True:
            item = handle.outbox.get()
            try:
                handle.conn.send(item)
            except (OSError, BrokenPipeError, ValueError):
                return  # pump thread owns death reporting
            if item is None:  # the stop sentinel, now forwarded
                return

    def _pump(self, handle: WorkerHandle) -> None:
        """Deliver results; on death, drain stragglers then report."""
        sentinel = handle.process.sentinel
        while True:
            try:
                ready = _wait_connections([handle.conn, sentinel])
            except OSError:
                self._died(handle)
                return
            if handle.conn in ready:
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    self._died(handle)
                    return
                self._deliver(handle, message)
            elif sentinel in ready:
                # The process is gone but results it sent before dying
                # may still sit in the pipe — deliver those first so a
                # completed job is never replayed as a failure.
                try:
                    while handle.conn.poll(0):
                        self._deliver(handle, handle.conn.recv())
                except (EOFError, OSError):
                    pass
                self._died(handle)
                return

    def _deliver(self, handle: WorkerHandle, message) -> None:
        ticket, row, stats = message
        handle.jobs = stats["jobs"]
        handle.plans_reused = stats["plans_reused"]
        handle.programs = stats.get("programs", {})
        handle.codegen = stats.get("codegen", {})
        self.on_result(handle.worker_id, ticket, row, stats)

    def _died(self, handle: WorkerHandle) -> None:
        with self._lock:
            if self._stopping or not handle.alive:
                return
            handle.alive = False
        self.on_death(handle.worker_id)

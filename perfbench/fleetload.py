"""The load generator for the service workloads.

One process, at most ``nproc`` NDJSON connections to the in-process
:class:`~repro.service.server.AnalysisServer`, many outstanding
requests multiplexed over them by job id.  Closed loop: each of a
fixed number of *slots* sends its next request only after the
previous one reached a terminal event.

Every request ends as exactly one outcome: ``done`` (checked by the
caller), ``error`` (an error event or status), ``busy`` (bounces
outlived the retries), ``timeout`` (no terminal event within
:data:`REQUEST_TIMEOUT`) — and a second ``done`` for a finished job id
counts as a duplicate.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time

from repro.service.client import busy_backoff
from repro.service.protocol import (
    MAX_LINE_BYTES, decode_message, encode_message,
)

REQUEST_TIMEOUT = 60.0
BUSY_RETRIES = 16
_TERMINAL = ("done", "error", "busy")


class Connection:
    """One multiplexed connection: a reader task routes each terminal
    event to the future waiting on its job id."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._waiting: dict[str, asyncio.Future] = {}
        self._finished: set[str] = set()
        self.duplicates = 0
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, endpoint: str) -> "Connection":
        host, port = endpoint.rsplit(":", 1)
        reader, writer = await asyncio.open_connection(
            host, int(port), limit=MAX_LINE_BYTES + 2)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                event = decode_message(line)
                kind = event.get("event")
                if kind not in _TERMINAL:
                    continue
                job = event.get("job")
                waiter = self._waiting.pop(job, None)
                if waiter is not None:
                    self._finished.add(job)
                    if not waiter.done():
                        waiter.set_result(event)
                elif kind == "done" and job in self._finished:
                    self.duplicates += 1
        finally:
            for waiter in self._waiting.values():
                if not waiter.done():
                    waiter.set_exception(
                        ConnectionError("server closed the connection"))

    async def request(self, message: dict) -> dict:
        waiter = asyncio.get_running_loop().create_future()
        self._waiting[message["id"]] = waiter
        self._writer.write(encode_message(message))
        await self._writer.drain()
        try:
            return await asyncio.wait_for(waiter, REQUEST_TIMEOUT)
        finally:
            self._waiting.pop(message["id"], None)

    async def close(self) -> None:
        with contextlib.suppress(OSError):
            self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await self._task


class Outcome:
    __slots__ = ("item", "event", "latency", "status")

    def __init__(self, item, event, latency, status):
        self.item = item
        self.event = event
        self.latency = latency
        self.status = status


_ids = itertools.count(1)


async def send(connection: Connection, message: dict, item=None
               ) -> Outcome:
    """One request, ``busy`` retried with the client's backoff."""
    started = time.perf_counter()
    event = None
    for attempt in range(BUSY_RETRIES + 1):
        message = dict(message, id=f"r{next(_ids)}")
        try:
            event = await connection.request(message)
        except asyncio.TimeoutError:
            return Outcome(item, None, time.perf_counter() - started,
                           "timeout")
        except (ConnectionError, OSError):
            return Outcome(item, None, time.perf_counter() - started,
                           "error")
        if event.get("event") != "busy":
            break
        await asyncio.sleep(busy_backoff(attempt))
    latency = time.perf_counter() - started
    if event.get("event") == "busy":
        return Outcome(item, event, latency, "busy")
    if event.get("event") == "error" or event.get("status") != "ok":
        return Outcome(item, event, latency, "error")
    return Outcome(item, event, latency, "ok")


async def closed_loop(endpoint: str, connections: int, slots: int,
                      next_item, to_message, seconds: float,
                      on_outcome) -> tuple[float, float, int]:
    """Drive *slots* closed-loop senders for *seconds*; returns the
    window (first send, last completion) and the duplicate count."""
    pool = [await Connection.open(endpoint)
            for _ in range(max(1, connections))]
    started = time.perf_counter()
    deadline = started + seconds
    last = [started]

    async def slot(index: int) -> None:
        connection = pool[index % len(pool)]
        while time.perf_counter() < deadline:
            item = next_item()
            outcome = await send(connection, to_message(item), item)
            last[0] = max(last[0], time.perf_counter())
            on_outcome(outcome)

    try:
        await asyncio.gather(*(slot(index) for index in range(slots)))
    finally:
        for connection in pool:
            await connection.close()
    return started, last[0], sum(c.duplicates for c in pool)


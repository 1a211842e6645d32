"""Fault injection against the worker fleet.

Each test wounds the service in a specific way and asserts the
documented recovery, not mere survival:

* SIGKILL a worker **mid-job** — the orphaned job re-dispatches to the
  next shard on the ring and still completes ``ok`` (counted once in
  ``executed``, once in ``redispatched``).
* client disconnects **mid-stream** — the flight retires (no leaked
  inflight entry) and the analysis result is simply dropped.
* admission queue full — followers bounce with ``busy`` and the client
  backoff loop lands the job on a later attempt.
* a ``timeout`` verdict is never written to the result cache, so
  resubmission re-runs the analysis on the fleet path too.

Kill windows are calibrated against the Van Horn–Mairson ladder:
``worst13`` under k-CFA(1) runs ≈1.4 s — wide enough to land a signal
inside, long after dispatch and well before completion.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.cache import ResultCache
from repro.generators.worstcase import worst_case_source
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, job_cache_key
from repro.service.server import AnalysisServer

#: ≈1.4 s of k-CFA(1) work on the reference box: the kill window.
SLOW_SOURCE = worst_case_source(13)

#: The EXPTIME wall under k = 2 — guaranteed ``timeout`` verdict.
TIMEOUT_SOURCE = worst_case_source(14)

FAST_SOURCE = "(define (double x) (+ x x))\n(double 21)\n"


def _wait(predicate, deadline: float = 30.0, interval: float = 0.02):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerDeath:
    def test_kill_mid_job_redispatches_and_completes(self):
        server = AnalysisServer(port=0, workers=2, cache=None).start()
        try:
            # The ring decides the victim before we submit: the shard
            # that owns this job's cache key is the worker we kill.
            key = job_cache_key(JobSpec(source=SLOW_SOURCE,
                                        analysis="kcfa", context=1))
            victim = server._ring.node_for(key)

            running = threading.Event()
            outcome: dict[str, dict] = {}

            def on_event(event):
                if event.get("event") == "running":
                    running.set()

            def submitter():
                with ServiceClient(port=server.port) as client:
                    outcome["final"] = client.submit(
                        source=SLOW_SOURCE, analysis="kcfa",
                        context=1, timeout=300.0, on_event=on_event)

            thread = threading.Thread(target=submitter)
            thread.start()
            assert running.wait(timeout=30), "job never dispatched"
            time.sleep(0.15)  # let the worker get into the fixpoint
            server._fleet.kill(victim)
            thread.join(timeout=120)
            assert not thread.is_alive()

            final = outcome["final"]
            assert final["status"] == "ok", final.get("error")
            stats = server.stats_snapshot()
            assert stats["jobs"]["redispatched"] == 1
            assert stats["jobs"]["executed"] == 1  # not double-counted
            assert stats["jobs"]["error"] == 0
            # The dead worker left the ring and its row reports dead.
            assert victim not in server._ring
            dead = [row for row in stats["fleet"]
                    if row["worker"] == victim]
            assert dead and dead[0]["alive"] is False
            # The survivor still serves: routing fell over to it.
            with ServiceClient(port=server.port) as client:
                assert client.submit(source=FAST_SOURCE,
                                     analysis="mcfa", context=1,
                                     timeout=60.0)["status"] == "ok"
        finally:
            server.stop()


class TestClientDisconnect:
    def test_disconnect_mid_stream_retires_the_flight(self):
        server = AnalysisServer(port=0, workers=1, cache=None).start()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port),
                                           timeout=10)
            raw.sendall((json.dumps(
                {"op": "submit", "id": "doomed",
                 "source": SLOW_SOURCE, "analysis": "kcfa",
                 "context": 1, "timeout": 300.0}) + "\n")
                .encode("utf-8"))
            # Read one streamed event so the disconnect happens
            # mid-conversation, then vanish without a goodbye.
            with raw.makefile("r", encoding="utf-8") as reader:
                event = json.loads(reader.readline())
            assert event["event"] in ("queued", "running")
            raw.close()

            # The analysis still runs to completion (its result is
            # dropped, not leaked): the flight must retire and the
            # counters must balance with nobody left to tell.
            assert _wait(lambda: (
                server.stats_snapshot()["jobs"]["completed"] == 1
                and server._inflight.pending() == 0), deadline=120)
            stats = server.stats_snapshot()
            assert stats["jobs"]["executed"] == 1
            assert stats["jobs"]["error"] == 0

            # And the server is still fully alive for the next client.
            with ServiceClient(port=server.port) as client:
                assert client.submit(source=FAST_SOURCE,
                                     analysis="mcfa", context=1,
                                     timeout=60.0)["status"] == "ok"
        finally:
            server.stop()


class TestAdmissionControl:
    def test_full_queue_bounces_busy_and_retry_lands(self):
        # One worker, queue depth 1: while the slow job occupies the
        # shard, any second key bound for it must bounce.
        server = AnalysisServer(port=0, workers=1, cache=None,
                                max_queue=1).start()
        try:
            slow_running = threading.Event()
            slow_outcome: dict[str, dict] = {}

            def slow_submitter():
                with ServiceClient(port=server.port) as client:
                    slow_outcome["final"] = client.submit(
                        source=SLOW_SOURCE, analysis="kcfa",
                        context=1, timeout=300.0,
                        on_event=lambda event: slow_running.set()
                        if event.get("event") == "running" else None)

            thread = threading.Thread(target=slow_submitter)
            thread.start()
            assert slow_running.wait(timeout=30)

            bounces: list[dict] = []
            with ServiceClient(port=server.port) as client:
                final = client.submit(
                    source=FAST_SOURCE, analysis="mcfa", context=1,
                    timeout=60.0,
                    on_event=lambda event: bounces.append(event)
                    if event.get("event") == "busy" else None)
            thread.join(timeout=120)

            assert final["status"] == "ok", final.get("error")
            assert slow_outcome["final"]["status"] == "ok"
            assert bounces, "queue was full yet nothing bounced"
            assert bounces[0]["worker"] == "w0"
            assert bounces[0]["retry_after"] > 0
            stats = server.stats_snapshot()
            assert stats["jobs"]["busy"] == len(bounces)
            # Bounced attempts are not executions; both jobs ran once.
            assert stats["jobs"]["executed"] == 2
            assert stats["jobs"]["submitted"] == 2 + len(bounces)
        finally:
            server.stop()

    def test_busy_event_carries_retry_contract(self):
        # Protocol shape only — no fleet needed beyond construction.
        server = AnalysisServer(port=0, workers=1, cache=None,
                                max_queue=1).start()
        try:
            with ServiceClient(port=server.port) as client:
                stats = client.stats()
            assert stats["max_queue"] == 1
        finally:
            server.stop()


class TestTimeoutsNeverCached:
    def test_fleet_path_reruns_timeouts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        server = AnalysisServer(port=0, workers=1,
                                cache=cache).start()
        try:
            with ServiceClient(port=server.port) as client:
                first = client.submit(source=TIMEOUT_SOURCE,
                                      analysis="kcfa", context=2,
                                      timeout=1.0)
                second = client.submit(source=TIMEOUT_SOURCE,
                                       analysis="kcfa", context=2,
                                       timeout=1.0)
                stats = client.stats()
            assert first["status"] == "timeout"
            assert second["status"] == "timeout"
            assert second["cached"] is False
            # Both runs executed on the fleet; nothing was written to
            # or read from the result cache.
            assert stats["jobs"]["executed"] == 2
            assert stats["cache"]["writes"] == 0
            assert stats["cache"]["hits"] == 0
        finally:
            server.stop()


class TestShutdown:
    """Stopping an idle fleet is graceful and fast: every worker gets
    the stop sentinel and exits 0 on its own — none waits out a join
    timeout and gets killed."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_idle_fleet_stops_fast_and_clean(self, workers):
        server = AnalysisServer(port=0, workers=workers).start()
        fleet = server._fleet
        try:
            # One job straight to each worker, so every worker has
            # booted and gone idle before the stop is timed.
            spec = JobSpec(source=FAST_SOURCE, analysis="zero",
                           context=0, timeout=60.0)
            for ticket, worker_id in enumerate(fleet.live_workers()):
                assert fleet.dispatch(worker_id, ("job", -1 - ticket,
                                                  spec))
            assert _wait(lambda: all(row["jobs"] == 1
                                     for row in fleet.stats_rows()))
            handles = [fleet.handle(worker_id)
                       for worker_id in fleet.live_workers()]
        except BaseException:
            server.stop()
            raise
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert [handle.process.exitcode for handle in handles] \
            == [0] * workers


class TestStressHarness:
    def test_small_campaign_is_loss_free(self):
        from repro.service.stress import run_stress
        report = run_stress(clients=6, requests=2, distinct=3,
                            workers=2, deadline=120.0)
        assert report.completed == 12
        assert report.ok == 12
        assert report.dropped == 0
        assert report.duplicated == 0
        assert report.mismatched == 0
        assert report.verified == 12
        assert report.wall_seconds > 0
        assert report.p99 >= report.p50
        jobs = report.server_stats["jobs"]
        # The stats identity under load, busy bounces included (the
        # in-process stress server runs cache-less: zero hits).
        hits = (report.server_stats.get("cache") or {}).get("hits", 0)
        assert jobs["executed"] + jobs["coalesced"] + jobs["busy"] \
            + hits == jobs["submitted"]

    def test_report_serializes(self):
        from repro.service.stress import StressReport
        report = StressReport(endpoint="x", clients=1,
                              requests_per_client=1, distinct=1,
                              workers=1)
        row = report.as_dict()
        assert "latencies" not in row
        assert row["latency_samples"] == 0

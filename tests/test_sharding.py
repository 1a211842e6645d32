"""Property tests for the consistent-hash ring and warm routing.

Two layers: pure ring properties (stability, minimal disruption on
node loss — seeded, 200 trials), then the live behaviour they exist
for: the same ``job_cache_key`` always lands on the same worker, whose
:class:`~repro.cache.ProgramCache` makes the repeat run warm —
observable as the per-worker ``plans_reused`` stat and byte-identical
output either way.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import ProgramCache
from repro.service.sharding import HashRing

SOURCE = """
(define (compose f g) (lambda (x) (f (g x))))
(define (inc n) (+ n 1))
((compose inc inc) 5)
"""


def random_key(rng: random.Random) -> str:
    return f"key-{rng.getrandbits(64):016x}"


class TestRingProperties:
    def test_routing_ignores_insertion_order(self):
        nodes = [f"w{index}" for index in range(6)]
        forward = HashRing(nodes)
        backward = HashRing(reversed(nodes))
        rng = random.Random(7)
        for _ in range(500):
            key = random_key(rng)
            assert forward.node_for(key) == backward.node_for(key)

    def test_routing_is_deterministic_across_instances(self):
        # SHA-256 points, not hash(): a fresh ring (think: restarted
        # front door) must route every key identically.
        keys = [random_key(random.Random(11)) for _ in range(50)]
        first = {key: HashRing(["a", "b", "c"]).node_for(key)
                 for key in keys}
        second = {key: HashRing(["a", "b", "c"]).node_for(key)
                  for key in keys}
        assert first == second

    def test_removing_one_worker_remaps_only_its_keys(self):
        """The consistency property, 200 seeded trials: after one
        node dies, every key it did NOT own keeps its shard."""
        rng = random.Random(1234)
        for _ in range(200):
            nodes = [f"w{index}"
                     for index in range(rng.randint(2, 8))]
            ring = HashRing(nodes)
            keys = [random_key(rng) for _ in range(40)]
            before = {key: ring.node_for(key) for key in keys}
            assert set(before.values()) <= set(nodes)
            victim = rng.choice(nodes)
            ring.remove(victim)
            for key in keys:
                after = ring.node_for(key)
                if before[key] == victim:
                    assert after != victim  # orphans moved somewhere
                else:
                    assert after == before[key]  # everyone else stays

    def test_distribution_is_not_degenerate(self):
        # Virtual nodes must spread a small fleet's load: with 4
        # workers no shard may own less than a 5% share.
        ring = HashRing([f"w{index}" for index in range(4)])
        rng = random.Random(99)
        counts: dict[str, int] = {}
        total = 2000
        for _ in range(total):
            node = ring.node_for(random_key(rng))
            counts[node] = counts.get(node, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) >= total * 0.05

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(["a", "b"])
        ring.add("a")
        assert len(ring) == 2
        ring.remove("c")
        ring.remove("b")
        ring.remove("b")
        assert ring.nodes() == frozenset({"a"})
        assert "a" in ring and "b" not in ring

    def test_empty_ring_raises_lookup_error(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.node_for("anything")
        ring.add("solo")
        assert ring.node_for("anything") == "solo"
        ring.remove("solo")
        with pytest.raises(LookupError):
            ring.node_for("anything")

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)


class TestProgramCache:
    def test_lru_eviction_and_counters(self):
        cache = ProgramCache(capacity=2)
        key_a = ProgramCache.key("scheme", "(a)", False)
        key_b = ProgramCache.key("scheme", "(b)", False)
        key_c = ProgramCache.key("scheme", "(c)", False)
        assert cache.get(key_a) is None
        cache.put(key_a, "A")
        cache.put(key_b, "B")
        assert cache.get(key_a) == "A"  # refreshes a to MRU
        cache.put(key_c, "C")           # evicts b, the LRU
        assert cache.get(key_b) is None
        assert cache.get(key_a) == "A"
        assert cache.get(key_c) == "C"
        assert len(cache) == 2          # never over capacity
        stats = cache.as_dict()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 2

    def test_key_separates_language_source_and_simplify(self):
        base = ProgramCache.key("scheme", "(x)", False)
        assert ProgramCache.key("fj", "(x)", False) != base
        assert ProgramCache.key("scheme", "(y)", False) != base
        assert ProgramCache.key("scheme", "(x)", True) != base
        assert ProgramCache.key("scheme", "(x)", False) == base


class TestWarmRouting:
    """Live fleet: stable shard per key, observable warm reuse."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.service.server import AnalysisServer
        server = AnalysisServer(port=0, workers=2, cache=None).start()
        yield server
        server.stop()

    def test_repeat_key_lands_on_one_warm_worker(self, server):
        from repro.service.client import ServiceClient
        with ServiceClient(port=server.port) as client:
            finals = [client.submit(source=SOURCE, analysis="mcfa",
                                    context=1, timeout=30.0)
                      for _ in range(3)]
        assert [final["status"] for final in finals] == ["ok"] * 3
        # Byte-identity between the cold run and the warm reruns: the
        # cached Program is a pure value, plans only memoize.
        assert finals[1]["stdout"] == finals[0]["stdout"]
        assert finals[2]["stdout"] == finals[0]["stdout"]
        stats = server.stats_snapshot()
        assert stats["jobs"]["executed"] == 3
        busy_workers = [row for row in stats["fleet"]
                        if row["jobs"] > 0]
        # Same cache key -> same shard, all three times...
        assert len(busy_workers) == 1
        assert busy_workers[0]["jobs"] == 3
        # ...and runs 2 and 3 reused the compiled program + plans.
        assert busy_workers[0]["plans_reused"] == 2

    def test_distinct_keys_can_use_distinct_workers(self, server):
        # Not a determinism claim about *which* shard — just that
        # routing is per-key, so the fleet rows stay coherent and
        # every executed job is accounted to exactly one worker.
        from repro.service.client import ServiceClient
        with ServiceClient(port=server.port) as client:
            for index in range(4):
                source = f"((lambda (x) x) {index})"
                final = client.submit(source=source,
                                      analysis="mcfa", context=1,
                                      timeout=30.0)
                assert final["status"] == "ok"
        stats = server.stats_snapshot()
        assert sum(row["jobs"] for row in stats["fleet"]) \
            == stats["jobs"]["executed"]

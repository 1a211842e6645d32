"""The persistent result cache: hits, misses, bad entries, CLI."""

from __future__ import annotations

import errno
import json
import re

import pytest

from repro.cache import (
    CACHE_SCHEMA_VERSION, CacheStats, ResultCache, cache_key,
    default_cache_dir, open_cache,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("(f 1)", "kcfa", 1) == \
            cache_key("(f 1)", "kcfa", 1)

    def test_source_sensitivity(self):
        assert cache_key("(f 1)", "kcfa", 1) != \
            cache_key("(f 2)", "kcfa", 1)

    def test_analysis_and_parameter_sensitivity(self):
        base = cache_key("(f 1)", "kcfa", 1)
        assert cache_key("(f 1)", "mcfa", 1) != base
        assert cache_key("(f 1)", "kcfa", 2) != base

    def test_option_sensitivity_and_order_insensitivity(self):
        with_opts = cache_key("(f 1)", "kcfa", 1, {"a": 1, "b": 2})
        assert with_opts != cache_key("(f 1)", "kcfa", 1)
        assert with_opts == cache_key("(f 1)", "kcfa", 1,
                                      {"b": 2, "a": 1})


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        key = cache_key("src", "kcfa", 1)
        assert cache.get(key) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_distinct_keys_do_not_collide(self, cache):
        cache.put(cache_key("a", "kcfa", 1), {"v": "a"})
        cache.put(cache_key("b", "kcfa", 1), {"v": "b"})
        assert cache.get(cache_key("a", "kcfa", 1)) == {"v": "a"}
        assert len(cache) == 2

    def test_put_overwrites(self, cache):
        key = cache_key("src", "kcfa", 1)
        cache.put(key, {"v": 1})
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}
        assert len(cache) == 1


class TestBadEntries:
    def test_corrupt_file_is_a_miss(self, cache):
        key = cache_key("src", "kcfa", 1)
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.rejected == 1

    def test_truncated_file_is_a_miss(self, cache):
        key = cache_key("src", "kcfa", 1)
        cache.put(key, {"v": 1})
        text = cache.path_for(key).read_text(encoding="utf-8")
        cache.path_for(key).write_text(text[:len(text) // 2],
                                       encoding="utf-8")
        assert cache.get(key) is None

    def test_version_mismatch_is_a_miss(self, cache):
        key = cache_key("src", "kcfa", 1)
        cache.path_for(key).write_text(json.dumps({
            "schema": CACHE_SCHEMA_VERSION + 1, "key": key,
            "payload": {"v": 1}}), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.rejected == 1

    def test_foreign_json_is_a_miss(self, cache):
        key = cache_key("src", "kcfa", 1)
        cache.path_for(key).write_text('["not", "an", "entry"]',
                                       encoding="utf-8")
        assert cache.get(key) is None

    def test_wrong_key_in_entry_is_a_miss(self, cache):
        key = cache_key("src", "kcfa", 1)
        other = cache_key("other", "kcfa", 1)
        cache.path_for(key).write_text(json.dumps({
            "schema": CACHE_SCHEMA_VERSION, "key": other,
            "payload": {"v": 1}}), encoding="utf-8")
        assert cache.get(key) is None

    def test_prune_removes_stale_entries(self, cache):
        good = cache_key("src", "kcfa", 1)
        cache.put(good, {"v": 1})
        stale = cache_key("stale", "kcfa", 1)
        cache.path_for(stale).write_text(json.dumps({
            "schema": CACHE_SCHEMA_VERSION - 1, "key": stale,
            "payload": {}}), encoding="utf-8")
        junk = cache_key("junk", "kcfa", 1)
        cache.path_for(junk).write_text("junk", encoding="utf-8")
        assert cache.prune() == 2
        assert cache.get(good) == {"v": 1}
        assert cache.stats.pruned == 2

    def test_foreign_files_are_not_entries(self, cache):
        """Satellite regression: a foreign or in-progress file must
        not inflate len() and prune() must never delete it."""
        good = cache_key("src", "kcfa", 1)
        cache.put(good, {"v": 1})
        foreign = cache.directory / "notes.json"
        foreign.write_text("not ours", encoding="utf-8")
        partial = cache.directory / ".tmp-abc123.json"
        partial.write_text("{", encoding="utf-8")
        shouty = cache.directory / f"{'A' * 64}.json"  # wrong case
        shouty.write_text("{}", encoding="utf-8")
        assert len(cache) == 1
        assert cache.prune() == 0
        assert foreign.exists() and partial.exists() and shouty.exists()
        assert cache.stats.pruned == 0


class TestOpenCache:
    def test_disabled_returns_none(self):
        assert open_cache(None, False) is None

    def test_enabled_with_dir(self, tmp_path):
        cache = open_cache(str(tmp_path / "c"), True)
        assert cache is not None
        assert cache.directory == tmp_path / "c"

    def test_default_dir_shape(self):
        assert default_cache_dir().name == "repro"

    def test_stats_dict(self):
        stats = CacheStats(hits=1, misses=2, writes=3, rejected=4,
                           pruned=5, failed=6)
        assert stats.as_dict() == {"hits": 1, "misses": 2,
                                   "writes": 3, "rejected": 4,
                                   "pruned": 5, "failed": 6}


class TestJobKeyAudit:
    """The cache key must cover every result-affecting option."""

    def test_every_result_affecting_option_changes_the_key(self):
        from dataclasses import replace
        from repro.service.jobs import JobSpec, job_cache_key
        base = JobSpec(source="(f 1)")
        for field_name, other in [("source", "(f 2)"),
                                  ("analysis", "kcfa"),
                                  ("context", 2),
                                  ("simplify", True),
                                  ("report", "flow")]:
            changed = replace(base, **{field_name: other})
            assert job_cache_key(changed) != job_cache_key(base), \
                f"{field_name} is not part of the cache key"

    def test_timeout_is_deliberately_excluded(self):
        from dataclasses import replace
        from repro.service.jobs import JobSpec, job_cache_key
        base = JobSpec(source="(f 1)")
        assert job_cache_key(replace(base, timeout=5.0)) \
            == job_cache_key(base)

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        before = cache_key("(f 1)", "kcfa", 1)
        monkeypatch.setattr("repro.cache.CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert cache_key("(f 1)", "kcfa", 1) != before

    def test_analyze_cli_and_service_share_keys(self):
        """`analyze --cache` entries must be reusable by the server
        (and vice versa): both derive the key from job_cache_key."""
        from repro.service.jobs import JobSpec, job_cache_key
        spec = JobSpec(source="(f 1)", analysis="kcfa", context=1)
        assert job_cache_key(spec) == cache_key(
            "(f 1)", "kcfa", 1,
            {"command": "analyze", "simplify": False,
             "report": "all"})


def _full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class _TornFile:
    """A cache temp file whose first write lands half its bytes and
    then fails, as a disk filling up mid-entry would."""

    def __init__(self, real):
        self._real = real
        self.name = real.name

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._real.close()
        return False

    def write(self, text):
        self._real.write(text[:len(text) // 2])
        self._real.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _inject_write_fault(fault, monkeypatch):
    import repro.cache as cache_module
    if fault == "replace-enospc":
        monkeypatch.setattr(cache_module.os, "replace", _full_disk)
    else:
        real = cache_module.tempfile.NamedTemporaryFile
        monkeypatch.setattr(
            cache_module.tempfile, "NamedTemporaryFile",
            lambda *args, **kwargs: _TornFile(real(*args, **kwargs)))


#: One cached command per front end that writes the result cache;
#: ``{src}`` is a Scheme file.
FRONT_ENDS = {
    "analyze": ["analyze", "{src}", "--analysis", "mcfa", "-n", "1"],
    "query": ["query", "{src}", "--kind", "call-graph",
              "--analysis", "kcfa", "-n", "1"],
    "bench": ["bench", "--programs", "eta", "--analyses", "zero",
              "--contexts", "0", "--serial", "--output", "-"],
}


def _timings_masked(text: str) -> str:
    return re.sub(r"\d+\.\d+s\b", "<t>s", text)


class TestWriteFaults:
    """A result-cache fault is a miss on every front end: the command
    prints what an uncached run prints and exits 0."""

    SOURCE = "(define (id x) x)\n(+ (id 3) (id 4))\n"

    def run_main(self, tmp_path, capsys, front_end, *extra):
        from repro.__main__ import main
        src = tmp_path / "p.scm"
        src.write_text(self.SOURCE, encoding="utf-8")
        argv = [arg.format(src=src) for arg in FRONT_ENDS[front_end]]
        capsys.readouterr()
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        return code, _timings_masked(captured.out), captured.err

    @pytest.mark.parametrize("fault", ("replace-enospc", "torn-write"))
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_failed_write_is_a_miss(self, front_end, fault, tmp_path,
                                    capsys, monkeypatch):
        _code, uncached, _err = self.run_main(tmp_path, capsys,
                                              front_end)
        cache_dir = tmp_path / "cache"
        _inject_write_fault(fault, monkeypatch)
        code, out, _err = self.run_main(tmp_path, capsys, front_end,
                                        "--cache-dir", str(cache_dir))
        monkeypatch.undo()
        assert code == 0
        assert out == uncached
        assert list(cache_dir.iterdir()) == []  # no entry, no temp

    def test_uncreatable_cache_dir_runs_uncached(self, tmp_path,
                                                 capsys):
        _code, uncached, _err = self.run_main(tmp_path, capsys,
                                              "analyze")
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        code, out, err = self.run_main(
            tmp_path, capsys, "analyze",
            "--cache-dir", str(blocker / "cache"))
        assert code == 0
        assert out == uncached
        assert err.startswith("warning: ")
        assert err.count("\n") == 1

    def test_put_counts_the_failure(self, cache, monkeypatch):
        monkeypatch.setattr("repro.cache.os.replace", _full_disk)
        key = cache_key("src", "kcfa", 1)
        assert cache.put(key, {"v": 1}) is None
        monkeypatch.undo()
        assert cache.stats.failed == 1
        assert cache.stats.writes == 0
        assert list(cache.directory.iterdir()) == []
        assert cache.get(key) is None


class TestInflightTable:
    def test_first_join_is_the_leader(self):
        from repro.cache import InflightTable
        table = InflightTable()
        assert table.join("k", "a") is True
        assert table.join("k", "b") is False
        assert table.join("other", "c") is True
        assert table.pending() == 2
        assert table.stats.leaders == 2
        assert table.stats.followers == 1

    def test_complete_pops_everyone_in_order(self):
        from repro.cache import InflightTable
        table = InflightTable()
        table.join("k", "a")
        table.join("k", "b")
        assert table.complete("k") == ["a", "b"]
        assert table.pending() == 0
        assert table.complete("k") == []

    def test_completed_key_restarts_fresh(self):
        from repro.cache import InflightTable
        table = InflightTable()
        table.join("k", "a")
        table.complete("k")
        assert table.join("k", "b") is True

    def test_concurrent_joins_elect_exactly_one_leader(self):
        import threading
        from repro.cache import InflightTable
        table = InflightTable()
        outcomes = []
        barrier = threading.Barrier(16)

        def contender(i):
            barrier.wait(timeout=30)
            outcomes.append(table.join("k", i))

        threads = [threading.Thread(target=contender, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sum(outcomes) == 1
        assert sorted(table.complete("k")) == list(range(16))
        assert table.stats.followers == 15


class TestAnalyzeCLI:
    SOURCE = "(define (id x) x)\n(+ (id 3) (id 4))\n"

    def run_analyze(self, tmp_path, capsys, *extra):
        from repro.__main__ import main
        src = tmp_path / "p.scm"
        src.write_text(self.SOURCE, encoding="utf-8")
        code = main(["analyze", str(src), "--analysis", "mcfa",
                     "-n", "1", *extra])
        captured = capsys.readouterr()
        return code, captured.out

    def test_cached_output_is_byte_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code, cold = self.run_analyze(tmp_path, capsys,
                                      "--cache-dir", cache_dir)
        assert code == 0
        code, warm = self.run_analyze(tmp_path, capsys,
                                      "--cache-dir", cache_dir)
        assert code == 0
        assert warm == cold
        code, uncached = self.run_analyze(tmp_path, capsys)
        assert uncached == cold

    def test_cache_dir_is_populated(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self.run_analyze(tmp_path, capsys, "--cache-dir",
                         str(cache_dir))
        assert list(cache_dir.glob("*.json"))


class TestBenchCLI:
    def test_quick_honors_cache_dir(self, tmp_path, capsys):
        from repro.__main__ import main
        cache_dir = tmp_path / "bench-cache"
        args = ["bench", "--quick", "--serial",
                "--cache-dir", str(cache_dir), "--output", "-"]
        assert main(args) == 0
        capsys.readouterr()
        entries = len(list(cache_dir.glob("*.json")))
        assert entries > 0
        assert main(args) == 0
        err = capsys.readouterr().err
        assert f"cache: {entries} hits, 0 misses" in err

    def test_batch_rows_marked_cached_on_hit(self, tmp_path):
        from repro.benchsuite.runner import BenchTask, run_batch
        from repro.cache import ResultCache
        cache = ResultCache(tmp_path / "c")
        tasks = [BenchTask(program="eta", analysis="zero",
                           parameter=0, timeout=10.0)]
        cold = run_batch(tasks, serial=True, cache=cache)
        assert not cold.rows[0].get("cached")
        warm = run_batch(tasks, serial=True, cache=cache)
        assert warm.rows[0]["cached"] is True
        assert warm.rows[0]["configs"] == cold.rows[0]["configs"]

    def test_timeouts_are_not_cached(self, tmp_path):
        from repro.benchsuite.runner import BenchTask, run_batch
        from repro.cache import ResultCache
        cache = ResultCache(tmp_path / "c")
        tasks = [BenchTask(program="worst9", analysis="kcfa",
                           parameter=1, timeout=0.0001)]
        report = run_batch(tasks, serial=True, cache=cache)
        assert report.rows[0]["status"] == "timeout"
        assert cache.stats.writes == 0

    def test_worst_case_programs_resolve(self):
        from repro.benchsuite.runner import (
            BenchTask, build_matrix, task_source,
        )
        tasks = build_matrix(["worst4"], ["kcfa", "fj-kcfa"], [1])
        assert [task.analysis for task in tasks] == ["kcfa"]
        assert "x4" in task_source(tasks[0])

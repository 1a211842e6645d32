"""Persistent result cache: analysis answers keyed by program content.

The serving pattern the ROADMAP aims at — the same queries arriving
again and again — never needs to re-run a fixpoint: an analysis is a
pure function of (program text, analysis name, context depth,
options).  This module memoizes that function on disk.

Key scheme
----------

A cache key is the SHA-256 of a canonical JSON document::

    {"schema": CACHE_SCHEMA_VERSION,
     "source_sha256": <hash of the exact program text>,
     "analysis": "kcfa", "parameter": 1,
     "options": {...sorted, analysis-relevant options only...}}

so any change to the program text, the analysis, the context depth or
a result-relevant option produces a different key.  Wall-clock
budgets are deliberately *not* part of the key: a completed result
does not depend on how long it was allowed to take (and timed-out
runs are never cached).

Invalidation rule
-----------------

``CACHE_SCHEMA_VERSION`` must be bumped whenever the meaning or shape
of cached payloads changes — a new analysis semantics, a changed
report format, different summary fields.  Old entries then miss (they
were written under a different schema) and are simply left behind;
``prune`` removes them.  Corrupt or truncated files are treated as
misses, never as errors, and so is a write that fails (full disk,
vanished or read-only directory): it is counted and the answer that
was to be stored stands.

Entries live one-per-file under the cache directory (default
``~/.cache/repro`` honoring ``XDG_CACHE_HOME``, or ``--cache-dir``),
written atomically via rename so concurrent readers never observe a
partial entry.

:class:`InflightTable` is the in-memory companion for concurrent
serving: it deduplicates identical requests that are *currently being
computed*, so a burst of the same question costs one analysis — the
disk cache then serves everything that arrives after the answer
lands.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

#: Bump when the cached payload format or analysis semantics change.
#: A change to the key's options needs no bump: every key changes
#: with it, so old entries simply miss.
#: v2: payloads may carry ``wall_seconds``.
#: v3: summaries gained ``mono_sites`` and payloads may carry a
#: client-query ``answer`` (see :mod:`repro.analysis.clients`).
CACHE_SCHEMA_VERSION = 3


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by default)."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro"


#: What a cache entry's filename stem looks like: a SHA-256 digest.
_KEY_SHAPED = re.compile(r"[0-9a-f]{64}")


def cache_key(source: str, analysis: str, parameter: int,
              options: Mapping | None = None) -> str:
    """The content-addressed key of one analysis question."""
    document = json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "source_sha256": hashlib.sha256(
            source.encode("utf-8")).hexdigest(),
        "analysis": analysis,
        "parameter": parameter,
        "options": dict(sorted((options or {}).items())),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one process's cache use."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    rejected: int = 0  # corrupt or schema-mismatched entries
    pruned: int = 0    # entries removed by prune()
    failed: int = 0    # writes lost to an OSError

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "rejected": self.rejected,
                "pruned": self.pruned, "failed": self.failed}


@dataclass
class ResultCache:
    """A directory of JSON analysis results, one file per key.

    Safe to share across threads (the analysis server's connection
    threads and pool callbacks all use one instance): entry files are
    written atomically via rename, and the stats counters are guarded
    by a lock so concurrent increments are never lost.
    """

    directory: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.directory = Path(self.directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str, count_miss: bool = True) -> dict | None:
        """The cached payload for *key*, or None.

        Corrupt files, foreign JSON and entries written under a
        different ``CACHE_SCHEMA_VERSION`` are all counted as misses
        (and as ``rejected``) — the cache never raises on bad data.
        ``count_miss=False`` keeps a miss out of the stats: for
        re-probes of a key already counted once (the server's leader
        re-check), so hit rates computed from the counters stay
        honest.  Hits always count.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            with self._stats_lock:
                self.stats.misses += count_miss
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            with self._stats_lock:
                self.stats.misses += count_miss
                self.stats.rejected += 1
            return None
        if not isinstance(entry, dict) \
                or entry.get("schema") != CACHE_SCHEMA_VERSION \
                or entry.get("key") != key \
                or "payload" not in entry:
            with self._stats_lock:
                self.stats.misses += count_miss
                self.stats.rejected += 1
            return None
        with self._stats_lock:
            self.stats.hits += 1
        return entry["payload"]

    def put(self, key: str, payload: dict) -> Path | None:
        """Store *payload* under *key* (atomic rename).

        A write that fails with an :class:`OSError` (full disk,
        vanished or read-only directory) is a lost entry, not an
        error: its temporary file is removed, ``stats.failed``
        counts it and None is returned, so every front end keeps the
        answer it computed.
        """
        path = self.path_for(key)
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key,
                 "payload": payload}
        try:
            handle = tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=self.directory,
                prefix=".tmp-", suffix=".json", delete=False)
            try:
                with handle:
                    json.dump(entry, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except OSError:
            with self._stats_lock:
                self.stats.failed += 1
            return None
        with self._stats_lock:
            self.stats.writes += 1
        return path

    def _entry_paths(self):
        """Key-shaped entry files only.

        The directory can also hold in-progress ``.tmp-*`` writes and
        foreign files; counting or pruning those would misreport the
        cache (and prune must never delete a file it does not own).
        A real entry's stem is a SHA-256 hex digest.
        """
        for path in self.directory.glob("*.json"):
            if _KEY_SHAPED.fullmatch(path.stem):
                yield path

    def prune(self) -> int:
        """Delete entries that no longer parse under the current
        schema; returns how many were removed (also accumulated in
        ``stats.pruned``)."""
        removed = 0
        for path in self._entry_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                keep = isinstance(entry, dict) and \
                    entry.get("schema") == CACHE_SCHEMA_VERSION
            except (json.JSONDecodeError, OSError, UnicodeDecodeError):
                keep = False
            if not keep:
                path.unlink(missing_ok=True)
                removed += 1
        with self._stats_lock:
            self.stats.pruned += removed
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())


@dataclass
class InflightStats:
    """Leader/follower accounting for one :class:`InflightTable`."""

    leaders: int = 0
    followers: int = 0

    def as_dict(self) -> dict:
        return {"leaders": self.leaders, "followers": self.followers}


class InflightTable:
    """Thread-safe registry of in-flight computations, by key.

    The read-through companion to :class:`ResultCache`: when the same
    question arrives twice before the first answer lands, the second
    caller should wait for the first run, not start another.  The
    first subscriber under a key becomes the *leader* (and should
    start the computation); later subscribers coalesce onto the same
    entry.  Whoever finishes calls :meth:`complete` to pop every
    subscriber and fan the one result out.

    The table stores opaque subscriber tokens — callbacks, queues,
    (connection, job-id) pairs — and never calls them itself, so it
    works for any completion style.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[object, list] = {}
        self.stats = InflightStats()

    def join(self, key, subscriber) -> bool:
        """Register *subscriber* under *key*; True iff it is the
        leader (first in, responsible for running the computation)."""
        with self._lock:
            waiters = self._entries.get(key)
            if waiters is None:
                self._entries[key] = [subscriber]
                self.stats.leaders += 1
                return True
            waiters.append(subscriber)
            self.stats.followers += 1
            return False

    def complete(self, key) -> list:
        """Pop and return every subscriber of *key* (leader first,
        then followers in arrival order); [] if the key is unknown."""
        with self._lock:
            return self._entries.pop(key, [])

    def pending(self) -> int:
        """How many keys are currently in flight."""
        with self._lock:
            return len(self._entries)


class ProgramCache:
    """Bounded LRU of *compiled* programs, keyed by content.

    The fleet's warm-worker store: each worker process keeps one of
    these so a repeat submission that misses the result cache (say,
    a different context depth over the same source) still skips
    parse/CPS-transform/boot.  The payoff compounds because the
    codegen tier caches its program fingerprint and per-lambda entry
    plans *on the Program object* (:mod:`repro.analysis.codegen`), so
    returning the same object also returns its already-built plans —
    the per-worker ``plans_reused`` stat the sharding tests observe
    counts exactly these hits.

    Keys are ``(language, sha256(source), simplify)``: everything
    that determines the compiled artifact and nothing that does not
    (analysis name, context depth and the report/values options all
    operate on the *same* compiled program).  For Scheme with
    ``simplify`` the post-simplification program is what's cached.

    Not thread-safe — each worker process owns exactly one, touched
    only from its job loop.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got "
                             f"{capacity}")
        self.capacity = capacity
        self._entries: dict[tuple, object] = {}  # insertion = LRU order
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(language: str, source: str, simplify: bool) -> tuple:
        return (language,
                hashlib.sha256(source.encode("utf-8")).hexdigest(),
                bool(simplify))

    def get(self, key: tuple):
        """The cached program, refreshed to most-recently-used, or
        None."""
        program = self._entries.pop(key, None)
        if program is None:
            self.misses += 1
            return None
        self._entries[key] = program  # re-insert at the MRU end
        self.hits += 1
        return program

    def put(self, key: tuple, program) -> None:
        self._entries.pop(key, None)
        self._entries[key] = program
        while len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def as_dict(self) -> dict:
        return {"size": len(self._entries), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


#: Bump whenever the shape of generated step-loop source changes —
#: emitter templates, the runtime-helper contract, or the meaning of
#: a kind string.  Stale modules then fail validation and regenerate.
CODEGEN_SCHEMA_VERSION = 6


def default_codegen_dir() -> Path:
    """Where generated step-loop modules live: next to the result
    cache (``~/.cache/repro/codegen``)."""
    return default_cache_dir() / "codegen"


class CodegenCache:
    """Disk + in-memory cache of generated step-loop modules.

    The codegen tier (:mod:`repro.analysis.codegen`) emits one Python
    module per ``(schema, kind, program)`` triple; emission walks the
    whole program and loading compiles the result, so a fleet
    worker's repeat jobs should pay both once.  Entries live
    one-per-file as ``<key>.py`` beside the result cache, written
    atomically, and an exec'd-namespace LRU keeps the hottest modules
    from even re-``exec``-ing.

    Honest invalidation: every generated module embeds its ``SCHEMA``
    and ``KEY``; :meth:`module_for` re-validates both after ``exec``,
    so a stale-schema file, a hand-edited module or a corrupt entry is
    counted ``rejected`` and regenerated in place — never served,
    never raised.  ``directory=None`` runs memory-only (tests, or
    ``--no-cache`` runs still get intra-process reuse).

    Not thread-safe — like :class:`ProgramCache`, each worker process
    owns exactly one.
    """

    def __init__(self, directory: Path | str | None = None,
                 capacity: int = 64, disk_capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got "
                             f"{capacity}")
        self.directory = None
        if directory is not None:
            self.directory = Path(directory).expanduser()
            self.directory.mkdir(parents=True, exist_ok=True)
        self.capacity = capacity
        self.disk_capacity = disk_capacity
        self._modules: dict[str, dict] = {}  # insertion = LRU order
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key}.py"

    def _validate(self, key: str, source: str) -> dict | None:
        """Exec *source* and return its namespace iff it is a
        well-formed generated module for *key* under the current
        schema; None (counted ``rejected``) otherwise."""
        namespace: dict = {}
        try:
            code = compile(source, f"<codegen {key[:12]}>", "exec")
            exec(code, namespace)
        except Exception:
            self.stats.rejected += 1
            return None
        if namespace.get("SCHEMA") != CODEGEN_SCHEMA_VERSION \
                or namespace.get("KEY") != key \
                or not callable(namespace.get("build")):
            self.stats.rejected += 1
            return None
        return namespace

    def _remember(self, key: str, namespace: dict) -> None:
        self._modules.pop(key, None)
        self._modules[key] = namespace
        while len(self._modules) > self.capacity:
            victim = next(iter(self._modules))
            del self._modules[victim]

    def module_for(self, key: str, generate) -> dict:
        """The exec'd namespace of the generated module for *key*,
        loading from disk when possible and calling ``generate()``
        (→ source text) only on a true miss.  Freshly generated
        source is validated too — a bad emitter is a bug, and raising
        here beats silently analyzing with the wrong loops."""
        namespace = self._modules.pop(key, None)
        if namespace is not None:
            self._modules[key] = namespace  # re-insert at MRU end
            self.stats.hits += 1
            return namespace
        path = self.path_for(key)
        if path is not None:
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                source = None
            if source is not None:
                namespace = self._validate(key, source)
                if namespace is not None:
                    self.stats.hits += 1
                    self._remember(key, namespace)
                    return namespace
        self.stats.misses += 1
        source = generate()
        namespace = self._validate(key, source)
        if namespace is None:
            raise RuntimeError(
                f"freshly generated codegen module failed validation "
                f"(key {key[:12]}…)")
        if path is not None:
            self._write(path, source)
        self._remember(key, namespace)
        return namespace

    def _write(self, path: Path, source: str) -> None:
        """Persist a module atomically.  A failed write (full disk,
        vanished or read-only directory) only loses the disk copy:
        the module still serves from memory, and the job goes on."""
        handle = None
        try:
            handle = tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=self.directory,
                prefix=".tmp-", suffix=".py", delete=False)
            with handle:
                handle.write(source)
            os.replace(handle.name, path)
            self.stats.writes += 1
        except OSError:
            self.stats.failed += 1
            if handle is not None:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass

    def _entry_paths(self):
        if self.directory is None:
            return
        for path in self.directory.glob("*.py"):
            if _KEY_SHAPED.fullmatch(path.stem):
                yield path

    def prune(self) -> int:
        """Delete stale-schema and corrupt modules, then LRU-cap the
        directory by mtime; returns how many files were removed."""
        removed = 0
        survivors = []
        for path in self._entry_paths():
            try:
                source = path.read_text(encoding="utf-8")
                keep = f"SCHEMA = {CODEGEN_SCHEMA_VERSION}\n" in source
            except (OSError, UnicodeDecodeError):
                keep = False
            if keep:
                survivors.append(path)
            else:
                path.unlink(missing_ok=True)
                removed += 1
        if len(survivors) > self.disk_capacity:
            survivors.sort(key=lambda path: path.stat().st_mtime)
            for path in survivors[:len(survivors) - self.disk_capacity]:
                path.unlink(missing_ok=True)
                removed += 1
        self.stats.pruned += removed
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def as_dict(self) -> dict:
        counters = self.stats.as_dict()
        counters["memory"] = len(self._modules)
        return counters


def open_cache(cache_dir: str | None, enabled: bool) -> \
        "ResultCache | None":
    """CLI helper: a cache when *enabled*, at *cache_dir* or the
    default location.  A directory that cannot be made runs the
    command uncached, with one warning line on stderr."""
    if not enabled:
        return None
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    try:
        return ResultCache(directory)
    except OSError as error:
        print(f"warning: result cache off: cannot create {directory}: "
              f"{error.strerror or error}", file=sys.stderr)
        return None

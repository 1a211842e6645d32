"""The traced run's span recorder, installed from outside the program.

Each layer boundary is a public function of the program.  For a traced
run, :class:`Tracer` replaces that function *at the name its caller
binds* (``specialize`` is imported by name into ``kcfa.py``,
``flat_machine.py``, ``fj/poly.py`` and ``pushdown.py``, so each of
those module attributes gets its own wrapper) and restores every
original on exit.  A wrapper records one span — name, start, end,
parent span, request id, and a few counts read off the return value —
in memory; spans are written out when the run ends.

A span's *self time* is its duration minus the part its child spans
cover.  Every span name belongs to one per-layer metric, so a job's
layer self times plus the root's own self time (the time no layer
claims, reported as ``job.unaccounted_ratio``) add up to the job's
wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter

#: span name → the per-layer metric its self time is charged to.
LAYER_OF = {
    "frontend.desugar": "frontend.desugar_ms",
    "frontend.alpha": "frontend.alpha_ms",
    "frontend.cps": "frontend.cps_ms",
    "frontend.simplify": "frontend.cps_ms",
    "frontend.fj_parse": "frontend.fj_parse_ms",
    "stage.specialize": "stage.specialize_ms",
    "stage.codegen_select": "stage.specialize_ms",
    "stage.codegen_emit": "stage.codegen_emit_ms",
    "stage.codegen_load": "stage.codegen_load_ms",
    "fixpoint": "fixpoint.ms",
    "results.package": "results.package_ms",
    "results.summary": "results.summary_ms",
    "clients.query": "clients.query_ms",
    "render": "render.ms",
    "rcache.get": "rcache.get_ms",
    "rcache.put": "rcache.put_ms",
    "rcache.key": "rcache.key_ms",
    "incremental.align": "incremental.align_ms",
    "incremental.closure": "incremental.closure_ms",
    "incremental.fixpoint": "incremental.fixpoint_ms",
    "incremental.edit": "incremental.rerender_ms",
    "protocol.encode": "protocol.encode_ms",
    "protocol.decode": "protocol.decode_ms",
    "protocol.validate": "protocol.decode_ms",
}


def _steps(args, run):
    return {"steps": run.steps, "requeues": run.requeues}


def _rendered(args, text):
    return {"bytes": len(text.encode("utf-8"))}


def _program(args, program):
    # Node counting walks the tree: keep the object, count after the
    # job (see Tracer.finish_request) so it never lands in a span.
    return {"program": program}


def _hit(args, payload):
    return {"hit": int(payload is not None)}


#: (module, attribute, span name, note) for every job-side boundary.
#: ``Class.method`` attributes patch the class.
JOB_BINDINGS = (
    ("repro.scheme.cps_transform", "desugar_program",
     "frontend.desugar", None),
    ("repro.scheme.cps_transform", "alpha_rename", "frontend.alpha",
     None),
    ("repro.scheme.cps_transform", "cps_convert", "frontend.cps",
     _program),
    ("repro.cps.simplify", "simplify_program", "frontend.simplify",
     None),
    ("repro.fj", "parse_fj", "frontend.fj_parse", None),
    ("repro.analysis.engine", "specialize", "stage.specialize", None),
    ("repro.analysis.kcfa", "specialize", "stage.specialize", None),
    ("repro.analysis.flat_machine", "specialize", "stage.specialize",
     None),
    ("repro.analysis.pushdown", "specialize", "stage.specialize", None),
    ("repro.fj.poly", "specialize", "stage.specialize", None),
    ("repro.analysis.flat_machine", "codegen_stage",
     "stage.codegen_select", None),
    ("repro.fj.poly", "codegen_stage", "stage.codegen_select", None),
    ("repro.analysis.codegen", "generate_source", "stage.codegen_emit",
     None),
    ("repro.cache", "CodegenCache.module_for", "stage.codegen_load",
     None),
    ("repro.analysis.engine", "run_single_store", "fixpoint", _steps),
    ("repro.analysis.kcfa", "run_single_store", "fixpoint", _steps),
    ("repro.analysis.kcfa", "run_naive", "fixpoint", _steps),
    ("repro.analysis.gc", "run_naive", "fixpoint", _steps),
    ("repro.analysis.flat_machine", "run_single_store", "fixpoint",
     _steps),
    ("repro.analysis.pushdown", "run_single_store", "fixpoint", _steps),
    ("repro.fj.kcfa", "run_single_store", "fixpoint", _steps),
    ("repro.fj.poly", "run_single_store", "fixpoint", _steps),
    ("repro.fj.gc", "run_naive", "fixpoint", _steps),
    ("repro.analysis.kcfa", "result_from_run", "results.package", None),
    ("repro.analysis.flat_machine", "result_from_run",
     "results.package", None),
    ("repro.analysis.pushdown", "result_from_run", "results.package",
     None),
    ("repro.analysis.gc", "result_from_run", "results.package", None),
    ("repro.analysis.incremental", "result_from_run",
     "results.package", None),
    ("repro.fj.kcfa", "fj_result_from_run", "results.package", None),
    ("repro.fj.poly", "fj_result_from_run", "results.package", None),
    ("repro.fj.gc", "fj_result_from_run", "results.package", None),
    ("repro.analysis.results", "AnalysisResult.summary",
     "results.summary", None),
    ("repro.fj.kcfa", "FJResult.summary", "results.summary", None),
    ("repro.service.jobs", "run_result_query", "clients.query", None),
    ("repro.service.jobs", "render_reports", "render", _rendered),
    ("repro.service.jobs", "render_fj_reports", "render", _rendered),
    ("repro.service.jobs", "job_cache_key", "rcache.key", None),
    ("repro.cache", "ResultCache.get", "rcache.get", _hit),
    ("repro.cache", "ResultCache.put", "rcache.put", None),
    ("repro.analysis.incremental", "align_program",
     "incremental.align", None),
    ("repro.analysis.incremental", "affected_closure",
     "incremental.closure", None),
    ("repro.analysis.incremental", "run_single_store",
     "incremental.fixpoint", _steps),
    ("repro.analysis.incremental", "AnalysisSession.edit",
     "incremental.edit", None),
)

#: The front door's own boundaries (live in-process server).
SERVER_BINDINGS = (
    ("repro.service.server", "decode_message", "protocol.decode", None),
    ("repro.service.server", "encode_message", "protocol.encode", None),
    ("repro.service.server", "submit_spec", "protocol.validate", None),
    ("repro.service.server", "job_cache_key", "rcache.key", None),
    ("repro.cache", "ResultCache.get", "rcache.get", _hit),
    ("repro.cache", "ResultCache.put", "rcache.put", None),
    ("repro.service.server", "AnalysisServer._dispatch",
     "service.handle", None),
    ("repro.service.server", "AnalysisServer._on_result",
     "service.result", None),
)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans in memory: ``[name, start, end, parent, request, note]``,
    with parents as indices into :attr:`spans`."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self.request = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function, note=None):
        spans = self.spans
        stack_of = self._stack
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    @contextmanager
    def installed(self, bindings):
        """Patch every binding for the duration of the block."""
        saved = []
        try:
            for module_name, attribute, name, note in bindings:
                owner, attr = _resolve(module_name, attribute)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, request, name: str, function, *args):
        """Run *function* as the root span of one request."""
        self.request = request
        try:
            return self.wrap(name, function)(*args)
        finally:
            self.request = None

    def finish_request(self, first: int) -> None:
        """Post-process notes of spans recorded since index *first*
        (outside any timed region)."""
        for span in self.spans[first:]:
            note = span[5]
            if note and "program" in note:
                program = note.pop("program")
                note["cps_nodes"] = program.term_count()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def layer_totals(spans: list[list], roots: set[str]
                 ) -> tuple[dict, dict[int, dict]]:
    """Per-layer sums over every root span named in *roots* (self
    times in ms, counts, and the roots' wall and unaccounted time),
    and per root span index its own layer self times in ms."""
    own = self_times(spans)
    root_of = [-1] * len(spans)
    totals: dict[str, float] = {"job.count": 0, "job.wall_ms": 0.0,
                                "job.unaccounted_ms": 0.0}
    per_root: dict[int, dict[str, float]] = {}
    for index, span in enumerate(spans):
        parent = span[3]
        if parent < 0:
            if span[0] not in roots:
                continue
            root_of[index] = index
            per_root[index] = {}
            totals["job.count"] += 1
            totals["job.wall_ms"] += (span[2] - span[1]) * 1000.0
            totals["job.unaccounted_ms"] += own[index] * 1000.0
            continue
        root = root_of[parent]
        root_of[index] = root
        if root < 0:
            continue
        metric = LAYER_OF.get(span[0])
        if metric is not None:
            totals[metric] = totals.get(metric, 0.0) + own[index] * 1000.0
            layers = per_root[root]
            layers[metric] = layers.get(metric, 0.0) + own[index] * 1000.0
        else:  # an unmapped span: its time stays unaccounted
            totals["job.unaccounted_ms"] += own[index] * 1000.0
        note = span[5]
        if note:
            for key, value in note.items():
                counter = _COUNTERS.get((span[0], key))
                if counter is not None:
                    totals[counter] = totals.get(counter, 0) + value
        if span[0] == "rcache.get":
            totals["rcache.gets"] = totals.get("rcache.gets", 0) + 1
        elif span[0] == "stage.codegen_load":
            totals["stage.codegen_loads"] = \
                totals.get("stage.codegen_loads", 0) + 1
        elif span[0] == "stage.codegen_emit":
            totals["stage.codegen_emits"] = \
                totals.get("stage.codegen_emits", 0) + 1
    return totals, per_root


_COUNTERS = {
    ("fixpoint", "steps"): "fixpoint.steps",
    ("fixpoint", "requeues"): "fixpoint.requeues",
    ("incremental.fixpoint", "steps"): "incremental.steps",
    ("render", "bytes"): "render.bytes",
    ("frontend.cps", "cps_nodes"): "frontend.cps_nodes",
    ("rcache.get", "hit"): "rcache.hits",
}


#: Spans beyond this many are counted but not written out.
DUMP_LIMIT = 50_000


def dump(spans: list[list], path) -> None:
    """Write spans as JSON lines (times in µs from the first span)."""
    base = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, request, note) in \
                enumerate(spans[:DUMP_LIMIT]):
            row = {"id": index, "name": name, "parent": parent,
                   "request": getattr(request, "cell_id", request),
                   "start_us": round((start - base) * 1e6, 1),
                   "end_us": round((end - base) * 1e6, 1)}
            if note:
                row["note"] = note
            handle.write(json.dumps(row, sort_keys=True) + "\n")

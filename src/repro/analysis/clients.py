"""Client-analysis passes over any analysis result.

The paper's argument is that context-sensitivity choices matter to a
*compiler client* — which call sites are monomorphic, which closures
escape, what can be devirtualized or inlined — not to the store-size
bean counter.  This module is that client: a pass framework consuming
any :class:`~repro.analysis.results.AnalysisResult` (every Scheme
policy × both value domains × all three environment representations)
or :class:`~repro.fj.kcfa.FJResult` (the whole FJ family) and deriving
compiler facts from it:

* ``call-graph`` — per-call-site target sets with a ``Known`` /
  ``Unknown`` lattice à la Manticore's CFACFG, exportable as DOT and
  JSON;
* ``escaping`` — closures reaching the heap, the halt continuation
  (a return), or an argument of an unknown call;
* ``mono`` — monomorphic call sites (exactly one known target);
* ``devirt`` — FJ devirtualization candidates (receiver class sets of
  size one);
* ``inlining`` — the §6.2 inlining advisor (single known *user*
  callee), promoted from ``examples/inlining_advisor.py``.

Passes are pure functions of the result object, so they are
registry-driven for free: anything :func:`~repro.analysis.registry.
run_analysis` returns can be queried.  Answers are JSON-safe by
construction — string-keyed dicts and sorted lists only, never sets
and never int-keyed dicts (``json.dumps(sort_keys=True)`` orders int
keys numerically in-process but lexicographically after a wire round
trip, which would break the batch ≡ service byte-identity guarantee).

The three PR-8 *point* queries (``value-of``, ``call-sites-of``,
``escaping <label>``) also live here, verbatim, so
:class:`~repro.analysis.incremental.AnalysisSession` objects and the
batch path answer from one implementation.
"""

from __future__ import annotations

from repro.cps.syntax import AppCall, HaltCall, Lam, Ref
from repro.errors import UsageError

__all__ = [
    "BATCH_KINDS", "PASS_KINDS", "SESSION_KINDS",
    "call_sites_of", "escaping_point", "parse_label",
    "run_result_query", "validate_query", "value_of",
]

#: Whole-result passes (no session required).
PASS_KINDS = ("call-graph", "escaping", "mono", "devirt", "inlining")

#: Kinds `python -m repro query --kind ...` (and the sessionless
#: service op) accept: every pass plus the store-only point query.
BATCH_KINDS = ("call-graph", "escaping", "mono", "devirt", "inlining",
               "value-of")

#: Kinds a session accepts: the point queries plus every
#: pass a Scheme result supports.
SESSION_KINDS = ("value-of", "call-sites-of", "escaping", "call-graph",
                 "mono", "inlining")

#: Point queries that demand a target.
TARGET_REQUIRED = ("value-of", "call-sites-of")

#: Whole-result passes that take none.
TARGET_FORBIDDEN = ("call-graph", "mono", "devirt", "inlining")

#: kind → languages it applies to.
_KIND_LANGUAGES = {
    "call-graph": ("scheme", "fj"),
    "mono": ("scheme", "fj"),
    "value-of": ("scheme", "fj"),
    "devirt": ("fj",),
    "escaping": ("scheme",),
    "inlining": ("scheme",),
    "call-sites-of": ("scheme",),
}


def validate_query(kind: str, target: str | None = None, *,
                   session: bool = False,
                   language: str | None = None) -> None:
    """One gate for every query entry point (CLI, service, session).

    Raises :class:`~repro.errors.UsageError` — one line, exit 2 — on
    an unknown kind, a kind/language mismatch, a missing target, or a
    spurious one.
    """
    valid = SESSION_KINDS if session else BATCH_KINDS
    if kind not in valid:
        raise UsageError(f"unknown query {kind!r}; choose from "
                         f"{', '.join(valid)}")
    if language is not None and language not in _KIND_LANGUAGES[kind]:
        raise UsageError(
            f"query {kind!r} is not available for {language} programs")
    if kind in TARGET_REQUIRED and not target:
        raise UsageError(f"query {kind!r} requires a target")
    if kind in TARGET_FORBIDDEN and target:
        raise UsageError(f"query {kind!r} takes no target")
    if kind == "escaping" and target and not session:
        raise UsageError(
            "query 'escaping' takes no target in batch mode; "
            "the pass reports every escaping lambda")


def parse_label(target: str) -> int:
    """A lambda-label target, or a one-line :class:`UsageError`."""
    try:
        return int(target)
    except (TypeError, ValueError):
        raise UsageError(
            f"query target {target!r} is not a lambda label") \
            from None


# ---------------------------------------------------------------------------
# Point queries (the PR-8 session ops, verbatim)
# ---------------------------------------------------------------------------

def value_of(store, name: str) -> dict:
    """Values flowing to *name*, joined over contexts."""
    from repro.reporting import render_value
    values: set = set()
    variables: set = set()
    contexts = 0
    for (addr_name, _context), flow in store.items():
        # The compiler uniquifies user binders (`x` → `x%2`), so
        # match the base name too: a user asks about the variable
        # they wrote, not the alpha-renamed one.  An exact match
        # still works for internal names (`rv%6`, `car@6`).
        if addr_name != name \
                and addr_name.split("%", 1)[0] != name:
            continue
        variables.add(addr_name)
        contexts += 1
        values |= flow
    return {"query": "value-of", "target": name,
            "variables": sorted(variables),
            "contexts": contexts,
            "values": sorted(render_value(v) for v in values)}


def _lam_labels(store, mask) -> set:
    labels = set()
    for value in store.table.decode_iter(mask):
        lam = getattr(value, "lam", None)
        if lam is not None:
            labels.add(lam.label)
    return labels


def call_sites_of(machine, store, configs, label: int) -> dict:
    """Call sites whose operator may be the lambda at *label*."""
    sites = set()
    probed = 0
    for config in configs:
        call = config.call
        if not isinstance(call, AppCall):
            continue
        probed += 1
        mask = machine.evaluate(call.fn, config, store, set())
        if label in _lam_labels(store, mask):
            sites.add(call.label)
    return {"query": "call-sites-of", "target": label,
            "sites": sorted(sites), "probed": probed}


def escaping_point(machine, store, configs, label: int) -> dict:
    """May the lambda at *label* reach halt or a heap cell?"""
    to_halt = set()
    for config in configs:
        call = config.call
        if isinstance(call, HaltCall):
            mask = machine.evaluate(call.arg, config, store, set())
            to_halt |= _lam_labels(store, mask)
    to_heap = set()
    for (name, _context), flow in store.items():
        if "@" not in name:
            continue
        for value in flow:
            lam = getattr(value, "lam", None)
            if lam is not None:
                to_heap.add(lam.label)
    return {"query": "escaping", "target": label,
            "escaping": label in to_halt or label in to_heap,
            "to_halt": label in to_halt, "to_heap": label in to_heap}


# ---------------------------------------------------------------------------
# The call-graph pass (Known/Unknown lattice, DOT + JSON)
# ---------------------------------------------------------------------------

TOPLEVEL = "<toplevel>"   # the program body outside every lambda
UNKNOWN = "<unknown>"     # the target of a site where ⊤ flowed


def _owner_node(owner) -> str:
    return TOPLEVEL if owner is None else f"lam@{owner}"


def _dot_graph(nodes: list[str], edges: list[dict],
               boxes: frozenset[str]) -> str:
    """Render a deterministic DOT digraph (nodes/edges pre-sorted)."""
    lines = ["digraph callgraph {"]
    for node in nodes:
        shape = " [shape=box]" if node in boxes else ""
        lines.append(f'  "{node}"{shape};')
    for edge in edges:
        lines.append(f'  "{edge["source"]}" -> "{edge["target"]}" '
                     f'[label="{edge["call"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _call_graph_scheme(result) -> dict:
    owner = result.call_owner_map()
    unknown = result.unknown_operator
    labels = sorted(set(result.callees) | set(unknown))
    sites = []
    edges = []
    nodes: set = set()
    for label in labels:
        source = _owner_node(owner.get(label))
        nodes.add(source)
        targets = sorted(lam.label
                         for lam in result.callees.get(label, ()))
        for target in targets:
            node = f"lam@{target}"
            nodes.add(node)
            edges.append({"source": source, "target": node,
                          "call": label})
        if label in unknown:
            nodes.add(UNKNOWN)
            edges.append({"source": source, "target": UNKNOWN,
                          "call": label})
        sites.append({
            "site": label, "owner": source,
            "lattice": "Unknown" if label in unknown else "Known",
            "targets": targets})
    edges.sort(key=lambda e: (e["source"], e["target"], e["call"]))
    node_list = sorted(nodes)
    return {
        "query": "call-graph",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "scheme",
        "nodes": node_list, "sites": sites, "edges": edges,
        "known_sites": sum(1 for s in sites
                           if s["lattice"] == "Known"),
        "unknown_sites": sum(1 for s in sites
                             if s["lattice"] == "Unknown"),
        "dot": _dot_graph(node_list, edges,
                          frozenset((TOPLEVEL, UNKNOWN))),
    }


def _call_graph_fj(result) -> dict:
    program = result.program
    sites = []
    edges = []
    nodes: set = set()
    for label in sorted(result.invoke_targets):
        source = program.method_of_label[label].qualified_name
        nodes.add(source)
        targets = sorted(result.invoke_targets[label])
        for target in targets:
            nodes.add(target)
            edges.append({"source": source, "target": target,
                          "call": label})
        sites.append({"site": label, "owner": source,
                      "lattice": "Known", "targets": targets})
    edges.sort(key=lambda e: (e["source"], e["target"], e["call"]))
    node_list = sorted(nodes)
    return {
        "query": "call-graph",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "fj",
        "nodes": node_list, "sites": sites, "edges": edges,
        "known_sites": len(sites), "unknown_sites": 0,
        "dot": _dot_graph(node_list, edges, frozenset()),
    }


# ---------------------------------------------------------------------------
# The escape-analysis pass (Scheme)
# ---------------------------------------------------------------------------

def _closure_labels(values) -> set:
    labels = set()
    for value in values:
        lam = getattr(value, "lam", None)
        if lam is not None:
            labels.add(lam.label)
    return labels


def _escaping_pass(result) -> dict:
    """Closures reaching halt, a heap cell, or an unknown call.

    * **halt** — the closure is (part of) the program's answer; a
      caller the analysis cannot see may apply it.
    * **heap** — the closure was stored into a pair cell (the
      synthetic ``car@l``/``cdr@l`` addresses), so any consumer of
      the heap may retrieve and apply it.
    * **unknown-call** — the closure is an argument at a call site
      whose operator abstracted to ⊤: the callee is unknown, so the
      argument must be assumed to escape.
    """
    to_halt = _closure_labels(result.halt_values)
    to_heap: set = set()
    for (name, _context), flow in result.store.items():
        if "@" in name:
            to_heap |= _closure_labels(flow)
    to_unknown: set = set()
    calls = result.program.calls_by_label
    for label in result.unknown_operator:
        call = calls.get(label)
        if not isinstance(call, AppCall):
            continue
        for arg in call.args:
            if isinstance(arg, Lam):
                to_unknown.add(arg.label)
            elif isinstance(arg, Ref):
                to_unknown |= _closure_labels(result.flow_of(arg.name))
    escaping = sorted(to_halt | to_heap | to_unknown)
    channels = {label: sorted(
        (["halt"] if label in to_halt else [])
        + (["heap"] if label in to_heap else [])
        + (["unknown-call"] if label in to_unknown else []))
        for label in escaping}
    return {
        "query": "escaping",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "scheme",
        "escaping": escaping,
        "lambdas": [{"lam": label, "channels": channels[label]}
                    for label in escaping],
        "to_halt": sorted(to_halt), "to_heap": sorted(to_heap),
        "to_unknown": sorted(to_unknown),
        "total_lambdas": len(result.program.lams),
    }


# ---------------------------------------------------------------------------
# Monomorphic sites, devirtualization, inlining
# ---------------------------------------------------------------------------

def _mono_scheme(result) -> dict:
    sites = []
    for label in result.monomorphic_call_sites():
        (lam,) = result.callees[label]
        sites.append({"site": label, "target": lam.label,
                      "kind": "user" if lam.is_user else "cont"})
    return {
        "query": "mono",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "scheme",
        "sites": sites, "count": len(sites),
        "total_sites": len(set(result.callees)
                           | set(result.unknown_operator)),
    }


def _mono_fj(result) -> dict:
    sites = []
    for label in result.monomorphic_call_sites():
        (target,) = result.invoke_targets[label]
        sites.append({"site": label, "target": target})
    return {
        "query": "mono",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "fj",
        "sites": sites, "count": len(sites),
        "total_sites": len(result.invoke_targets),
    }


def _devirt_fj(result) -> dict:
    """Invocation sites whose receiver class set has size one.

    A monomorphic *receiver* is the devirtualization criterion: the
    dynamic dispatch can be replaced by a direct call to the method
    the single class resolves, even when several *method* targets
    were merged at the site by context merging.
    """
    program = result.program
    candidates = []
    for label in sorted(result.invoke_targets):
        exp = program.stmt_by_label[label].exp
        receivers = sorted({value.classname
                            for value in result.points_to(exp.target)})
        if len(receivers) != 1:
            continue
        candidates.append({
            "site": label, "receiver": receivers[0],
            "method": exp.method,
            "targets": sorted(result.invoke_targets[label])})
    return {
        "query": "devirt",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "fj",
        "candidates": candidates, "count": len(candidates),
        "total_sites": len(result.invoke_targets),
    }


def _inlining_scheme(result) -> dict:
    """The §6.2 advisor: single known *user* callee per site."""
    sites = []
    calls = result.program.calls_by_label
    for label in result.inlinable_call_sites():
        (lam,) = result.callees[label]
        sites.append({"site": label, "callee": lam.label,
                      "operator": str(calls[label].fn)})
    return {
        "query": "inlining",
        "analysis": result.analysis, "parameter": result.parameter,
        "language": "scheme",
        "sites": sites, "count": len(sites),
    }


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------

def run_result_query(result, kind: str, target: str | None = None
                     ) -> dict:
    """Answer a batch query against a finished analysis result.

    *result* is an :class:`~repro.analysis.results.AnalysisResult` or
    an :class:`~repro.fj.kcfa.FJResult`; the language is detected from
    the result itself, so registry consumers need no dispatch of
    their own.
    """
    fj = hasattr(result, "invoke_targets")
    language = "fj" if fj else "scheme"
    validate_query(kind, target, session=False, language=language)
    if kind == "value-of":
        return value_of(result.store, target)
    if kind == "call-graph":
        return _call_graph_fj(result) if fj \
            else _call_graph_scheme(result)
    if kind == "mono":
        return _mono_fj(result) if fj else _mono_scheme(result)
    if kind == "devirt":
        return _devirt_fj(result)
    if kind == "escaping":
        return _escaping_pass(result)
    return _inlining_scheme(result)

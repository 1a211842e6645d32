"""Analysis results: flow sets, call graphs, environment counts.

Every functional analysis (k-CFA, m-CFA, polynomial k-CFA, 0CFA)
returns an :class:`AnalysisResult`.  The container exposes the
quantities the paper's evaluation talks about:

* ``callees_of`` / ``supported_inlinings`` — the §6.2 precision metric
  ("number of inlinings supported": call sites whose operator flows to
  exactly one lambda);
* ``environment_counts`` — how many distinct abstract environments each
  lambda body is analyzed in; the O(N+M) vs. O(N·M) quantity of
  Figures 1 and 2;
* ``flow_of`` — the abstract values a variable may take, joined over
  contexts (the classic CFA answer);
* ``reached_top`` style size accounting for the worst-case table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.cps.program import Program
from repro.cps.syntax import Lam
from repro.analysis.domains import AbsStore, AbsVal, FClo, KClo, \
    SClo, SCont

if TYPE_CHECKING:
    import networkx


@dataclass
class AnalysisResult:
    """Everything an abstract interpreter learned about a program."""

    program: Program
    analysis: str                     # e.g. "k-CFA", "m-CFA"
    parameter: int                    # the k or m
    store: AbsStore
    config_count: int                 # reachable configurations
    callees: dict[int, frozenset[Lam]]       # call label → applied lams
    unknown_operator: frozenset[int]  # call labels where ⊤basic flowed
    entries: dict[int, frozenset]     # lam label → entry environments
    halt_values: frozenset
    steps: int                        # transfer-function applications
    elapsed: float = 0.0
    timed_out: bool = False
    state_count: int = 0              # naive engine only: |states|
    configs: frozenset = frozenset()  # reachable configurations
    #: Which step loop produced this result — ``generic``,
    #: ``specialized:<name>`` or ``codegen:<name>`` (see
    #: :data:`repro.analysis.engine.TIERS`).  Not part of
    #: :meth:`summary`: every path is byte-identical, so the path is
    #: provenance, not a result; bench and job rows record it
    #: instead.
    engine_path: str = "generic"

    # -- flow queries ------------------------------------------------------

    def flow_of(self, name: str) -> frozenset[AbsVal]:
        """Values that may bind to *name*, joined over all contexts."""
        values: set[AbsVal] = set()
        for (addr_name, _context), addr_values in self.store.items():
            if addr_name == name:
                values |= addr_values
        return frozenset(values)

    def lambdas_of(self, name: str) -> frozenset[Lam]:
        """Lambdas that may bind to *name* (closures only)."""
        return frozenset(value.lam for value in self.flow_of(name)
                         if isinstance(value,
                                       (KClo, FClo, SClo, SCont)))

    def callees_of(self, label: int) -> frozenset[Lam]:
        """Lambdas applied at the call site with this label."""
        return self.callees.get(label, frozenset())

    # -- the §6.2 precision metric ------------------------------------------

    def supported_inlinings(self, include_cont: bool = False) -> int:
        """Call sites whose operator resolves to exactly one lambda.

        By default only *user-procedure* call sites count — inlining a
        continuation invocation is a return-point optimization, not the
        function inlining the paper's metric describes.
        """
        return len(self.inlinable_call_sites(include_cont))

    def inlinable_call_sites(self,
                             include_cont: bool = False) -> list[int]:
        sites = []
        for label in self.program.app_call_labels():
            if label in self.unknown_operator:
                continue
            callees = self.callees.get(label)
            if not callees or len(callees) != 1:
                continue
            (lam,) = callees
            if lam.is_user or include_cont:
                sites.append(label)
        return sorted(sites)

    def reachable_call_sites(self) -> frozenset[int]:
        return frozenset(self.callees)

    def monomorphic_call_sites(self) -> list[int]:
        """Known call sites with exactly one callee (continuations
        included — the client passes distinguish the kinds)."""
        return sorted(label for label, callees in self.callees.items()
                      if label not in self.unknown_operator
                      and len(callees) == 1)

    # -- the Figure 1/2 environment metric ------------------------------------

    def environment_count(self, lam: Lam) -> int:
        """Distinct abstract environments analyzing *lam*'s body."""
        return len(self.entries.get(lam.label, frozenset()))

    def environment_counts(self) -> dict[int, int]:
        """lam label → entry-environment count, for every lambda."""
        return {label: len(envs) for label, envs in self.entries.items()}

    def total_environments(self) -> int:
        """Σ over lambdas of entry-environment counts.

        This is the quantity that is polynomial for m-CFA but can grow
        exponentially for k-CFA (k ≥ 1) on the worst-case terms.
        """
        return sum(len(envs) for envs in self.entries.values())

    # -- call graph ------------------------------------------------------------

    def call_graph(self) -> "networkx.MultiDiGraph":
        """Lambda-level call graph: an edge lam₁ → lam₂ labeled with the
        call site means lam₁'s body contains a site applying lam₂.

        ``networkx`` is imported here, not at module level: no job
        path needs it, and importing it costs more than the rest of
        the analysis package together."""
        import networkx
        graph = networkx.MultiDiGraph()
        owner = self._call_owner_map()
        for label, callees in self.callees.items():
            source = owner.get(label)
            for callee in callees:
                graph.add_edge(
                    source if source is not None else "<toplevel>",
                    callee.label, call=label)
        return graph

    def call_owner_map(self) -> dict[int, int]:
        """Call label → label of the lambda whose body contains it.

        Labels of the top-level body are absent — a client reads a
        missing entry as ``<toplevel>`` (see
        :mod:`repro.analysis.clients`).
        """
        return self._call_owner_map()

    def _call_owner_map(self) -> dict[int, int]:
        """Call label → label of the lambda whose body contains it."""
        from repro.cps.syntax import call_children
        owner: dict[int, int] = {}

        def assign(call, lam_label):
            stack = [call]
            while stack:
                node = stack.pop()
                owner[node.label] = lam_label
                stack.extend(call_children(node))

        for lam in self.program.lams:
            assign(lam.body, lam.label)
        return owner

    # -- size accounting ---------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """A row for benchmark tables."""
        return {
            "analysis": self.analysis,
            "parameter": self.parameter,
            "terms": self.program.term_count(),
            "configs": self.config_count,
            "store_entries": len(self.store),
            "store_values": self.store.total_values(),
            "environments": self.total_environments(),
            "inlinings": self.supported_inlinings(),
            "mono_sites": len(self.monomorphic_call_sites()),
            "steps": self.steps,
            "elapsed": round(self.elapsed, 6),
            "timed_out": self.timed_out,
        }

    def __repr__(self) -> str:
        status = "TIMEOUT" if self.timed_out else "ok"
        return (f"<{self.analysis}({self.parameter}) {status} "
                f"configs={self.config_count} "
                f"store={len(self.store)} steps={self.steps}>")


def merge_callee_maps(maps: Iterable[Mapping[int, Iterable[Lam]]]
                      ) -> dict[int, frozenset[Lam]]:
    """Union per-label callee maps (used by the naive engine)."""
    merged: dict[int, set[Lam]] = {}
    for mapping in maps:
        for label, lams in mapping.items():
            merged.setdefault(label, set()).update(lams)
    return {label: frozenset(lams) for label, lams in merged.items()}

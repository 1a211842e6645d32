"""The benchmark's inputs: cells, seeded request streams and the
frozen expected digests every response is checked against.

A *cell* is one analysis question: a program (a §6.2 suite name, a
worst-case ladder rung, an FJ chain, a seeded random FJ program or an
FJ example), an analysis, its context depth and an optional client
query.  Edited cells add one replaced integer literal: the base
program with its ``pos``-th code literal (from :func:`code_literals`)
replaced by ``value``.

Everything the program under test sees is generated here from the
workload seed; the seed only picks among a fixed, frozen space of
inputs (which fjrand programs, the key draw order, the edit stream),
so every possible input has an expected report digest in
``expected.json`` (see ``freeze.py``).  That file also pins which
literal sites ``edit-stream`` edits: only sites where every edit
changes the report, so a dropped or stale edit cannot pass the check.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

SUITE = ("eta", "map", "sat", "regex", "interp", "scm2java", "scm2c")
FJ_EXAMPLES = ("pairs", "dispatch", "linked_list", "oo_identity",
               "anf_example")

#: fjrand<seed> programs a run may draw; every one is frozen.
FJRAND_POOL = tuple(range(1, 13))
FJRAND_PER_RUN = 3

#: Client-query cells of the cold mix: (program, analysis, k, kind).
QUERY_CELLS = (
    ("eta", "kcfa", 1, "call-graph"),
    ("map", "mcfa", 1, "call-graph"),
    ("sat", "poly", 1, "call-graph"),
    ("scm2java", "zero", 1, "call-graph"),
    ("worst8", "mcfa", 1, "call-graph"),
    ("pairs", "fj-mcfa", 1, "devirt"),
    ("dispatch", "fj-hybrid", 1, "devirt"),
    ("fjchain20", "fj-poly", 0, "devirt"),
)

#: Analyses the fleet workloads draw keys from.
FLEET_ANALYSES = (("mcfa", 1), ("poly", 1), ("zero", 1))

#: Session analyses of ``edit-stream``.  ``zero`` runs at depth 0: a
#: session renders its header as ``0CFA(<depth>)`` while a cold job
#: always prints ``0CFA(0)``, so ``zero`` at depth 1 would differ from
#: the cold report in its headers alone.
SESSION_ANALYSES = (("kcfa", 1), ("mcfa", 1), ("poly", 1), ("zero", 0))

#: Per program, at most this many literal sites are editable, spread
#: evenly over the sites ``freeze.py`` finds effective; each edit adds
#: one of EDIT_DELTAS to the literal.
EDIT_SITES = 6
EDIT_DELTAS = (1, 2, 5)

_DELIMITERS = frozenset(" \t\n\r\f()[]'`,\";")
_INTEGER = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class Cell:
    program: str
    analysis: str
    context: int
    query: str | None = None
    edit: tuple[int, int] | None = None  # (literal site, new value)

    @property
    def cell_id(self) -> str:
        name = self.program
        if self.edit is not None:
            name += f"@{self.edit[0]}={self.edit[1]}"
        tail = f"?{self.query}" if self.query else ""
        return f"{name}:{self.analysis}({self.context}){tail}"

    @property
    def group(self) -> str:
        """The per-cell report row: (program, analysis, k)."""
        return f"{self.program}:{self.analysis}({self.context})"


_SOURCES: dict[str, str] = {}


def base_source(program: str) -> str:
    source = _SOURCES.get(program)
    if source is None:
        from repro.benchsuite.runner import BenchTask, task_source
        source = task_source(BenchTask(program, "zero", 0))
        _SOURCES[program] = source
    return source


def code_literals(source: str) -> list[tuple[int, int]]:
    """``(start, end)`` of every integer literal in *source*'s code:
    the integer tokens outside ``;`` and ``#|...|#`` comments, strings
    and ``#\\`` character literals."""
    spans = []
    index, end = 0, len(source)
    while index < end:
        char = source[index]
        if char == ";":
            index = source.find("\n", index)
            index = end if index < 0 else index
        elif char == '"':
            index += 1
            while index < end and source[index] != '"':
                index += 2 if source[index] == "\\" else 1
            index += 1
        elif source.startswith("#|", index):
            index = source.find("|#", index)
            index = end if index < 0 else index + 2
        elif char in _DELIMITERS:
            index += 1
        else:
            start = index
            index += 2 if source.startswith("#\\", index) else 1
            while index < end and source[index] not in _DELIMITERS:
                index += 1
            if _INTEGER.fullmatch(source, start, index):
                spans.append((start, index))
    return spans


def _frozen_sites() -> dict[str, list[int]]:
    return frozen()["edit_sites"]


def session_programs(sites: dict | None = None) -> tuple[str, ...]:
    """The suite programs with editable sites (``regex`` and ``interp``
    have none: their literals only feed primitives, whose results the
    reports show as ⊤, so no literal edit changes a report)."""
    sites = _frozen_sites() if sites is None else sites
    return tuple(program for program in SUITE if sites.get(program))


_LITERALS: dict[str, list[tuple[int, int]]] = {}


def literal_span(program: str, site: int) -> tuple[int, int]:
    """Where *program*'s *site*-th code literal lies in its source."""
    spans = _LITERALS.get(program)
    if spans is None:
        spans = _LITERALS[program] = code_literals(base_source(program))
    return spans[site]


def literal_value(program: str, site: int) -> int:
    return int(base_source(program)[slice(*literal_span(program, site))])


def edit_values(program: str, sites: dict | None = None
                ) -> list[tuple[int, int]]:
    """Every (site, value) edit of *program*."""
    sites = _frozen_sites() if sites is None else sites
    return [(site, literal_value(program, site) + delta)
            for site in sites.get(program, ())
            for delta in EDIT_DELTAS]


def cell_source(cell: Cell) -> str:
    source = base_source(cell.program)
    if cell.edit is None:
        return source
    site, value = cell.edit
    start, end = literal_span(cell.program, site)
    return source[:start] + str(value) + source[end:]


def cell_spec(cell: Cell, timeout: float | None = 60.0):
    from repro.service.jobs import JobSpec
    return JobSpec(source=cell_source(cell), analysis=cell.analysis,
                   context=cell.context, timeout=timeout,
                   query_kind=cell.query)


# -- the cell spaces -------------------------------------------------------

def cold_cells(fjrand: tuple[int, ...]) -> list[Cell]:
    """The ``oneshot-cold`` mix for one run (see ``BENCHMARK.json``)."""
    cells = [Cell(program, analysis, 1)
             for program in SUITE
             for analysis in ("kcfa", "mcfa", "poly", "zero",
                              "pushdown")]
    cells += [Cell(f"worst{depth}", analysis, 1)
              for depth in (8, 10, 12)
              for analysis in ("kcfa", "mcfa", "poly")]
    cells += [Cell(f"fjchain{depth}", analysis, context)
              for depth in (20, 50)
              for analysis, context in (("fj-poly", 0), ("fj-kcfa", 1))]
    cells += [Cell(program, analysis, 1)
              for program in [f"fjrand{seed}" for seed in fjrand]
              + list(FJ_EXAMPLES)
              for analysis in ("fj-mcfa", "fj-hybrid")]
    cells += [Cell(program, analysis, context, query=kind)
              for program, analysis, context, kind in QUERY_CELLS]
    return cells


def fleet_cells() -> list[Cell]:
    return [Cell(program, analysis, context)
            for program in SUITE
            for analysis, context in FLEET_ANALYSES]


def session_cells(sites: dict | None = None) -> list[Cell]:
    return [Cell(program, analysis, context)
            for program in session_programs(sites)
            for analysis, context in SESSION_ANALYSES]


def all_frozen_cells(sites: dict | None = None) -> list[Cell]:
    """Every cell any seed can produce (what ``freeze.py`` pins), with
    the edit sites *sites* (default: the frozen ones)."""
    cells = cold_cells(FJRAND_POOL)
    cells += [cell for cell in session_cells(sites)
              if cell.analysis == "zero"]  # zero(0) bases
    for base in session_cells(sites):
        cells += [Cell(base.program, base.analysis, base.context,
                       edit=edit)
                  for edit in edit_values(base.program, sites)]
    unique = {cell.cell_id: cell for cell in cells}
    return list(unique.values())


# -- seeded streams --------------------------------------------------------

def draw_fjrand(seed: int) -> tuple[int, ...]:
    rng = random.Random(f"fjrand/{seed}")
    return tuple(sorted(rng.sample(FJRAND_POOL, FJRAND_PER_RUN)))


def shuffled(cells: list, seed: int, round_index: int, tag: str) -> list:
    order = list(cells)
    random.Random(f"{tag}/{seed}/{round_index}").shuffle(order)
    return order


def key_stream(seed: int):
    """An endless seeded draw of fleet cells, in rounds: each round is
    a fresh seeded permutation of every key, so any stretch of the
    stream carries the same mix of cheap and costly keys."""
    cells = fleet_cells()
    round_index = 0
    while True:
        yield from shuffled(cells, seed, round_index, "fleet")
        round_index += 1


def edit_plan(seed: int, round_index: int
              ) -> list[tuple[Cell, list[Cell]]]:
    """One ``edit-stream`` round: every session cell, in seeded order,
    opened once and then edited once at each of its literal sites.

    An edit's cost depends mostly on *where* it lands, so every round
    makes the same (cell, site) edits; the seed picks only the order of
    the cells and of their sites, and the new values.  Consecutive
    edits hit different frozen sites, so each changes the report."""
    rng = random.Random(f"edits/{seed}/{round_index}")
    plan = []
    for base in shuffled(session_cells(), seed, round_index, "visits"):
        sites = shuffled(_frozen_sites()[base.program], seed,
                         round_index, f"sites/{base.cell_id}")
        plan.append((base, [
            Cell(base.program, base.analysis, base.context,
                 edit=(site, literal_value(base.program, site)
                       + rng.choice(EDIT_DELTAS)))
            for site in sites]))
    return plan


# -- correctness -----------------------------------------------------------

_FROZEN: dict = {}


def frozen() -> dict:
    """The frozen document, ``expected.json`` (read once)."""
    if not _FROZEN:
        try:
            _FROZEN.update(json.loads(EXPECTED_PATH.read_text("utf-8")))
        except (OSError, ValueError) as error:
            raise SystemExit(f"perfbench: cannot read {EXPECTED_PATH}: "
                             f"{error}") from None
    return _FROZEN


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden_dir() -> Path:
    return HERE.parent / "tests" / "goldens"


def golden_twin(cell: Cell) -> tuple[str, str] | None:
    """``(kind, text)`` of the cell's ``tests/goldens`` twin, if any."""
    if cell.edit is not None or cell.query is not None:
        return None
    directory = _golden_dir()
    if cell.analysis.startswith("fj-"):
        kind = "fj"
        path = directory / (f"fj.{cell.program}.{cell.analysis}."
                            f"{cell.context}.txt")
    else:
        kind = "scheme"
        path = directory / (f"{cell.program}.{cell.analysis}."
                            f"{cell.context}.interned.txt")
    return (kind, path.read_text("utf-8")) if path.is_file() else None


def matches_golden(twin: tuple[str, str], stdout: str) -> bool:
    kind, text = twin
    if kind == "scheme":
        return stdout == text
    # FJ goldens pin the points-to report alone; the job's stdout
    # prefixes it with the program-stats line.
    return stdout.startswith("program: ") \
        and stdout.endswith("\n\n" + text)


class Checker:
    """Byte-checks every response: golden twin first (when the cell
    has one), then the frozen digest."""

    def __init__(self):
        self.expected: dict[str, str] = frozen()["cells"]
        self._twins: dict[str, tuple[str, str] | None] = {}
        self.golden_checked = 0
        self.mismatches: list[str] = []

    def check(self, cell: Cell, stdout) -> bool:
        ok = isinstance(stdout, str)
        if ok:
            if cell.cell_id not in self._twins:
                self._twins[cell.cell_id] = golden_twin(cell)
            twin = self._twins[cell.cell_id]
            if twin is not None:
                ok = matches_golden(twin, stdout)
                self.golden_checked += 1
            ok = ok and self.expected.get(cell.cell_id) == digest(stdout)
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(cell.cell_id)
        return ok

"""Regenerate ``expected.json``: the edit sites of ``edit-stream`` and
the report digest of every cell any workload seed can produce.

Run from the repository root, only when a report change is intended
and reviewed::

    python3 perfbench/freeze.py

Every digest comes from a cold ``run_job`` of the cell.  Cells with a
``tests/goldens`` twin must first match the golden byte for byte;
otherwise freezing stops, so the benchmark can never pin output that
drifted from the goldens.

An edit site is kept only if every edit there (each delta, each
session analysis) gives a report that differs from the unedited
program's and from the report of any edit at another kept site.  So a
session that dropped an edit, or answered with the report it had
before, fails the check.
"""

from __future__ import annotations

import json
import sys
import time

import hermetic


class FreezeError(Exception):
    pass


def main() -> int:
    hermetic.enter()
    try:
        import cells as C
        from repro.service.jobs import run_job
        digests: dict[str, str | None] = {}
        twins = [0]

        def digest_of(cell) -> str | None:
            """The cell's report digest; ``None`` if the job failed."""
            if cell.cell_id not in digests:
                row = run_job(C.cell_spec(cell, timeout=300.0))
                found = None
                if row["status"] == "ok":
                    twin = C.golden_twin(cell)
                    if twin is not None:
                        twins[0] += 1
                        if not C.matches_golden(twin, row["stdout"]):
                            raise FreezeError(f"{cell.cell_id} differs "
                                              f"from its golden twin")
                    found = C.digest(row["stdout"])
                digests[cell.cell_id] = found
            return digests[cell.cell_id]

        started = time.perf_counter()
        try:
            sites = {program: edit_sites(C, program, digest_of)
                     for program in C.SUITE}
            frozen = {}
            for cell in sorted(C.all_frozen_cells(sites),
                               key=lambda c: c.cell_id):
                frozen[cell.cell_id] = digest_of(cell)
                if frozen[cell.cell_id] is None:
                    raise FreezeError(f"{cell.cell_id}: the job failed")
        except FreezeError as error:
            print(f"freeze: {error}", file=sys.stderr)
            return 1
        document = {"hash_seed": hermetic.HASH_SEED,
                    "edit_sites": sites, "count": len(frozen),
                    "cells": frozen}
        C.EXPECTED_PATH.write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"froze {len(frozen)} cells ({twins[0]} golden checks), "
              f"edit sites {sites}, in "
              f"{time.perf_counter() - started:.1f}s")
        return 0
    finally:
        hermetic.leave()


def edit_sites(C, program: str, digest_of) -> list[int]:
    """*program*'s effective literal sites, evenly thinned to at most
    ``EDIT_SITES``."""
    taken = {key: set() for key in C.SESSION_ANALYSES}
    kept = []
    for site in range(len(C.code_literals(C.base_source(program)))):
        value = C.literal_value(program, site)
        reports = {}
        for key in C.SESSION_ANALYSES:
            base = digest_of(C.Cell(program, *key))
            found = reports[key] = {
                digest_of(C.Cell(program, *key, edit=(site, value + delta)))
                for delta in C.EDIT_DELTAS}
            if base is None or base in found or None in found \
                    or found & taken[key]:
                break
        else:
            kept.append(site)
            for key, found in reports.items():
                taken[key] |= found
    if len(kept) <= C.EDIT_SITES:
        return kept
    step = len(kept) / C.EDIT_SITES
    return [kept[int(index * step)] for index in range(C.EDIT_SITES)]


if __name__ == "__main__":
    raise SystemExit(main())

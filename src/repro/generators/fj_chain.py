"""A scalable Featherweight Java workload: the dispatch chain ladder.

The checked-in FJ examples are deliberately tiny (they illustrate
semantics), which makes them useless for timing: an analysis finishes
in a fraction of a millisecond and every measurement is noise.  This
module generates ``fjchain<n>`` — *n* field-less classes whose
``get`` methods allocate and invoke down the chain — giving the
benchmark matrix an FJ program whose statement count, object count
and step count scale linearly with *n*, the OO counterpart of the
Scheme suite's ``worst<n>`` ladder (minus the exponential blow-up:
this is the polynomial fragment, which is the paper's point about
objects).

Used by the bench runner (``--programs fjchain200``) to time the FJ
machines on a body of code large enough for a ratio to mean
something: at k = 0 the whole chain merges, so the flat machine's
invoke rule re-steps over every receiver on every re-visit.
"""

from __future__ import annotations

from repro.errors import UsageError

_NODE0 = """class Node0 extends Object {
  Node0() { super(); }
  Object get() { Object r; r = this; return r; }
}"""

_NODE = """class Node{i} extends Object {{
  Node{i}() {{ super(); }}
  Object get() {{ Node{p} n; Object r; n = new Node{p}(); \
r = n.get(); return r; }}
}}"""

_MAIN = """class Main extends Object {{
  Main() {{ super(); }}
  Object main() {{ Node{n} n; Object r; n = new Node{n}(); \
r = n.get(); return r; }}
}}"""


def fj_chain_source(n: int) -> str:
    """The ``fjchain<n>`` program text: a depth-*n* dispatch chain."""
    if n < 1:
        raise UsageError(f"fjchain depth must be >= 1, got {n}")
    parts = [_NODE0]
    parts += [_NODE.format(i=i, p=i - 1) for i in range(1, n + 1)]
    parts.append(_MAIN.format(n=n))
    return "\n".join(parts)


def fj_chain_program(n: int):
    """The parsed :class:`~repro.fj.class_table.FJProgram`."""
    from repro.fj import parse_fj
    return parse_fj(fj_chain_source(n))

"""Digraphs, the totally-cyclic subset poset, and brute-force oracles.

This module is deliberately independent of the matroid pipeline: the
NL-coflow polynomial is computed here straight from its subset-poset
definition, and acyclic colorings are counted by exhaustion, so both
can serve as ground truth for the lattice-based route.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from .errors import ParseError, ResourceLimitError
from .om import RealizedOM, mobius_from_bottom
from .poly import TriPoly
from .ratlin import RatMatrix, rank_rat, row_basis

DEFAULT_ENUMERATION_CAP = 16
DEFAULT_COLORING_BUDGET = 1_000_000


@dataclass(frozen=True)
class Digraph:
    """A directed multigraph; arc order fixes the incidence column order."""

    vertex_count: int
    arcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple((int(t), int(h)) for t, h in self.arcs))
        for t, h in self.arcs:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise ValueError(f"arc ({t}, {h}) out of range")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def _integer(field: str, line: int, column: int) -> int:
    try:
        return int(field)
    except ValueError:  # more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"an integer has more than {limit} digits", line=line, column=column
        ) from None


def parse_digraph(text: str) -> Digraph:
    """Parse the text digraph format.

    First line is ``digraph <vertexCount>``; every following non-empty
    line that does not start with ``#`` is ``<tail> <head>`` with
    0-based vertex ids.
    """
    lines = text.splitlines()
    header_no = None
    for no, raw in enumerate(lines, start=1):
        if raw.strip():
            header_no = no
            break
    if header_no is None:
        raise ParseError("empty digraph file", line=1, column=1)
    header = lines[header_no - 1].split()
    if len(header) != 2 or header[0] != "digraph" or not header[1].lstrip("-").isdecimal():
        raise ParseError("expected header 'digraph <vertexCount>'", line=header_no, column=1)
    n = _integer(header[1], header_no, 9)
    if n < 0:
        raise ParseError("vertex count must be nonnegative", line=header_no, column=9)
    arcs = []
    for no, raw in enumerate(lines[header_no:], start=header_no + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2 or not all(f.lstrip("-").isdecimal() for f in fields):
            raise ParseError("expected '<tail> <head>'", line=no, column=1)
        t, h = _integer(fields[0], no, 1), _integer(fields[1], no, 1 + len(fields[0]) + 1)
        if not (0 <= t < n):
            raise ParseError(f"tail {t} out of range", line=no, column=1)
        if not (0 <= h < n):
            raise ParseError(f"head {h} out of range", line=no, column=1 + len(fields[0]) + 1)
        arcs.append((t, h))
    return Digraph(n, tuple(arcs))


def _touched(d: Digraph):
    """``d`` on just the vertices its arcs touch, renumbered in increasing
    order, and the number of vertices dropped.  An untouched vertex adds
    only a zero incidence row and a free color, so the routes below run on
    this digraph and allocate nothing per vertex of the header."""
    used = sorted({v for arc in d.arcs for v in arc})
    new = {v: i for i, v in enumerate(used)}
    return Digraph(len(used), [(new[t], new[h]) for t, h in d.arcs]), d.vertex_count - len(used)


def incidence_matrix(d: Digraph) -> RatMatrix:
    """Vertex-arc incidence matrix: tail +1, head -1, self-loop 0."""
    rows = [[0] * d.arc_count for _ in range(d.vertex_count)]
    for j, (t, h) in enumerate(d.arcs):
        rows[t][j] += 1
        rows[h][j] -= 1
    return RatMatrix(d.vertex_count, d.arc_count, [x for row in rows for x in row])


def _scc_ids(n, arcs):
    """Strongly connected component id per vertex (iterative Kosaraju)."""
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for t, h in arcs:
        adj[t].append(h)
        radj[h].append(t)
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, 0)]
        seen[s] = True
        while stack:
            v, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, i + 1))
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
    comp = [-1] * n
    cid = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            v = stack.pop()
            for w in radj[v]:
                if comp[w] == -1:
                    comp[w] = cid
                    stack.append(w)
        cid += 1
    return comp


def is_totally_cyclic(d: Digraph, arc_subset) -> bool:
    """True iff every chosen arc lies on a directed cycle of the chosen
    subdigraph, i.e. joins vertices of one strongly connected component."""
    chosen = [d.arcs[i] for i in arc_subset]
    if not chosen:
        return True
    comp = _scc_ids(d.vertex_count, chosen)
    return all(comp[t] == comp[h] for t, h in chosen)


def totally_cyclic_poset(d: Digraph, cap=DEFAULT_ENUMERATION_CAP) -> tuple:
    """Every totally cyclic arc subset (including the empty one) as a
    frozenset, sorted by size and then by elements."""
    m = d.arc_count
    if m > cap:
        raise ResourceLimitError(f"{m} arcs exceed the enumeration cap {cap}")
    d, _ = _touched(d)
    members = []
    for mask in range(1 << m):
        subset = frozenset(i for i in range(m) if mask >> i & 1)
        if is_totally_cyclic(d, subset):
            members.append(subset)
    members.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(members)


def nl_coflow_graphic(d: Digraph, cap=DEFAULT_ENUMERATION_CAP) -> TriPoly:
    """NL-coflow polynomial straight from the totally-cyclic subset poset.

    The exponent of a subset is the incidence rank of the whole digraph
    minus the incidence rank of the subset's columns.
    """
    mobius = mobius_from_bottom(totally_cyclic_poset(d, cap))
    inc = incidence_matrix(_touched(d)[0])
    full = rank_rat(inc)
    out = []
    for b, mu in mobius.items():
        rank_b = rank_rat(inc.column_submatrix(sorted(b)))
        out.append(((full - rank_b, 0, 0), mu))
    return TriPoly(out)


def _class_has_cycle(arcs) -> bool:
    """Directed-cycle test on an arc list via Kahn peeling."""
    if any(t == h for t, h in arcs):
        return True
    verts = {v for a in arcs for v in a}
    indeg = {v: 0 for v in verts}
    out = {v: [] for v in verts}
    for t, h in arcs:
        out[t].append(h)
        indeg[h] += 1
    queue = [v for v in verts if indeg[v] == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed != len(verts)


def count_acyclic_colorings(d: Digraph, k: int, budget=DEFAULT_COLORING_BUDGET) -> int:
    """Exhaustively count colorings with no monochromatic directed cycle."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    # k^n > budget, decided without building k^n: once n reaches the
    # budget's bit length, k^n exceeds it for every k >= 2.
    if k ** min(d.vertex_count, budget.bit_length()) > budget:
        raise ResourceLimitError(
            f"{k}^{d.vertex_count} colorings exceed the budget {budget}"
        )
    touched, free = _touched(d)
    count = 0
    for coloring in itertools.product(range(k), repeat=touched.vertex_count):
        ok = True
        for color in set(coloring):
            arcs = [
                (t, h)
                for t, h in touched.arcs
                if coloring[t] == color and coloring[h] == color
            ]
            if arcs and _class_has_cycle(arcs):
                ok = False
                break
        if ok:
            count += 1
    return count * k**free


def matroid_from_digraph(d: Digraph) -> RealizedOM:
    """The graphic oriented matroid: incidence matrix reduced to a
    full-row-rank realization (a lexicographically first row basis)."""
    return RealizedOM.from_rational(row_basis(incidence_matrix(_touched(d)[0])))

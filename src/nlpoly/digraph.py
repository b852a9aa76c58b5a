"""Digraphs, the totally-cyclic subset poset, and brute-force oracles.

This module is deliberately independent of the matroid pipeline: the
NL-coflow polynomial is computed here straight from its subset-poset
definition.  Its members, the totally cyclic arc subsets, are the unions
of directed cycles, so one crosscut pass over the directed cycles, as
arc bitmasks, builds the family and its Moebius function together
(``om.mobius_from_bottom``).  Acyclic colorings are counted by
exhaustion.  So both can serve as ground truth for the lattice-based
route.
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
    if len(header) != 2 or header[0] != "digraph" or not header[1].removeprefix("-").isdecimal():
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
        if len(fields) != 2 or not all(f.removeprefix("-").isdecimal() for f in fields):
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


def _directed_cycles(d: Digraph) -> list:
    """Every directed cycle of ``d`` as an arc bitmask.

    Each cycle is found once, by a depth-first walk from its least vertex
    through higher vertices only; a loop, and each choice among parallel
    arcs, is a cycle of its own.
    """
    out = [[] for _ in range(d.vertex_count)]
    for i, (t, h) in enumerate(d.arcs):
        out[t].append((h, 1 << i))
    cycles = []
    for s in range(d.vertex_count):
        stack = [(s, 0, 1 << s)]  # (vertex, arcs walked, vertices walked)
        while stack:
            v, arcs, seen = stack.pop()
            for w, bit in out[v]:
                if w == s:
                    cycles.append(arcs | bit)
                elif w > s and not seen >> w & 1:
                    stack.append((w, arcs | bit, seen | 1 << w))
    return cycles


def totally_cyclic_poset(d: Digraph, cap=DEFAULT_ENUMERATION_CAP) -> dict:
    """Every totally cyclic arc subset (including the empty one 0) as an
    arc bitmask, mapped to its Moebius value mu(0, X).

    A subset is totally cyclic when each of its arcs lies on a directed
    cycle inside it, so these subsets are exactly the unions of directed
    cycles.
    """
    m = d.arc_count
    if m > cap:
        raise ResourceLimitError(f"{m} elements exceed the enumeration cap {cap}")
    return mobius_from_bottom(_directed_cycles(_touched(d)[0]))


def subset_rank(d: Digraph, arc_mask: int) -> int:
    """Incidence rank of the columns of the arcs in ``arc_mask``: the
    vertices they touch minus their connected components, which is the
    number of arcs a union-find pass joins across two components."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    while arc_mask:
        low = arc_mask & -arc_mask
        arc_mask ^= low
        t, h = (find(v) for v in d.arcs[low.bit_length() - 1])
        if t != h:
            parent[t] = h
            rank += 1
    return rank


def nl_coflow_graphic(d: Digraph, cap=DEFAULT_ENUMERATION_CAP) -> TriPoly:
    """NL-coflow polynomial straight from the totally-cyclic subset poset.

    The exponent of a subset is the incidence rank of the whole digraph
    minus the incidence rank of the subset's columns.
    """
    mobius = totally_cyclic_poset(d, cap)
    full = rank_rat(incidence_matrix(_touched(d)[0]))
    return TriPoly(((full - subset_rank(d, b), 0, 0), mu) for b, mu in mobius.items())


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
    """Exhaustively count colorings with no monochromatic directed cycle.

    Only the vertices some arc touches are enumerated, k^(touched) colorings
    within ``budget``; each other vertex multiplies the count by k.  A count
    with more decimal digits than Python converts to text (its default limit
    when conversion is unlimited) raises ``ResourceLimitError``.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    touched, free = _touched(d)
    n = touched.vertex_count
    # k^n > budget, decided without building k^n: once n reaches the
    # budget's bit length, k^n exceeds it for every k >= 2.
    if k ** min(n, budget.bit_length()) > budget:
        raise ResourceLimitError(f"{k}^{n} colorings exceed the budget {budget}")
    count = 0
    for coloring in itertools.product(range(k), repeat=n):
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
    if not count or k == 1:
        return count
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    # k^free >= 2^((bits(k) - 1) * free), and 2^(4 * digits) > 10^digits
    if (k.bit_length() - 1) * free > 4 * digits or count * k**free >= 10**digits:
        raise ResourceLimitError(
            f"the count {count} * {k}^{free} has more than {digits} digits"
        )
    return count * k**free


def matroid_from_digraph(d: Digraph) -> RealizedOM:
    """The graphic oriented matroid: incidence matrix reduced to a
    full-row-rank realization (a lexicographically first row basis)."""
    return RealizedOM.from_rational(row_basis(incidence_matrix(_touched(d)[0])))

"""Digraph ingestion, the totally-cyclic poset, and the brute-force
counting oracles."""

import itertools
import random

import pytest

from nlpoly.digraph import (
    Digraph,
    count_acyclic_colorings,
    incidence_matrix,
    is_totally_cyclic,
    matroid_from_digraph,
    nl_coflow_graphic,
    parse_digraph,
    totally_cyclic_poset,
)
from nlpoly.errors import ParseError, ResourceLimitError
from nlpoly.om import mobius_from_bottom
from nlpoly.poly import TriPoly, evaluate, nl_coflow_matroid
from nlpoly.ratlin import RatMatrix, rank_rat
from oracles import has_cycle_recursive, subset_rank_from_components
from suite import TEST_DIGRAPHS, random_digraphs

X = TriPoly.x
CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
DIGON = Digraph(2, [(0, 1), (1, 0)])


# ---------------------------------------------------------------------------
# parsing


def test_parse_digraph_roundtrip():
    text = "digraph 3\n# a comment\n\n0 1\n1 2\n2 0\n"
    d = parse_digraph(text)
    assert d == CYCLE3


def test_parse_digraph_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_digraph("graph 3\n0 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_digraph("digraph 2\n0 1\n0 two\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_digraph("digraph 2\n0 5\n")
    assert exc.value.line == 2 and exc.value.column == 3
    with pytest.raises(ParseError):
        parse_digraph("")
    with pytest.raises(ParseError):
        parse_digraph("digraph 2\n0\n")


def test_digraph_validates_ids():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])


# ---------------------------------------------------------------------------
# incidence


def test_incidence_examples():
    single = incidence_matrix(Digraph(2, [(0, 1)]))
    assert single.row_lists() == [[1], [-1]]
    digon = incidence_matrix(DIGON)
    assert digon.row_lists() == [[1, -1], [-1, 1]]
    loop = incidence_matrix(Digraph(1, [(0, 0)]))
    assert loop.row_lists() == [[0]]


def test_incidence_rank_equals_vertices_minus_components():
    for d in random_digraphs(20260401, 40, allow_loops=True):
        inc = incidence_matrix(d)
        indices = range(d.arc_count)
        for size in range(min(3, d.arc_count) + 1):
            for subset in itertools.combinations(indices, size):
                got = rank_rat(inc.column_submatrix(subset))
                assert got == subset_rank_from_components(d, subset)


# ---------------------------------------------------------------------------
# totally cyclic subsets


def test_is_totally_cyclic_examples():
    assert is_totally_cyclic(CYCLE3, set())
    assert not is_totally_cyclic(Digraph(2, [(0, 1)]), {0})
    assert is_totally_cyclic(DIGON, {0, 1})
    assert is_totally_cyclic(Digraph(1, [(0, 0)]), {0})


def test_totally_cyclic_poset_examples():
    single = totally_cyclic_poset(Digraph(2, [(0, 1)]))
    assert single == (frozenset(),)

    digon = totally_cyclic_poset(DIGON)
    assert digon == (frozenset(), frozenset({0, 1}))
    assert mobius_from_bottom(digon)[frozenset({0, 1})] == -1

    c3 = totally_cyclic_poset(CYCLE3)
    assert c3 == (frozenset(), frozenset({0, 1, 2}))


def test_totally_cyclic_poset_cap():
    big = Digraph(2, [(0, 1)] * 17)
    with pytest.raises(ResourceLimitError):
        totally_cyclic_poset(big)
    totally_cyclic_poset(big, cap=17)  # explicit override works


def test_totally_cyclic_union_closure():
    for d in random_digraphs(5150, 25):
        q = set(totally_cyclic_poset(d))
        for a in q:
            for b in q:
                assert a | b in q


def test_self_loop_law():
    d = Digraph(2, [(0, 0), (0, 1)])
    q = totally_cyclic_poset(d)
    assert frozenset({0}) in q
    for k in (1, 2, 3):
        assert count_acyclic_colorings(d, k) == 0


# ---------------------------------------------------------------------------
# the graphic coflow polynomial


def test_graphic_coflow_examples():
    assert nl_coflow_graphic(CYCLE3) == X(2) - 1
    assert nl_coflow_graphic(DIGON) == X(1) - 1
    assert nl_coflow_graphic(Digraph(3, [])) == TriPoly.const(1)


def test_graphic_matches_matroid_route_on_catalog():
    for name, d in TEST_DIGRAPHS:
        assert nl_coflow_graphic(d) == nl_coflow_matroid(matroid_from_digraph(d)), name


# ---------------------------------------------------------------------------
# coloring counts


def test_coloring_examples():
    assert count_acyclic_colorings(Digraph(1, []), 3) == 3
    assert count_acyclic_colorings(DIGON, 2) == 2
    assert count_acyclic_colorings(CYCLE3, 2) == 6
    assert count_acyclic_colorings(Digraph(0, []), 5) == 1


def test_coloring_monotone_in_k():
    for d in random_digraphs(99, 15):
        counts = [count_acyclic_colorings(d, k) for k in (1, 2, 3)]
        assert counts == sorted(counts)


def test_coloring_budget_and_validation():
    with pytest.raises(ResourceLimitError):
        count_acyclic_colorings(Digraph(4, []), 3, budget=10)
    with pytest.raises(ValueError):
        count_acyclic_colorings(DIGON, 0)


def test_coloring_budget_is_exact_without_building_k_to_the_n():
    # 2^20 colorings of 20 isolated vertices: exactly at the budget, counted
    # as 2^20 times the one coloring of no touched vertex
    assert count_acyclic_colorings(Digraph(20, []), 2, budget=2**20) == 2**20
    with pytest.raises(ResourceLimitError):
        count_acyclic_colorings(Digraph(20, []), 2, budget=2**20 - 1)
    with pytest.raises(ResourceLimitError):
        count_acyclic_colorings(DIGON, 1, budget=0)
    assert count_acyclic_colorings(Digraph(5, [(3, 1), (1, 3)]), 3) == 3**3 * 6


def test_coloring_law_on_catalog():
    for name, d in TEST_DIGRAPHS:
        if any(t == h for t, h in d.arcs):
            continue
        psi = nl_coflow_graphic(d)
        free = d.vertex_count - rank_rat(incidence_matrix(d))
        for k in (1, 2, 3):
            assert count_acyclic_colorings(d, k) == k**free * evaluate(psi, k), name


def test_class_cycle_detection_matches_recursive_dfs():
    rng = random.Random(314)
    for d in random_digraphs(314, 30, allow_loops=True):
        # a digraph is totally-cyclic-free iff ... compare the two cycle
        # detectors on the whole arc set
        whole = set(range(d.arc_count))
        via_scc = is_totally_cyclic(d, whole)
        has_cycle = has_cycle_recursive(d.vertex_count, d.arcs)
        if via_scc and d.arc_count:
            assert has_cycle  # every arc on a cycle certainly makes one
        if not has_cycle:
            assert not via_scc or not d.arc_count
        # and the coloring counter agrees with the recursive detector at k=1
        expected = 0 if has_cycle else 1
        assert count_acyclic_colorings(d, 1) == expected


# ---------------------------------------------------------------------------
# the graphic matroid bridge


def test_matroid_from_digraph_examples():
    single = matroid_from_digraph(Digraph(2, [(0, 1)]))
    assert single.matrix == RatMatrix(1, 1, [1])
    digon = matroid_from_digraph(DIGON)
    assert digon.matrix == RatMatrix(1, 2, [1, -1])
    loop = matroid_from_digraph(Digraph(1, [(0, 0)]))
    assert loop.rank == 0 and loop.ground_size == 1

"""Digraph ingestion, the totally-cyclic poset, and the brute-force
counting oracles."""

import itertools
import random
import sys

import pytest

from nlpoly.digraph import (
    Digraph,
    count_acyclic_colorings,
    incidence_matrix,
    matroid_from_digraph,
    nl_coflow_graphic,
    parse_digraph,
    subset_rank,
    totally_cyclic_poset,
)
from nlpoly.errors import ParseError, ResourceLimitError
from nlpoly.poly import TriPoly, evaluate, nl_coflow_matroid
from nlpoly.ratlin import RatMatrix, rank_rat
from oracles import (
    bitmask,
    brute_totally_cyclic,
    has_cycle_recursive,
    keyed_by_sets,
    subset_rank_from_components,
)
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
                assert got == subset_rank(d, bitmask(subset))
                assert got == subset_rank_from_components(d, subset)


# ---------------------------------------------------------------------------
# totally cyclic subsets


def test_is_totally_cyclic_examples():
    assert 0 in totally_cyclic_poset(CYCLE3)
    assert 0b1 not in totally_cyclic_poset(Digraph(2, [(0, 1)]))
    assert 0b11 in totally_cyclic_poset(DIGON)
    assert 0b1 in totally_cyclic_poset(Digraph(1, [(0, 0)]))
    # a path into a cycle: the cycle is a member, the cycle with its tail is not
    lollipop = totally_cyclic_poset(Digraph(3, [(0, 1), (1, 2), (2, 1)]))
    assert 0b110 in lollipop and 0b111 not in lollipop


def test_totally_cyclic_poset_examples():
    assert totally_cyclic_poset(Digraph(2, [(0, 1)])) == {0: 1}
    assert totally_cyclic_poset(DIGON) == {0: 1, 0b11: -1}
    assert totally_cyclic_poset(CYCLE3) == {0: 1, 0b111: -1}
    # two digons sharing arc 0 -> 1: mu(both) = -(1 - 1 - 1)
    shared = Digraph(2, [(0, 1), (1, 0), (1, 0)])
    assert totally_cyclic_poset(shared) == {0: 1, 0b011: -1, 0b101: -1, 0b111: 1}


def test_loops_give_the_boolean_lattice():
    # 16 loops: every arc subset is totally cyclic, so the poset is the
    # Boolean lattice of 2^16 subsets, where a walk over every submask of
    # every member takes 3^16 steps.
    loops = Digraph(1, [(0, 0)] * 16)
    mobius = totally_cyclic_poset(loops)
    assert len(mobius) == 1 << 16
    assert all(mu == (-1) ** bin(x).count("1") for x, mu in mobius.items())
    # Loops have rank 0, so the coflow is the sum of all mu: 0.
    assert nl_coflow_graphic(loops) == TriPoly()


def test_totally_cyclic_poset_cap():
    big = Digraph(2, [(0, 1)] * 17)
    with pytest.raises(ResourceLimitError) as exc:
        totally_cyclic_poset(big)
    # the text the CLI prints for the same limit
    assert str(exc.value) == "17 elements exceed the enumeration cap 16"
    totally_cyclic_poset(big, cap=17)  # explicit override works


def test_totally_cyclic_poset_is_brute_force_on_loops_and_parallels():
    # arcs drawn uniformly from all n^2 ordered pairs: loops and parallel
    # arcs are common, and so are overlapping cycles
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(2, 4)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
        d = Digraph(n, arcs)
        assert set(keyed_by_sets(totally_cyclic_poset(d))) == set(brute_totally_cyclic(d)), d


def test_totally_cyclic_poset_counts():
    for k in range(7):  # any set of loops is a union of loops
        assert len(totally_cyclic_poset(Digraph(1, [(0, 0)] * k))) == 2**k
    for p in range(5):  # a nonempty choice each way, or nothing
        for q in range(5):
            d = Digraph(2, [(0, 1)] * p + [(1, 0)] * q)
            assert len(totally_cyclic_poset(d)) == (2**p - 1) * (2**q - 1) + 1


def test_totally_cyclic_union_closure():
    for d in random_digraphs(5150, 25):
        q = set(totally_cyclic_poset(d))
        for a in q:
            for b in q:
                assert a | b in q


def test_self_loop_law():
    d = Digraph(2, [(0, 0), (0, 1)])
    q = totally_cyclic_poset(d)
    assert 0b1 in q
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
        count_acyclic_colorings(CYCLE3, 3, budget=10)
    with pytest.raises(ValueError):
        count_acyclic_colorings(DIGON, 0)


def test_coloring_budget_is_exact_without_building_k_to_the_n():
    # the budget is charged for the 2^2 colorings of the digon's touched
    # vertices only; 20 isolated vertices multiply the count by 2^20 for free
    digon20 = Digraph(22, [(0, 1), (1, 0)])
    assert count_acyclic_colorings(digon20, 2, budget=4) == 2 * 2**20
    with pytest.raises(ResourceLimitError):
        count_acyclic_colorings(digon20, 2, budget=3)
    assert count_acyclic_colorings(Digraph(20, []), 2, budget=1) == 2**20
    with pytest.raises(ResourceLimitError):
        count_acyclic_colorings(DIGON, 1, budget=0)
    assert count_acyclic_colorings(Digraph(5, [(3, 1), (1, 3)]), 3) == 3**3 * 6


def test_coloring_count_is_bounded_by_the_digits_python_prints():
    # 90 colorings of the digon with 10 colors, times 10 per other vertex
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    longest = Digraph(digits, [(0, 1), (1, 0)])
    assert str(count_acyclic_colorings(longest, 10)) == "90" + "0" * (digits - 2)
    with pytest.raises(ResourceLimitError):
        count_acyclic_colorings(Digraph(digits + 1, [(0, 1), (1, 0)]), 10)


def test_coloring_law_on_catalog():
    for name, d in TEST_DIGRAPHS:
        if any(t == h for t, h in d.arcs):
            continue
        psi = nl_coflow_graphic(d)
        free = d.vertex_count - rank_rat(incidence_matrix(d))
        for k in (1, 2, 3):
            assert count_acyclic_colorings(d, k) == k**free * evaluate(psi, k), name


def test_class_cycle_detection_matches_recursive_dfs():
    for d in random_digraphs(314, 30, allow_loops=True):
        # the poset has a nonempty member iff the digraph has a directed cycle
        has_cycle = has_cycle_recursive(d.vertex_count, d.arcs)
        assert (len(totally_cyclic_poset(d)) > 1) == has_cycle
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

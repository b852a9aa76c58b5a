"""Trivariate polynomials and the coflow/flow/dichromate trio."""

import random
from fractions import Fraction

import pytest

from nlpoly.digraph import (
    Digraph,
    count_acyclic_colorings,
    matroid_from_digraph,
    nl_coflow_graphic,
)
from nlpoly.om import RealizedOM, dual_realization, standardize
from nlpoly.poly import (
    TriPoly,
    dichromate,
    evaluate,
    nl_coflow_matroid,
    nl_flow_matroid,
    specialize,
)
from nlpoly.ratlin import RatMatrix
from suite import TEST_DIGRAPHS, TEST_MATRICES, random_digraphs, random_rat_matrix

X = TriPoly.x
CYCLE3 = matroid_from_digraph(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
DIGON = matroid_from_digraph(Digraph(2, [(0, 1), (1, 0)]))
COLOOP = RealizedOM.from_rational(RatMatrix(1, 1, [1]))
EMPTY = RealizedOM.from_rational(RatMatrix(0, 0, []))


# ---------------------------------------------------------------------------
# TriPoly arithmetic and formatting


def test_tripoly_normalizes_zero_terms():
    assert TriPoly({(1, 0, 0): 1, (0, 0, 0): 0}).terms == {(1, 0, 0): 1}
    assert not (X(1) - X(1))
    assert TriPoly.const(0) == TriPoly()


def test_tripoly_arithmetic():
    assert (X(1) - 1) * (X(1) + 1) == X(2) - 1
    assert 2 * X(1) - X(1) == X(1)
    assert TriPoly.monomial(1, 1, 1, 0) == X(1) * TriPoly.monomial(1, 0, 1, 0)
    with pytest.raises(ValueError):
        TriPoly({(-1, 0, 0): 1})


def test_tripoly_str():
    assert str(TriPoly()) == "0"
    assert str(X(2) - 1) == "x^2 - 1"
    assert str(X(1) - TriPoly.monomial(1, 1, 1, 0)) == "x - x*y"
    assert str(-X(1) + 1) == "-x + 1"
    assert str(TriPoly.monomial(2, 1, 2, 1)) == "2*x*y^2*z"
    assert str(TriPoly.monomial(-3, 0, 0, 0)) == "-3"


def test_tripoly_term_order():
    p = TriPoly({(1, 0, 1): -1, (2, 0, 0): 1, (1, 0, 0): 5})
    assert str(p) == "x^2 + 5*x - x*z"
    assert p.to_json() == [
        {"x": 2, "y": 0, "z": 0, "c": 1},
        {"x": 1, "y": 0, "z": 0, "c": 5},
        {"x": 1, "y": 0, "z": 1, "c": -1},
    ]


def test_specialize_examples():
    p = X(1) - TriPoly.monomial(1, 1, 1, 0)  # x - x*y
    assert specialize(p, 0, 1) == X(1)
    assert specialize(p, 1, 0) == TriPoly()
    assert specialize(TriPoly.const(1), 5, -7) == TriPoly.const(1)


def test_evaluate_examples():
    assert evaluate(X(2) - 1, 2) == 3
    assert evaluate(TriPoly(), 10, 10, 10) == 0
    assert evaluate(X(1) - 1, 3) == 2
    assert evaluate(TriPoly.monomial(1, 0, 2, 1), 1, 3, 2) == 18


# ---------------------------------------------------------------------------
# the three polynomials


def test_coflow_examples():
    assert nl_coflow_matroid(CYCLE3) == X(2) - 1
    assert nl_coflow_matroid(DIGON) == X(1) - 1
    assert nl_coflow_matroid(COLOOP) == X(1)


def test_flow_examples():
    assert nl_flow_matroid(CYCLE3) == X(1)
    assert nl_flow_matroid(COLOOP) == TriPoly()
    assert nl_flow_matroid(EMPTY) == TriPoly.const(1)


def test_dichromate_coloop():
    poly, basis = dichromate(COLOOP, [0])
    assert poly == X(1) - TriPoly.monomial(1, 1, 1, 0)
    assert str(poly) == "x - x*y"
    assert basis == (0,)


def test_dichromate_empty():
    poly, basis = dichromate(EMPTY)
    assert poly == TriPoly.const(1)
    assert basis == ()


def test_dichromate_digon():
    poly, basis = dichromate(DIGON, [0])
    assert basis == (0,)
    # frozen from the hand expansion of the four-covector lattice;
    # the mixed y*z monomials cancel
    assert poly == X(2) - TriPoly.monomial(1, 1, 0, 1)
    assert str(poly) == "x^2 - x*z"
    assert specialize(poly, 0, 1) == X(1) * (X(1) - 1)
    assert specialize(poly, 1, 0) == X(1) * nl_flow_matroid(DIGON)


def test_dichromate_reports_original_labels():
    om = RealizedOM.from_rational(
        RatMatrix.from_rows([[0, 1, 1], [0, 0, 1]]), labels=("u", "v", "w")
    )
    _, basis = dichromate(om)
    assert basis == ("v", "w")


def test_specializations_match_both_routes_per_basis():
    for name, d in TEST_DIGRAPHS[:8]:
        om = matroid_from_digraph(d)
        psi = nl_coflow_matroid(om)
        phi = nl_flow_matroid(om)
        n, r = om.ground_size, om.rank
        for basis in om.bases() or [()]:
            poly, _ = dichromate(om, list(basis) if basis else None)
            assert specialize(poly, 0, 1) == X(n - r) * psi, name
            assert specialize(poly, 1, 0) == X(r) * phi, name


def test_coflow_flow_duality():
    rng = random.Random(79)
    oms = [CYCLE3, DIGON, COLOOP, EMPTY]
    while len(oms) < 10:
        m = random_rat_matrix(rng, rng.randint(1, 2), rng.randint(2, 5))
        try:
            oms.append(RealizedOM.from_rational(m))
        except Exception:
            continue
    for om in oms:
        std, _ = standardize(om)
        dual = dual_realization(std)
        assert nl_coflow_matroid(om) == nl_flow_matroid(dual)
        assert nl_flow_matroid(om) == nl_coflow_matroid(dual)


def test_coflow_at_one_vanishes_with_directed_cycles():
    for name, d in TEST_DIGRAPHS:
        psi = nl_coflow_matroid(matroid_from_digraph(d))
        has_cycle = count_acyclic_colorings(d, 1) == 0
        assert (evaluate(psi, 1) == 0) == has_cycle, name


def _poly_texts(m):
    om = RealizedOM.from_rational(m)
    poly, basis = dichromate(om)
    return str(nl_coflow_matroid(om)), str(nl_flow_matroid(om)), str(poly), basis


def test_polynomials_survive_column_scaling_and_row_operations():
    # Both moves keep the oriented matroid.  Row operations keep every
    # text and the default basis.  A positive column scaling keeps the
    # coflow and flow texts; it can change the dichromate text (the hat is
    # built from the entries of the standard form, not from the oriented
    # matroid alone), so only the first two are compared there.
    rng = random.Random(83)
    cases = [m for _, m in TEST_MATRICES]
    cases += [matroid_from_digraph(d).matrix for _, d in TEST_DIGRAPHS]
    cases = [m for m in cases if m.rows]
    while len(cases) < 45:
        m = random_rat_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        try:
            RealizedOM.from_rational(m)
        except Exception:
            continue
        cases.append(m)
    for m in cases:
        want = _poly_texts(m)
        rows = m.row_lists()
        j = rng.randrange(m.cols)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = [[x * scale if k == j else x for k, x in enumerate(row)] for row in rows]
        assert _poly_texts(RatMatrix.from_rows(scaled))[:2] == want[:2], m
        if m.rows > 1:
            a, b = rng.sample(range(m.rows), 2)
            f = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            mixed = [list(row) for row in rows]
            mixed[a] = [x + f * y for x, y in zip(rows[a], rows[b])]
            assert _poly_texts(RatMatrix.from_rows(mixed)) == want, m


def _arc_order_free_texts(d):
    om = matroid_from_digraph(d)
    poly, _ = dichromate(om)
    return (
        str(nl_coflow_graphic(d)),
        str(nl_coflow_matroid(om)),
        str(nl_flow_matroid(om)),
        str(specialize(poly, 0, 1)),
        str(specialize(poly, 1, 0)),
    )


def test_polynomials_survive_arc_permutations():
    # Permuting the arcs relabels the ground set: coflow, flow and both
    # specializations of the dichromate stay, though the default basis of
    # the dichromate itself moves with the arcs.
    rng = random.Random(89)
    digraphs = [d for _, d in TEST_DIGRAPHS]
    digraphs += random_digraphs(97, 15, max_vertices=4, max_arcs=6, allow_loops=True)
    for d in digraphs:
        want = _arc_order_free_texts(d)
        for _ in range(2):
            arcs = list(d.arcs)
            rng.shuffle(arcs)
            assert _arc_order_free_texts(Digraph(d.vertex_count, arcs)) == want, d

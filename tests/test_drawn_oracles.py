"""Drawn inputs against the brute-force oracles, end to end.

On drawn digraphs the coflow polynomial is rebuilt from oracles alone:
totally cyclic subsets by reachability, Moebius values by solving the
incidence system, and subset ranks by counting components.  It must
equal the graphic route, the matroid route and the coflow
specialization of the dichromate.  On drawn matrices the flow
polynomial is rebuilt the same way, from the brute-force nonnegative
covectors, the same Moebius values and brute-force column ranks; it
must equal the face-lattice flow and the flow specialization of the
dichromate.  The hat chirotope must equal the eps -> 0+ limit of the
symbolic union supermatroid at a drawn basis.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nlpoly.digraph import Digraph, matroid_from_digraph, nl_coflow_graphic
from nlpoly.om import RealizedOM, nonneg_face_lattice, standardize
from nlpoly.poly import TriPoly, dichromate, nl_coflow_matroid, nl_flow_matroid, specialize
from nlpoly.ratlin import RatMatrix, row_basis
from nlpoly.union import build_hat
from oracles import (
    brute_nonneg_covectors,
    brute_rank,
    brute_totally_cyclic,
    eps_limit_chirotope,
    mobius_by_inversion,
    subset_rank_from_components,
    symbolic_hat_rows,
)

X = TriPoly.x
_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def _digraphs(draw):
    """Up to 4 vertices and 6 arcs, loops and parallel arcs allowed."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    return Digraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=6)))


@st.composite
def _matrices(draw):
    """Up to 3 rows and 5 columns of small rationals, of any rank."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return RatMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))


def _oracle_coflow(d):
    mobius = mobius_by_inversion(brute_totally_cyclic(d))
    full = subset_rank_from_components(d, range(d.arc_count))
    return TriPoly(
        ((full - subset_rank_from_components(d, s), 0, 0), mu) for s, mu in mobius.items()
    )


@_SETTINGS
@given(_digraphs())
def test_coflow_routes_equal_the_oracle_coflow(d):
    psi = _oracle_coflow(d)
    om = matroid_from_digraph(d)
    assert nl_coflow_graphic(d) == psi
    assert nl_coflow_matroid(om) == psi
    # specialize(dichromate, 0, 1) is x^(n - r) times the coflow
    assert specialize(dichromate(om)[0], 0, 1) == X(om.ground_size - om.rank) * psi


@_SETTINGS
@given(_matrices(), st.data())
def test_hat_chirotope_is_the_symbolic_limit(m, data):
    om = RealizedOM(row_basis(m))
    basis = data.draw(st.sampled_from(om.bases() or [()]))
    std, _ = standardize(om, list(basis) if basis else None)
    hat = build_hat(std).hat
    assert hat.chirotope.signs == eps_limit_chirotope(symbolic_hat_rows(std.matrix), hat.ground_size)


@_SETTINGS
@given(_matrices())
def test_flow_equals_the_oracle_flow(m):
    # each nonnegative covector X contributes mu(X) * x^(|E - X| - rank(E - X))
    supports = {x.support for x in brute_nonneg_covectors(m)}
    terms = []
    for s, mu in mobius_by_inversion(supports).items():
        rest = [j for j in range(m.cols) if j not in s]
        terms.append(((len(rest) - brute_rank(m.column_submatrix(rest)), 0, 0), mu))
    phi = TriPoly(terms)
    om = RealizedOM(row_basis(m))
    assert set(nonneg_face_lattice(om)) == supports
    assert nl_flow_matroid(om) == phi
    assert specialize(dichromate(om)[0], 1, 0) == X(om.rank) * phi

"""The elimination kernel and what is built on it, against brute force.

Draws rational matrices up to 4x6, with dependent rows and zero columns
mixed in, and compares ``rank_rat``, ``echelon``, ``row_basis``,
``standard_form``, ``union.minor``, the chirotope and the cocircuits with
the oracles of ``tests/oracles.py``: ranks by nonsingular minors,
covectors by orthogonality to the signed circuits, and chirotopes by one
determinant per column tuple.  Also draws lists of generator sets and
compares ``mobius_from_bottom`` with Moebius inversion on their unions.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpoly.errors import InvalidBasisError, NotARealizationError
from nlpoly.om import (
    RealizedOM,
    SignVector,
    chirotope_from_matrix,
    cocircuits,
    mobius_from_bottom,
)
from nlpoly.ratlin import RatMatrix, det_sign_eps, echelon, rank_rat, row_basis, standard_form
from nlpoly.union import minor
from oracles import (
    all_covectors,
    bitmask,
    brute_cocircuits,
    brute_rank,
    keyed_by_sets,
    mobius_by_inversion,
    union_closure,
)

_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    m = [draw(st.lists(_fractions, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        # one row a combination of two others (or a multiple of one)
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        a, b = draw(_fractions), draw(_fractions)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if cols >= 3 and draw(st.booleans()):
        z = draw(st.integers(0, cols - 1))
        for row in m:
            row[z] = 0
    return RatMatrix(rows, cols, [x for row in m for x in row])


@st.composite
def _wide(draw):
    """Matrices of r <= 4 rows and r to r + 3 columns, of any rank."""
    rows = draw(st.integers(0, 4))
    cols = rows + draw(st.integers(0, 3))
    entries = draw(st.lists(_fractions, min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, entries)


def _greedy(count, rank):
    """The indices below ``count`` that a greedy pass keeps, judged by ``rank``."""
    kept = []
    for i in range(count):
        if rank(kept + [i]) > len(kept):
            kept.append(i)
    return kept


def _rows(m, indices):
    rows = m.row_lists()
    return RatMatrix(len(indices), m.cols, [x for i in indices for x in rows[i]])


def _std(c_block, n):
    """The matrix (I_r | C)."""
    rows = zip(RatMatrix.identity(c_block.rows).row_lists(), c_block.row_lists())
    return RatMatrix(c_block.rows, n, [x for i, c in rows for x in i + c])


_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@_SETTINGS
@given(_matrices())
def test_rank_is_brute_rank_and_rank_of_transpose(m):
    assert rank_rat(m) == brute_rank(m) == rank_rat(m.transpose())


@_SETTINGS
@given(_matrices())
def test_echelon_pivots_are_the_greedy_column_basis(m):
    pivots, rows = echelon(m.row_lists())
    assert pivots == _greedy(m.cols, lambda cs: brute_rank(m.column_submatrix(cs)))
    assert len(rows) == len(pivots)
    for p, row in zip(pivots, rows):
        assert row[p] and not any(row[:p])
    for row in rows:  # independent, so spanning the row space if inside it
        assert brute_rank(RatMatrix.from_rows(m.row_lists() + [row])) == len(pivots)


@_SETTINGS
@given(_matrices())
def test_row_basis_keeps_the_greedy_rows(m):
    kept = _greedy(m.rows, lambda rs: brute_rank(_rows(m, rs)))
    assert row_basis(m) == _rows(m, kept)


@_SETTINGS
@given(_matrices())
def test_standard_form_at_every_basis_keeps_the_covectors(m):
    r, n = brute_rank(m), m.cols
    covectors = all_covectors(m)
    for basis in itertools.combinations(range(n), r):
        if brute_rank(m.column_submatrix(basis)) < r:
            with pytest.raises(InvalidBasisError):
                standard_form(m, basis)
            continue
        perm, c_block = standard_form(m, basis)
        assert perm[:r] == basis and sorted(perm) == list(range(n))
        permuted = {SignVector(x.signs[j] for j in perm) for x in covectors}
        assert all_covectors(_std(c_block, n)) == permuted


@_SETTINGS
@given(_matrices(), st.data())
def test_minor_covectors_vanish_on_the_contraction(m, data):
    om = RealizedOM(row_basis(m))
    n = m.cols
    roles = data.draw(st.lists(st.sampled_from("kdc"), min_size=n, max_size=n))
    delete = {e for e in range(n) if roles[e] == "d"}
    contract = {e for e in range(n) if roles[e] == "c"}
    out = minor(om, delete, contract)
    rest = [e for e in range(n) if e not in delete | contract]
    assert out.labels == tuple(rest)
    want = {
        SignVector(x.signs[e] for e in rest)
        for x in all_covectors(om.matrix)
        if not any(x.signs[e] for e in contract)
    }
    assert all_covectors(out.matrix) == want


@_SETTINGS
@given(_wide())
def test_chirotope_is_the_normalized_minor_signs(m):
    rows = m.row_lists()
    raw = {
        sub: det_sign_eps([[row[j] for j in sub] for row in rows])
        for sub in itertools.combinations(range(m.cols), m.rows)
    }
    flip = next((s for _, s in sorted(raw.items()) if s), 0)
    if m.rows and not flip:
        with pytest.raises(NotARealizationError):
            chirotope_from_matrix(m)
        return
    chi = chirotope_from_matrix(m)
    assert (chi.ground_size, chi.rank) == (m.cols, m.rows)
    assert chi.signs == {sub: s * (flip or 1) for sub, s in raw.items()}


@_SETTINGS
@given(_wide(), st.data())
def test_chirotope_rejects_dependent_rows(m, data):
    if not m.rows:
        return
    rows = m.row_lists()
    a, b = data.draw(_fractions), data.draw(_fractions)
    rows[0] = [a * x + b * y for x, y in zip(rows[-1], rows[len(rows) // 2])]
    if len(rows) == 1:
        rows[0] = [0] * m.cols
    with pytest.raises(NotARealizationError):
        chirotope_from_matrix(RatMatrix.from_rows(rows))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_matrices())
def test_cocircuits_are_the_minimal_covectors(m):
    om = RealizedOM(row_basis(m))
    assert set(cocircuits(om)) == brute_cocircuits(om.matrix)


_generators = st.frozensets(st.integers(0, 5), min_size=1)


@_SETTINGS
@given(
    st.lists(_generators, min_size=1, max_size=6),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3), max_size=3),
    st.randoms(use_true_random=False),
)
def test_mobius_on_union_closures_is_the_inversion_oracle(gens, picks, rnd):
    # each pick appends a repeat or a union of drawn generators
    gens = gens + [frozenset().union(*(gens[i % len(gens)] for i in pick)) for pick in picks]
    rnd.shuffle(gens)
    closed = union_closure({frozenset()} | set(gens))
    mobius = keyed_by_sets(mobius_from_bottom([bitmask(s) for s in gens]))
    assert set(mobius) == closed
    assert mobius == mobius_by_inversion(closed)

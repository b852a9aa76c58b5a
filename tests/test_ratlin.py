"""Exact arithmetic kernel: determinant signs, ranks, the certified eps
perturbation, and the standard-form reduction."""

import itertools
import random
from fractions import Fraction

import pytest

from nlpoly.errors import DimensionError, InvalidBasisError
from nlpoly.ratlin import (
    RatMatrix,
    det_rat,
    det_sign_eps,
    eps_limit_rows,
    rank_rat,
    row_basis,
    standard_form,
)
from oracles import brute_rank, eps_limit_det_sign, perm_det


# ---------------------------------------------------------------------------
# determinant signs


def test_det_sign_identity():
    assert det_sign_eps(RatMatrix.identity(2).row_lists()) == 1


def test_det_sign_singular():
    assert det_sign_eps([[1, 1], [Fraction(1, 2), Fraction(1, 2)]]) == 0


def test_det_sign_lowest_degree_wins():
    # det = eps^2 - eps^3; the eps^2 term dominates as eps -> 0+
    rows = [[(1, 0), (1, 0)], [(1, 3), (1, 2)]]
    certified = eps_limit_rows(rows)
    assert certified == [[1, 1], [1, 5]]  # K = 1 + 2 * 2
    assert det_sign_eps(certified) == 1
    # and with the lower power carrying the minus sign
    assert det_sign_eps(eps_limit_rows([[(1, 0), (1, 0)], [(1, 2), (1, 3)]])) == -1


def test_det_sign_requires_square():
    with pytest.raises(DimensionError):
        det_sign_eps([[1, 1]])


def test_det_sign_empty_matrix():
    assert det_sign_eps([]) == 1


def test_det_sign_matches_rational_determinant():
    rng = random.Random(20260809)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        m = RatMatrix.from_rows(rows)
        expected = perm_det(rows)
        want = 1 if expected > 0 else -1 if expected < 0 else 0
        assert det_sign_eps(rows) == want
        assert det_rat(m) == expected


def _random_monomial_rows(rng, rows, cols):
    return [
        [(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))), rng.randint(0, 4))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def test_det_sign_matches_permutation_expansion_on_eps_entries():
    # arbitrary monomial entries, not only the union supermatroid's shape:
    # the certified eps gives every determinant its eps -> 0+ sign
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = _random_monomial_rows(rng, n, n)
        assert det_sign_eps(eps_limit_rows(rows)) == eps_limit_det_sign(rows)


def test_eps_limit_rows_keep_the_symbolic_rank():
    rng = random.Random(101)
    for _ in range(150):
        r, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = _random_monomial_rows(rng, r, n)
        certified = eps_limit_rows(rows)
        assert all(type(x) is int for row in certified for x in row)
        # symbolic rank: the largest k with a k x k minor not identically 0
        want = max(
            (
                k
                for k in range(1, min(r, n) + 1)
                for rs in itertools.combinations(range(r), k)
                for cs in itertools.combinations(range(n), k)
                if eps_limit_det_sign([[rows[i][j] for j in cs] for i in rs])
            ),
            default=0,
        )
        assert rank_rat(RatMatrix.from_rows(certified)) == want


# ---------------------------------------------------------------------------
# ranks


def test_rank_examples():
    assert rank_rat(RatMatrix(0, 0, [])) == 0
    digon_incidence = RatMatrix.from_rows([[1, -1], [-1, 1]])
    assert rank_rat(digon_incidence) == 1
    assert rank_rat(RatMatrix.identity(3)) == 3


def test_rank_transpose_and_oracle():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        ) if rows else RatMatrix(0, cols, [])
        assert rank_rat(m) == rank_rat(m.transpose())
        assert rank_rat(m) == brute_rank(m)


def test_rank_eps_symbolic():
    # rows (1, eps) and (eps, eps^2) are proportional over Q(eps)
    proportional = eps_limit_rows([[(1, 0), (1, 1)], [(1, 1), (1, 2)]])
    assert rank_rat(RatMatrix.from_rows(proportional)) == 1
    independent = eps_limit_rows([[(1, 0), (1, 1)], [(1, 1), (1, 0)]])
    assert rank_rat(RatMatrix.from_rows(independent)) == 2


def test_row_basis_keeps_first_independent_rows():
    m = RatMatrix.from_rows([[1, 1], [2, 2], [0, 1], [1, 0]])
    assert row_basis(m) == RatMatrix.from_rows([[1, 1], [0, 1]])
    assert row_basis(RatMatrix.from_rows([[0, 0, 0]])) == RatMatrix(0, 3, [])
    assert row_basis(RatMatrix(1, 0, [])) == RatMatrix(0, 0, [])


# ---------------------------------------------------------------------------
# standard form


def test_standard_form_identity():
    perm, c = standard_form(RatMatrix.identity(3))
    assert perm == (0, 1, 2)
    assert c.rows == 3 and c.cols == 0


def test_standard_form_digon_incidence():
    m = RatMatrix.from_rows([[1, -1], [-1, 1]])
    perm, c = standard_form(m, basis=[0])
    assert perm == (0, 1)
    assert c.rows == 1 and c.cols == 1
    assert c.at(0, 0) == -1


def test_standard_form_three_cycle_incidence():
    # arcs 0->1, 1->2, 2->0 with tail +1 / head -1
    m = RatMatrix.from_rows([[1, 0, -1], [-1, 1, 0], [0, -1, 1]])
    perm, c = standard_form(m, basis=[0, 1])
    assert perm == (0, 1, 2)
    assert c.rows == 2 and c.cols == 1
    assert [c.at(0, 0), c.at(1, 0)] == [-1, -1]


def test_standard_form_picks_lex_smallest_basis():
    m = RatMatrix.from_rows([[0, 1, 1], [0, 0, 2]])
    perm, c = standard_form(m)
    assert perm == (1, 2, 0)  # column 0 is a loop
    assert c.rows == 2 and c.cols == 1
    assert [c.at(0, 0), c.at(1, 0)] == [0, 0]


def test_standard_form_rejects_bad_bases():
    m = RatMatrix.from_rows([[1, -1], [-1, 1]])
    with pytest.raises(InvalidBasisError):
        standard_form(m, basis=[0, 1])  # dependent pair, wrong size
    with pytest.raises(InvalidBasisError):
        standard_form(RatMatrix.identity(2), basis=[0])  # too small
    with pytest.raises(InvalidBasisError):
        standard_form(RatMatrix.identity(2), basis=[0, 5])  # out of range


def _perm_matrix_rows(m, perm):
    rows = m.row_lists()
    return [[row[j] for j in perm] for row in rows]


def test_standard_form_preserves_column_matroid():
    rng = random.Random(4242)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 6)
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        )
        perm, c = standard_form(m)
        r = c.rows
        std = RatMatrix.from_rows(
            [
                [1 if j == i else 0 for j in range(r)]
                + [c.at(i, j) for j in range(c.cols)]
                for i in range(r)
            ]
        ) if r else RatMatrix(0, cols, [])
        assert rank_rat(std) == rank_rat(m) == r
        assert sorted(perm) == list(range(cols))
        # identical independent sets through the permutation, brute force
        for size in range(cols + 1):
            for positions in itertools.combinations(range(cols), size):
                lhs = rank_rat(std.column_submatrix(positions))
                rhs = rank_rat(m.column_submatrix([perm[p] for p in positions]))
                assert lhs == rhs

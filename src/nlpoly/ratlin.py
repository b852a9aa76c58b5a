"""Exact linear algebra over the rationals.

Everything here is exact: values are plain ints or
``fractions.Fraction``.  A matrix whose entries carry powers of a
positive infinitesimal eps is never handled symbolically; instead
``eps_limit_rows`` evaluates it at a rational eps0 that is certified
small enough for every minor to have its eps -> 0+ sign and rank, and
clears the powers of 1/eps0 into integer entries.

Two elimination kernels do all the work: ``echelon`` (division-free, for
ranks, row bases and minors) and Bareiss determinants (exact divisions),
from which the standard form takes its C-block by Cramer's rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionError, InvalidBasisError


def sign_of(q) -> int:
    """Sign of an exact number as -1, 0 or +1."""
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


class RatMatrix:
    """Dense rational matrix, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries", "_cleared")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._cleared = None

    @classmethod
    def from_rows(cls, row_lists) -> "RatMatrix":
        row_lists = [list(r) for r in row_lists]
        ncols = len(row_lists[0]) if row_lists else 0
        if any(len(r) != ncols for r in row_lists):
            raise DimensionError("ragged rows")
        return cls(len(row_lists), ncols, [x for r in row_lists for x in r])

    @classmethod
    def identity(cls, n) -> "RatMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row_lists(self):
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def column_submatrix(self, cols) -> "RatMatrix":
        cols = list(cols)
        e, c = self.entries, self.cols
        return RatMatrix(
            self.rows, len(cols), [e[i * c + j] for i in range(self.rows) for j in cols]
        )

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols}, {self.row_lists()})"


# ---------------------------------------------------------------------------
# elimination kernels on plain row lists


def echelon(rows):
    """Row echelon form by division-free cross-multiplication.

    Returns ``(pivots, rows)``: the increasing pivot columns, which are the
    lexicographically first column basis, and the nonzero echelon rows,
    which span the row space and are zero left of their pivots.
    """
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    pivots = []
    for c in range(n):
        pr = len(pivots)
        if pr == m:
            break
        piv = next((i for i in range(pr, m) if a[i][c]), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        ap = a[pr]
        pk = ap[c]
        for i in range(pr + 1, m):
            f = a[i][c]
            if f:
                ai = a[i]
                a[i] = [pk * ai[j] - f * ap[j] for j in range(n)]
        pivots.append(c)
    return pivots, a[: len(pivots)]


def _det_rows_number(rows):
    """Exact determinant of square rational rows via Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if all(isinstance(x, int) for r in a for x in r):
        div = lambda x, d: x // d
    else:
        a = [[Fraction(x) for x in r] for r in a]
        div = lambda x, d: x / d
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = div(pk * ai[j] - aik * ak[j], prev)
            ai[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# public operations


def det_sign_eps(rows) -> int:
    """Sign of the determinant of square rational rows.

    The name is historical: a matrix perturbed by eps reaches here as
    the integer rows of ``eps_limit_rows``, whose determinant signs are
    the eps -> 0+ limits.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError(f"determinant of a {n}x{len(rows[0])} matrix")
    return sign_of(_det_rows_number(rows))


def det_rat(m: RatMatrix):
    """Exact rational determinant."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    return _det_rows_number(m.row_lists())


def rank_rat(m: RatMatrix) -> int:
    """Rank over the rationals."""
    return len(echelon(m.row_lists())[0])


def row_basis(m: RatMatrix) -> RatMatrix:
    """The lexicographically first row basis of ``m``: the rows at the
    pivots of its transpose, a full-row-rank matrix with the same row
    space."""
    rows = m.row_lists()
    kept = echelon(m.transpose().row_lists())[0]
    return RatMatrix(len(kept), m.cols, [x for i in kept for x in rows[i]])


def integer_row(row):
    """``row`` times the least positive integer that clears its denominators."""
    scale = math.lcm(*(x.denominator for x in row)) if row else 1
    return [int(x * scale) for x in row]


def cleared_echelon(m: RatMatrix):
    """``(rows, pivots, ech)``: the rows of ``m`` cleared of denominators
    by ``integer_row``, with their ``echelon`` pivots and rows, as tuples.

    Computed on first use and kept on the matrix, whose entries never
    change, so an oriented matroid, its chirotope and its standard form
    share one clearing and one elimination.
    """
    if m._cleared is None:
        rows = tuple(tuple(integer_row(row)) for row in m.row_lists())
        pivots, ech = echelon(rows)
        m._cleared = (rows, tuple(pivots), tuple(map(tuple, ech)))
    return m._cleared


def eps_limit_rows(rows):
    """Integer rows whose minors all have their eps -> 0+ sign and rank.

    Every entry of ``rows`` is a monomial ``(coeff, degree)`` in a
    positive infinitesimal eps, with rational ``coeff``.  Clear each
    row's denominators by a positive integer and let S be the product of
    the rows' l1 norms (a zero row counts as 1).  Every k x k minor is
    then an integer polynomial in eps whose absolute coefficients sum to
    at most S, so at eps0 = 1/K with K = S + 1 its lowest-degree
    coefficient outweighs the rest: the minor has the sign of the
    limit, and vanishes only if it vanishes identically.  Each row is
    returned multiplied by K^D, D its largest degree, so an entry c*eps^d
    becomes the integer c*K^(D-d); positive row scalings change no
    minor's sign or rank.
    """
    coeffs = [integer_row([c for c, _ in row]) for row in rows]
    k = 1 + math.prod(max(1, sum(map(abs, row))) for row in coeffs)
    out = []
    for row, ints in zip(rows, coeffs):
        top = max((d for _, d in row), default=0)
        out.append([c * k ** (top - d) for c, (_, d) in zip(ints, row)])
    return out


def standard_form(m: RatMatrix, basis=None):
    """Column permutation and C-block of the realization (I_r | C).

    Returns ``(perm, C)`` where ``perm`` lists the original column of
    each permuted position (basis columns first) and row-reducing
    ``m[:, perm]`` yields ``(I_r | C)``.  When ``basis`` is omitted the
    lexicographically smallest column basis, the echelon pivots, is
    used; a supplied basis is kept in the order given.

    (I_r | C) is B^-1 times the echelon rows, B their basis columns, so
    Cramer's rule gives C[i][q] = det(B with column i replaced by column
    q) / det(B) on those rows cleared of denominators; a supplied basis
    is dependent exactly when det(B) = 0.
    """
    _, pivots, rows = cleared_echelon(m)
    r = len(pivots)
    if basis is None:
        basis = pivots
    else:
        basis = list(basis)
        if len(set(basis)) != len(basis) or not all(0 <= j < m.cols for j in basis):
            raise InvalidBasisError(basis, "is not a set of valid column indices")
        if len(basis) != r:
            raise InvalidBasisError(basis, f"has size {len(basis)}, matroid rank is {r}")
    b = [[row[j] for j in basis] for row in rows]
    det_b = _det_rows_number(b)
    if det_b == 0:
        raise InvalidBasisError(basis, "is a dependent column set")
    rest = [j for j in range(m.cols) if j not in set(basis)]
    c_block = []
    for i in range(r):
        for q in rest:
            b_iq = [x[:i] + [row[q]] + x[i + 1 :] for x, row in zip(b, rows)]
            c_block.append(Fraction(_det_rows_number(b_iq), det_b))
    return tuple(basis) + tuple(rest), RatMatrix(r, len(rest), c_block)

"""Oriented-matroid combinatorics from an exact realization.

A realized oriented matroid is a full-row-rank matrix over the
rationals; its chirotope is the sign map of its maximal minors, all read
off one Laplace pass over the echelon rows, which shares every sub-minor
between column r-tuples.  The signed cocircuits come from the bases
alone: dropping one element of a basis leaves an independent set whose
hyperplane the basis's sign fixes on that element, so grouping the
bases by those sets gives every hyperplane's cocircuit.  The nonnegative
face lattice is the union closure of the nonnegative cocircuits'
supports, built on int bitmasks; its ranks are read off its covers and
its Moebius values off its ranks.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    ContractViolation,
    DimensionError,
    InvalidPosetError,
    NotARealizationError,
)
from .ratlin import RatMatrix, cleared_echelon, det_sign_eps, echelon, sign_of, standard_form


_SIGNS = frozenset((-1, 0, 1))


class SignVector:
    """A {+1, 0, -1} assignment on a ground set, immutable."""

    __slots__ = ("signs", "_support")

    def __init__(self, signs):
        signs = tuple(signs)
        if not _SIGNS.issuperset(signs):
            raise ValueError("sign entries must be -1, 0 or +1")
        self.signs = signs
        self._support = None

    @property
    def size(self) -> int:
        return len(self.signs)

    @property
    def support(self) -> frozenset:
        if self._support is None:
            self._support = frozenset(i for i, s in enumerate(self.signs) if s)
        return self._support

    def is_nonnegative(self) -> bool:
        return -1 not in self.signs

    def __neg__(self):
        return SignVector(tuple(-s for s in self.signs))

    def __eq__(self, other):
        return isinstance(other, SignVector) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    def __str__(self):
        return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in self.signs)

    def __repr__(self):
        return f"SignVector({self})"


class Chirotope:
    """Alternating sign map on ordered r-tuples of ground elements.

    Stored on sorted tuples.  Normalized so the lexicographically first
    basis maps to +1.
    """

    __slots__ = ("ground_size", "rank", "signs")

    def __init__(self, ground_size, rank, signs):
        self.ground_size = ground_size
        self.rank = rank
        self.signs = dict(signs)

    def bases(self):
        return tuple(t for t in sorted(self.signs) if self.signs[t])

    def __eq__(self, other):
        return (
            isinstance(other, Chirotope)
            and self.ground_size == other.ground_size
            and self.rank == other.rank
            and self.signs == other.signs
        )

    def __repr__(self):
        return f"Chirotope(n={self.ground_size}, r={self.rank})"


class FaceLattice:
    """Nonnegative covectors, each given by its support, ordered by inclusion.

    A nonnegative covector is determined by its support, so ``elements``
    holds frozensets, by size and then sorted contents, starting with the
    bottom ``frozenset()`` (the zero covector, rank 0); ``rank_of`` maps
    each to its lattice rank, the length of every maximal chain from the
    bottom, since a face lattice is graded by dimension (Bjoerner et al.,
    *Oriented Matroids*, ch. 4).  Every interval [0, X] is Eulerian
    (ibid.), so the Moebius value ``mobius(x)`` = mu(0, X) is
    (-1)^rank(X).
    """

    __slots__ = ("elements", "rank_of")

    def __init__(self, elements, rank_of):
        self.elements = tuple(elements)
        self.rank_of = dict(rank_of)

    @property
    def bottom(self) -> frozenset:
        return self.elements[0]

    def mobius(self, x) -> int:
        """mu(bottom, x) by the Eulerian closed form."""
        return (-1) ** self.rank_of[x]

    def __contains__(self, x):
        return x in self.rank_of

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FaceLattice({len(self.elements)} covectors)"


# ---------------------------------------------------------------------------
# chirotope extraction


def chirotope_from_matrix(m: RatMatrix) -> Chirotope:
    """Chirotope of the column oriented matroid of a full-row-rank matrix.

    Every maximal minor comes from one Laplace pass over the echelon rows
    E of ``m`` (denominators cleared, see ``ratlin.cleared_echelon``):
    walking E bottom-up, each nonzero minor of the last k rows on a
    column set T, kept under T's bitmask, is extended by every column j
    outside T where the next row is nonzero, with the sign of j's
    insertion position in T, the parity of the elements of T below j.
    Row echelon steps multiply every maximal minor by one common nonzero
    factor, so the signs agree with those of ``m`` up to a global flip;
    the staircase zeros of E keep the partial minors of the last k rows
    to column sets that fit under its pivots.  Every r-tuple keeps an
    entry, zeros included.

    Globally negated if needed so the lexicographically first basis, the
    echelon pivots, is +1.  Two Bareiss determinants of ``m`` itself, at
    the pivots and at the last nonzero tuple, must multiply to the
    pass's product there, or ``ContractViolation`` is raised.
    """
    r, n = m.rows, m.cols
    if r > n:
        raise NotARealizationError(f"{r} rows cannot be independent among {n} columns")
    rows, pivots, ech = cleared_echelon(m)
    if len(pivots) < r:
        raise NotARealizationError("matrix does not have full row rank")
    if r == 0:
        return Chirotope(n, 0, {(): 1})
    # Each echelon row is divisible by the pivots above it; dividing out its
    # positive content keeps the partial minors near the size of true minors.
    ech = [[x // g for x in row] for row in ech for g in [math.gcd(*row)]]
    minors = {0: 1}
    for row in reversed(ech[1:]):
        entries = [(1 << j, x) for j, x in enumerate(row) if x]
        wider = {}
        for t, v in minors.items():
            if not v:
                continue
            for bit, x in entries:
                if not t & bit:
                    s = t | bit
                    odd = (t & (bit - 1)).bit_count() & 1
                    wider[s] = wider.get(s, 0) + (-x * v if odd else x * v)
        minors = wider
    # The top row closes one r-tuple at a time, so the full minors, the
    # largest numbers of the pass, are never stored together.
    top = [(1 << j, x) for j, x in enumerate(ech[0])]
    signs = {}
    for sub in itertools.combinations(range(n), r):
        mask = 0
        for j in sub:
            mask |= top[j][0]
        total = 0
        odd = False
        for j in sub:
            bit, x = top[j]
            if x:
                v = minors.get(mask ^ bit)
                if v:
                    total += -x * v if odd else x * v
            odd = not odd
        signs[sub] = sign_of(total)
    first = tuple(pivots)
    last = max(sub for sub, s in signs.items() if s)
    spot = [det_sign_eps([[row[j] for j in sub] for row in rows]) for sub in (first, last)]
    if spot[0] * spot[1] != signs[first] * signs[last]:
        raise ContractViolation("chirotope: Laplace pass and Bareiss determinants disagree")
    if signs[first] < 0:
        signs = {sub: -s for sub, s in signs.items()}
    return Chirotope(n, r, signs)


class RealizedOM:
    """An oriented matroid given by a full-row-rank exact realization."""

    __slots__ = ("matrix", "labels", "_chirotope", "_cocircuits", "_lattice")

    def __init__(self, matrix: RatMatrix, labels=None):
        # ranks are taken on the rows cleared of denominators, in integers;
        # the matrix keeps them and their echelon form for the chirotope
        _, pivots, _ = cleared_echelon(matrix)
        if len(pivots) != matrix.rows:
            raise NotARealizationError("matrix does not have full row rank")
        self.matrix = matrix
        if labels is None:
            labels = tuple(range(matrix.cols))
        else:
            labels = tuple(labels)
            if len(labels) != matrix.cols:
                raise DimensionError("one label per ground element required")
        self.labels = labels
        self._chirotope = None
        self._cocircuits = None
        self._lattice = None

    @classmethod
    def from_rational(cls, m: RatMatrix, labels=None) -> "RealizedOM":
        return cls(m, labels)

    @property
    def chirotope(self) -> Chirotope:
        if self._chirotope is None:
            self._chirotope = chirotope_from_matrix(self.matrix)
        return self._chirotope

    @property
    def ground_size(self) -> int:
        return self.matrix.cols

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def is_standard_form(self) -> bool:
        m = self.matrix
        return self.rank <= self.ground_size and all(
            m.at(i, j) == (1 if i == j else 0)
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def column_rank(self, cols) -> int:
        """Rank of the column submatrix on ``cols``."""
        cols = sorted(cols)
        rows = cleared_echelon(self.matrix)[0]
        return len(echelon([[row[j] for j in cols] for row in rows])[0])

    def bases(self):
        return self.chirotope.bases()

    def __repr__(self):
        return f"RealizedOM(n={self.ground_size}, r={self.rank})"


# ---------------------------------------------------------------------------
# cocircuits and the nonnegative face lattice


def cocircuits(om: RealizedOM):
    """All signed cocircuits of ``om``, closed under negation.

    Read off the bases alone.  For a basis T and its element e at
    position p, the independent set S = T - e spans a hyperplane H, and
    the cocircuit of H is nonzero exactly off H, that is on the e' that
    complete S to a basis, with sign (-1)^p' chi(T') there, up to one
    global sign.  So each basis T and position p give S's cocircuit the
    value (-1)^p chi(T) at T[p]; these are gathered into a positive and
    a negative bitmask per S, and the sets S are deduplicated by support,
    since the sets spanning one hyperplane give it the same cocircuit up
    to sign.  One representative per hyperplane is anchored with its
    least support element positive; the tuple, each representative next
    to its negation, is sorted by support and then signs for
    deterministic output.
    """
    if om._cocircuits is not None:
        return om._cocircuits
    chi = om.chirotope
    n = chi.ground_size
    # sub -> positive mask | negative mask << n
    halves = {}
    for t, s in chi.signs.items():
        if not s:
            continue
        mask = _mask(t)
        shift = 0 if s > 0 else n  # the half of t[0]; (-1)^p flips it at each step
        for e in t:
            bit = 1 << e
            sub = mask ^ bit
            halves[sub] = halves.get(sub, 0) | bit << shift
            shift = n - shift
    full = (1 << n) - 1
    by_support = {}
    for v in halves.values():
        plus, minus = v & full, v >> n
        support = plus | minus
        if support not in by_support:
            least = support & -support
            by_support[support] = (minus, plus) if minus & least else (plus, minus)
    out = []
    for _, support in sorted((_elements(m), m) for m in by_support):
        plus, minus = by_support[support]
        signs = [1 if plus >> e & 1 else -1 if minus >> e & 1 else 0 for e in range(n)]
        out.append(SignVector([-s for s in signs]))  # -1 at the least element sorts first
        out.append(SignVector(signs))
    om._cocircuits = tuple(out)
    return om._cocircuits


def _elements(mask) -> list:
    """The elements of an int bitmask, increasing.  A list, not a tuple:
    the interpreter keeps up to 2,000 freed tuples of each small size
    for reuse, which would hold on to the memory of these short-lived
    keys."""
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def mobius_from_bottom(generators) -> dict:
    """Moebius values mu(0, X) on every union X of ``generators``.

    ``generators`` are nonempty sets given as int bitmasks, in any order;
    repeats and unions of other generators are allowed.  Their unions,
    the empty union 0 included, form a family closed under union, so
    inclusion makes it a lattice with bottom 0 whose join is union.  The
    values come from Rota's crosscut over the generators.  Let f(X) be
    the sum of (-1)^|S| over the sets S of list positions whose
    generators have union X.  Then the sum of f(Y) over the members
    Y <= X is the sum of (-1)^|S| over all sets S of positions whose
    generators lie below X: 1 at X = 0, below which no generator lies,
    since each is nonempty, and 0 above it, where some does.  That is
    the defining recursion of mu, so f = mu.  One loop builds the family
    and f together: a new generator g splits each S into those without
    g and those with it, so every value found so far at X adds its
    negation at X | g.  The cost is the number of generators times the
    size of the family.

    Returns ``{member: mu}``.  An empty generator would make every value
    0, so it raises ``InvalidPosetError``.
    """
    mu = {0: 1}
    for g in generators:
        if not g:
            raise InvalidPosetError("an empty generator makes every Moebius value 0")
        for x, v in list(mu.items()):
            mu[x | g] = mu.get(x | g, 0) - v
    return mu


def nonneg_face_lattice(om: RealizedOM) -> FaceLattice:
    """The lattice of nonnegative covectors of ``om``, as their supports.

    Nonnegative covectors are exactly the compositions of nonnegative
    cocircuits, so their supports are the unions of the nonnegative
    cocircuits' supports: ``mobius_from_bottom`` closes those bitmasks
    under union.  Ranks come from covers, with no linear algebra.  The
    lattice is atomistic with the cocircuits as atoms, so every X that
    covers x is x | g for an atom g <= X, while x | g is above x for
    every atom g not below x.  Visiting the members by size and raising
    rank(x | g) to rank(x) + 1 therefore finds, at each member, the
    longest chain from the bottom, which in the graded face lattice is
    its rank.  The members are turned into frozensets once, at the end.
    """
    if om._lattice is not None:
        return om._lattice
    atoms = [_mask(d.support) for d in cocircuits(om) if d.is_nonnegative()]
    members = sorted(mobius_from_bottom(atoms), key=lambda m: (m.bit_count(), _elements(m)))
    rank = dict.fromkeys(members, 0)
    for x in members:
        up = rank[x] + 1
        for g in atoms:
            y = x | g
            if y != x and rank[y] < up:
                rank[y] = up
    elements = [frozenset(_elements(m)) for m in members]
    om._lattice = FaceLattice(elements, {x: rank[m] for x, m in zip(elements, members)})
    return om._lattice


def _mask(elements) -> int:
    """The int bitmask of a set of elements."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


# ---------------------------------------------------------------------------
# duality and standard form


def dual_realization(om: RealizedOM) -> RealizedOM:
    """The dual oriented matroid of a standard-form realization.

    For om realized by (I_r | C) the dual is realized by
    (-C^T | I_{n-r}) on the same ground labels.
    """
    if not om.is_standard_form():
        raise ContractViolation("dual_realization requires a standard-form realization")
    r, n = om.rank, om.ground_size
    c_t = om.matrix.column_submatrix(range(r, n)).transpose().row_lists()
    rows = zip(c_t, RatMatrix.identity(n - r).row_lists())
    dual_matrix = RatMatrix(n - r, n, [x for c, i in rows for x in [-y for y in c] + i])
    return RealizedOM.from_rational(dual_matrix, om.labels)


def standardize(om: RealizedOM, basis=None):
    """Reorder and row-reduce ``om`` into standard form (I_r | C).

    Returns ``(std_om, perm)``; ``perm[i]`` is the original column at
    permuted position i, and ``std_om.labels`` carries the original
    labels along.
    """
    perm, c_block = standard_form(om.matrix, basis)
    rows = zip(RatMatrix.identity(c_block.rows).row_lists(), c_block.row_lists())
    std_matrix = RatMatrix(c_block.rows, om.ground_size, [x for i, c in rows for x in i + c])
    return RealizedOM.from_rational(std_matrix, tuple(om.labels[p] for p in perm)), perm

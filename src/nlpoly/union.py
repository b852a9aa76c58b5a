"""The union supermatroid and its lifting/restriction maps.

Given M in standard form (I_r | C) on n elements, the supermatroid
lives on 2n elements: E (the original ground), A (one partner per
basis element) and B (one partner per cobasis element); the partner of
e in E is e + n.  It is realized by stacking (I_r | C | I_r | 0) on top
of (-C^T | I_{n-r} | 0 | I_{n-r}) with column j of the bottom block
scaled by eps^(2n-1-j) for a positive infinitesimal eps; deleting A and
contracting B recovers M, while
contracting A and deleting B recovers the dual.  The realization is
built at a rational eps certified small enough for every minor to have
its eps -> 0+ sign and rank (``ratlin.eps_limit_rows``), so the union
supermatroid is an ordinary integer-matrix realization.  Nonnegative
covectors of M and of the dual, each given by its support, lift into
the supermatroid's face lattice and restrict back out of it.
"""

from __future__ import annotations

from .errors import ContractViolation, DimensionError
from .om import RealizedOM, dual_realization, nonneg_face_lattice
from .ratlin import RatMatrix, echelon, eps_limit_rows

PRIMAL = "primal"
DUAL = "dual"
NEITHER = "neither"


class HatMatroid:
    """M, its dual, its union supermatroid, and the bookkeeping between them."""

    __slots__ = ("base", "base_dual", "hat", "a_elems", "b_elems")

    def __init__(self, base, base_dual, hat, a_elems, b_elems):
        self.base = base
        self.base_dual = base_dual
        self.hat = hat
        self.a_elems = a_elems
        self.b_elems = b_elems

    @property
    def n(self) -> int:
        return self.base.ground_size

    @property
    def r(self) -> int:
        return self.base.rank

    def __repr__(self):
        return f"HatMatroid(n={self.n}, r={self.r})"


def build_hat(om: RealizedOM) -> HatMatroid:
    """Construct the union supermatroid of a standard-form realization."""
    if not om.is_standard_form():
        raise ContractViolation("build_hat requires a standard-form realization (I_r | C)")
    r, n = om.rank, om.ground_size
    dual = dual_realization(om)
    rows = []
    for i, row in enumerate(om.matrix.row_lists()):
        coeffs = row + [1 if j == i else 0 for j in range(r)] + [0] * (n - r)
        rows.append([(c, 0) for c in coeffs])
    for i, row in enumerate(dual.matrix.row_lists()):
        coeffs = row + [0] * r + [1 if k == i else 0 for k in range(n - r)]
        rows.append([(c, 2 * n - 1 - j) for j, c in enumerate(coeffs)])
    hat = RealizedOM(RatMatrix.from_rows(eps_limit_rows(rows)), labels=tuple(range(2 * n)))
    return HatMatroid(
        base=om,
        base_dual=dual,
        hat=hat,
        a_elems=tuple(range(n, n + r)),
        b_elems=tuple(range(n + r, 2 * n)),
    )


def minor(om: RealizedOM, delete=(), contract=()) -> RealizedOM:
    """Delete and contract ground elements of a realized oriented matroid.

    The contraction by C is realized by the row-space vectors that vanish
    on C.  With the deleted columns dropped and the contracted ones put
    first, those vectors are spanned by the echelon rows whose pivot lies
    past C; the result is these rows without the columns of C, a
    full-row-rank realization.  No further elements are removed, so
    loops and parallels may appear.
    """
    delete, contract = set(delete), set(contract)
    if delete & contract:
        raise DimensionError("delete and contract sets must be disjoint")
    gone = delete | contract
    if any(not (0 <= e < om.ground_size) for e in gone):
        raise DimensionError("element position out of range")
    live = [e for e in range(om.ground_size) if e not in gone]
    order = sorted(contract) + live
    k = len(contract)
    pivots, rows = echelon([row[j] for j in order] for row in om.matrix.row_lists())
    kept = [row[k:] for p, row in zip(pivots, rows) if p >= k]
    matrix = RatMatrix(len(kept), len(live), [x for row in kept for x in row])
    return RealizedOM(matrix, labels=tuple(om.labels[e] for e in live))


def lift_primal(x: frozenset, h: HatMatroid) -> frozenset:
    """Lift a nonnegative covector of the base matroid into the supermatroid.

    ``x`` is the covector's support; the lift keeps it on E and adds the
    A-partners of the supported basis elements.
    """
    if x not in nonneg_face_lattice(h.base):
        raise ContractViolation("not a nonnegative covector of the base matroid")
    return x | {e + h.n for e in x if e < h.r}


def lift_dual(x: frozenset, h: HatMatroid) -> frozenset:
    """Lift a nonnegative covector of the dual matroid into the supermatroid.

    Dual to ``lift_primal``: adds to the support ``x`` the B-partners of
    the supported cobasis elements.
    """
    if x not in nonneg_face_lattice(h.base_dual):
        raise ContractViolation("not a nonnegative covector of the dual matroid")
    return x | {e + h.n for e in x if e >= h.r}


def restrict(xhat: frozenset, h: HatMatroid):
    """Restrict a nonnegative supermatroid covector back to the ground set E.

    ``xhat`` is the covector's support.  Returns ``(side, x)`` with x the
    support on E: ``(PRIMAL, x)`` when ``xhat`` avoids B (x is then a
    nonnegative covector of the base; the empty support reports PRIMAL
    by convention), ``(DUAL, x)`` when it avoids A only, and
    ``(NEITHER, None)`` when it meets both A and B.
    """
    if any(not 0 <= e < 2 * h.n for e in xhat):
        raise DimensionError("support element out of range of the supermatroid ground set")
    meets_a = not xhat.isdisjoint(h.a_elems)
    meets_b = not xhat.isdisjoint(h.b_elems)
    if meets_a and meets_b:
        return NEITHER, None
    return (DUAL if meets_b else PRIMAL), frozenset(e for e in xhat if e < h.n)

"""Integer polynomials in (x, y, z) and the three lattice polynomials.

The NL-coflow polynomial sums Moebius values of the dual's nonnegative
face lattice with x-exponent rk(M / support); the NL-flow polynomial is
its dual twin; the dichromate runs over the face lattice of the union
supermatroid with y and z counting how far a covector reaches into the
A- and B-elements, so that setting (y, z) to (0, 1) or (1, 0) recovers
the two univariate polynomials up to a power of x.
"""

from __future__ import annotations

from .om import RealizedOM, nonneg_face_lattice, dual_realization, standardize
from .union import build_hat


class TriPoly:
    """Sparse integer polynomial in x, y, z.

    ``terms`` maps exponent triples (i, j, k) to nonzero integer
    coefficients; the zero polynomial has an empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError("negative exponent")
            c = acc.get((i, j, k), 0) + coeff
            if c:
                acc[(i, j, k)] = c
            elif (i, j, k) in acc:
                del acc[(i, j, k)]
        self.terms = acc

    @classmethod
    def const(cls, c) -> "TriPoly":
        return cls({(0, 0, 0): c}) if c else cls()

    @classmethod
    def monomial(cls, c, i, j=0, k=0) -> "TriPoly":
        return cls({(i, j, k): c}) if c else cls()

    @classmethod
    def x(cls, power=1) -> "TriPoly":
        return cls.monomial(1, power)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = TriPoly.const(other)
        return isinstance(other, TriPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = TriPoly.const(other)
        return TriPoly(list(self.terms.items()) + list(other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return TriPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = TriPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = TriPoly.const(other)
        out = []
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                out.append(((i1 + i2, j1 + j2, k1 + k2), c1 * c2))
        return TriPoly(out)

    __rmul__ = __mul__

    def _ordered(self):
        return sorted(self.terms.items(), key=lambda t: (-t[0][0], t[0][1], t[0][2]))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (i, j, k), c in self._ordered():
            parts = []
            for var, e in (("x", i), ("y", j), ("z", k)):
                if e == 1:
                    parts.append(var)
                elif e > 1:
                    parts.append(f"{var}^{e}")
            mag = abs(c)
            if not parts:
                body = str(mag)
            elif mag == 1:
                body = "*".join(parts)
            else:
                body = str(mag) + "*" + "*".join(parts)
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"TriPoly({self})"

    def to_json(self):
        """JSON-ready term list, sorted by (x desc, y, z)."""
        return [
            {"x": i, "y": j, "z": k, "c": c} for (i, j, k), c in self._ordered()
        ]


def specialize(p: TriPoly, y: int, z: int) -> TriPoly:
    """Substitute integers for y and z, collecting x-powers exactly."""
    out = []
    for (i, j, k), c in p.terms.items():
        out.append(((i, 0, 0), c * y**j * z**k))
    return TriPoly(out)


def evaluate(p: TriPoly, x: int, y: int = 0, z: int = 0) -> int:
    """Exact integer evaluation."""
    return sum(c * x**i * y**j * z**k for (i, j, k), c in p.terms.items())


def nl_coflow_matroid(om: RealizedOM) -> TriPoly:
    """NL-coflow polynomial: Moebius-weighted sum over the dual's nonnegative
    covectors X with exponent rk(M / X) = r - |X| + rank of X, by duality."""
    std, _ = standardize(om)
    r = std.rank
    lattice = nonneg_face_lattice(dual_realization(std))
    out = []
    for x in lattice:
        out.append(((r - len(x) + lattice.rank_of[x], 0, 0), lattice.mobius(x)))
    return TriPoly(out)


def nl_flow_matroid(om: RealizedOM) -> TriPoly:
    """NL-flow polynomial: Moebius-weighted sum over the nonnegative covectors
    X with exponent rk*(M minus X) = n - r - |X| + rank of X, by duality."""
    n, r = om.ground_size, om.rank
    lattice = nonneg_face_lattice(om)
    out = []
    for x in lattice:
        out.append(((n - r - len(x) + lattice.rank_of[x], 0, 0), lattice.mobius(x)))
    return TriPoly(out)


def dichromate_from_hat(h) -> TriPoly:
    """The dichromate read off an already-built union supermatroid."""
    n, r = h.n, h.r
    lattice = nonneg_face_lattice(h.hat)
    out = []
    for x in lattice:
        supp_e = sum(1 for e in x if e < n)
        xexp = lattice.rank_of[x] + (n - supp_e)
        yexp = sum(1 for e in x if n <= e < n + r)
        zexp = sum(1 for e in x if e >= n + r)
        out.append(((xexp, yexp, zexp), lattice.mobius(x)))
    return TriPoly(out)


def dichromate(om: RealizedOM, basis=None):
    """The trivariate dichromate of ``om`` for a basis choice.

    Returns ``(poly, basis_used)`` with the basis echoed in the
    matroid's original labels.  Each nonnegative covector X of the
    union supermatroid contributes
    mu(X) * x^(lattice rank + |E off the support|) * y^|X on A| * z^|X on B|.
    """
    std, _ = standardize(om, basis)
    h = build_hat(std)
    return dichromate_from_hat(h), tuple(std.labels[: h.r])

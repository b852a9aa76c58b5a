"""Independent brute-force oracles used as ground truth by the tests.

Everything here deliberately avoids the library's elimination and
lattice code paths: determinants by permutation expansion, ranks by
minor enumeration, covectors by filtering all sign vectors against
kernel-solved circuits, and Moebius values by solving the triangular
incidence system.  The union supermatroid's eps perturbation is kept
symbolic here, as the reference for the library's certified rational
eps: minors are expanded over monomial entries and their limit sign is
read off the lowest-degree coefficient.
"""

import itertools
from fractions import Fraction

from nlpoly.errors import DimensionError
from nlpoly.om import SignVector
from nlpoly.ratlin import RatMatrix


def perm_det(rows):
    """Determinant by permutation expansion (rational entries)."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by selection sort
            j = seen.index(min(seen[i:]), i)
            if j != i:
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def _eps_minor(rows, cols, memo):
    """Determinant, as {eps degree: coeff}, of the last len(cols) monomial
    rows on the sorted column tuple ``cols``.

    This is the permutation expansion of the minor, grouped by the column
    taken in the first of those rows (Laplace expansion), with zero
    entries skipped and shared sub-minors kept in ``memo``.
    """
    if cols in memo:
        return memo[cols]
    out = {0: 1} if not cols else {}
    i = len(rows) - len(cols)
    for pos, j in enumerate(cols):
        c, d = rows[i][j]
        if not c:
            continue
        sign = -1 if pos % 2 else 1
        for deg, coeff in _eps_minor(rows, cols[:pos] + cols[pos + 1 :], memo).items():
            out[deg + d] = out.get(deg + d, 0) + sign * c * coeff
    memo[cols] = out = {deg: c for deg, c in out.items() if c}
    return out


def _low_sign(poly) -> int:
    if not poly:
        return 0
    return 1 if poly[min(poly)] > 0 else -1


def eps_limit_det_sign(rows) -> int:
    """Sign as eps -> 0+ of the determinant of square monomial rows.

    Entries are ``(coeff, degree)`` standing for coeff * eps^degree; the
    sign is that of the lowest-degree nonzero coefficient.
    """
    return _low_sign(_eps_minor(rows, tuple(range(len(rows))), {}))


def symbolic_hat_rows(std: RatMatrix):
    """The union supermatroid's realization with eps kept symbolic.

    For a standard form (I_r | C) on n elements: rows (I_r | C | I_r | 0)
    at degree 0 over rows (-C^T | I_{n-r} | 0 | I_{n-r}) whose column j
    carries eps^(2n-1-j).
    """
    r, n = std.rows, std.cols
    out = []
    for i in range(r):
        row = [std.at(i, j) for j in range(n)] + [int(j == i) for j in range(r)] + [0] * (n - r)
        out.append([(c, 0) for c in row])
    for i in range(n - r):
        row = [-std.at(j, r + i) for j in range(r)] + [int(k == i) for k in range(n - r)]
        row += [0] * r + [int(k == i) for k in range(n - r)]
        out.append([(c, 2 * n - 1 - j) for j, c in enumerate(row)])
    return out


def eps_limit_chirotope(rows, ncols):
    """Normalized chirotope of monomial rows in the eps -> 0+ limit: the
    raw maximal-minor signs, negated if needed so that the
    lexicographically first nonzero one is +1."""
    memo = {}
    raw = {
        sub: _low_sign(_eps_minor(rows, sub, memo))
        for sub in itertools.combinations(range(ncols), len(rows))
    }
    flip = next((raw[s] for s in sorted(raw) if raw[s]), 1)
    return {sub: flip * s for sub, s in raw.items()}


def ranks_from_bases(ncols, bases):
    """Rank of every column subset (as a bitmask) from the bases alone.

    A subset of a basis is independent; a dependent set has the rank of
    its best one-element deletion.
    """
    independent = set()
    frontier = {sum(1 << e for e in b) for b in bases} or {0}
    while frontier:
        independent |= frontier
        frontier = {
            mask & ~(1 << e) for mask in frontier for e in range(ncols) if mask >> e & 1
        } - independent
    rank = [0] * (1 << ncols)
    for mask in range(1 << ncols):
        if mask in independent:
            rank[mask] = bin(mask).count("1")
        else:
            rank[mask] = max(rank[mask & ~(1 << e)] for e in range(ncols) if mask >> e & 1)
    return rank


def brute_rank(m: RatMatrix) -> int:
    """Rank as the largest size of a nonsingular square submatrix."""
    rows = m.row_lists()
    for k in range(min(m.rows, m.cols), 0, -1):
        for rset in itertools.combinations(range(m.rows), k):
            for cset in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in cset] for i in rset]
                if perm_det(sub) != 0:
                    return k
    return 0


def _kernel_vector(rows, ncols):
    """Any nonzero rational kernel vector of the column system, or None."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []  # (row, col)
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        a[pr] = [x / a[pr][c] for x in a[pr]]
        for i in range(len(a)):
            if i != pr and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append((pr, c))
        pr += 1
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    if not free:
        return None
    v = [Fraction(0)] * ncols
    v[free[0]] = Fraction(1)
    for pr, c in pivots:
        v[c] = -a[pr][free[0]]
    return v


def signed_circuits(m: RatMatrix):
    """Signed circuits: minimal dependent column sets with kernel signs."""
    n = m.cols
    rows = m.row_lists()
    dependent = set()
    circuits = set()
    for size in range(1, n + 1):
        for cset in itertools.combinations(range(n), size):
            if any(d <= set(cset) for d in dependent):
                continue
            sub = [[rows[i][j] for j in cset] for i in range(m.rows)]
            v = _kernel_vector(sub, size)
            if v is None:
                continue
            dependent.add(frozenset(cset))
            signs = [0] * n
            for pos, j in enumerate(cset):
                signs[j] = 1 if v[pos] > 0 else -1 if v[pos] < 0 else 0
            c = SignVector(tuple(signs))
            circuits.add(c)
            circuits.add(-c)
    return circuits


def _orthogonal(x: SignVector, y: SignVector) -> bool:
    prods = {x.signs[e] * y.signs[e] for e in range(x.size)} - {0}
    return prods in (set(), {1, -1})


def all_covectors(m: RatMatrix):
    """Every sign vector orthogonal to all signed circuits of m."""
    circuits = signed_circuits(m)
    out = set()
    for signs in itertools.product((-1, 0, 1), repeat=m.cols):
        x = SignVector(signs)
        if all(_orthogonal(x, c) for c in circuits):
            out.add(x)
    return out


def brute_cocircuits(m: RatMatrix):
    """Covectors of minimal nonempty support."""
    covs = [x for x in all_covectors(m) if x.support]
    return {
        x
        for x in covs
        if not any(y.support < x.support for y in covs)
    }


def chirotope_at(chi, elems) -> int:
    """A chirotope on an ordered r-tuple in any order: 0 when an element
    repeats, else its value on the sorted tuple times the parity of the
    permutation that sorts it."""
    elems = tuple(elems)
    if len(elems) != chi.rank:
        raise DimensionError(f"chirotope expects {chi.rank}-tuples")
    if len(set(elems)) != len(elems):
        return 0
    order = sorted(elems)
    parity = 1
    work = list(elems)
    for i in range(len(work)):  # selection-sort parity, tuples are tiny
        j = work.index(order[i], i)
        if j != i:
            work[i], work[j] = work[j], work[i]
            parity = -parity
    return parity * chi.signs[tuple(order)]


def scan_cocircuits(om):
    """Signed cocircuits by scanning every (r-1)-subset of the ground set.

    For each subset S, chi(e, *S) over the elements e outside S is the
    cocircuit of S's span, zero everywhere when S is dependent.  Each
    hyperplane is kept once, anchored with its least support element
    positive, next to its negation; the tuple is sorted by sorted support
    and then signs.  Reads only ``om.chirotope``, never the library's
    cocircuit cache.
    """
    chi = om.chirotope
    n, r = chi.ground_size, chi.rank
    seen = {}
    if r > 0:
        for sub in itertools.combinations(range(n), r - 1):
            values = {e: chirotope_at(chi, (e,) + sub) for e in range(n) if e not in sub}
            values = {e: v for e, v in values.items() if v}
            key = frozenset(values)
            if not values or key in seen:
                continue
            anchor = values[min(values)]
            seen[key] = SignVector(anchor * values.get(e, 0) for e in range(n))
    out = [x for d in seen.values() for x in (d, -d)]
    return tuple(sorted(out, key=lambda d: (sorted(d.support), d.signs)))


def brute_nonneg_covectors(m: RatMatrix):
    return {x for x in all_covectors(m) if x.is_nonnegative()}


def union_closure(family):
    """Every union of one or more members of ``family``."""
    closed = {frozenset(s) for s in family}
    for s in list(closed):
        closed |= {s | t for t in closed}
    return closed


def bitmask(elements) -> int:
    """The int bitmask of a set of nonnegative integers."""
    return sum(1 << e for e in set(elements))


def keyed_by_sets(by_mask: dict) -> dict:
    """``by_mask`` with every int bitmask key turned into the frozenset of its bits."""
    return {
        frozenset(i for i in range(m.bit_length()) if m >> i & 1): v for m, v in by_mask.items()
    }


def mobius_by_inversion(members):
    """Moebius values from the bottom by solving the incidence system.

    Solves sum_{Y <= X} mu(Y) = [X == bottom] with exact Gaussian
    elimination, independently of the recursive definition.
    """
    members = sorted({frozenset(s) for s in members}, key=lambda s: (len(s), sorted(s)))
    size = len(members)
    bottom = members[0]
    a = [
        [Fraction(1) if members[j] <= members[i] else Fraction(0) for j in range(size)]
        for i in range(size)
    ]
    b = [Fraction(1) if members[i] == bottom else Fraction(0) for i in range(size)]
    for c in range(size):
        piv = next(i for i in range(c, size) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        b[c], b[piv] = b[piv], b[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        b[c] *= inv
        for i in range(size):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
                b[i] -= f * b[c]
    return {members[i]: b[i] for i in range(size)}


def has_cycle_recursive(vertex_count, arcs) -> bool:
    """Directed-cycle detection by plain recursive DFS coloring."""
    adj = [[] for _ in range(vertex_count)]
    for t, h in arcs:
        adj[t].append(h)
    state = [0] * vertex_count  # 0 new, 1 on stack, 2 done

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return True
            if state[w] == 0 and visit(w):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(vertex_count))


def _reaches(arcs, source, target) -> bool:
    seen, frontier = {source}, [source]
    while frontier:
        v = frontier.pop()
        for t, h in arcs:
            if t == v and h not in seen:
                seen.add(h)
                frontier.append(h)
    return target in seen


def brute_totally_cyclic(d):
    """Every arc subset in which each arc's head reaches its tail along
    arcs of the subset, as frozensets sorted by size and then elements."""
    out = []
    for size in range(d.arc_count + 1):
        for subset in itertools.combinations(range(d.arc_count), size):
            arcs = [d.arcs[i] for i in subset]
            if all(_reaches(arcs, h, t) for t, h in arcs):
                out.append(frozenset(subset))
    return tuple(out)


def subset_rank_from_components(d, arc_subset) -> int:
    """Incidence rank of an arc subset as |touched vertices| - #components."""
    verts = set()
    for i in arc_subset:
        t, h = d.arcs[i]
        verts.add(t)
        verts.add(h)
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in arc_subset:
        t, h = d.arcs[i]
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
    components = len({find(v) for v in verts})
    return len(verts) - components


def relabeled_chirotope(om):
    """Chirotope keyed by sorted label tuples, for label-blind comparison."""
    chi = om.chirotope
    pos = {lab: i for i, lab in enumerate(om.labels)}
    out = {}
    for tup, s in chi.signs.items():
        labs = sorted(om.labels[e] for e in tup)
        out[tuple(labs)] = chirotope_at(chi, [pos[l] for l in labs])
    return out


def chirotopes_equal_up_to_sign(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    flip = None
    for key in sorted(a):
        if (a[key] == 0) != (b[key] == 0):
            return False
        if a[key]:
            if flip is None:
                flip = a[key] * b[key]
            elif a[key] * b[key] != flip:
                return False
    return True

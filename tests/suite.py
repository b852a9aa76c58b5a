"""Shared test fixtures: the matroid catalog and random digraph sampling.

The catalog is the acceptance suite: graphic matroids of digraphs with
at most 4 vertices and 6 arcs covering ranks 0..3 with loops, bridges,
parallels, digons and cycles, plus identity/coloop/digon matrices and
two non-graphic rational realizations.  Everything has at most 6
ground elements, so the union supermatroid stays within 12.
"""

import functools
import random
from fractions import Fraction

from nlpoly.digraph import Digraph, matroid_from_digraph
from nlpoly.om import RealizedOM, standardize
from nlpoly.ratlin import RatMatrix
from nlpoly.union import build_hat

TEST_DIGRAPHS = [
    ("arcless", Digraph(2, [])),
    ("coloop", Digraph(2, [(0, 1)])),
    ("path2", Digraph(3, [(0, 1), (1, 2)])),
    ("digon", Digraph(2, [(0, 1), (1, 0)])),
    ("parallel-same", Digraph(2, [(0, 1), (0, 1)])),
    ("cycle3", Digraph(3, [(0, 1), (1, 2), (2, 0)])),
    ("triangle-acyclic", Digraph(3, [(0, 1), (1, 2), (0, 2)])),
    ("self-loop", Digraph(1, [(0, 0)])),
    ("loop-plus-arc", Digraph(2, [(0, 0), (0, 1)])),
    ("cycle4", Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
    ("digon-pendant", Digraph(3, [(0, 1), (1, 0), (1, 2)])),
    ("two-digons", Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])),
    ("cycle3-chord", Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])),
    ("cycle3-antichord", Digraph(3, [(0, 1), (1, 2), (2, 0), (2, 1)])),
    ("triple-arc", Digraph(2, [(0, 1), (0, 1), (1, 0)])),
    ("star-out", Digraph(4, [(0, 1), (0, 2), (0, 3)])),
    ("cycle4-diagonal", Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
    ("k4-acyclic", Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
    ("k4-cyclic", Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (2, 3), (1, 3)])),
    ("two-cycles-shared", Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])),
    ("digon-loops", Digraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])),
]

TEST_MATRICES = [
    ("identity1", RatMatrix.identity(1)),
    ("identity2", RatMatrix.identity(2)),
    ("identity3", RatMatrix.identity(3)),
    ("digon-matrix", RatMatrix(1, 2, [1, -1])),
    ("parallel-matrix", RatMatrix(1, 2, [1, 1])),
    ("empty", RatMatrix(0, 0, [])),
    ("half", RatMatrix(1, 2, [Fraction(1, 2), 1])),
    ("uniform24", RatMatrix(2, 4, [1, 0, 1, 1, 0, 1, 1, 2])),
    ("theta", RatMatrix(2, 3, [1, 0, 1, 0, 1, 1])),
]


def suite_matroids():
    """(name, om, digraph-or-None) triples for the whole catalog."""
    out = []
    for name, d in TEST_DIGRAPHS:
        out.append((name, matroid_from_digraph(d), d))
    for name, m in TEST_MATRICES:
        out.append((name, RealizedOM.from_rational(m), None))
    return out


@functools.cache
def catalog_hats():
    """(name, basis, hat matroid) for every basis of every catalog matroid.

    Built once per test session, so the hats' chirotopes and lattices,
    cached on them, are shared by the tests (together about a second of
    work on a 2-core host).
    """
    out = []
    for name, om, _ in suite_matroids():
        for basis in om.bases() or [()]:
            std, _ = standardize(om, list(basis) if basis else None)
            out.append((name, basis, build_hat(std)))
    return tuple(out)


# The 8-arc digraph of the benchmark's dichromate workload (rank 3).
CANONICAL = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (2, 3), (1, 3), (3, 1), (0, 2)])


@functools.cache
def canonical_hat():
    """The union supermatroid of ``CANONICAL`` at its default basis: 16
    elements of rank 8, 4,360 cocircuits (28 nonnegative) and 812 lattice
    elements.  Built once per test session."""
    return build_hat(standardize(matroid_from_digraph(CANONICAL))[0])


def random_digraph(rng: random.Random, max_vertices=4, max_arcs=6, allow_loops=False):
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_arcs)
    arcs = []
    for _ in range(m):
        while True:
            t, h = rng.randrange(n), rng.randrange(n)
            if allow_loops or t != h or n == 1:
                break
        if not allow_loops and t == h:
            continue
        arcs.append((t, h))
    return Digraph(n, tuple(arcs))


def random_digraphs(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_digraph(rng, **kwargs) for _ in range(count)]


def random_rat_matrix(rng: random.Random, rows, cols, dens=(1, 1, 1, 2, 3)):
    entries = [
        Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(rows * cols)
    ]
    return RatMatrix(rows, cols, entries)

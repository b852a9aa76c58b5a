"""The union supermatroid: construction, minors, lifting and restriction."""

import itertools
import random

import pytest

from nlpoly.errors import ContractViolation, DimensionError, NotARealizationError
from nlpoly.om import (
    RealizedOM,
    cocircuits,
    nonneg_face_lattice,
    standardize,
)
from nlpoly.ratlin import RatMatrix, det_sign_eps
from nlpoly.union import (
    DUAL,
    NEITHER,
    PRIMAL,
    build_hat,
    lift_dual,
    lift_primal,
    minor,
    restrict,
)
from oracles import eps_limit_chirotope, ranks_from_bases, symbolic_hat_rows
from suite import catalog_hats, random_rat_matrix

COLOOP = RealizedOM.from_rational(RatMatrix(1, 1, [1]))
DIGON = RealizedOM.from_rational(RatMatrix(1, 2, [1, -1]))


def test_build_hat_coloop():
    h = build_hat(COLOOP)
    assert h.n == 1 and h.r == 1
    assert h.a_elems == (1,) and h.b_elems == ()
    assert h.hat.matrix == RatMatrix(1, 2, [1, 1])
    assert h.hat.chirotope.signs == {(0,): 1, (1,): 1}


def test_build_hat_digon_matrix_is_exact():
    h = build_hat(DIGON)
    # top row (I | C | I | 0); bottom row (-C^T | I | 0 | I) with column j
    # scaled by eps^(3-j), taken at eps = 1/K with K = 1 + 3 * 3 (the
    # product of the rows' l1 norms, plus one) and multiplied by K^3
    assert h.hat.matrix == RatMatrix.from_rows([[1, -1, 1, 0], [1, 10, 0, 1000]])
    assert (h.a_elems, h.b_elems) == ((2,), (3,))


def test_build_hat_empty():
    empty = RealizedOM.from_rational(RatMatrix(0, 0, []))
    h = build_hat(empty)
    assert h.hat.ground_size == 0 and h.hat.rank == 0


def test_build_hat_requires_standard_form():
    with pytest.raises(ContractViolation):
        build_hat(RealizedOM.from_rational(RatMatrix(1, 2, [-1, 1])))


def test_hat_chirotope_matches_per_tuple_determinants():
    rng = random.Random(61)
    cases = [COLOOP, DIGON]
    std, _ = standardize(
        RealizedOM.from_rational(RatMatrix.from_rows([[1, 0, -1], [-1, 1, 0]]))
    )
    cases.append(std)
    for om in cases:
        h = build_hat(om)
        chi = h.hat.chirotope
        m = h.hat.matrix
        for sub in itertools.combinations(range(m.cols), m.rows):
            assert chi.signs[sub] in (-1, 0, 1)
            direct = det_sign_eps(m.column_submatrix(sub).row_lists())
            # both sides are normalized consistently: the first nonzero
            # lexicographic tuple fixes the global sign
            first = next(s for s in sorted(chi.signs) if chi.signs[s])
            flip = chi.signs[first] * det_sign_eps(m.column_submatrix(first).row_lists())
            assert chi.signs[sub] == flip * direct


def _assert_hat_is_symbolic_limit(h, label, ranks=True):
    """The certified hat's chirotope, and with ``ranks`` every column-subset
    rank, against the symbolic eps -> 0+ limit of the union supermatroid."""
    hat = h.hat
    want = eps_limit_chirotope(symbolic_hat_rows(h.base.matrix), hat.ground_size)
    assert hat.chirotope.signs == want, label
    if not ranks:
        return
    oracle = ranks_from_bases(hat.ground_size, [b for b, s in want.items() if s])
    for mask, rank in enumerate(oracle):
        cols = [e for e in range(hat.ground_size) if mask >> e & 1]
        assert hat.column_rank(cols) == rank, (label, cols)


def test_certified_hat_is_symbolic_limit_on_every_catalog_basis():
    # Ranks of all 4,096 column subsets of a 12-column hat cost about
    # 0.15 s each, so the two 6-element catalog matroids (32 bases) check
    # them on their default basis only; their chirotopes, which fix the
    # rank function, are checked on every basis.
    seen = set()
    for name, basis, h in catalog_hats():
        _assert_hat_is_symbolic_limit(h, (name, basis), h.n < 6 or name not in seen)
        seen.add(name)


def test_certified_hat_is_symbolic_limit_on_random_matrices():
    rng = random.Random(59)
    done = 0
    while done < 25:
        r = rng.randint(1, 3)
        n = rng.randint(r, 5)
        try:
            om = RealizedOM.from_rational(random_rat_matrix(rng, r, n))
        except NotARealizationError:
            continue
        done += 1
        basis = rng.choice(om.bases())
        std, _ = standardize(om, list(basis))
        _assert_hat_is_symbolic_limit(build_hat(std), basis)


def test_hat_rank_doubles_ground():
    rng = random.Random(67)
    for _ in range(8):
        r = rng.randint(1, 3)
        n = rng.randint(r, 5)
        m = random_rat_matrix(rng, r, n)
        try:
            om = RealizedOM.from_rational(m)
        except Exception:
            continue
        std, _ = standardize(om)
        h = build_hat(std)
        assert h.hat.ground_size == 2 * n
        assert h.hat.rank == n


# ---------------------------------------------------------------------------
# minors


def test_minor_identity():
    back = minor(DIGON, (), ())
    assert back.chirotope == DIGON.chirotope
    assert back.labels == DIGON.labels


def test_minor_validation():
    with pytest.raises(DimensionError):
        minor(DIGON, (0,), (0,))
    with pytest.raises(DimensionError):
        minor(DIGON, (5,), ())


def test_minor_recovers_coloop_from_hat():
    h = build_hat(COLOOP)
    back = minor(h.hat, delete=h.a_elems, contract=h.b_elems)
    assert back.chirotope == COLOOP.chirotope


def test_minor_recovers_digon_and_its_dual_from_hat():
    h = build_hat(DIGON)
    back = minor(h.hat, delete=h.a_elems, contract=h.b_elems)
    assert back.chirotope == DIGON.chirotope
    dual_back = minor(h.hat, delete=h.b_elems, contract=h.a_elems)
    # the dual of the digon matroid is the two-element parallel class
    parallel = RealizedOM.from_rational(RatMatrix(1, 2, [1, 1]))
    assert dual_back.chirotope == parallel.chirotope


def test_minor_contract_loop_only_drops_column():
    with_loop = RealizedOM.from_rational(RatMatrix(1, 2, [1, 0]))
    out = minor(with_loop, (), (1,))
    assert out.ground_size == 1 and out.rank == 1


def test_minor_relabels_and_reranks():
    m = RealizedOM.from_rational(
        RatMatrix.from_rows([[1, 0, 1], [0, 1, 1]]), labels=("a", "b", "c")
    )
    out = minor(m, delete=(1,), contract=(0,))
    assert out.labels == ("c",)
    assert out.rank == 1


def test_minor_recovery_on_random_matroids_all_bases():
    rng = random.Random(71)
    done = 0
    while done < 6:
        r = rng.randint(1, 2)
        n = rng.randint(r, 4)
        m = random_rat_matrix(rng, r, n)
        try:
            om = RealizedOM.from_rational(m)
        except Exception:
            continue
        done += 1
        for basis in om.bases():
            std, _ = standardize(om, list(basis))
            h = build_hat(std)
            back = minor(h.hat, delete=h.a_elems, contract=h.b_elems)
            assert back.chirotope == std.chirotope
            dual_back = minor(h.hat, delete=h.b_elems, contract=h.a_elems)
            assert dual_back.chirotope == h.base_dual.chirotope


# ---------------------------------------------------------------------------
# lifting and restriction


def test_lift_primal_coloop():
    h = build_hat(COLOOP)
    assert lift_primal(frozenset({0}), h) == {0, 1}
    assert lift_primal(frozenset(), h) == frozenset()


def test_lift_rejects_non_covectors():
    h = build_hat(DIGON)
    # the digon has no nonzero nonnegative covector
    with pytest.raises(ContractViolation):
        lift_primal(frozenset({0}), h)
    with pytest.raises(ContractViolation):
        lift_dual(frozenset({0}), h)
    # a support off the ground set is no covector either
    with pytest.raises(ContractViolation):
        lift_primal(frozenset({2}), h)


def test_lift_dual_digon():
    h = build_hat(DIGON)
    assert lift_dual(frozenset({0, 1}), h) == {0, 1, 3}


def test_restrict_sides():
    h = build_hat(DIGON)
    assert restrict(frozenset(), h) == (PRIMAL, frozenset())
    side, x = restrict(frozenset({0, 1, 3}), h)
    assert side == DUAL and x == {0, 1}
    side, x = restrict(frozenset({0, 2, 3}), h)
    assert side == NEITHER and x is None
    with pytest.raises(DimensionError):
        restrict(frozenset({4}), h)


def test_restrict_of_coloop_lift():
    h = build_hat(COLOOP)
    side, x = restrict(frozenset({0, 1}), h)
    assert side == PRIMAL and x == {0}


def test_round_trip_on_parallel_pair():
    par = RealizedOM.from_rational(RatMatrix(1, 2, [1, 1]))
    h = build_hat(par)
    for x in nonneg_face_lattice(par):
        if x:
            assert restrict(lift_primal(x, h), h) == (PRIMAL, x)
    for x in nonneg_face_lattice(h.base_dual):
        if x:
            assert restrict(lift_dual(x, h), h) == (DUAL, x)


def test_hat_lattice_rank_equals_longest_chain():
    # the algebraic lattice rank (matroid rank minus off-support column
    # rank) must agree with chain length on the certified hat too
    std, _ = standardize(
        RealizedOM.from_rational(RatMatrix.from_rows([[1, 0, -1], [-1, 1, 0]]))
    )
    for om in (COLOOP, DIGON, std):
        lattice = nonneg_face_lattice(build_hat(om).hat)
        chain = {}
        for s in sorted(lattice, key=len):
            below = [chain[t] for t in lattice if t < s and t in chain]
            chain[s] = 1 + max(below) if below else 0
        assert lattice.rank_of == chain


def test_lifted_cocircuits_are_hat_cocircuits():
    rng = random.Random(73)
    done = 0
    while done < 6:
        r = rng.randint(1, 2)
        n = rng.randint(r, 4)
        m = random_rat_matrix(rng, r, n)
        try:
            om = RealizedOM.from_rational(m)
        except Exception:
            continue
        done += 1
        std, _ = standardize(om)
        h = build_hat(std)
        hat_cocs = {d.support for d in cocircuits(h.hat) if d.is_nonnegative()}
        for d in cocircuits(std):
            if d.is_nonnegative():
                assert lift_primal(d.support, h) in hat_cocs
        for d in cocircuits(h.base_dual):
            if d.is_nonnegative():
                assert lift_dual(d.support, h) in hat_cocs

"""Chirotopes, cocircuits, the nonnegative face lattice, Moebius values
and duality, checked against brute-force sign-vector oracles."""

import random
from fractions import Fraction

import pytest

from nlpoly import ratlin
from nlpoly.errors import (
    ContractViolation,
    InvalidPosetError,
    NotARealizationError,
)
from nlpoly.om import (
    RealizedOM,
    SignVector,
    chirotope_from_matrix,
    cocircuits,
    dual_realization,
    mobius_from_bottom,
    nonneg_face_lattice,
    standardize,
)
from nlpoly.ratlin import RatMatrix, det_sign_eps, eps_limit_rows
from oracles import (
    bitmask,
    brute_cocircuits,
    brute_nonneg_covectors,
    chirotope_at,
    chirotopes_equal_up_to_sign,
    eps_limit_chirotope,
    keyed_by_sets,
    mobius_by_inversion,
    relabeled_chirotope,
    scan_cocircuits,
    union_closure,
)
from suite import canonical_hat, catalog_hats, random_rat_matrix

DIGON = RatMatrix(1, 2, [1, -1])
PARALLEL = RatMatrix(1, 2, [1, 1])
CYCLE3 = RatMatrix.from_rows([[1, 0, -1], [-1, 1, 0]])


def _om(m):
    return RealizedOM.from_rational(m)


def _full_row_rank_matrices(rng, count):
    out = []
    while len(out) < count:
        r = rng.randint(1, 3)
        n = rng.randint(r, 5)
        m = random_rat_matrix(rng, r, n)
        try:
            out.append((m, _om(m)))
        except NotARealizationError:
            continue
    return out


# ---------------------------------------------------------------------------
# sign vectors


def test_sign_vector_basics():
    x = SignVector((1, 0, -1))
    assert x.support == {0, 2}
    assert (-x).signs == (-1, 0, 1)
    assert not x.is_nonnegative()
    assert SignVector((0, 0, 0)).is_nonnegative()
    with pytest.raises(ValueError):
        SignVector((2, 0))


# ---------------------------------------------------------------------------
# chirotopes


def test_chirotope_examples():
    chi = chirotope_from_matrix(RatMatrix.identity(2))
    assert chi.signs[(0, 1)] == 1
    digon = chirotope_from_matrix(DIGON)
    assert digon.signs[(0,)] == 1 and digon.signs[(1,)] == -1
    par = chirotope_from_matrix(PARALLEL)
    assert par.signs[(0,)] == 1 and par.signs[(1,)] == 1


def test_chirotope_rejects_rank_deficiency():
    with pytest.raises(NotARealizationError):
        chirotope_from_matrix(RatMatrix(2, 2, [1, 1, 1, 1]))
    with pytest.raises(NotARealizationError):
        chirotope_from_matrix(RatMatrix(2, 1, [1, 1]))


def test_chirotope_spot_check_raises_on_a_disagreeing_determinant(monkeypatch):
    signs = []

    def first_flipped(rows):
        signs.append(det_sign_eps(rows))
        return -signs[-1] if len(signs) == 1 else signs[-1]

    monkeypatch.setattr("nlpoly.om.det_sign_eps", first_flipped)
    with pytest.raises(ContractViolation):
        chirotope_from_matrix(CYCLE3)
    assert len(signs) == 2


def test_one_clearing_and_elimination_per_matrix(monkeypatch):
    # the full-rank check, the chirotope and the standard form of one
    # oriented matroid share its rows cleared of denominators and their
    # echelon form
    calls = []

    def counted(name):
        real = getattr(ratlin, name)
        monkeypatch.setattr(ratlin, name, lambda rows: calls.append(name) or real(rows))

    counted("echelon")
    counted("integer_row")
    m = RatMatrix.from_rows([[Fraction(1, 2), 1, 0, 2], [0, Fraction(1, 3), 1, -1]])
    om = RealizedOM(m)
    assert om.chirotope.bases() == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    ratlin.standard_form(om.matrix)
    assert calls == ["integer_row", "integer_row", "echelon"]


def test_chirotope_alternation_and_duplicates():
    rng = random.Random(11)
    for _, om in _full_row_rank_matrices(rng, 15):
        chi = om.chirotope
        r, n = chi.rank, chi.ground_size
        if r < 2:
            continue
        for _ in range(10):
            tup = rng.sample(range(n), r)
            i, j = rng.sample(range(r), 2)
            swapped = list(tup)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert chirotope_at(chi, swapped) == -chirotope_at(chi, tup)
        dup = [tup[0]] + list(tup[1:])
        dup[-1] = tup[0]
        assert chirotope_at(chi, dup) == 0


def test_chirotope_normalized_first_basis_positive():
    rng = random.Random(13)
    for _, om in _full_row_rank_matrices(rng, 15):
        bases = om.bases()
        assert om.chirotope.signs[bases[0]] == 1


def test_chirotope_of_eps_rows_matches_symbolic_limit():
    # random monomial entries in eps, certified into integers, against
    # the permutation expansion of the symbolic maximal minors
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 4)
        r = rng.randint(1, min(2, n))
        rows = [
            [(rng.randint(-2, 2), rng.randint(0, 2)) for _ in range(n)] for _ in range(r)
        ]
        try:
            chi = chirotope_from_matrix(RatMatrix.from_rows(eps_limit_rows(rows)))
        except NotARealizationError:
            assert not any(eps_limit_chirotope(rows, n).values())
            continue
        checked += 1
        assert chi.signs == eps_limit_chirotope(rows, n)


# ---------------------------------------------------------------------------
# cocircuits


def test_cocircuit_examples():
    assert set(cocircuits(_om(PARALLEL))) == {SignVector((1, 1)), SignVector((-1, -1))}
    assert set(cocircuits(_om(DIGON))) == {SignVector((1, -1)), SignVector((-1, 1))}
    c3 = set(cocircuits(_om(CYCLE3)))
    assert len(c3) == 6
    for d in c3:
        assert len(d.support) == 2
        assert sorted(d.signs[e] for e in d.support) == [-1, 1]


def test_cocircuits_match_bruteforce():
    cases = [DIGON, PARALLEL, CYCLE3, RatMatrix(2, 4, [1, 0, 1, 1, 0, 1, 1, 2])]
    rng = random.Random(23)
    cases += [m for m, _ in _full_row_rank_matrices(rng, 10)]
    for m in cases:
        assert set(cocircuits(_om(m))) == brute_cocircuits(m)


def test_cocircuits_match_the_subset_scan():
    # the pass over the bases against the scan of every (r-1)-subset,
    # order included, on every catalog hat, random matrices and the
    # canonical 8-arc hat
    rng = random.Random(59)
    oms = [h.hat for _, _, h in catalog_hats()]
    oms += [om for _, om in _full_row_rank_matrices(rng, 25)]
    for om in oms:
        assert cocircuits(om) == scan_cocircuits(om)
    hat = canonical_hat().hat
    cocs = cocircuits(hat)
    assert cocs == scan_cocircuits(hat)
    assert (len(cocs), sum(d.is_nonnegative() for d in cocs)) == (4360, 28)


def test_cocircuit_supports_are_minimal():
    rng = random.Random(29)
    for _, om in _full_row_rank_matrices(rng, 12):
        cocs = cocircuits(om)
        for a in cocs:
            for b in cocs:
                assert not (a.support < b.support)


# ---------------------------------------------------------------------------
# face lattice and Moebius


def test_face_lattice_examples():
    only_zero = nonneg_face_lattice(_om(CYCLE3))
    assert list(only_zero) == [frozenset()]

    par = nonneg_face_lattice(_om(PARALLEL))
    top = frozenset({0, 1})
    assert list(par) == [frozenset(), top]
    assert par.bottom == frozenset()
    assert par.rank_of[top] == 1
    assert par.mobius(top) == -1
    assert frozenset({0}) not in par

    empty = nonneg_face_lattice(RealizedOM.from_rational(RatMatrix(0, 0, [])))
    assert list(empty) == [frozenset()]
    assert empty.mobius(frozenset()) == 1


def test_face_lattice_matches_bruteforce_nonneg_covectors():
    cases = [DIGON, PARALLEL, CYCLE3, RatMatrix(2, 4, [1, 0, 1, 1, 0, 1, 1, 2])]
    rng = random.Random(31)
    cases += [m for m, _ in _full_row_rank_matrices(rng, 10)]
    for m in cases:
        lattice = nonneg_face_lattice(_om(m))
        assert set(lattice) == {x.support for x in brute_nonneg_covectors(m)}


def test_face_lattice_rank_equals_longest_chain():
    rng = random.Random(37)
    cases = [DIGON, PARALLEL, CYCLE3] + [m for m, _ in _full_row_rank_matrices(rng, 10)]
    for m in cases:
        lattice = nonneg_face_lattice(_om(m))
        chain = {}
        for s in sorted(lattice, key=len):
            below = [chain[t] for t in lattice if t < s and t in chain]
            chain[s] = 1 + max(below) if below else 0
        assert lattice.rank_of == chain


def test_face_lattice_ranks_match_column_ranks():
    # rank X = rank(om) - rank of the columns off X, by elimination, on
    # the primal, dual and hat of every catalog basis, random matrices
    # and the canonical 8-arc hat
    rng = random.Random(61)
    oms = [om for _, _, h in catalog_hats() for om in (h.base, h.base_dual, h.hat)]
    oms += [om for _, om in _full_row_rank_matrices(rng, 25)]
    oms.append(canonical_hat().hat)
    for om in oms:
        lattice = nonneg_face_lattice(om)
        ground = set(range(om.ground_size))
        for x in lattice:
            assert lattice.rank_of[x] == om.rank - om.column_rank(ground - x)


def test_face_lattice_needs_no_column_rank(monkeypatch):
    # the lattice's ranks come from its covers; a fresh copy of the
    # canonical hat builds its 812 elements with no elimination
    calls = []
    real = RealizedOM.column_rank

    def counted(om, cols):
        calls.append(cols)
        return real(om, cols)

    monkeypatch.setattr(RealizedOM, "column_rank", counted)
    hat = canonical_hat().hat
    lattice = nonneg_face_lattice(RealizedOM(hat.matrix, hat.labels))
    assert calls == []
    assert (len(lattice), max(lattice.rank_of.values())) == (812, 8)


def test_face_lattice_closed_under_composition():
    rng = random.Random(41)
    for _, om in _full_row_rank_matrices(rng, 10):
        lattice = nonneg_face_lattice(om)
        nonneg_cocs = [d for d in cocircuits(om) if d.is_nonnegative()]
        for x in lattice:
            for d in nonneg_cocs:
                assert x | d.support in lattice


def test_mobius_examples():
    assert mobius_from_bottom([]) == {0: 1}
    assert mobius_from_bottom([0b11]) == {0: 1, 0b11: -1}
    boolean = {0: 1, 0b01: -1, 0b10: -1, 0b11: 1}
    assert mobius_from_bottom([0b01, 0b10]) == boolean
    # a repeat, or a generator that is a union of others, changes nothing
    assert mobius_from_bottom([0b10, 0b01, 0b01, 0b11]) == boolean
    # two atoms under a common top: mu(top) = -1 - (-1) - (-1) = 1
    assert mobius_from_bottom([0b011, 0b101, 0b111]) == {0: 1, 0b011: -1, 0b101: -1, 0b111: 1}


def test_mobius_rejects_an_empty_generator():
    with pytest.raises(InvalidPosetError, match="empty generator"):
        mobius_from_bottom([0b1, 0])


def _generator_lists(rng, count):
    """Nonempty generators on up to 5 elements, with repeats, unions of
    other generators, and the order shuffled."""
    out = []
    for _ in range(count):
        universe = range(rng.randint(1, 5))
        size, gens = rng.randint(1, 8), []
        while len(gens) < size:
            s = frozenset(e for e in universe if rng.random() < 0.5)
            if s:
                gens.append(s)
        gens += [rng.choice(gens) for _ in range(rng.randint(0, 2))]
        gens += [rng.choice(gens) | rng.choice(gens) for _ in range(rng.randint(0, 2))]
        rng.shuffle(gens)
        out.append(gens)
    return out


def test_mobius_matches_inversion_oracle():
    rng = random.Random(43)
    for gens in _generator_lists(rng, 40):
        family = union_closure({frozenset()} | set(gens))
        mob = keyed_by_sets(mobius_from_bottom([bitmask(s) for s in gens]))
        assert set(mob) == family
        assert mob == mobius_by_inversion(family)


def test_mobius_defining_identity_on_lattices():
    # The Eulerian closed form (-1)^rank against the defining recursion
    # (mobius_from_bottom over the nonnegative cocircuit supports), on
    # random lattices and on every hat lattice of every catalog basis.
    rng = random.Random(47)
    oms = [om for _, om in _full_row_rank_matrices(rng, 12)]
    oms += [h.hat for _, _, h in catalog_hats()]
    for om in oms:
        lattice = nonneg_face_lattice(om)
        supports = [bitmask(d.support) for d in cocircuits(om) if d.is_nonnegative()]
        assert keyed_by_sets(mobius_from_bottom(supports)) == {x: lattice.mobius(x) for x in lattice}


# ---------------------------------------------------------------------------
# duality


def test_dual_examples():
    d = dual_realization(_om(PARALLEL))
    assert d.matrix == RatMatrix(1, 2, [-1, 1])
    d2 = dual_realization(_om(DIGON))
    assert d2.matrix == RatMatrix(1, 2, [1, 1])
    d3 = dual_realization(_om(RatMatrix.identity(2)))
    assert d3.rank == 0 and d3.ground_size == 2


def test_dual_requires_standard_form():
    with pytest.raises(ContractViolation):
        dual_realization(_om(RatMatrix(1, 2, [-1, 1])))


def test_double_dual_restores_chirotope():
    rng = random.Random(53)
    for _, om in _full_row_rank_matrices(rng, 10):
        std, _ = standardize(om)
        dual = dual_realization(std)
        dual_std, _ = standardize(dual)
        double = dual_realization(dual_std)
        assert chirotopes_equal_up_to_sign(
            relabeled_chirotope(double), relabeled_chirotope(std)
        )
        assert {frozenset(std.labels[e] for e in b) for b in std.bases()} == {
            frozenset(double.labels[e] for e in b) for b in double.bases()
        }


def test_standardize_records_permutation():
    m = RatMatrix.from_rows([[0, 2, 1], [0, 0, 3]])
    om = RealizedOM.from_rational(m, labels=("p", "q", "r"))
    std, perm = standardize(om)
    assert perm == (1, 2, 0)
    assert std.labels == ("q", "r", "p")
    assert std.is_standard_form()

"""The check suite's FAIL path and a property test of its PASS path.

Each FAIL test breaks one function that ``nlpoly.checks`` calls through
its own module globals and asserts that the check which guards that
function reports the failure, naming the basis where the check runs per
basis.  Two tests count what ``run_checks`` builds: no hat outlives the
one built after it, and each standard form is checked once however many
bases share it.  The property test draws small matrices and digraphs
and asserts that every check passes on them.
"""

import ast
import gc
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpoly import checks
from nlpoly.cli import _realize, main
from nlpoly.digraph import Digraph, matroid_from_digraph
from nlpoly.errors import ResourceLimitError
from nlpoly.om import FaceLattice, SignVector, nonneg_face_lattice
from nlpoly.ratlin import RatMatrix
from nlpoly.union import DUAL, PRIMAL, HatMatroid
from suite import TEST_DIGRAPHS

# digon-pendant (0->1, 1->0, 1->2) has nonnegative cocircuits on both
# sides of every hat, rank 2 of 3 and a digraph for oracle-agreement.
DIGRAPH = dict(TEST_DIGRAPHS)["digon-pendant"]
HAT_SIZE = 2 * DIGRAPH.arc_count

PER_BASIS = {
    "minor-recovery",
    "cocircuit-lifting",
    "lattice-rank-preservation",
    "covector-restriction",
    "lift-restrict-round-trip",
    "parallel-support",
    "exponent-identities",
    "coflow-specialization",
    "flow-specialization",
}


def _with_extra(lift, block):
    def lift_plus_one(x, h):
        lifted = lift(x, h)
        free = [e for e in getattr(h, block) if e not in lifted]
        return lifted | set(free[:1])

    return lift_plus_one


def _lattice_ranks(new_rank):
    def patch(real):
        def relabelled(om):
            lat = real(om)
            return FaceLattice(lat.elements, {x: new_rank(k) for x, k in lat.rank_of.items()})

        return relabelled

    return patch


def _swap_first_partners(real):
    """Hat cocircuits with the signs of the partners of elements 0 and 1
    swapped, so a support holding 0 and not 1 holds the partner of 1."""

    def swapped(om):
        cocs = real(om)
        if om.ground_size != HAT_SIZE:
            return cocs
        a0 = HAT_SIZE // 2
        return tuple(
            SignVector(s[:a0] + (s[a0 + 1], s[a0]) + s[a0 + 2:]) for s in (d.signs for d in cocs)
        )

    return swapped


def _specialize_off_at(at):
    def patch(real):
        return lambda p, y, z: real(p, y, z) + (1 if (y, z) == at else 0)

    return patch


BREAKS = {
    "mobius-identity": ("nonneg_face_lattice", _lattice_ranks(lambda k: 0)),
    "coflow-flow-duality": ("nl_flow_matroid", lambda real: lambda om: real(om) + 1),
    "minor-recovery": (
        "minor", lambda real: lambda om, delete=(), contract=(): real(om, contract, delete)
    ),
    "cocircuit-lifting": ("lift_primal", lambda real: _with_extra(real, "a_elems")),
    "lattice-rank-preservation": ("lift_dual", lambda real: _with_extra(real, "b_elems")),
    "covector-restriction": (
        "restrict", lambda real: lambda xhat, h: (PRIMAL, frozenset(e for e in xhat if e < h.n))
    ),
    "lift-restrict-round-trip": (
        "restrict",
        lambda real: lambda xhat, h: (
            {PRIMAL: DUAL, DUAL: PRIMAL}.get(real(xhat, h)[0]),
            real(xhat, h)[1],
        ),
    ),
    "parallel-support": ("cocircuits", _swap_first_partners),
    "exponent-identities": ("nonneg_face_lattice", _lattice_ranks(lambda k: k + 1)),
    "coflow-specialization": ("specialize", _specialize_off_at((0, 1))),
    "flow-specialization": ("specialize", _specialize_off_at((1, 0))),
    "oracle-agreement": ("nl_coflow_graphic", lambda real: lambda d, cap: real(d, cap) + 1),
}


def test_every_check_has_a_break():
    names = [r.name for r in checks.run_checks(matroid_from_digraph(DIGRAPH), digraph=DIGRAPH)]
    assert sorted(names) == sorted(BREAKS)


@pytest.mark.parametrize("check", sorted(BREAKS))
def test_check_reports_fail(check, monkeypatch):
    binding, make = BREAKS[check]
    monkeypatch.setattr(checks, binding, make(getattr(checks, binding)))
    om = matroid_from_digraph(DIGRAPH)
    results = {r.name: r for r in checks.run_checks(om, digraph=DIGRAPH)}
    result = results[check]
    assert not result.passed, result.detail
    assert not result.detail.endswith(" cases")
    if check in PER_BASIS:
        match = re.match(r"basis (\([^)]*\)): ", result.detail)
        assert match, result.detail
        assert ast.literal_eval(match.group(1)) in om.bases()


def _mobius_identity(monkeypatch, change, ground_size=None):
    """mobius-identity on DIGRAPH, with the elements and ranks of every
    lattice, or of those on ``ground_size`` elements, passed through
    ``change``."""
    real = checks.nonneg_face_lattice

    def planted(om):
        lat = real(om)
        if ground_size not in (None, om.ground_size):
            return lat
        return FaceLattice(*change(list(lat.elements), dict(lat.rank_of)))

    monkeypatch.setattr(checks, "nonneg_face_lattice", planted)
    om = matroid_from_digraph(DIGRAPH)
    return {r.name: r for r in checks.run_checks(om, digraph=DIGRAPH)}["mobius-identity"]


def _raise_top(elements, rank_of):
    rank_of[elements[-1]] += 1
    return elements, rank_of


def test_mobius_identity_reports_one_wrong_rank(monkeypatch):
    lattice = nonneg_face_lattice(matroid_from_digraph(DIGRAPH))
    top = max(lattice, key=len)
    mu = lattice.mobius(top)
    result = _mobius_identity(monkeypatch, _raise_top)
    assert not result.passed
    assert result.detail == f"Moebius value {mu} at {sorted(top)}, not {-mu}"


def test_mobius_identity_names_the_basis_of_a_hat_failure(monkeypatch):
    result = _mobius_identity(monkeypatch, _raise_top, ground_size=HAT_SIZE)
    assert not result.passed
    match = re.match(r"basis (\([^)]*\)): Moebius value ", result.detail)
    assert match, result.detail
    assert ast.literal_eval(match.group(1)) == matroid_from_digraph(DIGRAPH).bases()[0]


def test_mobius_identity_reports_a_missing_element(monkeypatch):
    def drop_top(elements, rank_of):
        del rank_of[elements[-1]]
        return elements[:-1], rank_of

    top = max(nonneg_face_lattice(matroid_from_digraph(DIGRAPH)), key=len)
    result = _mobius_identity(monkeypatch, drop_top)
    assert not result.passed
    assert result.detail == f"crosscut member {sorted(top)} is not in the lattice"


def test_run_checks_keeps_no_earlier_hat_alive(monkeypatch):
    real = checks.build_hat
    hats = []

    class Tracked(HatMatroid):
        __slots__ = ("__weakref__",)

    def build(std):
        gc.collect()
        assert [ref for ref in hats[:-1] if ref() is not None] == []
        h = real(std)
        tracked = Tracked(h.base, h.base_dual, h.hat, h.a_elems, h.b_elems)
        hats.append(weakref.ref(tracked))
        return tracked

    monkeypatch.setattr(checks, "build_hat", build)
    d = dict(TEST_DIGRAPHS)["k4-cyclic"]
    assert all(r.passed for r in checks.run_checks(matroid_from_digraph(d), digraph=d))
    assert len(hats) > 2


def test_each_standard_form_is_checked_once(monkeypatch):
    calls = {"build_hat": 0, "minor": 0}
    for name in calls:
        def counted(*args, _real=getattr(checks, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    d = dict(TEST_DIGRAPHS)["two-cycles-shared"]
    om = matroid_from_digraph(d)
    results = {r.name: r for r in checks.run_checks(om, digraph=d)}
    assert all(r.passed for r in results.values())
    assert 0 < calls["build_hat"] < len(om.bases())
    assert calls["minor"] == 2 * calls["build_hat"]
    # but the cases of a shared form count once per basis
    assert results["coflow-specialization"].detail == f"{len(om.bases())} cases"


def test_cli_check_exits_1_on_a_failed_check(tmp_path, capsys, monkeypatch):
    real = checks.nl_coflow_graphic
    monkeypatch.setattr(checks, "nl_coflow_graphic", lambda d, cap: real(d, cap) + 1)
    path = tmp_path / "d.digraph"
    path.write_text("digraph 3\n0 1\n1 0\n1 2\n")
    assert main(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL oracle-agreement (subset-poset and face-lattice coflow polynomials differ)"
    ]
    assert len(lines) == 12


def test_cap_on_the_doubled_ground_set_reads_as_the_cli(tmp_path, capsys):
    with pytest.raises(ResourceLimitError) as exc:
        checks.run_checks(matroid_from_digraph(DIGRAPH), digraph=DIGRAPH, cap=5)
    assert str(exc.value) == "3 elements exceed the doubled-ground cap 2"
    path = tmp_path / "d.digraph"
    path.write_text("digraph 3\n0 1\n1 0\n1 2\n")
    assert main(["check", str(path), "--cap", "5"]) == 3
    assert capsys.readouterr().err == f"error: {exc.value}\n"


# ---------------------------------------------------------------------------
# every check passes on drawn inputs

_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    entries = draw(st.lists(_fractions, min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, entries)


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    return Digraph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=5))))


_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None, database=None)


def _assert_all_pass(om, digraph=None):
    failed = [r for r in checks.run_checks(om, digraph=digraph) if not r.passed]
    assert not failed, failed


@_SETTINGS
@given(_matrices())
def test_every_check_passes_on_drawn_matrices(m):
    _assert_all_pass(_realize("matrix", m))


@_SETTINGS
@given(_digraphs())
def test_every_check_passes_on_drawn_digraphs(d):
    _assert_all_pass(_realize("digraph", d), d)

"""The check suite's FAIL path and a property test of its PASS path.

Each FAIL test breaks one function that ``nlpoly.checks`` calls through
its own module globals and asserts that the check which guards that
function reports the failure, naming the basis where the check runs per
basis.  The property test draws small matrices and digraphs and asserts
that every check passes on them.
"""

import ast
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nlpoly import checks
from nlpoly.cli import _realize, main
from nlpoly.digraph import Digraph, matroid_from_digraph
from nlpoly.om import FaceLattice, SignVector
from nlpoly.ratlin import RatMatrix
from nlpoly.union import DUAL, PRIMAL, HatMatroid
from suite import TEST_DIGRAPHS

# With no database Hypothesis still caches the constants it reads from
# source files, while pytest collects; keep that cache out of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# digon-pendant (0->1, 1->0, 1->2) has nonnegative cocircuits on both
# sides of every hat, rank 2 of 3 and a digraph for oracle-agreement.
DIGRAPH = dict(TEST_DIGRAPHS)["digon-pendant"]

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
        signs = list(lift(x, h).signs)
        free = [e for e in getattr(h, block) if not signs[e]]
        if free:
            signs[free[0]] = 1
        return SignVector(signs)

    return lift_plus_one


def _lattice_ranks(new_rank):
    def patch(real):
        def relabelled(om):
            lat = real(om)
            return FaceLattice(lat.elements, {x: new_rank(k) for x, k in lat.rank_of.items()})

        return relabelled

    return patch


def _swap_first_partners(real):
    def build(std):
        h = real(std)
        partner = dict(h.partner)
        a0, a1 = h.a_elems[:2]
        partner[a0], partner[a1] = h.partner[a1], h.partner[a0]
        return HatMatroid(h.base, h.base_dual, h.hat, h.a_elems, h.b_elems, partner)

    return build


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
        "restrict", lambda real: lambda xhat, h: (PRIMAL, SignVector(xhat.signs[: h.n]))
    ),
    "lift-restrict-round-trip": (
        "restrict",
        lambda real: lambda xhat, h: (
            {PRIMAL: DUAL, DUAL: PRIMAL}.get(real(xhat, h)[0]),
            real(xhat, h)[1],
        ),
    ),
    "parallel-support": ("build_hat", _swap_first_partners),
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

"""Executable verification of the construction's guarantees.

Every property the library is built on is checked here as a named,
exhaustive sweep over a given matroid: minor recovery, the lifting and
restriction maps, lattice-rank preservation, the exponent identities,
the two specialization identities of the dichromate, Moebius values, the
coflow/flow duality, and (for digraph inputs) agreement of the two
coflow routes.  Hat-based checks run over every basis of the input.

Each check yields one outcome per case: None when the case holds, the
failure detail when it does not.  ``run_checks`` walks the bases once.
Bases with the same standard form share its hat: the first of them
builds a record of the hat and all that is read off it, runs every
per-basis check on it and keeps only each check's case count and first
failure, and the record is dropped before the next hat is built.  Every
basis then counts its form's cases under its own ``basis (...): ``
prefix, so the hat of a form shared by k bases counts k times.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .digraph import DEFAULT_ENUMERATION_CAP, Digraph, nl_coflow_graphic
from .errors import ResourceLimitError
from .om import (
    FaceLattice,
    RealizedOM,
    cocircuits,
    dual_realization,
    mobius_from_bottom,
    nonneg_face_lattice,
    standardize,
)
from .poly import TriPoly, dichromate_from_hat, nl_coflow_matroid, nl_flow_matroid, specialize
from .union import (
    DUAL, NEITHER, PRIMAL, HatMatroid, build_hat, lift_dual, lift_primal, minor, restrict,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class Side(NamedTuple):
    """The base matroid or its dual, as the hat of one basis joins it."""

    name: str  # PRIMAL or DUAL, the side ``restrict`` reports
    om: RealizedOM
    lattice: FaceLattice
    lift: Callable
    own: tuple  # hat elements partnered to its basis (A) or cobasis (B)
    other: tuple


class BasisRecord(NamedTuple):
    """The hat of one standard form and all that the per-basis checks read."""

    hat: HatMatroid
    lattice: FaceLattice  # the hat's nonnegative face lattice
    dichromate: TriPoly
    sides: tuple  # (primal Side, dual Side)


class InputRecord(NamedTuple):
    om: RealizedOM
    dual: RealizedOM  # dual of the standard form at the first basis
    psi: TriPoly
    phi: TriPoly
    digraph: Digraph | None
    cap: int


def mobius_identity(om):
    """The Eulerian values (-1)^rank against the defining recursion of mu,
    solved by the crosscut over the nonnegative cocircuits, one case per
    element of the face lattice of ``om``; a crosscut member missing from
    the lattice fails."""
    lat = nonneg_face_lattice(om)
    atoms = [d.support for d in cocircuits(om) if d.is_nonnegative()]
    mu = mobius_from_bottom(sum(1 << e for e in s) for s in atoms)
    for x in lat:
        got = mu.pop(sum(1 << e for e in x), None)
        want = lat.mobius(x)
        yield None if got == want else f"Moebius value {got} at {sorted(x)}, not {want}"
    for m in mu:
        extra = [e for e in range(m.bit_length()) if m >> e & 1]
        yield f"crosscut member {extra} is not in the lattice"


def coflow_flow_duality(inp):
    yield None if inp.psi == nl_flow_matroid(inp.dual) else "coflow(M) differs from flow(dual M)"
    yield None if inp.phi == nl_coflow_matroid(inp.dual) else "flow(M) differs from coflow(dual M)"


def minor_recovery(inp, b):
    for s in b.sides:
        back = minor(b.hat.hat, delete=s.own, contract=s.other)
        yield None if back.chirotope == s.om.chirotope else (
            f"deleting {s.own} and contracting {s.other} does not recover the {s.name} matroid"
        )


def cocircuit_lifting(inp, b):
    hat_cocs = {d.support for d in cocircuits(b.hat.hat) if d.is_nonnegative()}
    for s in b.sides:
        for d in cocircuits(s.om):
            if d.is_nonnegative():
                ok = s.lift(d.support, b.hat) in hat_cocs
                yield None if ok else (
                    f"{s.name} lift of cocircuit {sorted(d.support)} is not a hat cocircuit"
                )


def lattice_rank_preservation(inp, b):
    for s in b.sides:
        for x in s.lattice:
            lifted = s.lift(x, b.hat)
            if lifted not in b.lattice:
                yield f"{s.name} lift of {sorted(x)} leaves the hat lattice"
            else:
                ok = b.lattice.rank_of[lifted] == s.lattice.rank_of[x]
                yield None if ok else f"lattice rank changes for {s.name} {sorted(x)}"


def covector_restriction(inp, b):
    for xhat in b.lattice:
        side, x = restrict(xhat, b.hat)
        want = next((s for s in b.sides if xhat.isdisjoint(s.other)), None)
        if want is None:
            yield None if side == NEITHER else f"mixed-support {sorted(xhat)} classified as {side}"
        else:
            ok = side == want.name and x in want.lattice
            yield None if ok else f"{sorted(xhat)} does not restrict into the {want.name} lattice"


def lift_restrict_round_trip(inp, b):
    for s in b.sides:
        for x in s.lattice:
            if x:
                ok = restrict(s.lift(x, b.hat), b.hat) == (s.name, x)
                yield None if ok else f"{s.name} round trip fails for {sorted(x)}"


def parallel_support(inp, b):
    for d in cocircuits(b.hat.hat):
        supp = d.support
        for s in b.sides:
            if supp.isdisjoint(s.other):
                ok = all((e in supp) == (e - b.hat.n in supp) for e in s.own)
                yield None if ok else (
                    f"{s.name} support {sorted(supp)} not parallel to its partners"
                )


def exponent_identities(inp, b):
    h, n, r = b.hat, b.hat.n, b.hat.r
    for xhat in b.lattice:
        supp_e = {e for e in xhat if e < n}
        x_exp = b.lattice.rank_of[xhat] + n - len(supp_e)
        if xhat.isdisjoint(h.a_elems):
            ok = r - h.base.column_rank(supp_e) == x_exp - (n - r)
            yield None if ok else f"contraction-rank identity fails for {sorted(xhat)}"
        if xhat.isdisjoint(h.b_elems):
            rest = set(range(n)) - supp_e
            ok = len(rest) - h.base.column_rank(rest) == x_exp - r
            yield None if ok else f"deletion-corank identity fails for {sorted(xhat)}"


def coflow_specialization(inp, b):
    want = TriPoly.x(inp.om.ground_size - inp.om.rank) * inp.psi
    yield None if specialize(b.dichromate, 0, 1) == want else "(y,z)=(0,1) specialization mismatch"


def flow_specialization(inp, b):
    want = TriPoly.x(inp.om.rank) * inp.phi
    yield None if specialize(b.dichromate, 1, 0) == want else "(y,z)=(1,0) specialization mismatch"


def oracle_agreement(inp):
    same = nl_coflow_graphic(inp.digraph, inp.cap) == inp.psi
    yield None if same else "subset-poset and face-lattice coflow polynomials differ"


# (name, check, scope): an "input" check runs once, a "basis" check once
# per standard form, its cases counted once per basis, a "digraph" check
# once and only on digraph inputs.  mobius-identity has both halves: the
# input's and the dual's lattices, then the hat's at every basis.
CHECKS = (
    (
        "mobius-identity",
        lambda inp: [*mobius_identity(inp.om), *mobius_identity(inp.dual)],
        "input",
    ),
    ("mobius-identity", lambda inp, b: mobius_identity(b.hat.hat), "basis"),
    ("coflow-flow-duality", coflow_flow_duality, "input"),
    ("minor-recovery", minor_recovery, "basis"),
    ("cocircuit-lifting", cocircuit_lifting, "basis"),
    ("lattice-rank-preservation", lattice_rank_preservation, "basis"),
    ("covector-restriction", covector_restriction, "basis"),
    ("lift-restrict-round-trip", lift_restrict_round_trip, "basis"),
    ("parallel-support", parallel_support, "basis"),
    ("exponent-identities", exponent_identities, "basis"),
    ("coflow-specialization", coflow_specialization, "basis"),
    ("flow-specialization", flow_specialization, "basis"),
    ("oracle-agreement", oracle_agreement, "digraph"),
)


def _tally(outcomes):
    """(number of cases, first failure detail or None) of one check's outcomes."""
    outcomes = list(outcomes)
    return len(outcomes), next((o for o in outcomes if o), None)


def _basis_tallies(inp: InputRecord, std: RealizedOM) -> list:
    """Every per-basis check on the hat of one standard form, as
    ``(name, tally)`` pairs; the hat and its record die on return."""
    h = build_hat(std)
    sides = (
        Side(PRIMAL, std, nonneg_face_lattice(std), lift_primal, h.a_elems, h.b_elems),
        Side(DUAL, h.base_dual, nonneg_face_lattice(h.base_dual), lift_dual, h.b_elems, h.a_elems),
    )
    b = BasisRecord(h, nonneg_face_lattice(h.hat), dichromate_from_hat(h), sides)
    return [(name, _tally(check(inp, b))) for name, check, scope in CHECKS if scope == "basis"]


def _standard(om: RealizedOM, basis) -> RealizedOM:
    return standardize(om, list(basis) if basis else None)[0]


def run_checks(om: RealizedOM, digraph: Digraph | None = None, cap=DEFAULT_ENUMERATION_CAP):
    """Run the full invariant suite on one matroid; returns CheckResults."""
    n = om.ground_size
    if n > cap // 2:
        raise ResourceLimitError(f"{n} elements exceed the doubled-ground cap {cap // 2}")
    bases = om.bases() or [()]
    first = _standard(om, bases[0])
    inp = InputRecord(
        om, dual_realization(first), nl_coflow_matroid(om), nl_flow_matroid(om), digraph, cap
    )
    tallies = {}  # check name -> (cases, first failure), in the order of CHECKS
    for name, check, scope in CHECKS:
        if scope == "input" or (scope == "digraph" and digraph is not None):
            tallies[name] = _tally(check(inp))
        elif scope == "basis":
            tallies.setdefault(name, (0, None))
    forms = {}  # standard-form entries -> that form's per-basis tallies
    for basis in bases:
        std = first if basis == bases[0] else _standard(om, basis)
        if std.matrix.entries not in forms:
            forms[std.matrix.entries] = _basis_tallies(inp, std)
        for name, (cases, failure) in forms[std.matrix.entries]:
            total, first_failure = tallies[name]
            if first_failure is None and failure:
                first_failure = f"basis {basis}: {failure}"
            tallies[name] = (total + cases, first_failure)
    return [
        CheckResult(name, failure is None, failure or f"{cases} cases")
        for name, (cases, failure) in tallies.items()
    ]

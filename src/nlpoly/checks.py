"""Executable verification of the construction's guarantees.

Every property the library is built on is checked here as a named,
exhaustive sweep over a given matroid: minor recovery, the lifting and
restriction maps, lattice-rank preservation, the exponent identities,
the two specialization identities of the dichromate, Moebius sums, the
coflow/flow duality, and (for digraph inputs) agreement of the two
coflow routes.  Hat-based checks run over every basis of the input.

Each check is a generator that yields one outcome per case: None when
the case holds, the failure detail when it does not.  ``run_checks``
builds everything the checks read once, in one record per input and
one per basis.
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
    basis: tuple
    hat: HatMatroid
    lattice: FaceLattice  # the hat's nonnegative face lattice
    dichromate: TriPoly
    sides: tuple  # (primal Side, dual Side)


class InputRecord(NamedTuple):
    om: RealizedOM
    dual: RealizedOM  # dual of the standard form at the first basis
    psi: TriPoly
    phi: TriPoly
    bases: list
    digraph: Digraph | None
    cap: int


def mobius_identity(inp):
    inputs = [nonneg_face_lattice(inp.om), nonneg_face_lattice(inp.dual)]
    for lat in inputs + [b.lattice for b in inp.bases]:
        for x in lat:
            total = sum(lat.mobius(y) for y in lat if y.support <= x.support)
            want = 1 if x is lat.bottom else 0
            yield None if total == want else f"Moebius downset sum {total} at {x}, not {want}"


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
    hat_cocs = set(cocircuits(b.hat.hat))
    for s in b.sides:
        for d in cocircuits(s.om):
            if d.is_nonnegative():
                lifted = s.lift(d, b.hat)
                ok = lifted.is_nonnegative() and lifted in hat_cocs
                yield None if ok else f"{s.name} lift of cocircuit {d} is not a hat cocircuit"


def lattice_rank_preservation(inp, b):
    for s in b.sides:
        for x in s.lattice:
            lifted = s.lift(x, b.hat)
            if lifted not in b.lattice:
                yield f"{s.name} lift of {x} leaves the hat lattice"
            else:
                ok = b.lattice.rank_of[lifted] == s.lattice.rank_of[x]
                yield None if ok else f"lattice rank changes for {s.name} {x}"


def covector_restriction(inp, b):
    for xhat in b.lattice:
        side, x = restrict(xhat, b.hat)
        want = next((s for s in b.sides if xhat.support.isdisjoint(s.other)), None)
        if want is None:
            yield None if side == NEITHER else f"mixed-support {xhat} classified as {side}"
        else:
            ok = side == want.name and x in want.lattice
            yield None if ok else f"{xhat} does not restrict into the {want.name} lattice"


def lift_restrict_round_trip(inp, b):
    for s in b.sides:
        for x in s.lattice:
            if x.support:
                ok = restrict(s.lift(x, b.hat), b.hat) == (s.name, x)
                yield None if ok else f"{s.name} round trip fails for {x}"


def parallel_support(inp, b):
    for d in cocircuits(b.hat.hat):
        supp = d.support
        for s in b.sides:
            if supp.isdisjoint(s.other):
                ok = all((e in supp) == (b.hat.partner[e] in supp) for e in s.own)
                yield None if ok else f"{s.name} support of {d} not parallel to its partners"


def exponent_identities(inp, b):
    h, n, r = b.hat, b.hat.n, b.hat.r
    for xhat in b.lattice:
        supp_e = {e for e in xhat.support if e < n}
        x_exp = b.lattice.rank_of[xhat] + n - len(supp_e)
        if xhat.support.isdisjoint(h.a_elems):
            ok = r - h.base.column_rank(supp_e) == x_exp - (n - r)
            yield None if ok else f"contraction-rank identity fails for {xhat}"
        if xhat.support.isdisjoint(h.b_elems):
            rest = set(range(n)) - supp_e
            ok = len(rest) - h.base.column_rank(rest) == x_exp - r
            yield None if ok else f"deletion-corank identity fails for {xhat}"


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
# per basis record, a "digraph" check once and only on digraph inputs.
CHECKS = (
    ("mobius-identity", mobius_identity, "input"),
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


def _basis_record(om: RealizedOM, basis) -> BasisRecord:
    std, _ = standardize(om, list(basis) if basis else None)
    h = build_hat(std)
    sides = (
        Side(PRIMAL, std, nonneg_face_lattice(std), lift_primal, h.a_elems, h.b_elems),
        Side(DUAL, h.base_dual, nonneg_face_lattice(h.base_dual), lift_dual, h.b_elems, h.a_elems),
    )
    return BasisRecord(basis, h, nonneg_face_lattice(h.hat), dichromate_from_hat(h), sides)


def run_checks(om: RealizedOM, digraph: Digraph | None = None, cap=DEFAULT_ENUMERATION_CAP):
    """Run the full invariant suite on one matroid; returns CheckResults."""
    n = om.ground_size
    if n > cap // 2:
        raise ResourceLimitError(
            f"{n} elements exceed the cap {cap // 2} for the doubled ground set"
        )
    psi, phi = nl_coflow_matroid(om), nl_flow_matroid(om)
    bases = [_basis_record(om, basis) for basis in om.bases() or [()]]
    dual = dual_realization(bases[0].hat.base)
    inp = InputRecord(om, dual, psi, phi, bases, digraph, cap)
    results = []
    for name, check, scope in CHECKS:
        if scope == "basis":
            outcomes = [o and f"basis {b.basis}: {o}" for b in bases for o in check(inp, b)]
        elif scope == "input" or digraph is not None:
            outcomes = list(check(inp))
        else:
            continue
        failures = [o for o in outcomes if o]
        detail = failures[0] if failures else f"{len(outcomes)} cases"
        results.append(CheckResult(name, not failures, detail))
    return results

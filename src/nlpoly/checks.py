"""Executable verification of the construction's guarantees.

Every property the library is built on is checked here as a named,
exhaustive sweep over a given matroid: minor recovery, the lifting and
restriction maps, lattice-rank preservation, the exponent identities,
the two specialization identities of the dichromate, Moebius sums, the
coflow/flow duality, and (for digraph inputs) agreement of the two
coflow routes.  Hat-based checks run over every basis of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import DEFAULT_ENUMERATION_CAP, Digraph, nl_coflow_graphic
from .errors import ResourceLimitError
from .om import (
    RealizedOM,
    cocircuits,
    dual_realization,
    nonneg_face_lattice,
    standardize,
)
from .poly import TriPoly, dichromate_from_hat, nl_coflow_matroid, nl_flow_matroid, specialize
from .union import DUAL, NEITHER, PRIMAL, build_hat, lift_dual, lift_primal, minor, restrict


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mobius_sums_ok(lattice) -> bool:
    for x in lattice:
        total = sum(
            lattice.mobius(y) for y in lattice if y.support <= x.support
        )
        if total != (1 if x is lattice.bottom else 0):
            return False
    return True


def run_checks(om: RealizedOM, digraph: Digraph | None = None, cap=DEFAULT_ENUMERATION_CAP):
    """Run the full invariant suite on one matroid; returns CheckResults."""
    n = om.ground_size
    if n > cap // 2:
        raise ResourceLimitError(
            f"{n} elements exceed the cap {cap // 2} for the doubled ground set"
        )
    results = []
    psi = nl_coflow_matroid(om)
    phi = nl_flow_matroid(om)

    # Per-basis machinery, built once and shared by all hat checks.
    per_basis = []
    for basis in om.bases() or [()]:
        std, _ = standardize(om, list(basis) if basis else None)
        h = build_hat(std)
        per_basis.append((basis, std, h))

    def check(name, fn):
        failures = []
        count = fn(failures)
        results.append(
            CheckResult(name, not failures, failures[0] if failures else f"{count} cases")
        )

    def mobius_identity(failures):
        count = 0
        lattices = [nonneg_face_lattice(om)]
        std0 = per_basis[0][1]
        lattices.append(nonneg_face_lattice(dual_realization(std0)))
        for _, _, h in per_basis:
            lattices.append(nonneg_face_lattice(h.hat))
        for lat in lattices:
            count += len(lat)
            if not _mobius_sums_ok(lat):
                failures.append("a Moebius downset sum is nonzero off the bottom")
        return count

    check("mobius-identity", mobius_identity)

    def duality(failures):
        std0 = per_basis[0][1]
        dual0 = dual_realization(std0)
        if nl_coflow_matroid(om) != nl_flow_matroid(dual0):
            failures.append("coflow(M) differs from flow(dual M)")
        if nl_flow_matroid(om) != nl_coflow_matroid(dual0):
            failures.append("flow(M) differs from coflow(dual M)")
        return 2

    check("coflow-flow-duality", duality)

    def minor_recovery(failures):
        count = 0
        for basis, std, h in per_basis:
            back = minor(h.hat, delete=h.a_elems, contract=h.b_elems)
            if back.chirotope != std.chirotope:
                failures.append(f"basis {basis}: deletion/contraction does not recover M")
            dual_back = minor(h.hat, delete=h.b_elems, contract=h.a_elems)
            if dual_back.chirotope != h.base_dual.chirotope:
                failures.append(f"basis {basis}: contraction/deletion does not recover the dual")
            count += 2
        return count

    check("minor-recovery", minor_recovery)

    def cocircuit_lifting(failures):
        count = 0
        for basis, std, h in per_basis:
            hat_cocs = set(cocircuits(h.hat))
            for d in cocircuits(std):
                if not d.is_nonnegative():
                    continue
                lifted = lift_primal(d, h)
                count += 1
                if not lifted.is_nonnegative() or lifted not in hat_cocs:
                    failures.append(f"basis {basis}: lift of cocircuit {d} is not a hat cocircuit")
            for d in cocircuits(h.base_dual):
                if not d.is_nonnegative():
                    continue
                lifted = lift_dual(d, h)
                count += 1
                if not lifted.is_nonnegative() or lifted not in hat_cocs:
                    failures.append(f"basis {basis}: dual lift of {d} is not a hat cocircuit")
        return count

    check("cocircuit-lifting", cocircuit_lifting)

    def lattice_rank_preservation(failures):
        count = 0
        for basis, std, h in per_basis:
            hat_lat = nonneg_face_lattice(h.hat)
            for x in nonneg_face_lattice(std):
                lifted = lift_primal(x, h)
                count += 1
                if lifted not in hat_lat:
                    failures.append(f"basis {basis}: lift of {x} leaves the hat lattice")
                elif hat_lat.rank_of[lifted] != nonneg_face_lattice(std).rank_of[x]:
                    failures.append(f"basis {basis}: lattice rank changes for {x}")
            dual = h.base_dual
            for x in nonneg_face_lattice(dual):
                lifted = lift_dual(x, h)
                count += 1
                if lifted not in hat_lat:
                    failures.append(f"basis {basis}: dual lift of {x} leaves the hat lattice")
                elif hat_lat.rank_of[lifted] != nonneg_face_lattice(dual).rank_of[x]:
                    failures.append(f"basis {basis}: lattice rank changes for dual {x}")
        return count

    check("lattice-rank-preservation", lattice_rank_preservation)

    def covector_restriction(failures):
        count = 0
        for basis, std, h in per_basis:
            base_lat = nonneg_face_lattice(std)
            dual_lat = nonneg_face_lattice(h.base_dual)
            for xhat in nonneg_face_lattice(h.hat):
                meets_a = any(e in xhat.support for e in h.a_elems)
                meets_b = any(e in xhat.support for e in h.b_elems)
                side, x = restrict(xhat, h)
                count += 1
                if not meets_b and (side != PRIMAL or x not in base_lat):
                    failures.append(f"basis {basis}: B-free {xhat} does not restrict into the base lattice")
                if not meets_a and meets_b and (side != DUAL or x not in dual_lat):
                    failures.append(f"basis {basis}: A-free {xhat} does not restrict into the dual lattice")
                if meets_a and meets_b and side != NEITHER:
                    failures.append(f"basis {basis}: mixed-support {xhat} classified as {side}")
        return count

    check("covector-restriction", covector_restriction)

    def round_trip(failures):
        count = 0
        for basis, std, h in per_basis:
            for x in nonneg_face_lattice(std):
                if not x.support:
                    continue
                count += 1
                if restrict(lift_primal(x, h), h) != (PRIMAL, x):
                    failures.append(f"basis {basis}: primal round trip fails for {x}")
            for x in nonneg_face_lattice(h.base_dual):
                if not x.support:
                    continue
                count += 1
                if restrict(lift_dual(x, h), h) != (DUAL, x):
                    failures.append(f"basis {basis}: dual round trip fails for {x}")
        return count

    check("lift-restrict-round-trip", round_trip)

    def parallel_support(failures):
        count = 0
        for basis, std, h in per_basis:
            for d in cocircuits(h.hat):
                supp = d.support
                meets_a = any(e in supp for e in h.a_elems)
                meets_b = any(e in supp for e in h.b_elems)
                if not meets_b:
                    count += 1
                    for a in h.a_elems:
                        if (a in supp) != (h.partner[a] in supp):
                            failures.append(f"basis {basis}: A-support of {d} not parallel to E1")
                            break
                if not meets_a:
                    count += 1
                    for b in h.b_elems:
                        if (b in supp) != (h.partner[b] in supp):
                            failures.append(f"basis {basis}: B-support of {d} not parallel to E2")
                            break
        return count

    check("parallel-support", parallel_support)

    def exponent_identities(failures):
        count = 0
        for basis, std, h in per_basis:
            r = h.r
            hat_lat = nonneg_face_lattice(h.hat)
            for xhat in hat_lat:
                supp_e = {e for e in xhat.support if e < n}
                off = n - len(supp_e)
                meets_a = any(e in xhat.support for e in h.a_elems)
                meets_b = any(e in xhat.support for e in h.b_elems)
                if not meets_a:
                    count += 1
                    lhs = r - std.column_rank(supp_e)
                    if lhs != hat_lat.rank_of[xhat] + off - (n - r):
                        failures.append(f"basis {basis}: contraction-rank identity fails for {xhat}")
                if not meets_b:
                    count += 1
                    rest = set(range(n)) - supp_e
                    lhs = len(rest) - std.column_rank(rest)
                    if lhs != hat_lat.rank_of[xhat] + off - r:
                        failures.append(f"basis {basis}: deletion-corank identity fails for {xhat}")
        return count

    check("exponent-identities", exponent_identities)

    def coflow_specialization(failures):
        count = 0
        want = TriPoly.x(n - om.rank) * psi
        for basis, std, h in per_basis:
            count += 1
            if specialize(dichromate_from_hat(h), 0, 1) != want:
                failures.append(f"basis {basis}: (y,z)=(0,1) specialization mismatch")
        return count

    check("coflow-specialization", coflow_specialization)

    def flow_specialization(failures):
        count = 0
        want = TriPoly.x(om.rank) * phi
        for basis, std, h in per_basis:
            count += 1
            if specialize(dichromate_from_hat(h), 1, 0) != want:
                failures.append(f"basis {basis}: (y,z)=(1,0) specialization mismatch")
        return count

    check("flow-specialization", flow_specialization)

    if digraph is not None:
        def oracle_agreement(failures):
            if nl_coflow_graphic(digraph, cap) != psi:
                failures.append("subset-poset and face-lattice coflow polynomials differ")
            return 1

        check("oracle-agreement", oracle_agreement)

    return results

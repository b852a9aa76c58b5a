"""Acceptance suite.

Eight criteria, each printed as one pass/fail line (run with ``-s`` to
see them live).  The heavy sweep — every named check over every basis
of every catalog matroid — runs once and is shared by the criteria
that read different slices of it.  All equalities are exact; the only
tolerances are the two wall-clock budgets, asserted as stated.
"""

import time

from nlpoly.checks import run_checks
from nlpoly.digraph import (
    count_acyclic_colorings,
    incidence_matrix,
    matroid_from_digraph,
    nl_coflow_graphic,
)
from nlpoly.om import RealizedOM
from nlpoly.poly import TriPoly, dichromate, evaluate, nl_coflow_matroid, nl_flow_matroid
from nlpoly.ratlin import RatMatrix, rank_rat
from suite import suite_matroids, random_digraphs

X = TriPoly.x

_SWEEP = {}


def _sweep():
    """run_checks over the whole catalog, computed once."""
    if not _SWEEP:
        t0 = time.perf_counter()
        rows = []
        for name, om, d in suite_matroids():
            rows.append((name, {r.name: r for r in run_checks(om, digraph=d)}))
        _SWEEP["rows"] = rows
        _SWEEP["elapsed"] = time.perf_counter() - t0
    return _SWEEP["rows"], _SWEEP["elapsed"]


def _report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {name} failed {tail}"


def _failures(check_name):
    rows, _ = _sweep()
    return [
        f"{name}: {result[check_name].detail}"
        for name, result in rows
        if not result[check_name].passed
    ]


def test_worked_examples():
    t0 = time.perf_counter()
    from nlpoly.digraph import Digraph

    c3 = matroid_from_digraph(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    digon = matroid_from_digraph(Digraph(2, [(0, 1), (1, 0)]))
    coloop = RealizedOM.from_rational(RatMatrix(1, 1, [1]))
    ok = (
        nl_coflow_matroid(c3) == X(2) - 1
        and nl_coflow_matroid(digon) == X(1) - 1
        and nl_coflow_matroid(coloop) == X(1)
        and nl_flow_matroid(c3) == X(1)
        and nl_flow_matroid(coloop) == TriPoly()
        and dichromate(coloop, [0])[0] == X(1) - TriPoly.monomial(1, 1, 1, 0)
    )
    elapsed = time.perf_counter() - t0
    _report("worked-examples", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_suite_shape():
    entries = suite_matroids()
    ok = len(entries) >= 20 and all(om.ground_size <= 6 for _, om, _ in entries)
    _report("suite-shape", ok, f"{len(entries)} matroids, ground size <= 6")


def test_dichromate_specializations_every_basis():
    rows, elapsed = _sweep()
    bad = _failures("coflow-specialization") + _failures("flow-specialization")
    total_bases = sum(
        max(len(om.bases()), 1) for _, om, _ in suite_matroids()
    )
    _report(
        "dichromate-specializations",
        not bad and elapsed < 120.0,
        bad[0] if bad else f"{total_bases} bases over {len(rows)} matroids, sweep {elapsed:.1f}s",
    )


def test_minor_recovery():
    bad = _failures("minor-recovery")
    _report("minor-recovery", not bad, bad[0] if bad else "both minors per basis")


def test_lifting_and_restriction():
    bad = []
    for check in (
        "cocircuit-lifting",
        "lattice-rank-preservation",
        "covector-restriction",
        "lift-restrict-round-trip",
        "parallel-support",
        "exponent-identities",
    ):
        bad += _failures(check)
    _report("lifting-restriction", not bad, bad[0] if bad else "zero failures")


def test_oracle_agreement_random_digraphs():
    digraphs = random_digraphs(20260809, 100)
    bad = 0
    for d in digraphs:
        if nl_coflow_graphic(d) != nl_coflow_matroid(matroid_from_digraph(d)):
            bad += 1
    _report("coflow-oracle-agreement", bad == 0, f"{len(digraphs)} random digraphs")


def test_coloring_count_law():
    digraphs = random_digraphs(20260809, 100)
    checked = 0
    bad = 0
    for d in digraphs:
        psi = nl_coflow_graphic(d)
        free = d.vertex_count - rank_rat(incidence_matrix(d))
        for k in (1, 2, 3):
            checked += 1
            if count_acyclic_colorings(d, k) != k**free * evaluate(psi, k):
                bad += 1
    _report("coloring-count-law", bad == 0, f"{checked} exact counts")


def test_coflow_flow_duality():
    bad = _failures("coflow-flow-duality")
    _report("coflow-flow-duality", not bad, bad[0] if bad else "both directions")


def test_mobius_identity_on_all_lattices():
    bad = _failures("mobius-identity")
    rows, _ = _sweep()
    cases = sum(int(r["mobius-identity"].detail.split()[0]) for _, r in rows)
    _report("mobius-identity", not bad, bad[0] if bad else f"{cases} Moebius values")

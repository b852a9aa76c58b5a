"""The benchmark's four workloads: inputs, commands and output checks.

Every workload is a fixed catalogue of structures.  ``--seed`` draws a
relabelling of each structure, so the program sees different input files
for different seeds while the work per pass stays the same.  Drawing new
structures per seed would change the work by 25% or more (the number of
totally cyclic subsets of a 16-arc digraph, or the hat lattice size at
8 elements, vary that much between random structures), which would swamp
the run-to-run spread the benchmark has to resolve.

Each instance runs one or more CLI commands; one (instance, command)
pair is a job, and a pass runs every job of the workload once.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass
from pathlib import Path

from nlpoly.cli import load_input
from nlpoly.digraph import (
    count_acyclic_colorings,
    incidence_matrix,
    matroid_from_digraph,
    nl_coflow_graphic,
)
from nlpoly.om import RealizedOM, dual_realization, standardize
from nlpoly.poly import TriPoly, evaluate, nl_coflow_matroid, nl_flow_matroid, specialize
from nlpoly.ratlin import rank_rat

DEFAULT_SEED = 0

# The 8-arc digraph whose hat counts are pinned by the self-test:
# 12,870 chirotope 8-tuples, 4,360 cocircuits, 28 nonnegative, 812 lattice elements.
CANONICAL = (4, [(0, 1), (1, 2), (2, 0), (3, 0), (2, 3), (1, 3), (3, 1), (0, 2)])


@dataclass(frozen=True)
class Structure:
    """One input before relabelling.

    ``relabel`` is ``"none"`` (the file is written as is), ``"vertices"``
    (digraph vertices permuted; matrix rows permuted) or ``"all"``
    (additionally arcs or matrix columns shuffled).  Arc and column order
    pick the default basis, and with it the standard form, the size of its
    Fractions and the eps perturbation of the hat, so only the graphic
    route, whose work does not depend on arc order, shuffles arcs.
    """

    name: str
    data: tuple | list  # (vertex_count, arcs) or matrix rows
    relabel: str


@dataclass(frozen=True)
class Job:
    name: str
    instance: str
    path: Path
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple  # argv prefixes; the input path is appended
    structures: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dichromate-n8",
            "dichromate at 8 elements: the eps hat chirotope (om) and the hat lattice "
            "dominate; digraph and the Fraction path of ratlin do almost nothing",
            (("dichromate",),),
            (
                Structure("canonical", CANONICAL, "none"),
                # U(2,4) on the first four columns, so not graphic.
                Structure(
                    "nongraphic-3x8",
                    [
                        [1, 0, 1, 1, 0, 1, 0, "2/3"],
                        [0, 1, 1, 2, 0, 0, "-1/3", 1],
                        [0, 0, 0, 0, 1, "1/2", 1, -1],
                    ],
                    "vertices",
                ),
                Structure(
                    "rank5",
                    (6, [(2, 5), (5, 3), (0, 1), (5, 4), (3, 4), (1, 5), (4, 0), (1, 2)]),
                    "vertices",
                ),
                Structure(
                    "rank7",
                    (8, [(1, 5), (5, 2), (2, 3), (3, 7), (4, 1), (6, 0), (7, 6), (0, 4)]),
                    "vertices",
                ),
            ),
        ),
        Workload(
            "coflow-n16",
            "default coflow (graphic route): 2^16 subset SCC tests in digraph and "
            "Moebius on ~10k subsets; builds no chirotope, hat or face lattice",
            (("coflow",),),
            (
                Structure(
                    "dense6x16a",
                    (6, [(2, 1), (1, 4), (0, 4), (4, 1), (0, 1), (4, 3), (0, 4), (3, 2),
                         (3, 5), (4, 5), (0, 3), (0, 4), (5, 4), (1, 4), (2, 0), (1, 5)]),
                    "all",
                ),
                Structure(
                    "dense6x16b",
                    (6, [(0, 2), (1, 4), (3, 0), (0, 3), (1, 4), (3, 5), (2, 0), (4, 0),
                         (2, 1), (0, 4), (0, 3), (0, 1), (0, 5), (5, 2), (0, 5), (3, 4)]),
                    "all",
                ),
                Structure(
                    "dense5x15",
                    (5, [(2, 4), (3, 1), (4, 2), (0, 3), (0, 2), (3, 4), (4, 1), (0, 2),
                         (1, 0), (4, 3), (3, 1), (1, 3), (3, 1), (0, 3), (0, 1)]),
                    "all",
                ),
            ),
        ),
        Workload(
            "matroid-n13",
            "coflow --oracle matroid and flow at 12-13 elements: high-rank Fraction "
            "chirotopes (standardize, dual_realization), column_rank and large dual lattices",
            (("coflow", "--oracle", "matroid"), ("flow",)),
            (
                Structure(
                    "strong5x12",
                    (5, [(3, 4), (2, 1), (1, 3), (4, 2), (2, 3), (3, 1), (2, 3), (1, 0),
                         (0, 4), (3, 0), (3, 4), (1, 2)]),
                    "vertices",
                ),
                Structure(
                    "strong6x13",
                    (6, [(2, 4), (4, 1), (3, 0), (3, 4), (0, 5), (1, 3), (5, 2), (5, 0),
                         (4, 2), (1, 5), (0, 1), (2, 4), (3, 5)]),
                    "vertices",
                ),
                Structure(
                    "acyclic6x12",
                    (6, [(1, 3), (0, 1), (2, 4), (0, 5), (0, 4), (1, 4), (0, 2), (0, 4),
                         (0, 1), (3, 4), (1, 2), (2, 4)]),
                    "vertices",
                ),
                Structure(
                    "rational4x12",
                    [
                        ["-1", "3", "-1/3", "2", "1/2", "0", "-3", "1", "2/3", "-2", "1", "3/2"],
                        ["2", "0", "1", "-3/2", "-1", "1/3", "2", "-2", "0", "1", "-1/2", "3"],
                        ["0", "-2/3", "3", "1", "2", "-1", "1/2", "0", "-3", "3/2", "2", "-1"],
                        ["1/2", "1", "-2", "0", "-1/3", "3", "1", "2", "1", "0", "-3", "2/3"],
                    ],
                    "vertices",
                ),
                Structure(
                    "rational6x12",
                    [
                        ["-1", "0", "3/2", "-2", "-1", "1/2", "2", "0", "-1", "-3", "3/2", "1"],
                        ["3", "2/3", "0", "-1", "1", "2", "3", "0", "1/2", "2", "-3", "1/3"],
                        ["0", "3", "-3", "2", "1/3", "0", "0", "1", "3/2", "0", "-1", "-2/3"],
                        ["1", "-3", "0", "2", "1/3", "1", "0", "0", "-3", "-3/2", "3", "-2"],
                        ["-1/2", "-2/3", "2", "1/2", "2/3", "2/3", "1", "3", "3", "1", "-1/2", "-2"],
                        ["-2", "-2", "-1/3", "1", "2", "2", "1/2", "-1", "1", "2", "0", "1"],
                    ],
                    "vertices",
                ),
            ),
        ),
        Workload(
            "check-catalog",
            "check on catalog-sized inputs (at most 6 elements): many small hats, one "
            "per basis, and union.minor feeding the generic eps Bareiss",
            (("check",),),
            (
                Structure("k4-cyclic", (4, [(0, 1), (1, 2), (2, 0), (3, 0), (2, 3), (1, 3)]), "vertices"),
                Structure("k4-acyclic", (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), "vertices"),
                Structure("cycle4-diagonal", (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), "vertices"),
                Structure("two-cycles-shared", (4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)]), "vertices"),
                Structure("cycle3-chord", (3, [(0, 1), (1, 2), (2, 0), (0, 2)]), "vertices"),
                Structure("digon-loops", (2, [(0, 0), (0, 1), (1, 0), (1, 1)]), "vertices"),
                Structure("random4x5", (4, [(2, 1), (0, 2), (1, 3), (0, 2), (3, 0)]), "vertices"),
                Structure("uniform24", [[1, 0, 1, 1], [0, 1, 1, 2]], "vertices"),
                Structure("theta", [[1, 0, 1], [0, 1, 1]], "vertices"),
                Structure("rational2x5", [["1/2", "-1", "0", "3", "-2/3"], ["1", "2", "-3", "1/3", "1"]], "vertices"),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# input files


def _digraph_text(structure: Structure, rng: random.Random) -> str:
    n, arcs = structure.data
    arcs = list(arcs)
    if structure.relabel != "none":
        perm = list(range(n))
        rng.shuffle(perm)
        arcs = [(perm[t], perm[h]) for t, h in arcs]
    if structure.relabel == "all":
        rng.shuffle(arcs)
    return f"digraph {n}\n" + "".join(f"{t} {h}\n" for t, h in arcs)


def _matrix_text(structure: Structure, rng: random.Random) -> str:
    rows = [list(r) for r in structure.data]
    if structure.relabel != "none":
        rng.shuffle(rows)
    if structure.relabel == "all":
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        rows = [[row[j] for j in cols] for row in rows]
    return json.dumps({"rows": rows}) + "\n"


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Job]:
    """Write the workload's input files for ``seed``; return its jobs in pass order."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}:{seed}")
    jobs = []
    for s in workload.structures:
        is_digraph = isinstance(s.data, tuple)
        text = _digraph_text(s, rng) if is_digraph else _matrix_text(s, rng)
        path = directory / (s.name + (".txt" if is_digraph else ".json"))
        path.write_text(text)
        for cmd in workload.commands:
            jobs.append(Job(f"{s.name}.{cmd[0]}", s.name, path.resolve(), (*cmd, str(path.resolve()))))
    return jobs


# ---------------------------------------------------------------------------
# output checks


def parse_poly(line: str) -> TriPoly:
    """Parse the CLI's polynomial text; the round trip through ``str`` must hold."""
    if line == "0":
        return TriPoly()
    toks = line.split()
    first = toks[0]
    items = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    items += list(zip(toks[1::2], toks[2::2]))
    terms = []
    for sign, body in items:
        coeff, exps = 1, {"x": 0, "y": 0, "z": 0}
        for factor in body.split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                var, _, e = factor.partition("^")
                exps[var] = int(e) if e else 1
        terms.append(((exps["x"], exps["y"], exps["z"]), -coeff if sign == "-" else coeff))
    poly = TriPoly(terms)
    if str(poly) != line:
        raise ValueError(f"polynomial text does not round-trip: {line!r}")
    return poly


def _realized(kind, obj) -> RealizedOM:
    return matroid_from_digraph(obj) if kind == "digraph" else RealizedOM.from_rational(obj)


# load_input's cap argument is unused; pass it only while the signature has it.
_LOAD_EXTRA = (16,) if "cap" in inspect.signature(load_input).parameters else ()


def _load(path):
    return load_input(str(path), *_LOAD_EXTRA)


def _check_dichromate(outputs, kind, obj):
    """Both specializations against x^(n-r)*coflow and x^r*flow from the
    primal and dual lattices, not from the hat."""
    (job, out), = outputs.items()
    lines = out.splitlines()
    poly = parse_poly(lines[0])
    if not lines[1].startswith("basis: "):
        return f"{job}: no basis line"
    om = _realized(kind, obj)
    n, r = om.ground_size, om.rank
    if specialize(poly, 0, 1) != TriPoly.x(n - r) * nl_coflow_matroid(om):
        return f"{job}: (y,z)=(0,1) specialization differs from x^(n-r)*coflow"
    if specialize(poly, 1, 0) != TriPoly.x(r) * nl_flow_matroid(om):
        return f"{job}: (y,z)=(1,0) specialization differs from x^r*flow"
    return None


def _check_coflow_graphic(outputs, kind, obj):
    """The colorings law: colorings(k) = k^(n - rank) * coflow(k), k = 1..3."""
    (job, out), = outputs.items()
    psi = parse_poly(out.strip())
    free = obj.vertex_count - rank_rat(incidence_matrix(obj))
    for k in (1, 2, 3):
        if count_acyclic_colorings(obj, k) != k**free * evaluate(psi, k):
            return f"{job}: colorings law fails at k={k}"
    return None


def _check_matroid(outputs, kind, obj):
    """Graphic against matroid coflow for digraphs; coflow/flow duality both
    ways for matrices.  (Digraph flow outputs are held to the golden files,
    and building a 12-arc digraph's dual costs as much as the job itself.)"""
    coflow = parse_poly(next(o for j, o in outputs.items() if j.endswith(".coflow")).strip())
    flow = parse_poly(next(o for j, o in outputs.items() if j.endswith(".flow")).strip())
    if kind == "digraph":
        if nl_coflow_graphic(obj) != coflow:
            return "graphic and matroid coflow differ"
        return None
    dual = dual_realization(standardize(_realized(kind, obj))[0])
    if nl_flow_matroid(dual) != coflow:
        return "coflow(M) differs from flow(dual M)"
    if nl_coflow_matroid(dual) != flow:
        return "flow(M) differs from coflow(dual M)"
    return None


def _check_catalog(outputs, kind, obj):
    (job, out), = outputs.items()
    lines = out.splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        return f"{job}: not every check passed"
    return None


_ROUTES = {
    "dichromate-n8": _check_dichromate,
    "coflow-n16": _check_coflow_graphic,
    "matroid-n13": _check_matroid,
    "check-catalog": _check_catalog,
}


def golden_path(bench_dir: Path, workload: str, job: Job) -> Path:
    return bench_dir / "golden" / workload / f"{job.name}.out"


def check_outputs(workload: Workload, jobs, outputs: dict, bench_dir: Path) -> dict:
    """Verify one output per job; return {job name: failure reason} for the bad ones.

    ``outputs`` maps job name to (exit code, stdout text).  Every job must
    exit 0, its stdout must equal the golden file byte for byte, and the
    workload's independent route must agree.  The golden files hold the
    default seed's outputs; other seeds only relabel the same structures,
    which leaves every output unchanged, so they are held to them too.
    """
    bad = {}
    by_instance = {}
    for job in jobs:
        code, out = outputs[job.name]
        if code != 0:
            bad[job.name] = f"exit code {code}"
        elif golden_path(bench_dir, workload.name, job).read_bytes() != out.encode():
            bad[job.name] = "stdout differs from the golden file"
        by_instance.setdefault(job.instance, []).append(job)
    for instance, inst_jobs in by_instance.items():
        if any(j.name in bad for j in inst_jobs):
            continue
        kind, obj = _load(inst_jobs[0].path)
        try:
            reason = _ROUTES[workload.name]({j.name: outputs[j.name][1] for j in inst_jobs}, kind, obj)
        except (ValueError, IndexError, KeyError, StopIteration) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            for j in inst_jobs:
                bad[j.name] = reason
    return bad

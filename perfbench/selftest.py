"""Self-test of the benchmark's tracing, pinned counts and count stability.

    python3 perfbench/selftest.py        # about two minutes on a 2-core host

Kept out of the repository's pytest run on purpose: it traces every
workload twice.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from nlpoly import cli  # noqa: E402

# Bindings the traced run must reach: every module binds imported names
# directly, and some calls go through another module's globals.
EXPECTED_BINDINGS = [
    ("cli", "load_input"), ("cli", "nl_coflow_graphic"), ("cli", "nl_coflow_matroid"),
    ("cli", "nl_flow_matroid"), ("cli", "dichromate"), ("cli", "run_checks"),
    ("digraph", "totally_cyclic_poset"), ("digraph", "rank_rat"), ("digraph", "mobius_from_bottom"),
    ("ratlin", "rank_rat"), ("om", "standard_form"), ("om", "det_sign_eps"),
    ("om", "chirotope_from_matrix"), ("om", "cocircuits"), ("om", "mobius_from_bottom"),
    ("om", "nonneg_face_lattice"), ("poly", "nonneg_face_lattice"),
    ("union", "nonneg_face_lattice"), ("checks", "nonneg_face_lattice"),
    ("poly", "standardize"), ("checks", "standardize"), ("poly", "dual_realization"),
    ("union", "dual_realization"), ("checks", "dual_realization"), ("poly", "build_hat"),
    ("checks", "build_hat"), ("checks", "minor"), ("checks", "cocircuits"),
    ("checks", "nl_coflow_graphic"), ("checks", "nl_coflow_matroid"),
    ("checks", "nl_flow_matroid"), ("checks", "dichromate_from_hat"),
]


def _traced_pass(workload, directory, only=None):
    jobs = workloads.write_inputs(workloads.WORKLOADS[workload], workloads.DEFAULT_SEED, directory)
    jobs = [j for j in jobs if only is None or j.instance == only]
    with tracing.Tracer() as tracer:
        outputs = {j.name: tracer.root(i, run._call_cli, cli, j) for i, j in enumerate(jobs)}
    return jobs, outputs, tracer.spans


def _wrapped(value):
    return getattr(value, "traced", False)


def _all_bindings():
    for module in tracing.package_modules():
        yield from ((module, k, v) for k, v in vars(module).items())
    yield from ((cli.RealizedOM, k, v) for k, v in vars(cli.RealizedOM).items())


class TracingTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_every_binding_is_wrapped_only_while_tracing(self):
        originals = set(map(id, tracing.originals().values()))
        self.assertFalse([k for _, k, v in _all_bindings() if _wrapped(v)])
        with tracing.Tracer():
            for module, name in EXPECTED_BINDINGS:
                value = vars(sys.modules[f"nlpoly.{module}"])[name]
                self.assertTrue(_wrapped(value), f"nlpoly.{module}.{name}")
            self.assertTrue(_wrapped(vars(cli.RealizedOM)["column_rank"]))
            self.assertFalse([k for _, k, v in _all_bindings() if id(v) in originals])
        self.assertFalse([k for _, k, v in _all_bindings() if _wrapped(v)])

    def test_canonical_hat_counts(self):
        _, outputs, spans = _traced_pass("dichromate-n8", self.tmp, only="canonical")
        (code, _), = outputs.values()
        self.assertEqual(code, 0)
        counts = {}
        for name, *_, cnt in spans:
            counts.setdefault(name, []).append(cnt)
        self.assertIn(12870, [c["tuples"] for c in counts["om.chirotope_from_matrix"]])
        self.assertEqual([c["total"] for c in counts["om.cocircuits"] if "total" in c], [4360])
        self.assertEqual([c["nonneg"] for c in counts["om.cocircuits"] if "nonneg" in c], [28])
        self.assertEqual([c["elements"] for c in counts["om.nonneg_face_lattice"]], [812])

    def test_roots_cover_instances_and_self_times_sum_to_them(self):
        jobs, _, spans = _traced_pass("check-catalog", self.tmp)
        own = tracing.self_times(spans)
        for i in range(len(jobs)):
            members = [k for k, s in enumerate(spans) if s[4] == i]
            roots = [k for k in members if spans[k][3] < 0]
            self.assertEqual(len(roots), 1)
            root = spans[roots[0]]
            self.assertEqual(root[0], tracing.ROOT)
            self.assertTrue(all(root[1] <= spans[k][1] <= spans[k][2] <= root[2] for k in members))
            self.assertAlmostEqual(sum(own[k] for k in members), root[2] - root[1], places=9)

    def test_count_metrics_repeat_exactly(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, b = (
                    tracing.layer_metrics(_traced_pass(name, self.tmp / f"{name}{k}")[2])
                    for k in range(2)
                )
                counts = {k for k, (_, unit) in a.items() if unit != "s"}
                self.assertEqual({k: a[k] for k in counts}, {k: b[k] for k in counts})


if __name__ == "__main__":
    unittest.main(verbosity=2)

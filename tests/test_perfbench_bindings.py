"""The benchmark traces nlpoly through the names its modules bind; a
renamed or deleted binding must fail here, not only in the benchmark.
Its pinned work counts on the canonical 8-arc hat are held here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _selftest(test):
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", f"TracingTest.{test}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_traced_binding_exists():
    _selftest("test_every_binding_is_wrapped_only_while_tracing")


def test_canonical_hat_counts():
    # 12,870 chirotope tuples, 4,360 cocircuits, 28 nonnegative, 812 lattice elements
    _selftest("test_canonical_hat_counts")

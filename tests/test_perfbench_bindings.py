"""The benchmark traces nlpoly through the names its modules bind; a
renamed or deleted binding must fail here, not only in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_binding_exists():
    test = "TracingTest.test_every_binding_is_wrapped_only_while_tracing"
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", test],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

"""Benchmark for the nlpoly CLI: four seeded workloads, end-to-end and per layer.

Run from the root of a checkout (nothing needs building):

    python3 perfbench/run.py --workload dichromate-n8 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs each job as its own ``python -m nlpoly.cli`` child
process, one at a time (a closed loop with one client), and reports the
end-to-end metrics.  ``--trace 1`` runs the same jobs in this process with
spans around nlpoly's public functions and reports the per-layer metrics.
Either way every output is checked, and the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md next to this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

JOB_TIMEOUT_S = 20
CALIB_REPEATS = 3

# What every CLI call pays before it computes: interpreter start, the
# nlpoly import and parsing each input.  load_input's unused cap argument
# is passed only while the signature still has it.
SETUP_SNIPPET = """\
import sys
from nlpoly.cli import load_input
code = load_input.__code__
extra = (16,) if "cap" in code.co_varnames[: code.co_argcount] else ()
for path in sys.argv[1:]:
    load_input(path, *extra)
"""


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    samples = []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def host_info(seed: int) -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "seed": seed,
    }


@dataclass
class ChildResult:
    code: int | str  # exit code, or "timeout"
    out: str
    wall: float
    cpu: float
    rss_mb: float


class ChildRunner:
    """Runs one child at a time, each in a fresh empty cwd with its own
    HOME, XDG_CACHE_HOME and TMPDIR, so no cross-run disk cache helps."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.count = 0

    def run(self, argv, timeout=JOB_TIMEOUT_S) -> ChildResult:
        box = self.run_dir / f"child{self.count}"
        self.count += 1
        dirs = {k: box / k for k in ("cwd", "home", "cache", "tmp")}
        for d in dirs.values():
            d.mkdir(parents=True)
        env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(SRC),
            "HOME": str(dirs["home"]),
            "XDG_CACHE_HOME": str(dirs["cache"]),
            "TMPDIR": str(dirs["tmp"]),
        }
        timed_out = threading.Event()

        def kill(pid):
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)

        with open(box / "stdout", "wb") as out, open(box / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=dirs["cwd"], env=env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(timeout, kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = (box / "stdout").read_text()
        shutil.rmtree(box)
        return ChildResult(
            "timeout" if timed_out.is_set() else proc.returncode,
            text,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,  # KiB on Linux
        )


def _summary(workload, lines):
    print(f"== {workload}")
    for line in lines:
        print("   " + line)


def failures(runs, setups):
    """Children that exited with another code than 0 (or timed out)."""
    return [f"set-up exited with {r.code}" for r in setups if r.code != 0] + [
        f"{job.name} exited with {r.code}" for job, r in runs if r.code != 0
    ]


def run_end_to_end(wl, seed, seconds, run_dir):
    """Child processes, tracing off: set-up, then jobs for ``seconds``."""
    import workloads

    jobs = workloads.write_inputs(wl, seed, run_dir / "inputs")
    runner = ChildRunner(run_dir)
    calib = calibrate()
    setup_argv = ("-c", SETUP_SNIPPET, *sorted({str(j.path) for j in jobs}))
    # An untimed warm-up compiles the bytecode.
    setups = [runner.run(setup_argv)]

    # Jobs run in pass order, cyclically, until the next one would take the
    # job time past ``seconds``; every job runs at least once.  A pass is
    # then estimated job by job from medians, so a partial last pass still
    # adds samples.  A set-up child follows every job, so that the set-up
    # median sees the same host drift as the jobs do.
    runs = []  # (job, ChildResult) in run order
    last = {}
    measured = 0.0
    for k in itertools.count():
        job = jobs[k % len(jobs)]
        if k >= len(jobs) and (failures(runs, setups) or measured + last[job.name] > seconds):
            break
        result = runner.run(("-m", "nlpoly.cli", *job.argv))
        runs.append((job, result))
        last[job.name] = result.wall
        measured += result.wall
        setups.append(runner.run(setup_argv))

    first = {}
    for job, r in runs:
        first.setdefault(job.name, (r.code, r.out))
    bad = workloads.check_outputs(wl, jobs, first, BENCH_DIR)
    failed = [
        (job.name, bad.get(job.name) or "output differs between passes")
        for job, r in runs
        if job.name in bad or (r.code, r.out) != first[job.name]
    ]

    def per_job(field):
        return [statistics.median(getattr(r, field) for j, r in runs if j is job) for job in jobs]

    metrics = {
        "setup_s": (statistics.median(r.wall for r in setups[1:]), "s"),
        "wall_s": (sum(per_job("wall")), "s"),
        "cpu_s": (sum(per_job("cpu")), "s"),
        "peak_rss_mb": (max(per_job("rss_mb")), "MB"),
    }
    samples = min(sum(1 for j, _ in runs if j is job) for job in jobs)
    attempted = len(runs)
    lines = [f"{k:<12} {v:12.4f} {u:<3} median of {len(setups) - 1 if k == 'setup_s' else samples}"
             + ("" if k == "setup_s" else " or more per job") for k, (v, u) in metrics.items()]
    lines.append(f"{'fail_rate':<12} {len(failed) / attempted:12.4f}     {len(failed)}/{attempted} runs")
    lines.append(f"{'host.calib_s':<12} {calib:12.4f} s   {len(jobs)} jobs per pass, seed {seed}")
    lines += [f"FAIL {name}: {why}" for name, why in failed[:5]] + failures(runs, setups)
    _summary(wl.name, lines)
    # A set-up child is an operation too: if it fails, the run is not correct.
    setup_failed = sum(1 for r in setups if r.code != 0)
    return attempted + len(setups), len(failed) + setup_failed, metrics


def _call_cli(cli, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def run_traced(wl, seed, run_dir, host):
    """In-process, one untraced and one traced pass: per-layer metrics."""
    import tracing
    import workloads
    from nlpoly import cli

    jobs = workloads.write_inputs(wl, seed, run_dir / "inputs")
    calib = calibrate()
    plain, plain_s = {}, 0.0
    for job in jobs:
        start = time.perf_counter()
        plain[job.name] = _call_cli(cli, job)
        plain_s += time.perf_counter() - start
    traced = {}
    with tracing.Tracer() as tracer:
        for i, job in enumerate(jobs):
            traced[job.name] = tracer.root(i, _call_cli, cli, job)
    spans = tracer.spans
    traced_s = sum(s[2] - s[1] for s in spans if s[3] < 0)

    bad = workloads.check_outputs(wl, jobs, traced, BENCH_DIR)
    # A bad traced output fails both passes when the untraced one matches it;
    # a mismatch alone fails one of the two.
    failed = [(j.name, bad.get(j.name) or "traced and untraced outputs differ")
              for j in jobs if j.name in bad or traced[j.name] != plain[j.name]]
    failed_runs = sum(1 + (j in bad and traced[j] == plain[j]) for j, _ in failed)
    metrics = tracing.layer_metrics(spans)
    metrics["host.calib_s"] = (calib, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")

    WORK.mkdir(exist_ok=True)
    dump = {"host": host, "workload": wl.name, "jobs": [j.name for j in jobs],
            "fields": ["name", "start", "end", "parent", "instance", "counts"], "spans": spans}
    (WORK / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(dump))

    lines = [f"{k:<32} {v:14.6f} {u}" if isinstance(v, float) else f"{k:<32} {v:14d} {u}"
             for k, (v, u) in metrics.items()]
    lines.append(f"{len(spans)} spans, {len(jobs)} jobs, seed {seed}")
    lines += [f"FAIL {name}: {why}" for name, why in failed]
    _summary(wl.name + " (traced)", lines)
    return 2 * len(jobs), failed_runs, metrics


def main(argv=None) -> int:
    if not (SRC / "nlpoly" / "__init__.py").is_file():
        print(f"error: no nlpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    host = host_info(args.seed)
    print("host " + json.dumps(host))
    run_dir = WORK / f"run-{os.getpid()}"
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            if args.trace:
                a, f, m = run_traced(wl, args.seed, run_dir / name, host)
            else:
                a, f, m = run_end_to_end(wl, args.seed, args.seconds, run_dir / name)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

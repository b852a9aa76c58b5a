"""Record the golden stdout of every job at the default seed.

    python3 perfbench/record_golden.py

Each job runs once through the CLI, exactly as in a timed pass; a job is
recorded only if it exits 0 and its workload's independent route agrees.
Golden files hold the program's behaviour at the commit that recorded
them, so re-record only when that behaviour is meant to change.
"""

from __future__ import annotations

import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    run_dir = run.WORK / "golden-run"
    try:
        for wl in workloads.WORKLOADS.values():
            jobs = workloads.write_inputs(wl, workloads.DEFAULT_SEED, run_dir / "inputs" / wl.name)
            runner = run.ChildRunner(run_dir)
            outputs = {}
            for job in jobs:
                r = runner.run(("-m", "nlpoly.cli", *job.argv))
                outputs[job.name] = (r.code, r.out)
            for job in jobs:
                path = workloads.golden_path(run.BENCH_DIR, wl.name, job)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(outputs[job.name][1].encode())
            bad = workloads.check_outputs(wl, jobs, outputs, run.BENCH_DIR)
            if bad:
                shutil.rmtree(run.BENCH_DIR / "golden" / wl.name)
                print(f"{wl.name}: not recorded: {bad}", file=sys.stderr)
                return 1
            print(f"{wl.name}: {len(jobs)} golden files")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

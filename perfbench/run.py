#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree.  It builds perfbench/perfbench.exe
with dune, runs it with a scratch directory under .bench_work/, and passes
its output through: the last line of stdout is the JSON result.  Span
traces of --trace 1 runs are kept in .bench_work/traces/.  It exits
non-zero, printing no result, when the tree around it is not a Mirror
source tree or the build fails.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mix", "scan-large", "ingest")
# A run must end within 180 s; leave room to clean up after a kill.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def wal_filesystem(path):
    """The filesystem type the durable store writes to, for the host line."""
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no Mirror source tree around %s (dune-project and lib/ missing)" % HERE)

    build = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, "run-%d" % os.getpid())
    traces = os.path.join(work_root, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--walfs", wal_filesystem(work)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s, killed" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        for path in glob.glob(os.path.join(work, "trace-*.json")):
            shutil.move(path, os.path.join(traces, os.path.basename(path)))
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()

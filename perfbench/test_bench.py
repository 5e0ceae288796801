#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py [--workloads serve-mix,scan-large,ingest]

Run it from the root of a source tree; it takes a few minutes.  It checks:
- the percentile rule and the generators' determinism (perfbench.exe selftest);
- that every workload, run twice with one seed, repeats its exact counts:
  request counts, plan.nodes_per_query, mil.evaluated_per_query,
  qcache.hit_rate, wal.bytes_per_user_byte, wal.fsyncs_per_write,
  orchestrator.rounds and peak_heap_mb;
- that every run is correct, and that the request texts a run submitted
  are exactly the ones the generator makes for its seed
  (perfbench.exe inputs).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SEED = 11
SECONDS = 1
EXACT_LAYER = ["plan.nodes_per_query", "mil.evaluated_per_query", "qcache.hit_rate",
               "wal.bytes_per_user_byte", "wal.fsyncs_per_write", "orchestrator.rounds"]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s --trace %d failed:\n%s" % (workload, trace, out.stderr[-2000:]))
    digest = re.search(r"^inputs_digest: (\S+)", out.stdout, re.M)
    requests = re.search(r"^(requests|images): (\d+)", out.stdout, re.M)
    return json.loads(lines[-1]), digest.group(1), int(requests.group(2))


def generated_digest(workload):
    out = subprocess.run([EXE, "inputs", "--workload", workload, "--seed", str(SEED),
                          "--seconds", str(SECONDS)], cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return re.search(r"^inputs_digest: (\S+)", out.stdout, re.M).group(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="serve-mix,scan-large,ingest")
    args = ap.parse_args()
    subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"], cwd=ROOT,
                   check=True)
    st = subprocess.run([EXE, "selftest"], cwd=ROOT, capture_output=True, text=True)
    expect(st.returncode == 0, "selftest: " + st.stdout.strip().replace("\n", "; "))

    for w in args.workloads.split(","):
        want = generated_digest(w)
        for trace in (0, 1):
            (a, da, ra), (b, db, rb) = run(w, trace), run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            for r in (a, b):
                expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                       "%s: correct, %d attempted, %d failed" % (tag, r["attempted"], r["failed"]))
            expect(da == db == want, "%s: submitted texts are the generated ones (%s)" % (tag, want))
            expect(ra == rb and a["attempted"] == b["attempted"],
                   "%s: request counts repeat (%d, %d attempted)" % (tag, ra, a["attempted"]))
            names = EXACT_LAYER if trace == 1 else ["peak_heap_mb"]
            for name in names:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                expect(va == vb, "%s: %s repeats exactly (%r, %r)" % (tag, name, va, vb))

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

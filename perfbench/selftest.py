#!/usr/bin/env python3
"""Self-test of the benchmark's output contract.

    python3 perfbench/selftest.py

Runs a one-second pass of every workload (untraced with two seeds, traced
with one) through perfbench/run.py and checks that the last stdout line is
exactly {"correct", "attempted", "failed", "metrics"}, that the run was
correct with no failed operation, and that the metrics are exactly the
end-to-end (or, traced, per-layer) set of BENCHMARK.json, each finite and
with its declared unit; end-to-end values must also be above zero. It then
checks that the benchmark fails without printing a result in a directory
holding only BENCHMARK.json and perfbench/. Exits 1 on the first problem.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("selftest: FAIL:", msg)
    sys.exit(1)


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    return p.returncode, p.stdout.splitlines(), p.stderr


def check_result(line, expected, positive, where):
    try:
        r = json.loads(line)
    except ValueError:
        fail("%s: last line is not JSON: %r" % (where, line[:200]))
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: keys %s" % (where, sorted(r)))
    if r["correct"] is not True or r["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (where, r["correct"], r["failed"]))
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        fail("%s: attempted=%r" % (where, r["attempted"]))
    metrics = r["metrics"]
    if set(metrics) != set(expected):
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (where, sorted(set(expected) - set(metrics)),
              sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            fail("%s: %s has keys %s" % (where, name, sorted(m)))
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            fail("%s: %s value %r" % (where, name, v))
        if positive and v <= 0:
            fail("%s: %s is %r, must be above zero" % (where, name, v))
        if m["unit"] != expected[name]:
            fail("%s: %s unit %r, BENCHMARK.json says %r" %
                 (where, name, m["unit"], expected[name]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            where = "%s seed %d trace %d" % (w, seed, trace)
            rc, out, err = run(ROOT, w, seed, trace)
            if rc != 0 or not out:
                fail("%s: exit %d\n%s" % (where, rc, err[-2000:]))
            check_result(out[-1], layers if trace else e2e, not trace, where)
            print("selftest: ok:", where, flush=True)

    empty = os.path.join(ROOT, ".bench_build", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(empty, p))
    rc, out, _ = run(empty, bench["workloads"][0]["name"], 1, 0)
    shutil.rmtree(empty, ignore_errors=True)
    if rc == 0 or (out and out[-1].lstrip().startswith('{"correct"')):
        fail("without the sources the benchmark must fail without a result")
    print("selftest: ok: fails without sources (exit %d)" % rc)
    print("selftest: PASS")


if __name__ == "__main__":
    main()

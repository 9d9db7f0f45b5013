#!/usr/bin/env python3
"""The repository benchmark: builds SIMTVec and the perfbench program from
source, runs one workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Build trees go to $CARGO_TARGET_DIR
(default .bench_build); each run works in a fresh scratch directory under
it, removed afterwards. Every SIMTVEC_* variable is dropped from the
environment, so no cache directory, tier, branch policy or SIMD setting is
inherited. Workloads, metrics and bounds are listed in BENCHMARK.json;
perfbench/README.md says what each measures.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_exec", "cold_start", "launch_storm")


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                   stderr=sys.stderr, check=True)


def cache_value(cache, key):
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build_dir, env):
    """Builds the libraries with the repository's own CMakeLists.txt, then
    the benchmark program against them. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no SIMTVec sources next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib = os.path.join(build_dir, "simtvec")
    bench = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(lib, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", lib,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    run_quiet(["cmake", "--build", lib, "-j", jobs, "--target",
               "simtvec_serve", "simtvec_workloads"], env)
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bench,
                   "-DCMAKE_BUILD_TYPE=Release", "-DSIMTVEC_BUILD=" + lib],
                  env)
    run_quiet(["cmake", "--build", bench, "-j", jobs], env)
    return os.path.join(bench, "perfbench"), lib


def provenance(lib, env):
    cache = os.path.join(lib, "CMakeCache.txt")
    try:
        tc = subprocess.run(["c++", "--version"], capture_output=True,
                            text=True, env=env).stdout.splitlines()[0]
    except (OSError, IndexError):
        tc = "none"
    return {"build": {
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "cxx_compiler": cache_value(cache, "CMAKE_CXX_COMPILER"),
        "cxx_flags": " ".join(filter(None, [
            cache_value(cache, "CMAKE_CXX_FLAGS"),
            cache_value(cache, "CMAKE_CXX_FLAGS_RELEASE")])),
        "simtvec_native": cache_value(cache, "SIMTVEC_NATIVE"),
        "jit_toolchain": tc,
    }}


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SIMTVEC_")}
    build_dir = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe, lib = build(build_dir, env)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 2

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    scratch = os.path.join(runs, "%d-%s" % (os.getpid(), a.workload))
    # The JIT's toolchain keeps its temporary files here, inside the
    # checkout, not in the system temporary directory.
    tmp = scratch + "-tmp"
    for d in (scratch, tmp):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(tmp)
    env["TMPDIR"] = tmp
    # Relative to the checkout root: the daemon's socket path must stay
    # short.
    rel = os.path.relpath(scratch, ROOT)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scratch", rel]
    # Cold phase, set-ups and probes take up to about a minute and a half
    # beside the timed phase.
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=110 + 6 * a.seconds)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 3
    finally:
        for d in (scratch, tmp):
            shutil.rmtree(d, ignore_errors=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(p.stdout)
        log("workload exited %d without a valid result" % p.returncode)
        return 1
    print(json.dumps(provenance(lib, env)))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build odburg from source and run one benchmark workload.

    python3 perfbench/run.py --workload warm_x86 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --smoke

Run from the repository root (or anywhere: paths are resolved from this
file). The first call configures and builds a Release tree under
.bench_build/perfbench; later calls rebuild incrementally. The last line of
standard output is the result object; see perfbench/README.md for the
workloads and metrics. Exits nonzero on any output mismatch (the result
then reads "correct": false), and without a result when the sources are
missing or the build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "odburg-perfbench"
# A run must finish within 180 s; leave room for the incremental build.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"odburg sources not found in {ROOT}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(BUILD), "-j", "4", "--target",
                  "odburg-perfbench", "odburg-serve"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run(args):
    # Own process group, so a timeout also stops the odburg-serve child.
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def check_listing():
    """The binary's metrics, names and units in order, must be the ones
    BENCHMARK.json lists. Returns the number of mismatches."""
    listing = subprocess.run([str(BINARY), "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    have = json.loads(listing)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    bad = 0
    for key in ("end_to_end", "per_layer"):
        want = [[m["name"], m["unit"]] for m in spec[key]]
        ok = want == have[key]
        print(f"{'ok  ' if ok else 'FAIL'}: {key} metrics match {spec_path.name}")
        bad += not ok
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["warm_x86", "cold_synth", "serve_x86"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.self_test or a.smoke):
        p.error("one of --workload, --self-test, --smoke is required")
    build()
    if a.self_test:
        return run(["--self-test"]) or check_listing()
    args = ["--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.smoke:
        args.append("--smoke")
    if a.workload:
        args += ["--workload", a.workload]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

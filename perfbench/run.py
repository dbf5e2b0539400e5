#!/usr/bin/env python3
"""Runs the stxbar design-flow benchmark.

Builds the benchmark harness (perfbench/CMakeLists.txt, target stxperf)
from the sources in this checkout, then runs one workload in its own
process and relays its output:

    python3 perfbench/run.py --workload design_cold|sweep_synth|serve_mixed \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build),
relative to the checkout root. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it
holds the host context, work counts and facts of the run; the same two
lines, and with --trace 1 the span trace, are kept under
.bench_build/perfbench/{records,traces}.

Exit codes: 0 the run finished and printed a result; 1 the build or the
run failed (nothing is printed on stdout); 2 bad usage.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_cold", "sweep_synth", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _seconds(text):
    value = int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError("must be 1..60")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_nonneg_int)
    p.add_argument("--seconds", required=True, type=_seconds)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: smoke-test size (short horizons, few ops)")
    return p.parse_args(argv)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds stxperf; build logs go to stderr."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "stxperf", "-j", jobs],
    ]
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr, env=env,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if done.returncode != 0:
                fail("build step %s exited %d" % (" ".join(step[:2]),
                                                  done.returncode))
    binary = os.path.join(out_dir, "stxperf")
    if not os.access(binary, os.X_OK):
        fail("build produced no stxperf binary")
    return binary


def commit_id():
    """The git commit, or a digest of the library sources when the
    checkout is not a git repository."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return "git:" + done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Raises ValueError unless `line` is a well-formed result object
    carrying exactly the metrics BENCHMARK.json declares."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(declared_metrics(trace)):
        raise ValueError("metrics differ from BENCHMARK.json")


def run(binary, args):
    work_dir = os.path.relpath(
        os.path.join(os.path.dirname(binary), "work"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", commit_id(),
           "--work-dir", work_dir, "--spawn-ns", "0"]
    cmd[-1] = str(time.monotonic_ns())
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %ds" % (args.workload, RUN_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail("stxperf exited %d" % proc.returncode)
    lines = out.strip().splitlines()
    try:
        check_result(lines[-1], args.trace == 1)
    except (IndexError, ValueError, KeyError, TypeError) as e:
        fail("malformed result: %s" % e)
    sys.stdout.write("\n".join(lines) + "\n")


def main(argv):
    args = parse_args(argv)
    run(build(build_dir()), args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

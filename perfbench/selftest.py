#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (a minute or two):

    python3 perfbench/selftest.py

Checks, for every workload:
  * every metric BENCHMARK.json names is printed, with its unit, and no
    other; the run is correct and ok_ratio == 1;
  * two runs at one seed give identical work counts, bus_savings_x and
    designed_latency_cycles, traced and untraced alike;
  * the traced run's per-layer self times add up to the traced op time,
    and the tracing overhead is reported;
and, for run.py:
  * an unknown or malformed flag exits 2 before building anything;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7
# Every workload run.py accepts; sweep_synth runs outside BENCHMARK.json
# (see README.md) but is kept working here.
WORKLOADS = ("design_cold", "sweep_synth", "serve_mixed")
# Per-layer self-time metrics: each traced op's time is split over these.
SELF_TIMES = ["sim.collect_ms", "sim.validate_designed_ms",
              "sim.validate_full_ms", "traffic.analyze_ms",
              "xbar.synthesize_ms", "gen.generate_ms", "explore.self_ms",
              "serve.self_ms", "serve.protocol_ms", "serve.decode_ms",
              "bench.self_ms"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def smoke(workload, trace):
    """One tiny run: (context, result) parsed from its last two lines."""
    done = run([RUN, "--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--size", "tiny"])
    if done.returncode != 0:
        check(False, "%s trace=%d exits 0 (%s)" % (workload, trace,
                                                   done.stderr[-300:]))
        return None, None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def check_flags():
    bad = [
        ["--workload", "design_cold", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--bogus", "1"],
        ["--workload", "design_cold", "--seed", "x", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "design_cold", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        ["--workload", "design_cold", "--seed", "1", "--trace", "0"],
        ["--workload", "design_cold", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
    ]
    for args in bad:
        done = run([RUN] + args)
        check(done.returncode == 2 and not done.stdout,
              "run.py %s exits 2" % " ".join(args))


def check_workload(workload, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = {}
    for trace in (0, 1):
        for rep in (0, 1):
            ctx, res = smoke(workload, trace)
            if res is None:
                return
            runs[(trace, rep)] = (ctx, res)
            want = layer_units if trace else units
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s trace=%d prints every metric with its unit"
                  % (workload, trace))
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  "%s trace=%d is correct" % (workload, trace))
            if not trace:
                check(res["metrics"]["ok_ratio"]["value"] == 1,
                      "%s ok_ratio == 1" % workload)
    ctxs = [c for c, _ in runs.values()]
    check(all(c["work"] == ctxs[0]["work"] for c in ctxs),
          "%s work counts identical across runs, traced and untraced"
          % workload)
    for key in ("bus_savings_x", "designed_latency_cycles"):
        check(all(c[key] == ctxs[0][key] for c in ctxs),
              "%s %s identical across runs" % (workload, key))
    untraced = runs[(0, 0)][1]["metrics"]
    check(untraced["bus_savings_x"]["value"] == ctxs[0]["bus_savings_x"],
          "%s bus_savings_x matches its record" % workload)
    layer = runs[(1, 0)][1]["metrics"]
    total = sum(layer[name]["value"] for name in SELF_TIMES)
    op = layer["trace.op_ms"]["value"]
    check(op > 0 and abs(total - op) <= 1e-6 * op,
          "%s per-layer self times add up to the traced op time "
          "(%.4f of %.4f ms)" % (workload, total, op))
    check(layer["trace.untraced_op_ms"]["value"] > 0,
          "%s reports the tracing overhead (%.1f%%)"
          % (workload, layer["trace.overhead_pct"]["value"]))


def check_bare_directory():
    """The benchmark alone, without the sources it builds, must fail."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the sources: exit %d, nothing printed" % done.returncode)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_flags()
    for name in WORKLOADS:
        check_workload(name, spec)
    check_bare_directory()
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

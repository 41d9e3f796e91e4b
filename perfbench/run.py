#!/usr/bin/env python3
"""daecc's benchmark.

Builds the daecc libraries and the perfbench program from this checkout's
sources, runs one workload and prints its result as the last line of stdout:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 \
        --trace 0

Run it from the root of the checkout. With --trace 0 the result carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
(and a Chrome trace-event file lands in the work directory). The exit code is
non-zero when a correctness check failed or the result does not match
BENCHMARK.json. The build goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "compile_sweep", "served_mix")
BUILD_TIMEOUT_S = 700
# A run measures for --seconds after its set-up; the set-up, a traced run's
# fixed traced pass and the final checks take well under this margin.
RUN_MARGIN_S = 140


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    or interrupt and waits for it, so no process outlives this call."""
    proc = subprocess.Popen(cmd, preexec_fn=os.setpgrp, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("daecc's sources (CMakeLists.txt, src/) are not next to the "
            "benchmark; run from a full checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log,
                                    stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                die("build timed out; see " + log_path)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed; see " + log_path)
    return bdir


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(line, expected):
    """Returns the parsed result, or dies when it does not have exactly the
    metrics BENCHMARK.json names, with their units."""
    try:
        result = json.loads(line)
    except ValueError:
        die("perfbench's last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("unexpected result keys: %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        die("metrics differ from BENCHMARK.json: printed %s, expected %s"
            % (sorted(got.items()), sorted(expected.items())))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        die("--seed must be >= 0 and --seconds in [1, 3600]")

    bdir = build(["perfbench"])
    end_to_end, per_layer = benchmark_spec()
    work = os.path.join(bdir, "run")
    os.makedirs(work, exist_ok=True)
    # A relative work directory keeps the daemon's socket path short.
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", os.path.relpath(work, ROOT)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        code, out = run_group(cmd, timeout, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        die("the run did not finish within %d s" % timeout)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        die("perfbench exited with code %d" % code)
    result = check_result(lines[-1],
                          per_layer if args.trace == "1" else end_to_end)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        die("correctness checks failed", 1)


if __name__ == "__main__":
    main()

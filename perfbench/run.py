#!/usr/bin/env python3
"""The repository benchmark: builds the measuring binary from source, runs
one workload, checks its outputs and prints every metric by name.

    python3 perfbench/run.py --workload sim-adc-paper --seed 42 --seconds 30 --trace 0

Run from the repository root.  The build goes to .bench_build/perfbench.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}; metrics are the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1.  The exit code is nonzero when the
outputs are wrong, the build is a sanitizer or Debug build, or the run
fails.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "adc_perfbench")
RUN_TIMEOUT_S = 150


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds adc_perfbench; serialized by a lock so
    concurrent runs in one checkout share the tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; run from a full checkout", 2)
    tmp = os.path.join(BUILD, "tmp")  # keeps the compiler's scratch files in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD, "--target", "adc_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed", 2)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True)
    return result.stdout.strip() or None


def fingerprint(build_info, pinned_cpu):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "pinned_cpu": pinned_cpu,
            "compiler": build_info.get("compiler"), "build_type": build_info.get("build_type"),
            "cxx_flags": build_info.get("cxx_flags"),
            "sanitizer": build_info.get("sanitizer") or None, "git_sha": git_sha(),
            "source_sha256": benchlib.source_digest(ROOT)}


def measure(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--trace", "--spans",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                                text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"adc_perfbench exited with {result.returncode}")
    return json.loads(result.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    started = time.monotonic()
    build()
    raw = measure(args)
    reason = benchlib.refusal(raw["build"])
    if reason:
        fail(f"refusing to record numbers: {reason}", 3)
    host = fingerprint(raw["build"], raw["cpu"])

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    problems = benchlib.check(raw, expected)
    attempted, failed = benchlib.failure_totals(raw)

    if args.trace:
        values = benchlib.per_layer(raw)
        units = {name: unit for name, unit, *_ in benchlib.PER_LAYER}
        notes = {}
    else:
        e2e = benchlib.end_to_end(raw, raw["replays"])
        values = {name: value for name, (value, _) in e2e.items()}
        notes = {name: note for name, (_, note) in e2e.items()}
        units = {name: unit for name, unit, *_ in benchlib.END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"replays {len(raw['replays'])}+{len(raw['traced_replays'])}  "
          f"requests/replay {raw['requests']}  wall {time.monotonic() - started:.1f} s")
    print("fingerprint " + json.dumps(host, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:36s} {value:16.6g} {units[name]:10s} {notes.get(name, '')}")
    if "completed_frac" in values:
        # Reads 0 without faults, so it is printed here but not recorded.
        print(f"  {'failed_frac':36s} {1 - values['completed_frac']:16.6g} {'fraction':10s} "
              "1 - completed_frac")
    for problem in problems:
        print(f"INCORRECT: {problem}")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"fingerprint": host, "metrics": metrics, "problems": problems}, f, indent=1)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

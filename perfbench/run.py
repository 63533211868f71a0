#!/usr/bin/env python3
"""The repository benchmark command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds the shs library and the
benchmark driver from source (optimized, into .bench_build/perfbench),
runs one workload, and passes the driver's output through with its
metrics put in the order and units BENCHMARK.json declares: the last
line of stdout is the JSON result object.  Build output and the driver's notes
go to stderr.  Traced runs (--trace 1) also write their spans to
.bench_spans/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "shs_perfbench")
WORKLOADS = ("fabric_sync", "fabric_engine", "app_pingpong", "admission_spike")
# A run of the benchmark driver is killed after this long.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
        except OSError as exc:
            log(f"cannot run {cmd[0]}: {exc}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def declared_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def in_declared_order(result, trace):
    """Rebuilds result["metrics"] in BENCHMARK.json's order and units.

    Every end-to-end metric must be measured.  A per-layer metric of a
    layer the workload does not exercise reads 0.  Returns an error
    message, or None.
    """
    got = result["metrics"]
    declared = declared_metrics(trace)
    names = {name for name, _ in declared}
    undeclared = sorted(set(got) - names)
    if undeclared:
        return f"metrics not in BENCHMARK.json: {undeclared}"
    ordered = {}
    for name, unit in declared:
        if name not in got:
            if not trace:
                return f"end-to-end metric {name} was not measured"
            ordered[name] = {"value": 0, "unit": unit}
            continue
        if got[name]["unit"] != unit:
            return f"{name} in {got[name]['unit']}, declared in {unit}"
        ordered[name] = {"value": got[name]["value"], "unit": unit}
    result["metrics"] = ordered
    return None


def run_driver(argv):
    """Runs the driver to completion (killing it on timeout)."""
    proc = subprocess.Popen([BINARY] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return None, 1
    return out, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 3
    if args.self_test:
        _, code = run_driver(["--self-test"])
        return code

    out, code = run_driver(["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", str(args.trace)])
    if out is None or code != 0:
        log(f"driver failed (exit {code})")
        return 4
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("driver printed no result line")
        return 5
    err = in_declared_order(result, bool(args.trace))
    if err is not None:
        log(err)
        return 6
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the wall-clock serving benchmark.

Run from the repository root:

  python3 servebench/run.py --workload chat_prefix --seed 1 --seconds 20 --trace 0
  python3 servebench/run.py --steadiness 10 --seconds 20 [--workload chat_prefix]

The first form builds the engine from src/ (cmake, into $CARGO_TARGET_DIR or
.bench_build) and runs one workload; the last stdout line is the JSON
result. With --trace 1 the result holds the per-layer metrics and the spans
are written under the build directory's traces/. The second form runs each
workload (or the one named) once per seed, seeds --seed .. --seed+N-1, and
prints each end-to-end metric's median and quartile spread next to its bound
in BENCHMARK.json.

Workload parameters, client counts and SLO limits live in
servebench/workloads.json.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd to completion; a timeout or SIGTERM/SIGINT to this process
    stops the child and waits for it before raising or exiting."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return proc.returncode, out, err


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    out = build_dir()
    steps = [["cmake", "--build", out, "-j", "4"]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if run_child(step, BUILD_TIMEOUT_S, stdout=sys.stderr)[0] != 0:
            return None
    return os.path.join(out, "servebench")


def flatten(prefix, node, out):
    for key, value in node.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flatten(name, value, out)
        elif isinstance(value, bool):
            out.append(f"{name}={int(value)}")
        else:
            out.append(f"{name}={value}")


def workload_args(name):
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if name not in workloads:
        raise SystemExit(f"run.py: unknown workload {name!r}; "
                         f"known: {', '.join(workloads)}")
    params = []
    flatten("", workloads[name], params)
    args = []
    for kv in params:
        args += ["--set", kv]
    return args


def command(binary, workload, seed, seconds, trace):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    return ([binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
            + workload_args(workload))


def steadiness(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for name in names:
        values = {}
        for seed in range(args.seed, args.seed + args.steadiness):
            cmd = command(binary, name, seed, args.seconds, 0)
            code, out, err = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True)
            if code != 0:
                log(out, err)
                raise SystemExit(f"run.py: {name} seed {seed} failed")
            result = json.loads(out.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            log(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        print(f"\n{name}: {args.steadiness} seeds from {args.seed}, "
              f"{args.seconds} s each")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "OVER BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {m['name']:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {bound:>6.2f}  {verdict}")
    return 0 if worst <= 1.0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N",
                    help="run each workload N times (seeds seed..seed+N-1)")
    args = ap.parse_args()
    if not args.workload and not args.steadiness:
        ap.error("--workload is required")
    try:
        binary = build()
    except subprocess.TimeoutExpired:
        binary = None
    if binary is None:
        log("run.py: build failed")
        return 2
    if args.steadiness:
        return steadiness(binary, args)
    cmd = command(binary, args.workload, args.seed, args.seconds, args.trace)
    try:
        return run_child(cmd, RUN_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        log(f"run.py: servebench exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())

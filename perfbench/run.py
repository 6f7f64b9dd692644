"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-large --seed 0 --seconds 15 --trace 0

Run from the root of an icx checkout.  Set-up is timed in several fresh worker
processes (--trace 0 only); the workload then runs in one more fresh worker,
pinned to one BLAS/OpenMP thread.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it records the
environment and the run's details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-large", "simulate", "certify-small", "cli-small")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170


def bench_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--tiny"] if args.tiny else []) + list(extra)


def setup_seconds(args, env):
    """Spawn to "ready" of a fresh worker that only imports and makes its inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed with exit code {proc.returncode}")
    return dt


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "icx", "cli.py")):
        print("perfbench: run from the root of an icx checkout (no src/icx here)", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so the host-speed
    # probes measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = bench_env()
    setups = []
    if not args.trace:
        before = hostspeed.probe()
        for _ in range(SETUP_RUNS):
            raw = setup_seconds(args, env)
            after = hostspeed.probe()
            setups.append((raw, hostspeed.scale(raw, before, after)))
            before = after

    cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    if setups:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setups), "unit": "s"}
    for problem in res["problems"]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(json.dumps({"env": res["env"], "details": dict(res["details"], setup_raw_s=[r for r, _ in setups]),
                      "fail_frac": res["failed"] / res["attempted"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this (fresh) process and print its figures as one JSON line.

Started by run.py with the thread variables pinned to 1 and PYTHONPATH naming
the checkout's src directory:

    python perfbench/worker.py --workload simulate --seed 0 --seconds 15 --trace 0

With --setup-only it imports, makes the inputs, prints "ready" and exits, so
run.py can time set-up in a fresh process.  --record stores this run's
outcomes (default seed only) as the pinned ones in expected.json.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy  # imported during set-up, not inside the first simulation job

import hostspeed
import tracer as tracing
import workloads as wl
from icx import cli as icx_cli

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = ".bench_out"
WORKLOAD_NAMES = ("verify-large", "simulate", "certify-small", "cli-small")
PROBE_REPEATS = 3  # library workloads replay their CLI group three times: >= 30 latencies


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "icx", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


class Judge:
    """Compares outcomes with the pins and counts the failures of one run."""

    def __init__(self, workload, seed, record):
        self.workload = workload
        self.seed = seed
        self.record = record
        with open(EXPECTED, encoding="utf-8") as fh:
            self.pins = json.load(fh)
        self.recorded = {}
        self.cache = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, seeded, outcome, problems, error=None, section=None):
        """Count one attempted job; CLI calls are pinned in the cli-small section."""
        section = section or self.workload
        pins = self.pins.get(section, {})
        self.attempted += 1
        problems = list(problems)
        if error is not None:
            problems.append(error)
        elif self.record:
            self.recorded.setdefault(section, {}).setdefault(name, outcome)
        elif seeded and self.seed != wl.DEFAULT_SEED:
            pass
        elif name not in pins:
            problems.append("no pinned outcome")
        elif json.loads(json.dumps(outcome)) != pins[name]:
            problems.append(f"outcome {json.dumps(outcome)} differs from the pinned {json.dumps(pins[name])}")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {'; '.join(problems)}")

    def save(self):
        with open(EXPECTED, encoding="utf-8") as fh:
            pins = json.load(fh)
        for section, outcomes in self.recorded.items():
            pins.setdefault(section, {}).update(outcomes)
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")


# Seconds one pass over the job list takes on the reference host.  A run makes
# seconds // NOMINAL_PASS_S passes (at least one), so every run of a workload
# has the same number of samples; a traced run makes half as many, each one
# untraced pass plus one traced pass.
NOMINAL_PASS_S = {"verify-large": 3.6, "simulate": 5.0, "certify-small": 6.5, "cli-small": 7.0}


class PassCount:
    """The passes of one run: a fixed number, cut short only on a host so slow
    that the run would take more than twice its seconds."""

    def __init__(self, workload, seconds, trace):
        per = NOMINAL_PASS_S[workload] * (2 if trace else 1)
        self.left = max(1, int(seconds // per))
        self.deadline = time.perf_counter() + 2 * seconds

    def another(self):
        self.left -= 1
        return self.left > 0 and time.perf_counter() < self.deadline


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------


def run_jobs(jobs, clock, tracer=None):
    """One pass over the job list; returns [(job, raw result, error, raw s, scaled s)]."""
    ctx = {}
    out = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i

        def attempt():
            try:
                return job.run(ctx), None
            except Exception:  # a crash is a failed job, reported with its traceback
                return None, traceback.format_exc(limit=3).strip().replace("\n", " | ")

        (raw, err), dt, scaled = clock.time(attempt)
        if tracer is not None:
            tracer.job = None
        out.append((job, raw, err, dt, scaled))
    return out


def judge_jobs(results, judge):
    for job, raw, err, _, _ in results:
        if err is not None:
            judge.add(job.name, job.seeded, None, [], error=f"raised: {err}")
            continue
        try:
            outcome, problems = job.judge(raw, judge.cache)
        except Exception:
            judge.add(job.name, job.seeded, None, [], error=f"check raised: {traceback.format_exc(limit=3)}")
            continue
        judge.add(job.name, job.seeded, outcome, problems)


def traced_pass(run_pass, judge):
    """Run one pass with every icx layer wrapped; returns (tracer, the pass's result)."""
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        result = run_pass(tracer)
    finally:
        handle.restore()
    for problem in tracing.check_restored():
        judge.add("trace/restore", False, None, [], error=problem)
    return tracer, result


def library(args, jobs, judge, fill, env):
    clock = hostspeed.ScaledClock()
    passes, traced, job_s, peak_mb = [], [], {}, None
    until = PassCount(args.workload, args.seconds, args.trace)
    while True:
        results = run_jobs(jobs, clock)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        judge_jobs(results, judge)
        passes.append((sum(r[3] for r in results), sum(r[4] for r in results)))
        for job, _, _, _, scaled in results:
            job_s.setdefault(job.name, []).append(scaled)
        if args.trace:
            tr, results = traced_pass(lambda t: run_jobs(jobs, hostspeed.RawClock(), t), judge)
            judge_jobs(results, judge)
            traced.append((tr.spans, {i: r[3] for i, r in enumerate(results)}))
        if not until.another():
            break
    if args.trace:
        return trace_metrics(args, [j.name for j in jobs], [p[0] for p in passes], traced, judge, None)
    probe = [c for c in wl.cli_calls() if c.group == args.workload and (not args.tiny or c.name in wl.TINY_CLI)]
    latencies = []
    for _ in range(PROBE_REPEATS):
        latencies += run_cli_subprocess(probe, fill, env, judge, clock)
    metrics, details = end_to_end(passes, latencies, peak_mb)
    details["job_median_scaled_s"] = {name: statistics.median(t) for name, t in job_s.items()}
    return metrics, details


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


def judge_call(call, argv, code, out, judge):
    key = (call.name, code, hashlib.sha256(out).hexdigest())
    if key not in judge.cache:
        try:
            judge.cache[key] = (wl.judge_cli(call, argv, code, out, judge.cache), None)
        except Exception:
            judge.cache[key] = (None, f"check raised: {traceback.format_exc(limit=3)}")
    verdict, err = judge.cache[key]
    if err is not None:
        judge.add(call.name, call.seeded, None, [], error=err, section="cli-small")
    else:
        judge.add(call.name, call.seeded, verdict[0], verdict[1], section="cli-small")


def run_cli_subprocess(calls, fill, env, judge, clock):
    """[(raw s, scaled s)] of each call, from spawn until its stdout is read and it has exited."""
    latencies = []
    for call in calls:
        argv = wl.resolve(call, fill)
        (code, out), dt, scaled = clock.time(lambda: wl.spawn_cli(argv, env))
        latencies.append((dt, scaled))
        judge_call(call, argv, code, out, judge)
    return latencies


def run_cli_inprocess(calls, fill, judge, tracer=None):
    """[(seconds, stdout bytes)] of each call through icx.cli.run in this process."""
    out = []
    for i, call in enumerate(calls):
        argv = wl.resolve(call, fill)
        buf = io.StringIO()
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = icx_cli.run(argv)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = None
        data = buf.getvalue().encode()
        out.append((dt, len(data)))
        judge_call(call, argv, code, data, judge)
    return out


def startup_ms(env, reps=5):
    """Median of `python -c "import icx.cli"` minus median of a bare interpreter, in ms."""
    bare, icx = [], []
    for _ in range(reps):
        for code, sink in (("pass", bare), ("import icx.cli", icx)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append(time.perf_counter() - t0)
    return (statistics.median(icx) - statistics.median(bare)) * 1000


def cli_small(args, calls, judge, fill, env):
    until = PassCount(args.workload, args.seconds, args.trace)
    if not args.trace:
        clock = hostspeed.ScaledClock()
        passes, latencies = [], []
        while True:
            lat = run_cli_subprocess(calls, fill, env, judge, clock)
            passes.append((sum(r[0] for r in lat), sum(r[1] for r in lat)))
            latencies += lat
            if not until.another():
                break
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return end_to_end(passes, latencies, peak_mb)
    untraced, traced, per_call = [], [], []
    while True:
        res = run_cli_inprocess(calls, fill, judge)
        untraced.append(sum(r[0] for r in res))
        per_call += [r[0] for r in res]
        stdout_bytes = sum(r[1] for r in res)
        tr, res = traced_pass(lambda t: run_cli_inprocess(calls, fill, judge, t), judge)
        traced.append((tr.spans, {i: r[0] for i, r in enumerate(res)}))
        if not until.another():
            break
    extra = {
        "cli.startup_ms": (startup_ms(env), "ms"),
        "cli.inproc_ms_p50": (statistics.median(per_call) * 1000, "ms"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    return trace_metrics(args, [c.name for c in calls], untraced, traced, judge, extra)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(n - 11, 0)
    return ordered[i], 100.0 * (i + 1) / n


def end_to_end(passes, latencies, peak_mb):
    """Metrics from [(raw, scaled) pass wall] and [(raw, scaled) CLI latency]."""
    scaled_lat = [s for _, s in latencies]
    tail_s, pct = tail(scaled_lat)
    metrics = {
        "wall_s": (statistics.median(s for _, s in passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "cli_p50_ms": (statistics.median(scaled_lat) * 1000, "ms"),
        "cli_tail_ms": (tail_s * 1000, "ms"),
    }
    details = {
        "passes": len(passes),
        "pass_wall_raw_s": [r for r, _ in passes],
        "pass_wall_scaled_s": [s for _, s in passes],
        "cli_calls": len(latencies),
        "cli_tail_percentile": pct,
        "cli_p50_raw_ms": statistics.median(r for r, _ in latencies) * 1000,
        "cli_tail_raw_ms": tail([r for r, _ in latencies])[0] * 1000,
    }
    return metrics, details


def trace_metrics(args, job_names, untraced, traced, judge, cli_extra):
    per_pass, accounting = [], []
    for spans, job_times in traced:
        metrics, problems, acct = tracing.layer_metrics(spans, job_times)
        per_pass.append(metrics)
        accounting.append(acct)
        for p in problems:
            judge.add("trace/accounting", False, None, [], error=p)
    metrics = tracing.median_metrics(per_pass)
    metrics["harness.trace_overhead"] = (
        statistics.median(a["wall_s"] for a in accounting) / statistics.median(untraced), "ratio")
    metrics.update(cli_extra or {"cli.startup_ms": (0.0, "ms"), "cli.inproc_ms_p50": (0.0, "ms"),
                                 "cli.stdout_bytes": (0, "bytes")})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": job_names, "passes": [{"spans": s, "job_s": t} for s, t in traced],
                   "accounting": accounting}, fh)
    return metrics, {"traced_passes": len(traced), "untraced_walls_s": untraced, "spans_file": path,
                     "accounting": accounting}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record and args.seed != wl.DEFAULT_SEED:
        ap.error("--record pins the outcomes of the default seed only")

    env = dict(os.environ)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        fill = wl.write_cli_inputs(workdir, args.seed)
        if args.workload == "cli-small":
            calls = [c for c in wl.cli_calls() if not args.tiny or c.name in wl.TINY_CLI]
        else:
            jobs = wl.WORKLOADS[args.workload](args.seed, args.tiny)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        judge = Judge(args.workload, args.seed, args.record)
        if args.workload == "cli-small":
            metrics, details = cli_small(args, calls, judge, fill, env)
        else:
            metrics, details = library(args, jobs, judge, fill, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["fail_frac"] = (judge.failed / judge.attempted, "ratio")
    if args.record:
        judge.save()
    print(json.dumps({
        "attempted": judge.attempted,
        "failed": judge.failed,
        "problems": judge.problems,
        "metrics": {k: [v, u] for k, (v, u) in metrics.items()},
        "details": details,
        "env": environment(args),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

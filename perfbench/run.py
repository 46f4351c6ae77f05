"""decompgen benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Set-up writes the workload's `.alg` inputs from a fresh interpreter, five
times, and reports the median as `setup_s`; that includes the cold
`import decompgen` every CLI call pays.  The run then sends one job at a
time to `decompgen.cli.main(argv)` until `--seconds` is spent, checks every
answer against the workload's oracle, and prints the end-to-end metrics.

Times are reported at reference speed (see speed.py): a fixed kernel timed
on a timer signal during the run gives the host's speed around each job, and
the job's time is scaled to what it would be at a fixed speed.  Set-up runs
in a child process while this one sleeps, so the host's speed during a
set-up is read from the kernel run in a loop just before and just after it.
The raw times go to the result file and to the `raw.` lines of the output.

With `--trace 1` it instead runs a fixed, seeded list of jobs twice, first
untraced and then with the engine's layers wrapped from outside (see
tracer.py), and prints per-job per-layer metrics; with the same seed their
counts repeat exactly.  The spans go to `.bench_work/traces/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Everything written goes to
`.bench_work/` at the root of the checkout.
"""

import argparse
import contextlib
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
from itertools import islice

from speed import NOMINAL_S, SpeedProbe, loop_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 5
# The host's speed during a set-up is read from the reference kernel run for
# this long just before and just after it.
SETUP_PROBE_S = 0.1
# Jobs in one traced run, sized so that the untraced and the traced pass
# together fit in the run length on a 2-vCPU guest.
TRACE_JOBS = {"stratify_b3": 1, "generic_fibers": 3, "point_queries": 150, "verify_all": 5}

END_TO_END_UNITS = {
    "jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s", "cpu_s_per_job": "s",
    "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args):
    import sympy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "sympy": sympy.__version__,
        "platform": platform.platform(), "commit": _git_commit(),
        "loadavg": os.getloadavg(),
    }


def _write_inputs(workdir, workload):
    """Write the workload's inputs from a fresh interpreter."""
    shutil.rmtree(workdir, ignore_errors=True)
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), SRC, workdir,
                    workload], check=True)


def _setup(workdir, workload):
    """Set up SETUP_REPEATS times; the wall time of each, and each at
    reference speed."""
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        before = loop_speed(SETUP_PROBE_S)
        t0 = time.perf_counter()
        _write_inputs(workdir, workload)
        wall = time.perf_counter() - t0
        raw.append(wall)
        adjusted.append(wall * (before + loop_speed(SETUP_PROBE_S)) / 2)
    return raw, adjusted


def _run_job(job, cli):
    """Run one job's CLI calls and check them; a failure reason or None."""
    results = []
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as e:  # a raw exception is a failed job, not a crash
            return f"{type(e).__name__}: {e}"
        if rc not in (0, 1):
            return f"exit {rc}: {err.getvalue().strip()}"
        results.append((rc, out.getvalue()))
    try:
        return job.check(results)
    except (ValueError, KeyError, TypeError) as e:  # output the oracle cannot read
        return f"unreadable output ({type(e).__name__}: {e}): {err.getvalue().strip()}"


def _steal_s():
    """Seconds the hypervisor ran other guests on the CPUs of this guest, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def _closed_loop(jobs, cli, seconds, failures, on_job=None):
    """Send jobs one at a time until the next would overrun `seconds`.

    Returns each job's start and end time and CPU time, and the loop's
    hypervisor steal time.
    """
    spans, cpus = [], []
    steal0 = _steal_s()
    start = time.perf_counter()
    for n, job in enumerate(jobs):
        if spans and time.perf_counter() - start + statistics.median(
                t1 - t0 for t0, t1 in spans) > seconds:
            break
        if on_job:
            on_job.begin_job(n)
        c0 = time.process_time()
        t0 = time.perf_counter()
        reason = _run_job(job, cli)
        spans.append((t0, time.perf_counter()))
        cpus.append(time.process_time() - c0)
        if on_job:
            on_job.end_job()
        if reason is not None:
            failures.append(f"{job.label}: {reason}")
    steal = None if steal0 is None else _steal_s() - steal0
    return spans, cpus, steal


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(walls, cpus, setup_times, failures):
    n = len(walls)
    return {
        "jobs_per_s": n / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_p90_s": _quantile(walls, 90),
        "cpu_s_per_job": sum(cpus) / n,
        "ok_ratio": (n - len(failures)) / n,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_untraced(args, workdir, jobs, cli):
    failures = []
    setup_times, setup_adjusted = _setup(workdir, args.workload)
    with SpeedProbe() as probe:
        spans, cpus, steal = _closed_loop(jobs, cli, args.seconds, failures)
    n = len(spans)
    walls = [t1 - t0 for t0, t1 in spans]
    factors = [probe.factor(t0, t1) for t0, t1 in spans]
    own = [probe.own_time(t0, t1) for t0, t1 in spans]
    values = _end_to_end([(w - o) * f for w, o, f in zip(walls, own, factors)],
                         [(c - o) * f for c, o, f in zip(cpus, own, factors)],
                         setup_adjusted, failures)
    raw = _end_to_end(walls, cpus, setup_times, failures)
    raw["loop_jobs_per_s"] = n / (spans[-1][1] - spans[0][0])
    t00 = spans[0][0]
    detail = {"jobs": n, "job_spans_s": [(t0 - t00, t1 - t00) for t0, t1 in spans],
              "job_cpu_s": cpus, "speed_factors": factors, "probe_nominal_s": NOMINAL_S,
              "probe_samples_s": [(t - t00, k) for t, k in zip(probe.starts, probe.per_call)],
              "raw": raw, "setup_times_s": setup_times, "fail_ratio": len(failures) / n,
              "steal_s": steal, "p90_samples_beyond": n - 1 - int(0.9 * (n - 1))}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return n, failures, metrics, detail


def run_traced(args, jobs, cli):
    from tracer import Tracer

    njobs = TRACE_JOBS[args.workload]
    job_list = list(islice(jobs, njobs))
    failures = []
    plain = [t1 - t0 for t0, t1 in _closed_loop(job_list, cli, float("inf"), failures)[0]]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [t1 - t0 for t0, t1 in
                  _closed_loop(job_list, cli, float("inf"), failures, on_job=tracer)[0]]
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics(njobs)
    overhead = (sum(traced) - sum(plain)) / njobs
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / (sum(plain) / njobs)
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    span_file = os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(span_file)
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    detail = {"jobs": njobs, "untraced_job_times_s": plain, "traced_job_times_s": traced,
              "spans": span_file}
    return 2 * njobs, failures, metrics, detail


def _layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "decompgen", "cli.py")):
        print(f"error: no decompgen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workdir = os.path.join(WORK, f"inputs-{os.getpid()}")
    try:
        from decompgen import cli

        jobs = WORKLOADS[args.workload](args.seed, workdir)
        meta = _metadata(args)
        if args.trace:
            _write_inputs(workdir, args.workload)
            attempted, failures, metrics, detail = run_traced(args, jobs, cli)
        else:
            attempted, failures, metrics, detail = run_untraced(args, workdir, jobs, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "failures": failures,
                   "detail": detail}, fh, indent=1)

    for reason in failures[:20]:
        print(f"FAIL {reason}")
    for key, m in metrics.items():
        print(f"{key} {m['value']!r} {m['unit']}")
    for key, value in detail.get("raw", {}).items():
        print(f"raw.{key} {value!r}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

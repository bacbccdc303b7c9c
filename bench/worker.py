"""Run one workload's jobs in passes and write what was measured as JSON.

Started by ``run.py`` in a process of its own, with one BLAS/OpenMP thread
and ``src`` on ``PYTHONPATH``.  It imports tropkit, loads the job list that
``run.py`` wrote, and runs timed passes until ``--seconds`` have gone by,
always finishing the pass it is in, so every run attempts whole rounds of
the same jobs.  Each job's time
is taken as its median over the passes, so the first pass's lazy imports
and first-touch costs drop out with any other single slow sample.

With ``--trace 1`` the timed passes alternate between untraced passes and
passes with spans around every public tropkit function, which gives the
per-layer times and the tracing overhead; a last pass records memory peaks
with tracemalloc.

Usage: python3 bench/worker.py JOBS.pkl RESULT.json --seconds S --trace 0|1
"""
from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import time
import tracemalloc
from collections import defaultdict

import tropkit as tk
import tropkit.cli  # noqa: F401  (the CLI jobs call tk.cli.main)

import jobs as jobkit
import tracer

# functions whose tracemalloc peak is recorded, with the size label of a call
PEAK_SIZES = {
    "linalg.kleene_star": lambda a, *_, **__: f"n={a.rows}",
    "analysis.kernel_apply": lambda k, phi: f"d={phi.dim} p={phi.domain.points_per_axis}",
    "analysis.legendre_transform": lambda phi, xi, **_: f"N={phi.values.size} M={xi.points_per_axis}",
    "hamilton_jacobi.lax_oleinik_step": (
        lambda state, sys_: f"d={state.S.dim} p={state.S.domain.points_per_axis}"
    ),
}


def run_pass(job_list, on_job=None):
    """Run every job once; return ``(verdicts, latencies in ms)``."""
    verdicts, latencies = [], []
    for job in job_list:
        call = jobkit.prepare(job, tk)
        handle = on_job(job) if on_job else None
        t0 = time.perf_counter()
        try:
            outcome = ("returned", call())
        except Exception as exc:  # a job's failure is counted, not fatal
            outcome = ("raised", exc)
        elapsed = time.perf_counter() - t0
        if handle is not None:
            handle()
        try:
            ok = jobkit.check(job, outcome)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            print(f"check of {job['label']} could not read the output: {exc!r}", flush=True)
            ok = False
        verdicts.append(ok)
        latencies.append(elapsed * 1e3)
    return verdicts, latencies


def pass_ms(latencies: list, n: int) -> float:
    """One pass of ``n`` jobs, each timed by its median over the passes.

    A burst of load on the machine then moves one sample of a job, not the
    total.
    """
    return sum(statistics.median(latencies[i::n]) for i in range(n))


def traced_passes(job_list, seconds: float):
    """Untraced and traced passes, alternating, until ``seconds`` have gone by.

    Alternating keeps slow drifts of the machine out of the overhead ratio.
    Returns the verdicts, the untraced and traced latencies, per traced pass
    ``{name: [calls, self ms]}``, the counters, and the first traced pass's
    spans.
    """
    rec = tracer.SpanRecorder()
    wrappers = {key: rec.wrap(key, fn) for key, fn in tracer.public_functions(tk).items()}

    def open_job(job):
        idx = rec.open(f"job.{job['kind']}")
        return lambda: rec.close(idx)

    verdicts, plain, traced, per_pass = [], [], [], []
    first_pass_end = None
    start = time.perf_counter()
    while True:
        v, lat = run_pass(job_list)
        verdicts.append(v)
        plain += lat
        first = len(rec.spans)
        restore = tracer.patch(tk, wrappers)
        try:
            v, lat = run_pass(job_list, on_job=open_job)
        finally:
            restore()
        verdicts.append(v)
        traced += lat
        totals = defaultdict(lambda: [0, 0.0])
        for name, self_s in rec.self_times(first):
            totals[name][0] += 1
            totals[name][1] += self_s * 1e3
        per_pass.append(dict(totals))
        if first_pass_end is None:
            first_pass_end = len(rec.spans)
        if time.perf_counter() - start >= seconds:
            break
    return verdicts, plain, traced, per_pass, dict(rec.counters), rec.spans[:first_pass_end]


def peak_pass(job_list):
    """One pass with tracemalloc on; return ``(verdicts, [(name, size, bytes)])``."""
    rec = tracer.PeakRecorder()
    fns = tracer.public_functions(tk)
    restore = tracer.patch(tk, {k: rec.wrap(k, fns[k], s) for k, s in PEAK_SIZES.items()})
    tracemalloc.start()
    try:
        verdicts, _ = run_pass(job_list)
    finally:
        tracemalloc.stop()
        restore()
    return verdicts, rec.records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.jobs, "rb") as fh:
        job_list = pickle.load(fh)

    result = {"labels": [j["label"] for j in job_list]}
    n = len(job_list)
    if args.trace:
        verdicts, plain, traced, per_pass, counters, spans = traced_passes(job_list, args.seconds)
        pv, peaks = peak_pass(job_list)
        verdicts.append(pv)
        result.update(
            untraced_pass_ms=pass_ms(plain, n), traced_pass_ms=pass_ms(traced, n),
            layers=per_pass, counters=counters, peaks=peaks, spans=spans,
        )
    else:
        verdicts, latencies = [], []
        start = time.perf_counter()
        while True:
            v, lat = run_pass(job_list)
            verdicts.append(v)
            latencies += lat
            if time.perf_counter() - start >= args.seconds:
                break
        result["jobs_per_s"] = n / (pass_ms(latencies, n) / 1e3)
        result["job_p50_ms"] = statistics.median(latencies)
    result.update(
        verdicts=verdicts,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

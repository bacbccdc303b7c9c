"""The tropkit benchmark: one workload, one seed, one line of JSON.

Usage, from the root of a checkout::

    python3 bench/run.py --workload algebra --seed 1 --seconds 10 --trace 0

Workloads are ``algebra``, ``mechanics`` and ``geometry`` (see README.md).
The run

1. times several fresh interpreters importing ``tropkit.cli`` (``setup_s``,
   or with ``--trace 1`` the ``-X importtime`` split of that import);
2. writes the workload's seeded inputs and their reference results under
   ``.bench_run/`` (references are computed here, never by tropkit, and
   never in the process whose memory is measured);
3. runs the jobs in a worker process with one BLAS/OpenMP thread
   (``worker.py``) and reads back its latencies, verdicts and peak RSS;
4. prints ``{"correct", "attempted", "failed", "metrics"}`` as the last
   line of stdout.  With ``--trace 1`` the metrics are the per-layer ones,
   and the spans and memory peaks go to ``.bench_out/``.

It exits 2 without a result when tropkit's sources are not under ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads in this process too
    os.environ[_var] = "1"

import inputs  # noqa: E402  (needs the thread settings above)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_STARTS = 5
TIME_LIMIT_S = 175.0

# per-layer metric -> unit; names ending in .self_ms, .calls and .peak_mib
# read the span or peak of the function they name
PER_LAYER = {
    "import.tropkit_ms": "ms",
    "import.scipy_spatial_ms": "ms",
    "cli.main.self_ms": "ms",
    "semiring.calls": "count",
    "semiring.self_ms": "ms",
    "linalg.kleene_star.self_ms": "ms",
    "linalg.kleene_star.peak_mib": "MiB",
    "linalg.mat_mul.calls": "count",
    "linalg.mat_mul.self_ms": "ms",
    "linalg.solve_bellman.self_ms": "ms",
    "linalg.shortest_path_distances.self_ms": "ms",
    "linalg.read_edge_list.self_ms": "ms",
    "analysis.read_grid_csv.self_ms": "ms",
    "analysis.grid_csv_text.self_ms": "ms",
    "analysis.kernel_apply.self_ms": "ms",
    "analysis.kernel_apply.peak_mib": "MiB",
    "hamilton_jacobi.quadratic_kernel.calls": "count",
    "hamilton_jacobi.quadratic_kernel.self_ms": "ms",
    "hamilton_jacobi.lax_oleinik_step.calls": "count",
    "analysis.legendre_transform.self_ms": "ms",
    "analysis.legendre_transform.peak_mib": "MiB",
    "analysis.sup_convolution.self_ms": "ms",
    "hamilton_jacobi.viscous_solve.self_ms": "ms",
    "amoeba.slice_roots.calls": "count",
    "amoeba.slice_roots.self_ms": "ms",
    "amoeba.roots_kept_ratio": "ratio",
    "amoeba.sample_amoeba.self_ms": "ms",
    "amoeba.hausdorff_distance.self_ms": "ms",
    "amoeba.tropical_variety.self_ms": "ms",
    "polytope.convex_hull.self_ms": "ms",
    "polytope.minkowski_mul.self_ms": "ms",
    "polytope.polytope_from_json.self_ms": "ms",
    "dequantize.newton_polytope.self_ms": "ms",
    "fractal.hb_dimension.self_ms": "ms",
    "fractal.covering_number.calls": "count",
    "fractal.covering_number.self_ms": "ms",
}
SEMIRING_SPANS = ("semiring.Semiring.add", "semiring.Semiring.mul", "semiring.subtropical_add")
# the n = 1000 Kleene star and the p = 161 2-D Lax–Oleinik step are never run;
# their peaks are extrapolated from the measured sizes (n³ and p⁴ arrays)
MEMORY_WALLS = {
    "linalg.kleene_star": ("n=", 1000, 3),
    "hamilton_jacobi.lax_oleinik_step": ("d=2 p=", 161, 4),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(env: dict, importtime: bool):
    """Wall time of each fresh ``import tropkit.cli``; with ``-X importtime`` its split."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import tropkit.cli"]
    walls, splits = [], []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import tropkit.cli failed:\n{proc.stderr}")
        if importtime:
            splits.append(import_split(proc.stderr))
    return walls, splits


def import_split(stderr: str) -> dict:
    """Cumulative ms of ``tropkit.cli`` and of the first ``scipy.spatial`` import."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        name = name.strip()
        key = {"tropkit.cli": "import.tropkit_ms", "scipy.spatial": "import.scipy_spatial_ms"}.get(name)
        if key and key not in out and cumulative.strip().isdigit():
            out[key] = int(cumulative) / 1e3
    return out


def layer_metrics(result: dict, import_splits: list) -> dict:
    """Every per-layer metric: medians over traced passes, maxima over peaks."""
    passes = result["layers"]

    def per_pass(names, field):
        return statistics.median(sum(p.get(n, [0, 0.0])[field] for n in names) for p in passes)

    values = {}
    for name in PER_LAYER:
        if name.startswith("import."):
            values[name] = statistics.median(s[name] for s in import_splits)
        elif name.startswith("semiring."):
            values[name] = per_pass(SEMIRING_SPANS, 0 if name.endswith(".calls") else 1)
        elif name == "amoeba.roots_kept_ratio":
            c = result["counters"]
            returned = c.get("amoeba.roots_returned", 0)
            values[name] = c.get("amoeba.roots_kept", 0) / returned if returned else 0.0
        elif name.endswith(".peak_mib"):
            fn = name[: -len(".peak_mib")]
            values[name] = max((b for n, _, b in result["peaks"] if n == fn), default=0) / 2**20
        elif name.endswith(".calls"):
            values[name] = per_pass([name[: -len(".calls")]], 0)
        else:
            values[name] = per_pass([name[: -len(".self_ms")]], 1)
    return values


def memory_walls(peaks) -> dict:
    """Measured peak per size and the peak each one implies at the wall size."""
    walls = {}
    for fn, (prefix, target, power) in MEMORY_WALLS.items():
        measured = {}
        for name, size, nbytes in peaks:
            if name == fn and size.startswith(prefix):
                value = int(size[len(prefix):])
                measured[value] = max(measured.get(value, 0), nbytes)
        walls[fn] = [
            {"size": f"{prefix}{value}", "peak_mib": nbytes / 2**20,
             f"implied_mib_at_{prefix}{target}": nbytes / 2**20 * (target / value) ** power}
            for value, nbytes in sorted(measured.items())
        ]
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tropkit benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "tropkit" / "cli.py").is_file():
        print("error: run from the repository root; src/tropkit/cli.py not found", file=sys.stderr)
        return 2
    env = child_env()
    walls, splits = setup_times(env, importtime=bool(args.trace))

    workdir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job_list = inputs.build(args.workload, args.seed, workdir)
        with open(workdir / "jobs.pkl", "wb") as fh:
            pickle.dump(job_list, fh)
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(workdir / "jobs.pkl"),
             str(workdir / "result.json"), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, timeout=budget, stdout=sys.stderr,
        )
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(workdir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = result["verdicts"]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(v.count(False) for v in verdicts)
    # every pass runs the same jobs on the same inputs, so a verdict that
    # differs between passes means an output that is not reproducible
    correct = all(v == verdicts[0] for v in verdicts)
    for label, ok in zip(result["labels"], verdicts[0]):
        if not ok:
            print(f"failed: {label}", file=sys.stderr)

    if args.trace:
        values = layer_metrics(result, splits)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace = {
            "workload": args.workload, "seed": args.seed,
            "untraced_pass_ms": result["untraced_pass_ms"],
            "traced_pass_ms": result["traced_pass_ms"],
            "overhead": result["traced_pass_ms"] / result["untraced_pass_ms"],
            "metrics": values, "memory_walls": memory_walls(result["peaks"]),
            "peaks": result["peaks"], "counters": result["counters"],
            "spans": result["spans"],
        }
        with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(walls), "unit": "s"},
            "jobs_per_s": {"value": result["jobs_per_s"], "unit": "1/s"},
            "job_p50_ms": {"value": result["job_p50_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": result["maxrss_kib"] / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark's own checks.

The reference computations are run on inputs small enough to check by
hand, and deliberately broken tropkit results must be counted as failed
operations.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

INF = math.inf


# ---------------------------------------------------------------------------
# reference computations on hand-checkable inputs
# ---------------------------------------------------------------------------

def test_floyd_warshall_and_dijkstra_on_a_three_node_path():
    # 0 -1-> 1 -2-> 2, and a direct 0 -5-> 2 that the path beats
    w = np.array([[INF, 1.0, 5.0], [INF, INF, 2.0], [INF, INF, INF]])
    assert np.array_equal(
        inputs.floyd_warshall(w), [[0, 1, 3], [INF, 0, 2], [INF, INF, 0]]
    )
    assert np.array_equal(inputs.dijkstra_from(w, [0, 1]), [[0, 1, 3], [INF, 0, 2]])
    assert not inputs.has_negative_cycle(w)
    w[1, 0] = -2.0  # 0 -> 1 -> 0 weighs -1
    assert inputs.has_negative_cycle(w)


def test_maxplus_product_of_two_by_two():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    b = np.array([[0.0, -1.0], [1.0, 0.0]])
    # M[i, j] = max_k a[i, k] + b[k, j]
    assert np.array_equal(inputs.maxplus_product(a, b), [[2, 1], [4, 3]])


def test_extreme_points_drop_centres_and_edge_points():
    square = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]
    assert inputs.extreme_points(square) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    assert inputs.extreme_points(cube + [(1, 1, 1), (1, 1, 0)]) == set(cube)
    assert inputs.extreme_points([(3, 1, 4)]) == {(3, 1, 4)}


def test_subtropical_product_bounds():
    m = np.array([[1.0, 2.0]])
    h, n = 0.5, 2
    assert jobs.subtropical_product_ok(m, m, h, n)
    assert jobs.subtropical_product_ok(m + h * math.log(n), m, h, n)
    assert not jobs.subtropical_product_ok(m - 1e-9, m, h, n)
    assert not jobs.subtropical_product_ok(m + h * math.log(n) + 1e-6, m, h, n)


def test_top_two_on_the_tropical_line():
    # max(0, x1, x2): at (1, 1) the terms x1 and x2 tie at 1; at (-1, 0) the
    # largest is x2 = 0 = the constant, tied again
    exps = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    first, second = jobs.top_two(exps, np.zeros(3), np.array([[1.0, 1.0], [-1.0, 0.0], [2.0, 0.0]]))
    assert first.tolist() == [1.0, 0.0, 2.0]
    assert second.tolist() == [1.0, 0.0, 0.0]


def test_grid_close_reads_the_csv_format():
    text = "1,-1.0,1.0,3\n0.5\n0.0\n0.25\n"
    head, values = jobs.parse_grid(text)
    assert head == (1, [-1.0], [1.0], 3)
    assert values.tolist() == [0.5, 0.0, 0.25]
    expect = {"head": head, "values": np.array([0.5, np.nan, 0.3]), "tol": 0.1}
    assert jobs.grid_close(text, expect)
    assert not jobs.grid_close(text, dict(expect, tol=0.01))


# ---------------------------------------------------------------------------
# broken results are counted as failed operations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """One seed's jobs, by kind, for the workloads the mutations touch."""
    out = {}
    for name in ("algebra", "mechanics", "geometry"):
        for job in inputs.build(name, 7, tmp_path_factory.mktemp(name)):
            out.setdefault(job["kind"], job)
    return out


def failed(job) -> int:
    verdicts, _ = worker.run_pass([job])
    return verdicts.count(False)


def test_unmutated_jobs_pass(workloads):
    for kind in ("hj_evolve", "newton", "shortest_path", "kleene_star_divergent", "kleene_star"):
        assert failed(workloads[kind]) == 0, kind


def test_a_shifted_grid_value_fails(workloads, monkeypatch):
    tk = worker.tk
    original = tk.analysis.grid_csv_text

    def shifted(phi):
        values = np.array(phi.values)
        values.flat[values.size // 3] += 0.5
        return original(phi.with_values(values))

    monkeypatch.setattr(tk.analysis, "grid_csv_text", shifted)
    assert failed(workloads["hj_evolve"]) == 1


def test_a_dropped_vertex_fails(workloads, monkeypatch):
    tk = worker.tk
    original = tk.polytope.polytope_to_json

    def dropped(p):
        obj = original(p)
        obj["vertices"] = obj["vertices"][:-1]
        return obj

    monkeypatch.setattr(tk.polytope, "polytope_to_json", dropped)
    assert failed(workloads["newton"]) == 1


def test_a_wrong_distance_fails(workloads, monkeypatch):
    tk = worker.tk
    original = tk.linalg.shortest_path_distances

    def wrong(nodes, w, source):
        dist = original(nodes, w, source)
        dist[len(dist) // 2] += 1.0
        return dist

    monkeypatch.setattr(tk.linalg, "shortest_path_distances", wrong)
    assert failed(workloads["shortest_path"]) == 1


def test_a_matrix_where_divergence_is_due_fails(workloads, monkeypatch):
    tk = worker.tk
    monkeypatch.setattr(
        tk.linalg, "kleene_star", lambda a, max_iter=None: tk.SemiringMatrix.identity(a.rows, a.spec)
    )
    assert failed(workloads["kleene_star_divergent"]) == 1
    assert failed(workloads["kleene_star"]) == 1


# ---------------------------------------------------------------------------
# the command and its declaration
# ---------------------------------------------------------------------------

def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "jobs_per_s", "job_p50_ms", "peak_rss_mib"
    ]


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""

import json
import math
import re

import numpy as np
import pytest

from tropkit import GridDomain, GridFunction, maxplus, minplus, read_grid_csv, write_grid_csv
from tropkit.cli import main

ALL_COMMANDS = [
    "semiring-check",
    "shortest-path",
    "legendre",
    "convolve",
    "hj-evolve",
    "hj-viscous",
    "dequantize",
    "newton",
    "minkowski",
    "fractal-dim",
    "amoeba",
    "tropical-curve",
    "converge",
]


@pytest.fixture
def poly_file(tmp_path):
    p = tmp_path / "line.json"
    p.write_text(
        json.dumps(
            {
                "dim": 2,
                "terms": [
                    {"exp": [1, 0], "re": 1.0},
                    {"exp": [0, 1], "re": 1.0},
                    {"exp": [0, 0], "re": 1.0},
                ],
            }
        )
    )
    return str(p)


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("# demo graph\nA B 1\nB C 2\nA C 5\nC D 1\n")
    return str(p)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_selftests_pass(command, capsys):
    assert main([command, "--selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert f"selftest {command}: ok" in out


def test_shortest_path(graph_file, capsys):
    assert main(["shortest-path", graph_file, "--source", "A"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "node,distance"
    assert lines[1:] == ["A,0", "B,1", "C,3", "D,4"]


def test_shortest_path_missing_file(capsys):
    assert main(["shortest-path", "no-such-file.txt", "--source", "A"]) == 1
    assert "no-such-file" in capsys.readouterr().err


def test_shortest_path_bad_line_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A B 1\nA B\n")
    assert main(["shortest-path", str(bad), "--source", "A"]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:2" in err


def test_semiring_check_deterministic(capsys):
    assert main(["semiring-check", "--trials", "200", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["semiring-check", "--trials", "200", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert "deformation_bound" in first
    assert "FAIL" not in first


def test_legendre_round_trip(tmp_path, capsys):
    dom = GridDomain(-2.0, 2.0, 201)
    phi = GridFunction.sample(lambda x: -(x**2) / 2.0, dom, maxplus())
    src = tmp_path / "phi.csv"
    write_grid_csv(phi, src)
    out_file = tmp_path / "target.csv"
    code = main(["legendre", str(src), "--xi=-1:1:41", "-o", str(out_file)])
    assert code == 0
    got = read_grid_csv(out_file)
    xi = got.domain.axes()[0]
    assert np.max(np.abs(got.values - xi**2 / 2.0)) <= 0.02


def test_convolve(tmp_path, capsys):
    dom = GridDomain(-1.0, 1.0, 41)
    phi = GridFunction.sample(lambda x: -(x**2), dom, maxplus())
    src = tmp_path / "a.csv"
    write_grid_csv(phi, src)
    assert main(["convolve", str(src), str(src)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "1,-2.0,2.0,81"


def test_hj_pipeline(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 0.5\nhorizon 1.0\npotential zero\n")
    dom = GridDomain(-2.0, 2.0, 161)
    s0 = GridFunction.sample(lambda x: x**2, dom, minplus())
    init = tmp_path / "s0.csv"
    write_grid_csv(s0, init)
    out_file = tmp_path / "s1.csv"
    assert main(["hj-evolve", str(scen), str(init), "-o", str(out_file)]) == 0
    evolved = read_grid_csv(out_file, minplus())
    x = dom.axes()[0]
    assert np.max(np.abs(evolved.values - x**2 / 3.0)) <= 1e-3


def test_hj_viscous_dequantized(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 1.0\nhorizon 1.0\n")
    dom = GridDomain(-2.0, 2.0, 81)
    h = 0.1
    u0 = GridFunction.sample(lambda x: np.exp(-(x**2) / h), dom, maxplus())
    init = tmp_path / "u0.csv"
    write_grid_csv(u0, init)
    assert main(["hj-viscous", str(scen), str(init), "--h", "0.1", "--dequantize"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    vals = np.array([float(v) for v in lines[1:]])
    x = dom.axes()[0]
    mid = np.abs(x) <= 1.0
    assert np.max(np.abs(vals[mid] - (-(x[mid] ** 2) / 3.0))) <= 0.1


@pytest.mark.parametrize("h", [0.02, 0.01])
def test_hj_viscous_dequantize_small_h(tmp_path, capsys, h):
    # S₀ = -x²/2 spreads to -x²/4 - (h/2)·log 2; the wall image lifts the
    # ends by at most h·log 2, so the whole grid stays within (h/2)·log 2
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 1.0\nhorizon 1.0\n")
    dom = GridDomain(-2.0, 2.0, 161)
    init = tmp_path / "u0.csv"
    write_grid_csv(GridFunction.sample(lambda x: np.exp(-(x**2) / (2.0 * h)), dom, maxplus()), init)
    assert main(["hj-viscous", str(scen), str(init), "--h", repr(h), "--dequantize"]) == 0
    vals = np.array([float(v) for v in capsys.readouterr().out.split()[1:]])
    x = dom.axes()[0]
    assert np.max(np.abs(vals + x**2 / 4.0)) <= 0.5 * h * math.log(2.0) + 1e-9


def test_scenario_errors(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 0.5\n")  # horizon missing
    init = tmp_path / "s0.csv"
    write_grid_csv(GridFunction.constant(0.0, GridDomain(-1.0, 1.0, 11), minplus()), init)
    assert main(["hj-evolve", str(scen), str(init)]) == 2
    assert "horizon" in capsys.readouterr().err

    scen.write_text("masses\ndt 0.5\nhorizon 1.0\n")
    assert main(["hj-evolve", str(scen), str(init)]) == 2
    assert "scen.txt:1" in capsys.readouterr().err


@pytest.mark.parametrize("convention", ["subtropical", "foo"])
def test_scenario_unknown_convention(tmp_path, capsys, convention):
    scen = tmp_path / "scen.txt"
    scen.write_text(f"masses 1.0\ndt 0.5\nhorizon 1.0\nconvention {convention}\n")
    init = tmp_path / "s0.csv"
    write_grid_csv(GridFunction.constant(0.0, GridDomain(-1.0, 1.0, 11), minplus()), init)
    assert main(["hj-evolve", str(scen), str(init)]) == 2
    err = capsys.readouterr().err
    assert "scen.txt" in err and convention in err


def test_dequantize_command(poly_file, capsys):
    assert main(["dequantize", poly_file, "--point", "1,0", "--h", "0.1", "--limit"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,value"
    h_val = float(lines[1].split(",")[1])
    assert h_val == pytest.approx(0.1 * math.log(1.0 + math.e**10 + 1.0), rel=1e-9)
    assert lines[2] == "limit,1"


def test_newton_command(poly_file, capsys):
    assert main(["newton", poly_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, obj["vertices"])) == [(0, 0), (0, 1), (1, 0)]


def test_minkowski_command(tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    q.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [2, 0]]}))
    assert main(["minkowski", str(p), str(q)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, obj["vertices"])) == [(0, 0), (0, 1), (2, 1), (3, 0)]
    assert main(["minkowski", str(p), str(q), "--op", "add"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, obj["vertices"])) == [(0, 0), (0, 1), (2, 0)]


@pytest.mark.parametrize("operand", [0, 1])
@pytest.mark.parametrize("text", ["{not json", '{"dim": 2, "vertices": [["x", 0]]}'])
def test_minkowski_malformed_operand_exits_two(tmp_path, capsys, operand, text):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0]]}))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = [str(good), str(good)]
    paths[operand] = str(bad)
    assert main(["minkowski", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad.json" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["newton", "{bad}"],
        ["amoeba", "{bad}", "--window=-3,3,-3,3"],
        ["converge", "{bad}", "--window=-3,3,-3,3", "--h", "1,0.5"],
        ["dequantize", "{bad}", "--point", "1,0", "--h", "0.1"],
        ["tropical-curve", "{bad}"],
        ["minkowski", "{bad}", "{bad}"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_syntax_error_names_its_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,\n "terms": [}\n')
    assert main([arg.format(bad=bad) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad.json:2:" in captured.err


def test_fractal_generator(capsys):
    assert main(["fractal-dim", "--generator", "cantor 9", "--scales", "1,2,3,4,5,6,7"]) == 0
    out = capsys.readouterr().out
    slope = float(out.splitlines()[0].split(",")[1])
    assert abs(slope - math.log(2.0) / math.log(3.0)) <= 0.1


def test_fractal_cloud_and_local(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    pts = np.linspace(0.0, 1.0, 2001)
    cloud.write_text("".join(f"{float(v)!r}\n" for v in pts))
    assert main(["fractal-dim", str(cloud), "--scales", "2,3,4,5"]) == 0
    slope = float(capsys.readouterr().out.splitlines()[0].split(",")[1])
    assert abs(slope - 1.0) <= 0.1

    meas = tmp_path / "mu.csv"
    meas.write_text("".join(f"{float(v)!r} 1.0\n" for v in pts))
    assert main(
        ["fractal-dim", str(meas), "--point", "0.5", "--scales", "2,3,4,5"]
    ) == 0
    slope = float(capsys.readouterr().out.splitlines()[0].split(",")[1])
    assert abs(slope - 1.0) <= 0.1


def test_fractal_bad_usage(capsys):
    assert main(["fractal-dim", "--scales", "1,2,3"]) == 2  # no cloud source
    capsys.readouterr()
    assert main(["fractal-dim", "--generator", "moon 3", "--scales", "1,2,3"]) == 1


def test_amoeba_command(poly_file, tmp_path, capsys):
    svg = tmp_path / "view.svg"
    code = main(
        [
            "amoeba", poly_file,
            "--window=-3,3,-3,3",
            "--slices", "15",
            "--angles", "8",
            "--svg", str(svg),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) > 30
    assert svg.read_text().startswith("<svg")


def test_tropical_curve_command(tmp_path, capsys):
    tp = tmp_path / "trop.json"
    tp.write_text(
        json.dumps(
            {
                "dim": 2,
                "terms": [
                    {"exp": [1, 0], "coeff": 0.0},
                    {"exp": [0, 1], "coeff": 0.0},
                    {"exp": [0, 0], "coeff": 0.0},
                ],
            }
        )
    )
    assert main(["tropical-curve", str(tp)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["vertices"] == [[0.0, 0.0]]
    assert len(obj["rays"]) == 3


def test_tropical_curve_bad_json(tmp_path, capsys):
    tp = tmp_path / "broken.json"
    tp.write_text("{not json")
    assert main(["tropical-curve", str(tp)]) == 2


def test_tropical_curve_vertex_beyond_double_range(tmp_path, capsys):
    tp = tmp_path / "trop.json"
    tp.write_text(json.dumps({"dim": 2, "terms": [
        {"exp": [0, 0], "coeff": 1e308},
        {"exp": [1, 0], "coeff": -1e308},
        {"exp": [0, 1], "coeff": 0},
    ]}))
    assert main(["tropical-curve", str(tp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(0, 0), (0, 1), (1, 0)" in captured.err


def test_converge_command(poly_file, capsys):
    code = main(
        ["converge", poly_file, "--h", "1,0.5", "--window=-3,3,-3,3",
         "--slices", "25", "--angles", "12"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,hausdorff"
    d1 = float(lines[1].split(",")[1])
    d2 = float(lines[2].split(",")[1])
    assert d1 > d2 > 0.0


def test_converge_overflowing_deformation_is_one_error_line(tmp_path, capsys):
    # log 3 / 0.001 ≈ 1099 exceeds double range, so 3^{1/h} cannot be formed
    p = tmp_path / "p.json"
    p.write_text(
        json.dumps(
            {
                "dim": 2,
                "terms": [
                    {"exp": [0, 0], "re": 3.0},
                    {"exp": [1, 0], "re": 1.0},
                    {"exp": [0, 1], "re": 1.0},
                ],
            }
        )
    )
    assert main(["converge", str(p), "--window=-3,3,-3,3", "--h", "0.001"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: coefficient 3")
    assert "h=0.001" in err[0]

def test_output_dir_env(tmp_path, monkeypatch, poly_file, capsys):
    monkeypatch.setenv("TROPKIT_OUTPUT_DIR", str(tmp_path / "results"))
    assert main(["newton", poly_file, "-o", "p.json"]) == 0
    assert (tmp_path / "results" / "p.json").exists()


def test_divergent_graph_exits_one(tmp_path, capsys):
    neg = tmp_path / "neg.txt"
    neg.write_text("A B 1\nB A -3\n")  # improving cycle
    assert main(["shortest-path", str(neg), "--source", "A"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "stabilize within 4 passes" in err
    assert re.search(r"reaches node [AB], which still changed", err)


def test_usage_error_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2

import argparse
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tropkit
from tropkit import GridDomain, GridFunction, maxplus, minplus, read_grid_csv, write_grid_csv
from tropkit.cli import _build_parser, main


def _subcommands() -> dict:
    """The parser's subcommands, name → subparser, in declaration order."""
    (subs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


ALL_COMMANDS = list(_subcommands())


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


def test_every_subcommand_declares_its_selftest():
    assert len(ALL_COMMANDS) >= 13  # the derivation found the subcommands
    for name, sub in _subcommands().items():
        assert callable(sub.get_default("func")), name
        assert callable(sub.get_default("checks")), name


def test_parser_is_built_once_and_not_at_import():
    assert _build_parser() is _build_parser()
    # sys.path[0] set to the tropkit imported here, whatever PYTHONPATH holds
    root = str(Path(tropkit.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tropkit.cli as c; "
            "print(c._build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, root], capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def test_repeated_main_calls_share_no_state(graph_file, tmp_path, capsys):
    out = tmp_path / "dist.csv"
    argv = ["shortest-path", graph_file, "--source", "A"]
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text() == "node,distance\nA,0\nB,1\nC,3\nD,4\n"
    assert main(["shortest-path", "--selftest"]) == 0
    assert "selftest shortest-path: ok" in capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


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



@pytest.mark.parametrize("xi", ["--xi=", "--xi=,", "--xi=1:2"])
def test_legendre_malformed_xi_exits_one(tmp_path, capsys, xi):
    src = tmp_path / "phi.csv"
    write_grid_csv(GridFunction.sample(lambda x: -(x**2), GridDomain(-1.0, 1.0, 11), maxplus()), src)
    assert main(["legendre", str(src), xi]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

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


def test_svg_previews(poly_file, tmp_path, capsys):
    newton_svg = tmp_path / "newton.svg"
    assert main(["newton", poly_file, "--svg", str(newton_svg)]) == 0
    text = newton_svg.read_text()
    assert text.count("<polygon ") == 1 and "<line " not in text and "<circle " not in text
    (points,) = re.findall(r'<polygon points="([^"]*)"', text)
    assert len(points.split()) == 3  # the triangle's vertices

    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({"dim": 2, "terms": [
        {"exp": e, "coeff": c}
        for e, c in [([0, 0], 0), ([1, 0], 1), ([0, 1], 1), ([2, 0], 0), ([1, 1], 1), ([0, 2], 0)]
    ]}))
    curve_svg = tmp_path / "curve.svg"
    assert main(["tropical-curve", str(conic), "--svg", str(curve_svg)]) == 0
    text = curve_svg.read_text()
    assert text.count("<line ") == 3 + 6  # bounded edges and rays, all inside the window
    assert "<circle " not in text and "<polygon " not in text

    converge_svg = tmp_path / "converge.svg"
    argv = ["converge", poly_file, "--h", "1,0.5", "--window=-3,3,-3,3", "--slices", "10", "--angles", "6"]
    assert main([*argv, "--svg", str(converge_svg)]) == 0
    capsys.readouterr()
    window = tropkit.Window(-3.0, 3.0, -3.0, 3.0)
    f = tropkit.read_poly_json(poly_file)
    sample = tropkit.sample_amoeba(tropkit.deform_polynomial(f, 0.5), 0.5, window, 10, 6)
    text = converge_svg.read_text()
    assert text.count("<circle ") == len(sample.points) > 0
    assert text.count("<line ") == 3  # the tropical line's three rays


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


# ---------------------------------------------------------------------------
# malformed input: every file-reading invocation against one corpus
# ---------------------------------------------------------------------------

MALFORMED_FILES = {
    "empty": "",
    "garbage": "%%% not a tropkit file %%%\n",
    "json-list": "[1, 2, 3]\n",
    "json-wrong-shape": '{"dim": 2, "terms": 7, "vertices": 7}\n',
    "poly-nan": '{"dim": 2, "terms": [{"exp": [1, 0], "re": NaN}, {"exp": [0, 0], "re": 1.0}]}\n',
    "poly-infinity": (
        '{"dim": 2, "terms": [{"exp": [1, 0], "re": Infinity}, '
        '{"exp": [0, 1], "re": 1.0}, {"exp": [0, 0], "re": 1.0}]}\n'
    ),
    "tropical-nan": '{"dim": 2, "terms": [{"exp": [1, 0], "coeff": NaN}, {"exp": [0, 0], "coeff": 0}]}\n',
    "polytope-1/0": '{"dim": 2, "vertices": [[0, 0], ["1/0", 0], [0, 1]]}\n',
    "scenario-horizon-inf": "masses 1.0\ndt 0.5\nhorizon inf\n",
    "scenario-horizon-nan": "masses 1.0\ndt 0.5\nhorizon nan\n",
    "scenario-masses-inf": "masses inf\ndt 0.5\nhorizon 1.0\n",
    "grid-bad-token": "1,-1.0,1.0,3\n0.0\n\n\n1.0\nx\n",
    "points-nan": "# cloud\n\n0.0,0.0\nnan,1.0\n",
    "rows-bad-token": "# rows\n\n0.5 1\n\n0.25 x\n",
}

MALFORMED_INVOCATIONS = {
    "shortest-path": ["shortest-path", "{bad}", "--source", "A"],
    "legendre": ["legendre", "{bad}", "--xi=-1:1:5"],
    "convolve-a": ["convolve", "{bad}", "{grid}"],
    "convolve-b": ["convolve", "{grid}", "{bad}"],
    "hj-evolve-scenario": ["hj-evolve", "{bad}", "{grid}"],
    "hj-evolve-initial": ["hj-evolve", "{scenario}", "{bad}"],
    "hj-viscous-scenario": ["hj-viscous", "{bad}", "{grid}"],
    "hj-viscous-initial": ["hj-viscous", "{scenario}", "{bad}"],
    "dequantize": ["dequantize", "{bad}", "--point", "0,0", "--h", "0.5"],
    "newton": ["newton", "{bad}"],
    "minkowski-p": ["minkowski", "{bad}", "{polytope}"],
    "minkowski-q": ["minkowski", "{polytope}", "{bad}"],
    "fractal-dim": ["fractal-dim", "{bad}", "--scales", "1,2"],
    "fractal-dim-local": ["fractal-dim", "{bad}", "--point", "0", "--scales", "1,2"],
    "amoeba": ["amoeba", "{bad}", "--window=-2,2,-2,2", "--slices", "4", "--angles", "4"],
    "tropical-curve": ["tropical-curve", "{bad}"],
    "converge": [
        "converge", "{bad}", "--window=-2,2,-2,2", "--h", "1", "--slices", "4", "--angles", "4"
    ],
}


@pytest.mark.parametrize("invocation", list(MALFORMED_INVOCATIONS))
def test_malformed_input_is_one_error_line(tmp_path, capsys, invocation):
    """Exit 1 or 2, no traceback, no warning, and one ``error:`` line that
    starts with the malformed file's path."""
    files = {
        "scenario": tmp_path / "scenario.txt",
        "grid": tmp_path / "grid.csv",
        "polytope": tmp_path / "polytope.json",
    }
    files["scenario"].write_text("masses 1.0\ndt 0.5\nhorizon 1.0\n")
    write_grid_csv(GridFunction.constant(1.0, GridDomain(-1.0, 1.0, 5), maxplus()), files["grid"])
    files["polytope"].write_text('{"dim": 2, "vertices": [[0, 0], [1, 0]]}\n')
    failures = []
    for name, text in MALFORMED_FILES.items():
        bad = tmp_path / f"bad-{name.replace('/', '-')}.txt"
        bad.write_text(text)
        paths = {"bad": str(bad), **{k: str(v) for k, v in files.items()}}
        argv = [arg.format(**paths) for arg in MALFORMED_INVOCATIONS[invocation]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - a traceback is the failure
                code = f"raised {type(exc).__name__}: {exc}"
        out, err = capsys.readouterr()
        # a warning would print its own stderr lines in a real process
        lines = [str(w.message) for w in caught] + err.splitlines()
        if (
            code not in (1, 2)
            or len(lines) != 1
            or not lines[0].startswith(f"error: {bad}:")
            or out
        ):
            failures.append(f"{name}: exit {code}, stderr {lines!r}, stdout {out[:40]!r}")
    assert not failures, "\n".join(failures)


def test_grid_bad_value_names_its_file_line(tmp_path, capsys):
    bad = tmp_path / "g.csv"
    bad.write_text(MALFORMED_FILES["grid-bad-token"])  # 'x' on line 6, after two blank lines
    assert main(["legendre", str(bad), "--xi=-1:1:5"]) == 2
    assert capsys.readouterr().err == f"error: {bad}:6: bad value 'x'\n"


def test_infinite_window_is_one_error_line(poly_file, capsys):
    assert main(["amoeba", poly_file, "--window=0,inf,0,1", "--slices", "4", "--angles", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: window bounds must be finite\n"


def test_tropical_curve_bad_window_emits_nothing(tmp_path, capsys):
    trop = tmp_path / "trop.json"
    trop.write_text(json.dumps({"dim": 2, "terms": [
        {"exp": [1, 0], "coeff": 0.0}, {"exp": [0, 1], "coeff": 0.0}, {"exp": [0, 0], "coeff": 0.0},
    ]}))
    svg = tmp_path / "t.svg"
    assert main(["tropical-curve", str(trop), "--svg", str(svg), "--window=1,0,0,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: window must have positive width and height\n"
    assert not svg.exists()


@pytest.mark.parametrize("point", ["inf,0", "nan,0", "0,-inf", "1"])
@pytest.mark.parametrize("h", [None, "0.5"])
def test_dequantize_point_must_be_finite(poly_file, capsys, point, h):
    argv = ["dequantize", poly_file, "--point", point] + (["--h", h] if h else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: point must have 2 finite coordinates\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("masses 1.0\ndt abc\nhorizon 1.0\n", 2, "could not convert string to float: 'abc'"),
        ("# scenario\n\nmasses 1.0 x\ndt 0.5\nhorizon 1.0\n", 3, "could not convert string to float: 'x'"),
        ("masses 1.0\ndt 0.5\nhorizon 1.0\npotential quadratic\n", 4, "'quadratic' needs a stiffness parameter"),
        ("masses 1.0\ndt 0.5\nhorizon 1.0\nconvention foo\n", 4, "unknown convention 'foo'"),
    ],
    ids=["dt", "masses", "potential", "convention"],
)
def test_scenario_errors_name_their_line(tmp_path, capsys, text, line, message):
    scen = tmp_path / "scen.txt"
    scen.write_text(text)
    init = tmp_path / "s0.csv"
    write_grid_csv(GridFunction.constant(0.0, GridDomain(-1.0, 1.0, 11), minplus()), init)
    assert main(["hj-evolve", str(scen), str(init)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {scen}:{line}: {message}\n"


def test_hj_viscous_plain_matches_viscous_solve(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 0.25\nhorizon 0.5\npotential quadratic 0.5\n")
    dom = GridDomain(-2.0, 2.0, 81)
    u0 = GridFunction.sample(lambda x: np.exp(-(x**2) / 0.2), dom, maxplus())
    init = tmp_path / "u0.csv"
    write_grid_csv(u0, init)
    assert main(["hj-viscous", str(scen), str(init), "--h", "0.1"]) == 0
    system = tropkit.MechanicalSystem((1.0,), 0.25, 0.5, tropkit.builtin_potential("quadratic 0.5"))
    expected = tropkit.grid_csv_text(tropkit.viscous_solve(u0, system, 0.1))
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("h", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize(
    "command",
    ["semiring-check", "hj-viscous", "hj-viscous --dequantize", "dequantize", "amoeba", "converge"],
)
def test_every_h_option_must_be_positive_and_finite(tmp_path, capsys, poly_file, command, h):
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 0.5\nhorizon 0.5\n")
    init = tmp_path / "u0.csv"
    write_grid_csv(GridFunction.constant(1.0, GridDomain(-1.0, 1.0, 11), maxplus()), init)
    window = ["--window=-1,1,-1,1", "--slices", "2", "--angles", "4"]
    argv = {
        "semiring-check": ["semiring-check", "--trials", "10"],
        "hj-viscous": ["hj-viscous", str(scen), str(init)],
        "hj-viscous --dequantize": ["hj-viscous", str(scen), str(init), "--dequantize"],
        "dequantize": ["dequantize", poly_file, "--point", "0,0"],
        "amoeba": ["amoeba", poly_file, *window],
        "converge": ["converge", poly_file, *window],
    }[command]
    assert main([*argv, f"--h={h}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: h must be positive and finite, got [-\w.]+\n", err)

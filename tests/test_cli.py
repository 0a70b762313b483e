import json
import shlex
from pathlib import Path

import pytest

from cone2d.cli import COMMANDS, build_parser, main
from cone2d.moments import uniform_box_moments
from cone2d.norms import Region, WeightFunction
from cone2d.poly import Polynomial


def X(n, i):
    return Polynomial.variable(n, i)


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return write


# Moments 1, 0, -1 of x^0..x^2: the Hankel matrix has eigenvalue -1.
INDEFINITE = {"n": 1, "D": 2, "moments": [
    {"exp": [0], "val": 1.0}, {"exp": [1], "val": 0.0}, {"exp": [2], "val": -1.0}]}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLoaders:
    def test_valid_polynomial(self, files, capsys):
        poly = files("p.json", (X(1, 0) ** 2).to_json_dict())
        code, rep = run(capsys, ["norms", "rho", "--poly", poly,
                                 "--point", "3"])
        assert code == 0
        assert rep["result"]["value"] == 9.0

    def test_duplicate_exponent_named(self, files, capsys):
        poly = files("bad.json", {"n": 1, "terms": [
            {"coeff": 1.0, "exp": [2]}, {"coeff": 2.0, "exp": [2]}]})
        code, rep = run(capsys, ["norms", "rho", "--poly", poly,
                                 "--point", "0"])
        assert code == 2
        assert "duplicate" in rep["error"]

    def test_overconstrained_region(self, files, capsys):
        # x >= 5 inside [0,1] leaves no samples
        region = files("r.json", {
            "n": 1, "box": [[0, 1]], "resolution": 0.1,
            "ineqs": [(X(1, 0) - 5).to_json_dict()]})
        poly = files("p.json", X(1, 0).to_json_dict())
        code, rep = run(capsys, ["norms", "sup", "--poly", poly,
                                 "--region", region])
        assert code == 2
        assert "no sample points" in rep["error"]

    def test_missing_file(self, capsys, tmp_path):
        code, rep = run(capsys, ["norms", "rho",
                                 "--poly", str(tmp_path / "absent.json"),
                                 "--point", "0"])
        assert code == 2
        assert "no such file" in rep["error"]

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"n": 1, "terms": [')
        code, rep = run(capsys, ["norms", "rho", "--poly", str(p),
                                 "--point", "0"])
        assert code == 2
        assert "line" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["approx", "tk", "--poly", "{poly}", "--points", "{pts}", "--eps", "-1"],
    ["approx", "sup", "--poly", "{poly}", "--region", "{region}", "--eps", "-1"],
    ["witness", "--region", "{region}", "--points", "{pts}", "--eps", "2"],
    ["norms", "rho", "--poly", "{poly}", "--point", "1,2"],
    ["moments", "check", "--moments", "{mom1}"],
    ["approx", "tk", "--poly", "{poly}", "--points", "{flat}", "--eps", "0.1"],
    ["spectrum", "hausdorff", "--points", "{flat}", "--degree", "2"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{table}"],
    ["spectrum", "kphi-box", "--phi", "{table}", "--degree", "3"],
    ["moments", "continuity", "--moments", "{mom4}", "--phi", "{table}"],
    ["spectrum", "kphi-box", "--phi", "{lasserre}", "--degree", "200"],
    ["norms", "rho", "--poly", "{poly}", "--point", "inf"],
    ["norms", "rho", "--poly", "{nan_poly}", "--point", "1"],
    ["approx", "tk", "--poly", "{poly}", "--points", "{inf_pts}", "--eps", "0.1"],
    ["norms", "rho", "--poly", "{poly}", "--point", "1e200"],
    ["norms", "rho", "--poly", "{big_poly}", "--point", "10"],
    ["moments", "check", "--moments", "{indefinite}", "--tol", "inf"],
    ["moments", "check", "--moments", "{indefinite}", "--tol", "nan"],
    ["moments", "recover", "--moments", "{mom4}", "--region", "{region}",
     "--tol", "inf"],
    ["spectrum", "hausdorff", "--points", "{pts}", "--degree", "2", "--tol", "nan"],
    ["approx", "tk", "--poly", "{poly}", "--points", "{pts}", "--eps", "inf"],
    ["approx", "sup", "--poly", "{poly}", "--region", "{region}", "--eps", "nan"],
    ["witness", "--region", "{region}", "--points", "{pts}", "--eps", "nan"],
    ["moments", "recover", "--moments", "{mom4}", "--region", "{region2}"],
    ["moments", "recover", "--moments", "{incomplete}", "--region", "{region}"],
    ["compare", "--region", "{region}", "--max-degree", "0"],
    ["compare", "--region", "{empty_side}"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{empty_table}"],
    ["moments", "continuity", "--moments", "{mom4}", "--phi", "{empty_table}"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{ragged_table}"],
    ["approx", "tk", "--poly", "{float_n}", "--points", "{pts}", "--eps", "0.1"],
    ["norms", "rho", "--poly", "{bool_n}", "--point", "3"],
    ["norms", "rho", "--poly", "{float_exp}", "--point", "3"],
    ["norms", "rho", "--poly", "{bool_exp}", "--point", "3"],
    ["norms", "rho", "--poly", "{bool_coeff}", "--point", "3"],
    ["approx", "tk", "--poly", "{poly}"],
    ["approx", "tk", "--poly", "{poly}", "--points", "{pts}", "--eps", "abc"],
    ["bogus"],
    ["norms", "sup", "--poly", "{poly}", "--region", "{zero_res}"],
    ["norms", "sup", "--poly", "{poly}", "--region", "{negative_res}"],
    ["moments", "check", "--moments", "{moments_float_n}"],
    ["moments", "check", "--moments", "{moments_float_D}"],
    ["moments", "check", "--moments", "{moments_float_exp}"],
    ["spectrum", "kphi-box", "--phi", "{lasserre_float_n}", "--degree", "3"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{table_float_exp}"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{negative_table}"],
    ["norms", "rho", "--poly", "{directory}", "--point", "1"],
    ["witness", "--region", "{region}", "--points", "{pts}", "--degree", "-1"],
    ["approx", "sup", "--poly", "{poly}", "--region", "{region}", "--eps", "0.1",
     "--max-degree", "-1"],
    ["moments", "check", "--moments", "{moments_bool_val}"],
    ["moments", "check", "--moments", "{moments_string_val}"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{table_bool_val}"],
    ["norms", "phi", "--poly", "{poly}", "--phi", "{table_duplicate}"],
    ["spectrum", "kphi-box", "--phi", "{geometric_string}", "--degree", "3"],
    ["spectrum", "hausdorff", "--points", "{pts_bool_string}", "--degree", "1"],
    ["compare", "--region", "{region_bool_string}"],
    ["moments", "recover", "--moments", "{moments_negative_D}", "--region", "{region}"],
], ids=["tk-eps", "sup-eps", "witness-eps", "rho-dimension", "check-degree",
        "tk-flat-points", "hausdorff-flat-points", "phi-table-missing",
        "kphi-box-table-missing", "continuity-table-missing",
        "kphi-box-lasserre-overflow", "rho-inf-point", "nan-coefficient",
        "inf-point-string", "rho-overflow", "rho-infinite-result",
        "check-tol-inf", "check-tol-nan", "recover-tol-inf", "hausdorff-tol-nan",
        "tk-eps-inf", "sup-eps-nan", "witness-eps-nan",
        "recover-dimension-mismatch", "recover-incomplete-moments",
        "compare-max-degree-0", "compare-empty-box-side",
        "phi-table-empty", "continuity-table-empty", "phi-table-ragged",
        "tk-float-n", "rho-bool-n", "rho-float-exponent", "rho-bool-exponent",
        "rho-bool-coefficient", "usage-missing-flag", "usage-bad-value",
        "usage-unknown-command", "region-zero-resolution",
        "region-negative-resolution", "moments-float-n", "moments-float-D",
        "moments-float-exponent", "lasserre-float-n", "table-float-exponent",
        "table-negative-value", "poly-is-directory", "witness-negative-degree",
        "sup-negative-max-degree", "moments-bool-value", "moments-string-value",
        "table-bool-value", "table-duplicate-exponent", "geometric-string-radius",
        "points-bool-and-string", "region-bool-and-string", "recover-negative-D"])
def test_bad_input_exits_2_with_json_error(files, capsys, tmp_path, argv):
    paths = {
        "directory": str(tmp_path),
        "poly": files("p.json", (X(1, 0) ** 2).to_json_dict()),
        "region": files("r.json",
                        Region.from_box([(0, 1)], resolution=0.05).to_json_dict()),
        "pts": files("pts.json", {"points": [[0.1], [0.5]]}),
        "flat": files("flat.json", {"points": [1, 2]}),
        "mom1": files("m.json", uniform_box_moments([(-1, 1)], 1).to_json_dict()),
        "mom4": files("m4.json", uniform_box_moments([(-1, 1)], 4).to_json_dict()),
        "table": files("w.json", {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [1], "val": 1.0}]}),
        "lasserre": files("l.json", {"kind": "lasserre", "n": 1}),
        "nan_poly": files("nan.json", {"n": 1, "terms": [
            {"coeff": float("nan"), "exp": [1]}]}),
        "inf_pts": files("inf_pts.json", {"points": [["inf"]]}),
        "big_poly": files("big.json", {"n": 1, "terms": [
            {"coeff": 1e308, "exp": [1]}]}),
        "indefinite": files("ind.json", INDEFINITE),
        "region2": files("r2.json", Region.from_box(
            [(0, 1), (0, 1)], resolution=0.1).to_json_dict()),
        "incomplete": files("inc.json", {"n": 1, "D": 4, "moments": [
            {"exp": [0], "val": 1.0}, {"exp": [1], "val": 0.0}]}),
        "empty_side": files("empty.json", {"n": 1, "box": [[1.0, 0.0]],
                                           "resolution": 0.1}),
        "empty_table": files("w0.json", {"kind": "table", "entries": []}),
        "ragged_table": files("wr.json", {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [2], "val": 1.0},
            {"exp": [2, 0], "val": 5.0}]}),
        "float_n": files("fn.json", {"n": 1.0, "terms": [{"coeff": 1.0, "exp": [2]}]}),
        "bool_n": files("bn.json", {"n": True, "terms": [{"coeff": 1.0, "exp": [2]}]}),
        "float_exp": files("fe.json", {"n": 1, "terms": [{"coeff": 1.0, "exp": [1.5]}]}),
        "bool_exp": files("be.json", {"n": 1, "terms": [{"coeff": 1.0, "exp": [True]}]}),
        "bool_coeff": files("bc.json", {"n": 1, "terms": [{"coeff": True, "exp": [2]}]}),
        "zero_res": files("r0.json", {"n": 1, "box": [[0, 1]], "resolution": 0}),
        "negative_res": files("rn.json", {"n": 1, "box": [[0, 1]], "resolution": -0.1}),
        "moments_float_n": files("mn.json", dict(INDEFINITE, n=1.5)),
        "moments_float_D": files("mD.json", dict(INDEFINITE, D=2.5)),
        "moments_float_exp": files("me.json", {"n": 1, "D": 2, "moments": [
            {"exp": [0], "val": 1.0}, {"exp": [1.0], "val": 0.0},
            {"exp": [2], "val": 1.0}]}),
        "lasserre_float_n": files("lf.json", {"kind": "lasserre", "n": 1.7}),
        "table_float_exp": files("wf.json", {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [1.0], "val": 1.0},
            {"exp": [2], "val": 1.0}]}),
        "negative_table": files("wn.json", {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [1], "val": 1.0},
            {"exp": [2], "val": -2.0}]}),
        "moments_bool_val": files("mb.json", {"n": 1, "D": 2, "moments": [
            {"exp": [0], "val": True}, {"exp": [1], "val": 0.0},
            {"exp": [2], "val": -1.0}]}),
        "moments_string_val": files("ms.json", {"n": 1, "D": 2, "moments": [
            {"exp": [0], "val": 1.0}, {"exp": [1], "val": 0.0},
            {"exp": [2], "val": "0.5"}]}),
        "table_bool_val": files("wb.json", {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [2], "val": True}]}),
        "table_duplicate": files("wd.json", {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [2], "val": 1.0},
            {"exp": [2], "val": 2.0}]}),
        "geometric_string": files("wg.json", {"kind": "geometric", "radii": ["0.5"]}),
        "pts_bool_string": files("pb.json", {"points": [[True], ["0.5"]]}),
        "region_bool_string": files("rb.json", {"box": [[False, "1"]],
                                                "resolution": "0.25"}),
        "moments_negative_D": files("mneg.json", dict(INDEFINITE, D=-1)),
    }
    code, rep = run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert set(rep) == {"error"}


class TestApproxCommands:
    def test_tk_success(self, files, capsys):
        poly = files("p.json", (X(1, 0) ** 2 + 1).to_json_dict())
        pts = files("pts.json", {"points": [[0.0], [1.0]]})
        code, rep = run(capsys, ["approx", "tk", "--poly", poly,
                                 "--points", pts, "--eps", "0.01"])
        assert code == 0
        assert rep["result"]["success"]
        assert max(rep["result"]["residuals"]["per_point"]) < 0.01

    def test_tk_negative_point(self, files, capsys):
        poly = files("p.json", Polynomial.constant(1, -2).to_json_dict())
        pts = files("pts.json", {"points": [[0.0]]})
        code, rep = run(capsys, ["approx", "tk", "--poly", poly,
                                 "--points", pts, "--eps", "0.01"])
        assert code == 1
        assert rep["result"]["residuals"]["witness_point"] == [0.0]

    def test_sup_success(self, files, capsys):
        f = (X(1, 0) - 0.5) ** 2
        poly = files("p.json", f.to_json_dict())
        region = files("r.json",
                       Region.from_box([(0, 1)], resolution=0.01).to_json_dict())
        code, rep = run(capsys, ["approx", "sup", "--poly", poly,
                                 "--region", region, "--eps", "0.1"])
        assert code == 0
        assert rep["result"]["residuals"]["sup"] < 0.1


class TestMomentsCommands:
    def test_check_psd(self, files, capsys):
        mom = files("m.json", uniform_box_moments([(-1, 1)], 4).to_json_dict())
        code, rep = run(capsys, ["moments", "check", "--moments", mom])
        assert code == 0
        assert rep["result"]["psd"]

    def test_check_indefinite_with_witness(self, files, capsys):
        mom = files("m.json", {"n": 1, "D": 2, "moments": [
            {"exp": [0], "val": 1.0}, {"exp": [1], "val": 0.0},
            {"exp": [2], "val": -1.0}]})
        code, rep = run(capsys, ["moments", "check", "--moments", mom])
        assert code == 1
        assert not rep["result"]["psd"]
        assert "witness" in rep["result"]

    def test_recover(self, files, capsys):
        mom = files("m.json", uniform_box_moments([(-1, 1)], 6).to_json_dict())
        region = files("r.json",
                       Region.from_box([(-1, 1)], resolution=0.05).to_json_dict())
        code, rep = run(capsys, ["moments", "recover", "--moments", mom,
                                 "--region", region])
        assert code == 0
        assert rep["result"]["residual"] < 1e-6
        assert all(w >= 0 for w in rep["result"]["weights"])

    def test_continuity(self, files, capsys):
        mom = files("m.json", uniform_box_moments([(-1, 1)], 4).to_json_dict())
        phi = files("w.json", WeightFunction.one(1).to_json_dict())
        code, rep = run(capsys, ["moments", "continuity", "--moments", mom,
                                 "--phi", phi])
        assert code == 0
        assert rep["result"]["constant"] <= 1.0


class TestOtherCommands:
    def test_compare_table(self, files, capsys):
        region = files("r.json", Region.from_box([(-3, 3)]).to_json_dict())
        code, rep = run(capsys, ["compare", "--region", region,
                                 "--max-degree", "20"])
        assert code == 0
        assert rep["result"]["threshold"] == 7

    def test_spectrum_kphi_box(self, files, capsys):
        phi = files("w.json", WeightFunction.geometric((2.0, 0.5)).to_json_dict())
        code, rep = run(capsys, ["spectrum", "kphi-box", "--phi", phi,
                                 "--degree", "4"])
        assert code == 0
        assert rep["result"]["box"] == [[-2.0, 2.0], [-0.5, 0.5]]

    def test_spectrum_hausdorff_verdict(self, files, capsys):
        import numpy as np

        theta = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = files("pts.json",
                    {"points": np.c_[np.cos(theta), np.sin(theta)].tolist()})
        code, rep = run(capsys, ["spectrum", "hausdorff", "--points", pts,
                                 "--degree", "2"])
        assert code == 1
        assert rep["result"]["kernel_dimension"] == 1

    def test_witness(self, files, capsys):
        region = files("r.json",
                       Region.from_box([(0, 1)], resolution=0.005).to_json_dict())
        pts = files("pts.json", {"points": [[0.1], [0.2], [0.3], [0.4], [0.5]]})
        code, rep = run(capsys, ["witness", "--region", region,
                                 "--points", pts, "--eps", "0.01",
                                 "--degree", "15"])
        assert code == 0
        assert rep["result"]["residuals"]["sup_norm"] >= 0.9


class TestReportShape:
    def test_deterministic_without_timestamp(self, files, capsys):
        poly = files("p.json", (X(1, 0) ** 2).to_json_dict())
        argv = ["--no-timestamp", "norms", "rho", "--poly", poly,
                "--point", "2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_report_fields(self, files, capsys):
        poly = files("p.json", (X(1, 0)).to_json_dict())
        code, rep = run(capsys, ["norms", "rho", "--poly", poly,
                                 "--point", "1"])
        assert set(rep) >= {"command", "inputs", "result", "version"}
        assert "poly" in rep["inputs"]
        assert "wall_time_s" in rep

    def test_summary_goes_to_stderr(self, files, capsys):
        poly = files("p.json", (X(1, 0)).to_json_dict())
        main(["--summary", "norms", "rho", "--poly", poly, "--point", "1"])
        captured = capsys.readouterr()
        assert "exit 0" in captured.err
        json.loads(captured.out)

    def test_env_tolerance(self, files, capsys, monkeypatch):
        # a tiny negative eigenvalue passes under a loose tolerance
        monkeypatch.setenv("CONE2D_TOL", "1e-2")
        mom = files("m.json", {"n": 1, "D": 2, "moments": [
            {"exp": [0], "val": 1.0}, {"exp": [1], "val": 0.0},
            {"exp": [2], "val": -1e-4}]})
        code, rep = run(capsys, ["moments", "check", "--moments", mom])
        assert code == 0

    def test_env_tolerance_must_be_finite(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CONE2D_TOL", "inf")
        mom = files("m.json", INDEFINITE)
        code, rep = run(capsys, ["moments", "check", "--moments", mom])
        assert code == 2
        assert "CONE2D_TOL" in rep["error"]


@pytest.mark.parametrize("argv", [[]] + [[c for c in key if c] for key in COMMANDS],
                         ids=lambda argv: " ".join(argv) or "cone2d")
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert "usage: cone2d" in capsys.readouterr().out


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_readme_cli_block_matches_command_table(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("cone2d ")]

    def no_open(*args, **kwargs):
        raise AssertionError("parsing the command line opened a file")

    monkeypatch.setattr("builtins.open", no_open)
    seen = set()
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        seen.add((args.command, getattr(args, "subcommand", None)))
    assert len(lines) == len(seen) == len(COMMANDS)
    assert seen == set(COMMANDS)

import json
import re
import shlex
from pathlib import Path

import pytest
from cli_cases import CASES, FILES, InputPaths, run_case

from cone2d.cli import COMMANDS, build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.fixture
def paths(tmp_path):
    return InputPaths(tmp_path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def in_process(capsys):
    return lambda argv: (main(argv), capsys.readouterr().out)


@pytest.mark.parametrize("case", [pytest.param(c, id=c.id) for c in CASES if c.exit == 2])
def test_bad_input_exits_2_with_json_error(case, tmp_path, capsys):
    run_case(case, tmp_path, in_process(capsys))


@pytest.mark.parametrize("case", [pytest.param(c, id=c.id) for c in CASES if c.exit != 2])
def test_command_report(case, tmp_path, capsys):
    run_case(case, tmp_path, in_process(capsys))


class TestLoaders:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"n": 1, "terms": [')
        code, rep = run(capsys, ["norms", "rho", "--poly", str(p),
                                 "--point", "0"])
        assert code == 2
        assert "line" in rep["error"]


class TestReportShape:
    def test_deterministic_without_timestamp(self, paths, capsys):
        argv = ["--no-timestamp", "norms", "rho", "--poly", paths["poly"], "--point", "2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_report_fields(self, paths, capsys):
        code, rep = run(capsys, ["norms", "rho", "--poly", paths["x"], "--point", "1"])
        assert set(rep) >= {"command", "inputs", "result", "version"}
        assert "poly" in rep["inputs"]
        assert "wall_time_s" in rep

    def test_summary_goes_to_stderr(self, paths, capsys):
        main(["--summary", "norms", "rho", "--poly", paths["x"], "--point", "1"])
        captured = capsys.readouterr()
        assert "exit 0" in captured.err
        json.loads(captured.out)

    def test_env_tolerance(self, paths, capsys, monkeypatch):
        # a tiny negative eigenvalue passes under a loose tolerance
        monkeypatch.setenv("CONE2D_TOL", "1e-2")
        code, rep = run(capsys, ["moments", "check", "--moments", paths["tiny_negative"]])
        assert code == 0

    def test_env_tolerance_must_be_finite(self, paths, capsys, monkeypatch):
        monkeypatch.setenv("CONE2D_TOL", "inf")
        code, rep = run(capsys, ["moments", "check", "--moments", paths["indefinite"]])
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
    block = README.split("## CLI", 1)[1].split("```")[1]
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


def test_readme_example_is_a_row():
    block = README.split("\nExample:", 1)[1].split("```")[1].strip().splitlines()
    shown = {cat[len("$ cat "):-len(".json")]: json.loads(content)
             for cat, content in zip(block, block[1:]) if cat.startswith("$ cat ")}
    command = next(line for line in block if line.startswith("$ cone2d "))
    (case,) = [c for c in CASES if c.id == "readme-tk-example"]
    assert shown == {name: FILES[name] for name in ("f", "pts")}
    assert "$ cone2d " + re.sub(r"\{(\w+)\}", r"\1.json", case.argv) == command

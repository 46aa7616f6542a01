"""Command-line behavior: exit codes, line framing, and round trips."""

import json
import subprocess
import sys

import pytest

from galepoly.cli import main
from galepoly.jsonio import (
    config_to_json,
    plan_to_json,
    points_to_json,
    polytope_to_json,
    read_document,
    write_document,
)
from galepoly.gale import PointConfiguration
from galepoly.mani import build_block_diagram
from galepoly.polytope import crosspolytope, simplex
from galepoly.spanning import standard_minimal_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


def test_build_rejects_small_dimension(capsys):
    code, out, err = run(capsys, "build", "--dim", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("galepoly: error:")
    assert "d >= 6" in err


def test_build_full_d6_and_verify_round_trip(tmp_path, capsys):
    report_path = str(tmp_path / "d6.json")
    code, out, err = run(capsys, "build", "--dim", "6", "--out", report_path)
    assert code == 0 and err == ""
    lines = out_lines(out)
    assert lines[0] == {"d": 6, "p": 3, "q": 2, "ell": 1, "f0": 12, "M": 12}
    check_lines = lines[1:]
    assert len(check_lines) == 6
    for line in check_lines:
        assert set(line) == {"check", "verdict", "digest"}
        assert line["verdict"] is True

    report = read_document(report_path)
    assert report["kind"] == "buildReport"
    assert {line["check"]: line["digest"] for line in check_lines} == report[
        "certificateDigests"
    ]

    code, out, err = run(capsys, "verify", report_path)
    assert code == 0 and err == ""
    verify_lines = out_lines(out)
    assert verify_lines == check_lines  # byte-identical re-derivation


def test_build_certificate_d8_and_verify_round_trip(tmp_path, capsys):
    report_path = str(tmp_path / "d8.json")
    code, out, err = run(
        capsys, "build", "--dim", "8", "--mode", "certificate", "--out", report_path
    )
    assert code == 0 and err == ""
    lines = out_lines(out)
    assert lines[0] == {"d": 8, "p": 3, "q": 3, "ell": 1, "f0": 15, "M": 15}
    check_lines = lines[1:]
    assert {line["check"] for line in check_lines} == {
        "designatedAreFacets",
        "complementsCoverVertices",
        "f0MatchesFormula",
        "allPointsVertices",
        "illuminated",
        "unneighborly",
        "nonsimplicial",
        "minimal2spanningDual",
    }
    assert all(line["verdict"] for line in check_lines)

    code, out, err = run(capsys, "verify", report_path)
    assert code == 0 and err == ""
    assert out_lines(out) == check_lines


def test_build_without_out_prints_report(capsys):
    code, out, err = run(capsys, "build", "--dim", "6")
    assert code == 0
    lines = out_lines(out)
    report = lines[-1]
    assert report["kind"] == "buildReport"
    assert report["checks"] == {line["check"]: True for line in lines[1:-1]}


def test_verify_polytope_pass_and_fail(tmp_path, capsys):
    cross = str(tmp_path / "cross3.json")
    write_document(polytope_to_json(crosspolytope(3)), cross)
    code, out, err = run(
        capsys, "verify", cross, "--checks", "illuminated,unneighborly,simplicial"
    )
    assert code == 0
    assert [l["check"] for l in out_lines(out)] == [
        "illuminated",
        "unneighborly",
        "simplicial",
    ]

    spx = str(tmp_path / "simplex3.json")
    write_document(polytope_to_json(simplex(3)), spx)
    code, out, err = run(capsys, "verify", spx, "--checks", "illuminated")
    assert code == 1 and err == ""
    (line,) = out_lines(out)
    assert line["verdict"] is False
    assert line["certificate"]["check"] == "illuminated"
    assert set(line["certificate"]["uncovered"]) == set(simplex(3).vertices)


def test_verify_polytope_requires_explicit_checks(tmp_path, capsys):
    cross = str(tmp_path / "cross3.json")
    write_document(polytope_to_json(crosspolytope(3)), cross)
    code, out, err = run(capsys, "verify", cross)
    assert code == 2
    assert "galepoly: error:" in err


def test_verify_configuration_checks(tmp_path, capsys):
    cfg = str(tmp_path / "cfg22.json")
    write_document(config_to_json(standard_minimal_config(2, 2)), cfg)
    code, out, err = run(capsys, "verify", cfg, "--checks", "kspanning:2,minimal")
    assert code == 0
    lines = out_lines(out)
    assert [l["check"] for l in lines] == ["kspanning:2", "minimal"]
    assert all(l["verdict"] for l in lines)

    code, out, err = run(capsys, "verify", cfg, "--checks", "minimal")
    assert code == 2
    assert "galepoly: error:" in err

    code, out, err = run(capsys, "verify", cfg, "--checks", "kspanning:3")
    assert code == 1
    (line,) = out_lines(out)
    # least failing pair: both +e1 copies, leaving nothing in the +e1 direction
    assert line["certificate"]["witnessDeletion"] == ["+e1.1", "+e1.2"]


def test_verify_points_document_has_no_checks(tmp_path, capsys):
    pts = str(tmp_path / "sq.json")
    square = PointConfiguration.from_pairs(
        2, [("1", (1, 1)), ("2", (-1, 1)), ("3", (-1, -1)), ("4", (1, -1))]
    )
    write_document(points_to_json(square), pts)
    code, out, err = run(capsys, "verify", pts, "--checks", "illuminated")
    assert code == 2
    assert "no checks are defined" in err


def test_verify_writes_report_document(tmp_path, capsys):
    cross = str(tmp_path / "cross3.json")
    out_path = str(tmp_path / "verified.json")
    write_document(polytope_to_json(crosspolytope(3)), cross)
    code, out, err = run(
        capsys, "verify", cross, "--checks", "illuminated", "--out", out_path
    )
    assert code == 0
    doc = read_document(out_path)
    assert doc["kind"] == "verifyReport"
    assert doc["checks"] == {"illuminated": True}
    assert set(doc["certificateDigests"]) == {"illuminated"}


def test_verify_missing_file_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("galepoly: error:")


def test_table_rows_and_first_crossover(tmp_path, capsys):
    out_path = str(tmp_path / "table.json")
    code, out, err = run(capsys, "table", "--max-dim", "8", "--out", out_path)
    assert code == 0
    lines = out_lines(out)
    assert len(lines) == 9  # 8 rows plus the crossover line
    assert lines[0] == {"d": 1, "p": 1, "q": 1, "nu": 4, "M": 2}
    assert lines[7] == {"d": 8, "p": 3, "q": 3, "nu": 15, "M": 15}
    assert lines[-1] == {"firstNuBelow2d": 8}
    doc = read_document(out_path)
    assert doc["kind"] == "formulaTable"
    assert len(doc["rows"]) == 8
    assert doc["firstNuBelow2d"] == 8

    code, out, err = run(capsys, "table", "--max-dim", "3")
    assert out_lines(out)[-1] == {"firstNuBelow2d": None}


def test_export_svg_from_plan_and_report(tmp_path, capsys):
    plan_path = str(tmp_path / "plan16.json")
    write_document(plan_to_json(build_block_diagram(16, ell=3)), plan_path)
    svg_path = str(tmp_path / "d16.svg")
    code, out, err = run(capsys, "export-svg", plan_path, "--out", svg_path)
    assert code == 0 and out == ""
    with open(svg_path, "r", encoding="ascii") as fh:
        svg = fh.read()
    assert svg.startswith("<svg") and svg.count("<circle") == 8

    report_path = str(tmp_path / "d6.json")
    code, out, err = run(capsys, "build", "--dim", "6", "--out", report_path)
    assert code == 0
    code, out, err = run(capsys, "export-svg", report_path)
    assert code == 0
    assert out.startswith("<svg") and out.count("<circle") == 6


def test_export_svg_rejects_undrawable_plan(tmp_path, capsys):
    plan_path = str(tmp_path / "plan36.json")
    write_document(plan_to_json(build_block_diagram(36)), plan_path)
    code, out, err = run(capsys, "export-svg", plan_path)
    assert code == 2
    assert "not drawable" in err

    cfg = str(tmp_path / "cfg.json")
    write_document(config_to_json(standard_minimal_config(2, 2)), cfg)
    code, out, err = run(capsys, "export-svg", cfg)
    assert code == 2
    assert "needs a plan or build report" in err


def test_threads_option_is_gone(tmp_path, capsys):
    # every scan is serial: --threads is an unknown option, a usage error
    cfg = str(tmp_path / "cfg.json")
    write_document(config_to_json(standard_minimal_config(2, 2)), cfg)
    for argv in (
        ["build", "--dim", "6", "--threads", "2"],
        ["verify", cfg, "--checks", "kspanning:2", "--threads", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --threads 2" in captured.err


def test_gamma_cap_in_certificate_mode_is_a_usage_error(tmp_path, capsys):
    # no build computes gamma: --gamma-cap is an unknown option in every mode
    path = tmp_path / "d6.json"
    for mode in ("full", "certificate"):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--dim", "6", "--mode", mode, "--gamma-cap", "14", "--out", str(path)])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --gamma-cap 14" in captured.err
    assert not path.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "galepoly.cli", "table", "--max-dim", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0]) == {
        "d": 1,
        "p": 1,
        "q": 1,
        "nu": 4,
        "M": 2,
    }


def test_verify_zero_denominator_is_a_usage_error(tmp_path, capsys):
    cfg = str(tmp_path / "zero.json")
    doc = config_to_json(standard_minimal_config(2, 2))
    doc["vectors"][0]["coords"][0] = "1/0"
    write_document(doc, cfg)
    code, out, err = run(capsys, "verify", cfg, "--checks", "kspanning:2")
    assert code == 2
    assert out == ""
    assert err.startswith("galepoly: error:")
    assert "Traceback" not in err


def test_verify_malformed_report_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "d6.json")
    code, _, _ = run(capsys, "build", "--dim", "6", "--mode", "certificate", "--out", path)
    assert code == 0
    report = read_document(path)
    report["diagonalPartner"] = 5
    write_document(report, path)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith("galepoly: error:")
    assert "Traceback" not in err


def test_verify_report_with_a_forged_dual_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "d6.json")
    code, _, _ = run(capsys, "build", "--dim", "6", "--mode", "certificate", "--out", path)
    assert code == 0
    report = read_document(path)
    vector = report["dualConfiguration"]["vectors"][0]
    vector["coords"] = ["7"] * len(vector["coords"])
    write_document(report, path)
    for checks in ([], ["--checks", "kspanning:2,minimal"]):
        code, out, err = run(capsys, "verify", path, *checks)
        assert code == 2
        assert out == ""
        assert err.startswith("galepoly: error: report: 'dualConfiguration' is not the Gale dual")


def test_verify_report_with_a_non_object_plan_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "d6.json")
    code, _, _ = run(capsys, "build", "--dim", "6", "--out", path)
    assert code == 0
    report = read_document(path)
    report["plan"] = [report["plan"]]
    write_document(report, path)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith("galepoly: error: plan: must be a JSON object")
    assert "Traceback" not in err


HUGE = "1" * 5000  # past the interpreter's 4,300-digit limit on int conversion


def test_verify_huge_coordinates_are_usage_errors(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    doc = config_to_json(standard_minimal_config(2, 2))
    doc["vectors"][0]["coords"][0] = HUGE
    write_document(doc, cfg)
    report = str(tmp_path / "d6.json")
    code, _, _ = run(capsys, "build", "--dim", "6", "--mode", "certificate", "--out", report)
    assert code == 0
    doc = read_document(report)
    doc["points"]["points"][0]["coords"][0] = HUGE
    write_document(doc, report)
    for argv, where in (
        ([cfg, "--checks", "kspanning:2"], "configuration.vectors[0].coords"),
        ([report], "points.points[0].coords"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"galepoly: error: {where}: a rational has too many digits")


@pytest.mark.parametrize(
    "content",
    [
        b'{"schemaVersion": 1, "m": ' + HUGE.encode() + b', "vectors": []}',
        b"[" * 200_000,
        b"\xff\xfe{}",
    ],
    ids=["huge-integer", "deep-nesting", "utf16-bom"],
)
def test_undecodable_documents_are_usage_errors(tmp_path, capsys, content):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    for command in ("verify", "export-svg"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"galepoly: error: {path}: not valid JSON")

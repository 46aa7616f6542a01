"""Reports whose recorded stacks, base or header disagree with their contents.

Verify re-checks that a certificate report's first points realize its plan
(``mani.realizes``) and its ``stacks`` against the designated planes of those
points (``mani.stack_mismatch``), all without an LP, and every report's
header against its plan and its polytope or points, and that a fat facet
names each label once.  A mismatch is a ``SchemaError``, so the command
line exits 2; an honest report verifies with
the digests it records.  Reports carry no ``gamma``; one left in an older
report is not read.
"""

import functools
import json

import pytest

from galepoly import gale, mani
from galepoly.cli import main
from galepoly.errors import SchemaError
from galepoly.jsonio import (
    build_report,
    digest,
    dumps,
    read_document,
    rederive_report_payload,
    verify_document,
    write_document,
)
from galepoly.linalg import format_rational, parse_rational
from galepoly.mani import construct_nonsimplicial_mani, dual_spanning_report, stack_mismatch


@functools.lru_cache(maxsize=None)
def _text(mode: str, p: int) -> str:
    construction = construct_nonsimplicial_mani(6, p=p, mode=mode)
    if mode == "full":
        return dumps(build_report(construction))
    return dumps(build_report(construction, dual_spanning_report(construction)))


def _report(mode: str = "certificate", p: int = 3) -> dict:
    return json.loads(_text(mode, p))


def _rats(values) -> list:
    return [parse_rational(v) for v in values]


def _point(report: dict, label: str) -> dict:
    return next(p for p in report["points"]["points"] if p["label"] == label)


def _raised_apex(report: dict, i: int) -> None:
    # apex i at the first trial's height over its plane written as
    # (1024 normal, 1024 offset), with the point moved along
    stack = report["stacks"][i]
    facet = set(stack["facet"])
    coords = [_rats(p["coords"]) for p in report["points"]["points"] if p["label"] in facet]
    normal = [1024 * a for a in _rats(stack["normal"])]
    apex = [sum(col) / len(coords) + a for col, a in zip(zip(*coords), normal)]
    stack["apexCoords"] = _point(report, stack["apex"])["coords"] = [format_rational(v) for v in apex]
    stack["normal"] = [format_rational(a) for a in normal]
    stack["offset"] = format_rational(1024 * parse_rational(stack["offset"]))
    stack["epsilon"], stack["trials"] = "1", 1


MADE_UP = {
    "facet": ["B1.1"],
    "apex": "S1",
    "apexCoords": ["0"] * 6,
    "normal": ["1"] + ["0"] * 5,
    "offset": "0",
    "epsilon": "1",
    "trials": 1,
}


def _shift(values: list[str]) -> list[str]:
    return [format_rational(parse_rational(values[0]) + 1)] + values[1:]


# each mutation changes the report in place; ``match`` is part of the message
STACK_MUTATIONS = {
    "empty": (lambda r: r.update(stacks=[]), "lists 0 stacks"),
    "missing": (lambda r: r.pop("stacks"), "missing required key 'stacks'"),
    "not a list": (lambda r: r.update(stacks={}), "'stacks' must be a list"),
    "one made-up entry": (lambda r: r.update(stacks=[MADE_UP]), "lists 1 stacks"),
    "made-up first entry": (lambda r: r["stacks"].__setitem__(0, MADE_UP), "designated facet 0"),
    "extra entry": (lambda r: r["stacks"].append(r["stacks"][-1]), "lists 4 stacks"),
    "reversed": (lambda r: r["stacks"].reverse(), "designated facet 0"),
    "entry not an object": (lambda r: r["stacks"].__setitem__(0, 5), "must be an object"),
    "zero epsilon": (lambda r: r["stacks"][0].update(epsilon="0"), "epsilon"),
    "negative epsilon": (lambda r: r["stacks"][0].update(epsilon="-1/32"), "epsilon"),
    "wrong epsilon": (lambda r: r["stacks"][0].update(epsilon="1/16"), "epsilon"),
    "wrong trials": (lambda r: r["stacks"][0].update(trials=5), "epsilon"),
    "epsilon and trials off the placement": (
        lambda r: r["stacks"][0].update(epsilon="1/16", trials=5),
        "barycenter \\+ epsilon \\* normal",
    ),
    "apexCoords differ from the placement": (
        lambda r: r["stacks"][0].update(apexCoords=_shift(r["stacks"][0]["apexCoords"])),
        "barycenter \\+ epsilon \\* normal",
    ),
    "apexCoords differ from the point": (
        lambda r: _point(r, "S1").update(coords=_shift(_point(r, "S1")["coords"])),
        "differs from point S1",
    ),
    "negated plane": (
        lambda r: r["stacks"][0].update(
            normal=[format_rational(-parse_rational(v)) for v in r["stacks"][0]["normal"]],
            offset=format_rational(-parse_rational(r["stacks"][0]["offset"])),
        ),
        "does not support its facet",
    ),
    "wrong facet": (
        lambda r: r["stacks"][0].update(facet=r["stacks"][1]["facet"]),
        "designated facet 0",
    ),
    "normal of the wrong length": (
        lambda r: r["stacks"][1].update(normal=r["stacks"][1]["normal"][:-1]),
        "length d = 6",
    ),
    "points relabelled": (
        lambda r: _point(r, "S1").update(label="S9"),
        "followed by the apexes",
    ),
}


@pytest.mark.parametrize("name", sorted(STACK_MUTATIONS))
@pytest.mark.parametrize("checks", [None, ["illuminated"], ["kspanning:2"]])
def test_forged_stacks_are_schema_errors(name, checks):
    mutate, match = STACK_MUTATIONS[name]
    report = _report()
    mutate(report)
    with pytest.raises(SchemaError, match=match):
        verify_document(report, checks)


def test_apex_beyond_another_plane_is_a_schema_error():
    # at p = 4 the normals of stacks 1 and 2 have a positive dot product,
    # so apex S2 raised far along its normal pokes through stack 2's plane
    # (at p = 3 no two normals do)
    report = _report(p=4)
    _raised_apex(report, 1)
    with pytest.raises(SchemaError, match="stack 1's apex is not beneath every other stack's plane"):
        verify_document(report, ["illuminated"])


def test_honest_stacks_verify_and_a_rescaled_plane_is_the_same_placement():
    report = _report()
    payloads = verify_document(report, None)
    assert {p["check"]: digest(p) for p in payloads} == report["certificateDigests"]
    assert all(p["verdict"] for p in payloads)
    construction = construct_nonsimplicial_mani(6, mode="certificate")
    assert stack_mismatch(
        construction.plan, construction.points, construction.stacks, construction.designated_planes
    ) is None
    # the same hyperplane written as (2 normal, 2 offset) with the apex unmoved
    stack = report["stacks"][0]
    stack["normal"] = [format_rational(2 * parse_rational(v)) for v in stack["normal"]]
    stack["offset"] = format_rational(2 * parse_rational(stack["offset"]))
    stack["epsilon"], stack["trials"] = "1/64", stack["trials"] + 1
    assert verify_document(report, None) == payloads


HEADER_MUTATIONS = {
    "f0": 99,
    "M": 3,
    "isManiSize": False,
    "d": 40,
    "p": 4,
    "q": 3,
    "ell": 7,
}


@pytest.mark.parametrize("mode", ["full", "certificate"])
@pytest.mark.parametrize("key", sorted(HEADER_MUTATIONS))
def test_header_that_disagrees_with_the_contents_is_a_schema_error(mode, key):
    report = _report(mode)
    report[key] = HEADER_MUTATIONS[key]
    with pytest.raises(SchemaError, match=f"'{key}' is"):
        verify_document(report, None)


@pytest.mark.parametrize("mode", ["full", "certificate"])
@pytest.mark.parametrize(
    "key,value", [("f0", 12.0), ("isManiSize", 1), ("ell", True)]
)
def test_header_values_of_the_wrong_type_are_schema_errors(mode, key, value):
    report = _report(mode)
    assert report[key] == value
    report[key] = value
    with pytest.raises(SchemaError, match=f"'{key}' is"):
        verify_document(report, ["illuminated"])


@pytest.mark.parametrize("mode", ["full", "certificate"])
def test_missing_header_key_is_a_schema_error(mode):
    report = _report(mode)
    del report["M"]
    with pytest.raises(SchemaError, match="missing required key 'M'"):
        verify_document(report, None)


def _cli_report(tmp_path, capsys, mutate) -> tuple[int, str, str]:
    path = str(tmp_path / "d6.json")
    assert main(["build", "--dim", "6", "--mode", "certificate", "--out", path]) == 0
    capsys.readouterr()
    report = read_document(path)
    mutate(report)
    write_document(report, path)
    code = main(["verify", path])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_rejects_forged_stacks(tmp_path, capsys):
    code, out, err = _cli_report(tmp_path, capsys, lambda r: r.update(stacks=[MADE_UP]))
    assert (code, out) == (2, "")
    assert err.startswith("galepoly: error: report: 'stacks' lists 1 stacks")


def test_cli_rejects_a_forged_header(tmp_path, capsys):
    forged = {"f0": 99, "M": 3, "isManiSize": False, "d": 40, "ell": 7}
    code, out, err = _cli_report(tmp_path, capsys, lambda r: r.update(forged))
    assert (code, out) == (2, "")
    assert err.startswith("galepoly: error: report: 'd' is 40, but its contents give 6")


# a simplex facet of the d = 6, p = 3 build: d labels on a supporting
# plane, so no fat facet; repeating a label made it look like d + 1
SIMPLEX_FACET = ["T1.1", "T1.2", "C.0", "C.1", "C.2", "S1"]


def test_a_fat_facet_that_repeats_a_label_is_a_schema_error():
    report = _report()
    report["fatFacet"] = SIMPLEX_FACET
    payload = rederive_report_payload(report, "nonsimplicial")
    assert payload["verdict"] is False and "normal" in payload
    report["fatFacet"] = SIMPLEX_FACET + ["T1.1"]
    with pytest.raises(SchemaError, match="'fatFacet' repeats a label"):
        verify_document(report, None)


def test_cli_rejects_a_fat_facet_that_repeats_a_label(tmp_path, capsys):
    code, out, err = _cli_report(tmp_path, capsys, lambda r: r.update(fatFacet=SIMPLEX_FACET + ["T1.1"]))
    assert (code, out) == (2, "")
    assert err.startswith("galepoly: error: report: 'fatFacet' repeats a label")


def _translated(report: dict, shift) -> None:
    # every point and apex moved by ``shift``, each stack's offset with them
    def moved(coords):
        return [format_rational(parse_rational(v) + a) for v, a in zip(coords, shift)]

    for point in report["points"]["points"]:
        point["coords"] = moved(point["coords"])
    for stack in report["stacks"]:
        stack["apexCoords"] = moved(stack["apexCoords"])
        lift = sum(parse_rational(a) * b for a, b in zip(stack["normal"], shift))
        stack["offset"] = format_rational(parse_rational(stack["offset"]) + lift)


def test_designated_planes_come_from_the_reports_own_points():
    # an affine image of the base still realizes the plan, so a translated
    # report verifies, but its designated planes are those of its points
    report = _report()
    _translated(report, [1, 0, 0, 0, 0, 0])
    payload = rederive_report_payload(report, "designatedAreFacets")
    assert payload["verdict"]
    assert digest(payload) != report["certificateDigests"]["designatedAreFacets"]
    coords = {p["label"]: _rats(p["coords"]) for p in report["points"]["points"]}
    for entry in payload["designated"]:
        normal, offset = _rats(entry["normal"]), parse_rational(entry["offset"])
        comp = set(entry["complement"])
        for label in report["plan"]["configuration"]["vectors"]:
            value = sum(a * b for a, b in zip(normal, coords[label["label"]]))
            assert (value == offset) == (label["label"] not in comp)
            assert value <= offset


@pytest.mark.parametrize("checks", [None, ["illuminated"], ["kspanning:2"]])
def test_a_moved_base_point_does_not_realize_the_plan(checks):
    report = _report()
    point = _point(report, "T1.0")
    point["coords"] = [format_rational(parse_rational(point["coords"][0]) + parse_rational("1/7"))] + point["coords"][1:]
    with pytest.raises(SchemaError, match="do not realize the plan"):
        verify_document(report, checks)


def test_a_relabelled_base_point_does_not_realize_the_plan():
    report = _report()
    _point(report, "C.0").update(label="C.9")
    with pytest.raises(SchemaError, match="do not realize the plan"):
        verify_document(report, None)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_certificate_verify_runs_no_realization(monkeypatch, p):
    report = _report(p=p)

    def refuse(config):
        raise AssertionError("verify realized the plan")

    monkeypatch.setattr(gale, "realize", refuse)
    monkeypatch.setattr(mani, "realize", refuse)
    payloads = verify_document(report, None)
    assert {q["check"]: digest(q) for q in payloads} == report["certificateDigests"]


def test_honest_gamma_verifies():
    # an older full report's gamma, honest or understated, is an unread key
    report = _report("full")
    assert "gamma" not in report
    payloads = verify_document(report, None)
    assert {q["check"]: digest(q) for q in payloads} == report["certificateDigests"]
    for gamma in (
        {"value": 3, "vertex": "S1", "witness": ["B1.0", "B1.1", "B1.2"]},
        {"value": 0, "vertex": None, "witness": []},
    ):
        report["gamma"] = gamma
        assert verify_document(report, None) == payloads

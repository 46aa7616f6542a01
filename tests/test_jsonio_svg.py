"""JSON schemas, certificate payloads, digests, and SVG rendering."""

import json

import pytest

from galepoly.errors import BadParametersError, SchemaError
from galepoly.gale import PointConfiguration, gale_dual
from galepoly.jsonio import (
    CHECK_ORDER,
    SCHEMA_VERSION,
    build_report,
    canonical_bytes,
    certificate_to_json,
    config_from_json,
    config_to_json,
    detect_schema,
    digest,
    dumps,
    payload_illuminated,
    payload_kspanning,
    payload_minimal,
    payload_nonsimplicial,
    payload_simplicial,
    payload_unneighborly,
    plan_from_json,
    plan_to_json,
    points_from_json,
    points_to_json,
    polytope_from_json,
    polytope_to_json,
    read_document,
    rederive_report_payload,
    verify_configuration,
    verify_document,
    verify_polytope,
    verify_report,
    write_document,
)
from galepoly.linalg import QQ, dot, parse_rational
from galepoly.lp import strict_positive_dependence
from galepoly.mani import build_block_diagram, construct_nonsimplicial_mani, dual_spanning_report
from galepoly.polytope import crosspolytope, simplex
from galepoly.spanning import VectorConfiguration, standard_minimal_config
from galepoly.svg import affine_clusters, choose_functional, svg_from_plan

SQUARE_POINTS = PointConfiguration.from_pairs(
    2, [("1", (1, 1)), ("2", (-1, 1)), ("3", (-1, -1)), ("4", (1, -1))]
)


def test_canonical_bytes_are_key_order_independent():
    a = {"b": 1, "a": [1, 2, {"y": "x"}]}
    b = {"a": [1, 2, {"y": "x"}], "b": 1}
    assert canonical_bytes(a) == canonical_bytes(b)
    assert digest(a) == digest(b)
    assert len(digest(a)) == 64
    assert int(digest(a), 16) >= 0
    assert "\n" not in dumps(a)
    assert json.loads(dumps(a)) == a


def test_digest_value_is_frozen():
    # frozen so any change to the canonical encoding is caught deliberately
    assert canonical_bytes({"check": "demo", "verdict": True}) == (
        b'{"check":"demo","verdict":true}'
    )
    assert digest({"check": "demo", "verdict": True}) == (
        "2135132e058cf077a7e353cfc86aac9fa90d57b417253d592b141cf644f71457"
    )


def test_configuration_json_round_trip():
    c = standard_minimal_config(2, 2)
    doc = config_to_json(c)
    assert doc["schemaVersion"] == SCHEMA_VERSION
    assert doc["m"] == 2
    assert doc["vectors"][0] == {"label": "+e1.1", "coords": ["1", "0"]}
    back = config_from_json(doc)
    assert back == c
    # rationals survive exactly
    half = config_from_json(
        {"m": 1, "vectors": [{"label": "h", "coords": ["-3/7"]}]}
    )
    assert half.coords[0][0] == QQ(-3, 7)


def test_configuration_json_validation():
    with pytest.raises(SchemaError):
        config_from_json({"m": 1})
    with pytest.raises(SchemaError):
        config_from_json({"m": 1, "vectors": [{"coords": ["1"]}]})
    with pytest.raises(SchemaError):
        config_from_json(
            {"m": 1, "vectors": [{"label": "a", "coords": ["abc"]}]}
        )
    with pytest.raises(SchemaError):
        config_from_json(
            {"schemaVersion": 99, "m": 1, "vectors": [{"label": "a", "coords": ["1"]}]}
        )


def test_points_json_round_trip():
    doc = points_to_json(SQUARE_POINTS)
    assert doc["d"] == 2
    back = points_from_json(doc)
    assert back == SQUARE_POINTS


def test_a_configuration_either_round_trips_or_is_refused_for_its_labels():
    # labels are a tuple of strings: list labels made an unhashable
    # configuration that geometric_stack_point could not extend, and int
    # labels wrote documents that the readers refuse
    one, minus = (QQ(1), QQ(0)), (QQ(-1), QQ(0))
    for make in (
        lambda: VectorConfiguration(m=2, labels=["a", "b"], coords=(one, minus)),
        lambda: VectorConfiguration(m=2, labels=(1, 2), coords=(one, minus)),
        lambda: PointConfiguration(d=2, labels=["a", "b"], coords=(one, minus)),
        lambda: PointConfiguration(d=2, labels=("a", 2), coords=(one, minus)),
        lambda: PointConfiguration(d=2, labels=None, coords=(one, minus)),
    ):
        with pytest.raises(BadParametersError, match="labels must be a tuple of strings"):
            make()
    config = VectorConfiguration(m=2, labels=("a", "b"), coords=(one, minus))
    assert config_from_json(json.loads(dumps(config_to_json(config)))) == config
    assert points_from_json(json.loads(dumps(points_to_json(SQUARE_POINTS)))) == SQUARE_POINTS
    assert hash(config) == hash(VectorConfiguration.from_pairs(2, [("a", one), ("b", minus)]))


def test_polytope_json_round_trip():
    poly = crosspolytope(3)
    doc = polytope_to_json(poly)
    assert doc["d"] == 3
    assert len(doc["facets"]) == 8
    back = polytope_from_json(doc)
    assert back == poly


def test_plan_json_round_trip():
    plan = build_block_diagram(8, ell=2)
    doc = plan_to_json(plan)
    back = plan_from_json(doc)
    assert back.d == plan.d and back.p == plan.p
    assert back.q == plan.q and back.ell == plan.ell
    assert back.config == plan.config
    assert back.designated == plan.designated


def test_certificate_serialization_keeps_only_populated_field():
    cert = strict_positive_dependence(
        [(QQ(1), QQ(0)), (QQ(0), QQ(1)), (QQ(-1), QQ(-1))], None
    )
    doc = certificate_to_json(cert)
    assert doc == {"kind": "PositiveDependence", "lambda": ["1", "1", "1"]}
    cert = strict_positive_dependence([(QQ(1), QQ(0)), (QQ(0), QQ(1))], None)
    doc = certificate_to_json(cert)
    assert doc["kind"] == "StiemkeWitness"
    assert set(doc) == {"kind", "functional"}


def test_schema_detection():
    assert detect_schema(config_to_json(standard_minimal_config(2, 1))) == "configuration"
    assert detect_schema(points_to_json(SQUARE_POINTS)) == "points"
    assert detect_schema(polytope_to_json(simplex(3))) == "polytope"
    assert detect_schema(plan_to_json(build_block_diagram(6))) == "plan"
    report = build_report(construct_nonsimplicial_mani(6))
    assert detect_schema(report) == "report"


def test_schema_detection_rejects_junk_and_ambiguity():
    with pytest.raises(SchemaError):
        detect_schema([1, 2, 3])
    with pytest.raises(SchemaError):
        detect_schema({"what": "ever"})
    ambiguous = {
        "m": 1,
        "vectors": [{"label": "a", "coords": ["1"]}],
        "d": 1,
        "points": [],
    }
    with pytest.raises(SchemaError):
        detect_schema(ambiguous)


def test_read_write_document(tmp_path):
    path = str(tmp_path / "doc.json")
    doc = config_to_json(standard_minimal_config(2, 1))
    write_document(doc, path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert read_document(path) == doc
    bad = str(tmp_path / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("{nope")
    with pytest.raises(SchemaError):
        read_document(bad)


def test_polytope_check_payloads():
    c3 = crosspolytope(3)
    lit = payload_illuminated(c3)
    assert lit["verdict"] and lit["uncovered"] == []
    assert ["+1", "-1"] in lit["partners"]
    unn = payload_unneighborly(c3)
    assert unn["verdict"] and unn["connectedToAll"] == []
    simp = payload_simplicial(c3)
    assert simp["verdict"] and simp["fatFacets"] == []
    non = payload_nonsimplicial(c3)
    assert not non["verdict"] and non["fatFacet"] is None
    s3 = simplex(3)
    assert not payload_illuminated(s3)["verdict"]
    assert payload_illuminated(s3)["uncovered"] == list(s3.vertices)


def test_configuration_check_payloads():
    c = standard_minimal_config(2, 2)
    span = payload_kspanning(c, 2)
    assert span["check"] == "kspanning:2"
    assert span["verdict"] and span["n"] == 8 and span["m"] == 2
    assert "certificate" not in span and "witnessDeletion" not in span
    fail = payload_kspanning(standard_minimal_config(2, 1), 2)
    assert not fail["verdict"]
    assert fail["witnessDeletion"] == ["+e1.1"]
    assert fail["certificate"]["kind"] in ("StiemkeWitness", "RankDeficiency")
    minimal = payload_minimal(c, 2)
    assert minimal["verdict"]
    assert minimal["removableIndex"] is None
    assert len(minimal["perIndex"]) == 8


def test_verify_configuration_vocabulary():
    c = config_to_json(standard_minimal_config(2, 2))
    payloads = verify_configuration(config_from_json(c), ["kspanning:2", "minimal"])
    assert [p["check"] for p in payloads] == ["kspanning:2", "minimal"]
    assert all(p["verdict"] for p in payloads)
    with pytest.raises(BadParametersError):
        verify_configuration(config_from_json(c), ["minimal"])
    with pytest.raises(BadParametersError):
        verify_configuration(config_from_json(c), ["kspanning:0"])
    with pytest.raises(BadParametersError):
        verify_configuration(config_from_json(c), ["illuminated"])
    with pytest.raises(BadParametersError):
        verify_configuration(config_from_json(c), ["nonsense"])
    with pytest.raises(BadParametersError):
        verify_configuration(config_from_json(c), [])


def test_verify_polytope_vocabulary():
    poly = crosspolytope(3)
    payloads = verify_polytope(poly, ["illuminated", "unneighborly", "simplicial"])
    assert all(p["verdict"] for p in payloads)
    with pytest.raises(BadParametersError):
        verify_polytope(poly, ["kspanning:2"])


def test_build_report_full_mode_shape_and_digests():
    result = construct_nonsimplicial_mani(6)
    report = build_report(result)
    assert report["kind"] == "buildReport"
    assert report["mode"] == "full"
    assert (report["d"], report["p"], report["q"], report["ell"]) == (6, 3, 2, 1)
    assert report["f0"] == 12 and report["M"] == 12
    assert report["isManiSize"] is True
    assert set(report["checks"]) == {
        "designatedAreFacets",
        "complementsCoverVertices",
        "illuminated",
        "unneighborly",
        "nonsimplicial",
        "f0MatchesFormula",
    }
    assert all(report["checks"].values())
    names = [c["check"] for c in report["certificates"]]
    order = {n: i for i, n in enumerate(CHECK_ORDER)}
    assert names == sorted(names, key=lambda n: order[n])
    for cert in report["certificates"]:
        assert report["certificateDigests"][cert["check"]] == digest(cert)
    assert detect_schema(report["plan"]) == "plan"
    assert detect_schema(report["polytope"]) == "polytope"
    assert detect_schema(report["basePolytope"]) == "polytope"


def test_full_report_round_trip_digests_match():
    report = build_report(construct_nonsimplicial_mani(6))
    rerun = verify_report(report, None)
    assert len(rerun) == len(report["certificates"])
    for payload in rerun:
        assert payload["verdict"]
        assert digest(payload) == report["certificateDigests"][payload["check"]]


def test_report_simplicial_check_inverts_nonsimplicial():
    report = build_report(construct_nonsimplicial_mani(6))
    payloads = verify_report(report, ["simplicial"])
    assert len(payloads) == 1
    assert payloads[0]["check"] == "simplicial"
    assert payloads[0]["verdict"] is False
    with pytest.raises(BadParametersError):
        verify_report(report, ["nonsense"])
    with pytest.raises(BadParametersError):
        rederive_report_payload(report, "allPointsVertices")


def test_verify_document_dispatch(tmp_path):
    cfg = config_to_json(standard_minimal_config(2, 2))
    payloads = verify_document(cfg, ["kspanning:2"])
    assert payloads[0]["verdict"]
    with pytest.raises(BadParametersError):
        verify_document(cfg, None)
    poly = polytope_to_json(crosspolytope(3))
    with pytest.raises(BadParametersError):
        verify_document(poly, None)
    with pytest.raises(BadParametersError):
        verify_document(points_to_json(SQUARE_POINTS), ["illuminated"])
    with pytest.raises(BadParametersError):
        verify_document(plan_to_json(build_block_diagram(6)), None)


def test_certificate_report_round_trip_digests_match():
    result = construct_nonsimplicial_mani(6, mode="certificate")
    report = build_report(result)
    assert report["mode"] == "certificate"
    assert set(report["checks"]) == {
        "designatedAreFacets",
        "complementsCoverVertices",
        "illuminated",
        "unneighborly",
        "nonsimplicial",
        "f0MatchesFormula",
        "allPointsVertices",
    }
    assert len(report["stacks"]) == 3
    assert report["stacks"][0]["epsilon"] == "1/32"
    assert detect_schema(report["points"]) == "points"
    rerun = verify_report(report, None)
    for payload in rerun:
        assert payload["verdict"]
        assert digest(payload) == report["certificateDigests"][payload["check"]]


def test_certificate_report_reuses_the_construction_planes(monkeypatch):
    import galepoly.jsonio as jsonio
    import galepoly.mani as mani

    result = construct_nonsimplicial_mani(6, mode="certificate")
    assert len(result.designated_planes) == result.plan.q + 1
    calls = []
    real = jsonio.supporting_hyperplane
    # verify's designated planes come from mani.designated_planes, the build's own step
    for module in (jsonio, mani):
        monkeypatch.setattr(
            module, "supporting_hyperplane", lambda *a: calls.append(a) or real(*a)
        )
    report = build_report(result)
    assert calls == []
    # verify computes them from the report: q + 1 designated, one fat facet
    for payload in verify_report(report, None):
        assert digest(payload) == report["certificateDigests"][payload["check"]]
    assert len(calls) == result.plan.q + 2


def test_report_minimal_check_takes_k_from_its_kspanning_check():
    result = construct_nonsimplicial_mani(6, mode="certificate")
    report = build_report(result, dual_spanning_report(result, k=2))
    default = verify_report(report, ["minimal"])
    assert default[0]["k"] == 2 and default[0]["verdict"]
    span, minimal = verify_report(report, ["kspanning:3", "minimal"])
    assert span["k"] == 3 and minimal["k"] == 3
    # a minimal 2-spanning configuration is not 3-spanning
    assert not span["verdict"] and not minimal["kSpanning"]
    with pytest.raises(BadParametersError):
        verify_report(report, ["kspanning:2", "kspanning:3", "minimal"])
    assert len(verify_report(report, ["kspanning:2", "kspanning:3"])) == 2


def test_embedded_dual_must_be_the_gale_dual_of_the_points():
    result = construct_nonsimplicial_mani(6, mode="certificate")
    report = json.loads(dumps(build_report(result, dual_spanning_report(result, k=2))))
    embedded = config_from_json(report["dualConfiguration"])
    assert embedded == gale_dual(points_from_json(report["points"]))
    # the scans certify the Gale dual of the points, so an embedded dual
    # that is not it is rejected on the default path and on kspanning/minimal
    vector = report["dualConfiguration"]["vectors"][0]
    vector["coords"] = ["7"] * len(vector["coords"])
    for checks in (None, ["kspanning:2"], ["minimal"], ["kspanning:2", "minimal"]):
        with pytest.raises(SchemaError, match="not the Gale dual"):
            verify_document(report, checks)
    with pytest.raises(SchemaError, match="not the Gale dual"):
        rederive_report_payload(report, "minimal2spanningDual")


def test_choose_functional_avoids_all_vectors():
    plan = build_block_diagram(6)
    c = choose_functional(plan.config.coords)
    assert all(dot(c, v) != 0 for v in plan.config.coords)


def test_affine_clusters_of_d6_plan():
    plan = build_block_diagram(6)
    clusters = affine_clusters(plan.config)
    assert len(clusters) == 3
    for _chart, (blacks, whites) in clusters:
        assert len(blacks) + len(whites) == 3
        assert blacks and whites  # every image mixes both signs
    assert sorted(len(blacks) for _, (blacks, _) in clusters) == [1, 1, 2]


def test_svg_for_d6_plan_is_one_dimensional_chart():
    svg = svg_from_plan(build_block_diagram(6))
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 6
    assert 'x2' in svg  # doubled negative block collapses with multiplicity
    assert "d=6" in svg and "p=3" in svg


def test_svg_for_d16_plan_is_two_dimensional_chart():
    svg = svg_from_plan(build_block_diagram(16, ell=3))
    assert svg.count("<circle") == 8
    assert "d=16" in svg


def test_svg_rejects_undrawable_dimensions():
    with pytest.raises(BadParametersError):
        svg_from_plan(build_block_diagram(36))


def test_dual_configuration_of_square_passes_kspanning_two():
    dual = gale_dual(SQUARE_POINTS)
    payload = payload_kspanning(dual, 2)
    assert payload["verdict"]


def _config_doc(coords, m=1):
    return {"schemaVersion": 1, "m": m, "vectors": [{"label": "a", "coords": coords}]}


def test_zero_denominator_is_a_schema_error():
    with pytest.raises(SchemaError, match="denominator zero"):
        config_from_json(_config_doc(["1/0"]))
    with pytest.raises(SchemaError):
        verify_document(_config_doc(["1/0"]), ["kspanning:2"])
    points = points_to_json(SQUARE_POINTS)
    points["points"][0]["coords"][1] = "-3/0"
    with pytest.raises(SchemaError):
        points_from_json(points)


def test_document_rationals_use_the_strict_grammar():
    for bad in ("1e3", "0.5", " 1", "1/-2", "+1", "1/2/3", "", "١"):
        with pytest.raises(SchemaError):
            config_from_json(_config_doc([bad]))
    for bad in (1, 0.5, None, ["1"]):
        with pytest.raises(SchemaError):
            config_from_json(_config_doc([bad]))
    good = config_from_json(_config_doc(["-12/8"]))
    assert good.coords == ((QQ(-3, 2),),)
    # the public parser keeps accepting every Fraction literal
    assert parse_rational("1e3") == QQ(1000)
    assert parse_rational("0.5") == QQ(1, 2)


def test_booleans_are_not_integers():
    with pytest.raises(SchemaError):
        config_from_json(_config_doc(["1"], m=True))
    with pytest.raises(SchemaError):
        verify_document(_config_doc(["1"], m=True), ["kspanning:1"])
    doc = config_to_json(standard_minimal_config(2, 1))
    doc["schemaVersion"] = True
    with pytest.raises(SchemaError):
        config_from_json(doc)
    points = points_to_json(SQUARE_POINTS)
    points["d"] = 2.0
    with pytest.raises(SchemaError):
        points_from_json(points)
    poly = polytope_to_json(simplex(3))
    poly["d"] = True
    with pytest.raises(SchemaError):
        polytope_from_json(poly)
    for key in ("d", "p", "q", "ell"):
        plan = plan_to_json(build_block_diagram(6))
        plan[key] = True
        with pytest.raises(SchemaError):
            plan_from_json(plan)


def test_emitted_documents_round_trip_byte_for_byte():
    plan = build_block_diagram(8, ell=2)
    report = build_report(construct_nonsimplicial_mani(6))
    cases = [
        (config_to_json(standard_minimal_config(3, 2)), config_from_json, config_to_json),
        (points_to_json(SQUARE_POINTS), points_from_json, points_to_json),
        (polytope_to_json(crosspolytope(3)), polytope_from_json, polytope_to_json),
        (plan_to_json(plan), plan_from_json, plan_to_json),
        (report["plan"], plan_from_json, plan_to_json),
        (report["basePolytope"], polytope_from_json, polytope_to_json),
    ]
    for doc, parse, emit in cases:
        text = canonical_bytes(doc)
        assert canonical_bytes(emit(parse(json.loads(text)))) == text
    again = json.loads(canonical_bytes(report))
    assert [digest(p) for p in verify_document(again, None)] == list(
        report["certificateDigests"].values()
    )


def _certificate_report_d6() -> dict:
    construction = construct_nonsimplicial_mani(6, mode="certificate")
    return json.loads(dumps(build_report(construction)))


def test_non_list_diagonal_partner_is_a_schema_error():
    report = _certificate_report_d6()
    report["diagonalPartner"] = 5
    with pytest.raises(SchemaError):
        verify_document(report, None)


def test_non_list_fat_facet_is_a_schema_error():
    report = _certificate_report_d6()
    for bad in (5, [["B1.1"]]):
        report["fatFacet"] = bad
        with pytest.raises(SchemaError):
            verify_document(report, None)


def test_checks_that_are_not_an_object_are_a_schema_error():
    report = _certificate_report_d6()
    report["checks"] = list(report["checks"])
    with pytest.raises(SchemaError):
        verify_document(report, None)


def test_plan_inconsistent_with_its_configuration_is_a_schema_error():
    report = _certificate_report_d6()
    report["plan"]["d"] = 7
    with pytest.raises(SchemaError):
        verify_document(report, None)
    plan = plan_to_json(build_block_diagram(6))
    for key, value in (("q", 3), ("ell", 0), ("p", 4)):
        bad = json.loads(dumps(plan))
        bad[key] = value
        with pytest.raises(SchemaError):
            plan_from_json(bad)
    bad = json.loads(dumps(plan))
    bad["designated"][0]["complement"] = "abc"
    with pytest.raises(SchemaError):
        plan_from_json(bad)
    bad["designated"][0]["complement"] = ["B1.0", "nowhere"]
    with pytest.raises(SchemaError):
        plan_from_json(bad)


def test_non_string_point_label_is_a_schema_error():
    report = _certificate_report_d6()
    report["points"]["points"][0]["label"] = ["B1.0"]
    with pytest.raises(SchemaError):
        verify_document(report, None)


def test_polytope_facet_entries_must_be_labels():
    doc = polytope_to_json(crosspolytope(2))
    for bad in ([["+1"]], 1, {}):
        doc["facets"][0] = ["+2", bad]
        with pytest.raises(SchemaError):
            verify_document(doc, ["illuminated"])


def test_non_string_vector_label_is_a_schema_error():
    doc = config_to_json(standard_minimal_config(2, 2))
    for bad in (5, ["+e1.1"], None):
        doc["vectors"][0]["label"] = bad
        with pytest.raises(SchemaError, match=r"vectors\[0\]\.label"):
            verify_document(doc, ["kspanning:2"])


def _full_report_d6() -> dict:
    return json.loads(dumps(build_report(construct_nonsimplicial_mani(6))))


def _set_embedded(report: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        report = report[key]
    report[path[-1]] = value


@pytest.mark.parametrize(
    "mode, path, checks",
    [
        ("full", ("plan",), None),
        ("full", ("polytope",), None),
        ("full", ("basePolytope",), None),
        ("full", ("plan", "configuration"), None),
        ("certificate", ("points",), None),
        ("certificate", ("dualConfiguration",), ["kspanning:2"]),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, (tuple, list)) else None,
)
def test_embedded_document_that_is_not_an_object_is_a_schema_error(mode, path, checks):
    for bad in ([], ["x"], "doc", 5, True):
        report = _full_report_d6() if mode == "full" else _certificate_report_d6()
        _set_embedded(report, path, bad)
        with pytest.raises(SchemaError, match="must be a JSON object"):
            verify_document(report, checks)


def test_leaf_document_that_is_not_an_object_is_a_schema_error():
    for parse in (config_from_json, points_from_json, polytope_from_json, plan_from_json):
        with pytest.raises(SchemaError):
            parse([1, 2])


def test_designated_name_must_be_a_string():
    plan = plan_to_json(build_block_diagram(6))
    for bad in ([1], 1, None, {"B1": 1}):
        plan["designated"][0]["name"] = bad
        with pytest.raises(SchemaError, match=r"designated\[0\]\.name"):
            plan_from_json(plan)
    report = _certificate_report_d6()
    report["plan"]["designated"][0]["name"] = [1]
    with pytest.raises(SchemaError):
        verify_document(report, None)


def test_report_polytope_or_points_must_decode_for_every_check():
    # a report is accepted only when its plan and its polytope or points
    # decode, even when no recorded check reads them
    for report, key in ((_full_report_d6(), "polytope"), (_certificate_report_d6(), "points")):
        report["checks"] = {"complementsCoverVertices": True}
        assert verify_document(report, None)[0]["verdict"] is True
        report[key] = {"schemaVersion": 1}
        with pytest.raises(SchemaError):
            verify_document(report, None)


def test_certificate_reports_reuse_their_lp_flags(monkeypatch):
    from galepoly import lp

    construction = construct_nonsimplicial_mani(6, mode="certificate")
    calls = []
    solve = lp.solve_feasibility
    monkeypatch.setattr(lp, "solve_feasibility", lambda *a: calls.append(a) or solve(*a))
    # the construction's flags and realized base back the report: no LP
    report = json.loads(dumps(build_report(construction)))
    assert calls == []
    # illuminated and unneighborly share one midpoint LP per pair
    verify_document(report, ["illuminated", "unneighborly"])
    assert len(calls) == len(report["diagonalPartner"]) == 12
    # with a vertex left unpaired the midpoints are not worth testing
    calls.clear()
    report["diagonalPartner"].pop()
    payloads = verify_document(report, ["illuminated", "unneighborly"])
    assert calls == [] and [p["unpaired"] for p in payloads] == [["S3"], ["S3"]]

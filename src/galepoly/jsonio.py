"""JSON schemas, canonical encoding, digests, and check certificates.

Every document carries ``schemaVersion: 1`` and serializes rationals as
exact ``num/den`` strings.  Certificate digests are SHA-256 over the
canonical compact encoding (sorted keys, no whitespace), so a build report
and an independent re-verification of the same object produce identical
digests.  For exactly that reason one table, ``CHECKS``, maps each check
name to its payload builder for both: ``build`` feeds the builders the
construction's objects, ``verify`` the report's embedded ones, each decoded
once per report.  What a builder reads that a report does not embed (the
designated planes, the vertex and midpoint LP flags, the dual's scans and
minimality witnesses), verify obtains from the same ``mani`` steps the
certificate-mode build runs, on the report's own points and without the
build's kept proofs; this module only decodes, rejects hostile input,
builds payloads and caches objects.  So verify reads no recorded
``perIndex``: it derives the witnesses from its own midpoint certificates.
The one proof it takes from a report is each apex's stack plane, offered
as that apex's vertex functional once ``stacks`` are checked, and
re-checked like any kept functional.
Verify also rejects a certificate report whose first points do not
realize its plan (``mani.realizes``) or whose ``stacks`` do not place its
apexes on the designated planes (``mani.stack_mismatch``), and any report
whose header disagrees with its plan and its polytope or points.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BadParametersError, DimensionMismatchError, SchemaError
from .gale import PointConfiguration, gale_dual, supporting_hyperplane
from .linalg import LabelledRows, format_rational, parse_rational
from .lp import DependenceCertificate
from .mani import (
    BlockDiagramPlan,
    CounterexampleReport,
    ManiConstruction,
    StackCertificate,
    designated_planes,
    dual_spanning_report,
    formulas,
    midpoint_flags,
    realizes,
    stack_mismatch,
    vertex_proofs,
)
from .polytope import IncidencePolytope, illumination_report
from .spanning import (
    VectorConfiguration,
    is_minimal_k_spanning,
    is_positively_k_spanning,
)

SCHEMA_VERSION = 1

# every build report lists its certificates in this order
CHECK_ORDER = (
    "designatedAreFacets",
    "complementsCoverVertices",
    "f0MatchesFormula",
    "allPointsVertices",
    "illuminated",
    "unneighborly",
    "nonsimplicial",
    "simplicial",
    "minimal2spanningDual",
)


# ---------------------------------------------------------------------------
# Canonical encoding and digests


def canonical_bytes(doc) -> bytes:
    """Compact, key-sorted, ASCII encoding; the digest input."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def digest(doc) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def dumps(doc) -> str:
    """One-line canonical rendering used for all stdout documents."""
    return canonical_bytes(doc).decode("ascii")


def write_document(doc, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1))
        fh.write("\n")


def read_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        # ValueError covers invalid JSON, bytes that are not UTF-8 and an
        # integer past the interpreter's digit limit; RecursionError covers
        # nesting deeper than the decoder's stack
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    return doc


# ---------------------------------------------------------------------------
# Rational helpers


def _rat_list(values: Iterable[Fraction]) -> list[str]:
    return [format_rational(v) for v in values]


# the only rational spellings a document may use: 'num' or 'num/den'
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rat_list(values, where: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise SchemaError(f"{where}: expected a list of rational strings")
    for v in values:
        if not isinstance(v, str) or _RATIONAL.fullmatch(v) is None:
            raise SchemaError(f"{where}: {v!r} is not a rational 'num' or 'num/den' string")
    try:
        return tuple(parse_rational(v) for v in values)
    except ZeroDivisionError:
        raise SchemaError(f"{where}: a rational has denominator zero") from None
    except ValueError:  # past the interpreter's integer digit limit
        raise SchemaError(f"{where}: a rational has too many digits") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str, where: str) -> int:
    value = _require(doc, key, where)
    if not _is_int(value):
        raise SchemaError(f"{where}: {key!r} must be an integer")
    return value


def _is_labels(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _require_labels(doc: dict, key: str, where: str) -> list[str]:
    value = _require(doc, key, where)
    if not _is_labels(value):
        raise SchemaError(f"{where}: {key!r} must be a list of labels")
    return value


def _check_version(doc: dict, where: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be a JSON object")
    version = doc.get("schemaVersion", SCHEMA_VERSION)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: unsupported schemaVersion {version!r}")


# ---------------------------------------------------------------------------
# Document serializers


# each labelled-row class: its document name, dimension key and row key
_ROW_KEYS = {
    VectorConfiguration: ("configuration", "m", "vectors"),
    PointConfiguration: ("points", "d", "points"),
}


def config_to_json(rows: LabelledRows) -> dict:
    """The document of a vector or point configuration."""
    _, dim, key = _ROW_KEYS[type(rows)]
    return {
        "schemaVersion": SCHEMA_VERSION,
        dim: getattr(rows, dim),
        key: [
            {"label": lab, "coords": _rat_list(vec)}
            for lab, vec in zip(rows.labels, rows.coords)
        ],
    }


points_to_json = config_to_json


def _rows_from_json(doc: dict, cls: type[LabelledRows]) -> LabelledRows:
    """The ``cls`` object of a document, its ``{label, coords}`` entries
    listed under the class's row key."""
    where, dim, key = _ROW_KEYS[cls]
    _check_version(doc, where)
    d = _require_int(doc, dim, where)
    entries = _require(doc, key, where)
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: {key!r} must be a list")
    pairs = []
    for i, entry in enumerate(entries):
        at = f"{where}.{key}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: {key}[{i}] must be an object")
        label = _require(entry, "label", at)
        if not isinstance(label, str):
            raise SchemaError(f"{where}: {key}[{i}].label must be a string")
        pairs.append((label, _parse_rat_list(_require(entry, "coords", at), f"{at}.coords")))
    try:
        return cls.from_pairs(d, pairs)
    except (BadParametersError, DimensionMismatchError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def config_from_json(doc: dict) -> VectorConfiguration:
    return _rows_from_json(doc, VectorConfiguration)


def points_from_json(doc: dict) -> PointConfiguration:
    return _rows_from_json(doc, PointConfiguration)


def polytope_to_json(poly: IncidencePolytope) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "d": poly.d,
        "vertices": list(poly.vertices),
        "facets": [list(f) for f in poly.facets],
    }


def polytope_from_json(doc: dict) -> IncidencePolytope:
    where = "polytope"
    _check_version(doc, where)
    d = _require_int(doc, "d", where)
    vertices = _require(doc, "vertices", where)
    facets = _require(doc, "facets", where)
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise SchemaError(f"{where}: 'vertices' must be a list of labels")
    if not isinstance(facets, list) or not all(_is_labels(f) for f in facets):
        raise SchemaError(f"{where}: 'facets' must be a list of label lists")
    try:
        return IncidencePolytope(
            d=d,
            vertices=tuple(vertices),
            facets=tuple(tuple(f) for f in facets),
        )
    except (BadParametersError, KeyError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def certificate_to_json(cert: DependenceCertificate) -> dict:
    doc: dict = {"kind": cert.kind}
    if cert.lam is not None:
        doc["lambda"] = _rat_list(cert.lam)
    if cert.functional is not None:
        doc["functional"] = _rat_list(cert.functional)
    if cert.direction is not None:
        doc["direction"] = _rat_list(cert.direction)
    return doc


def plan_to_json(plan: BlockDiagramPlan) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "d": plan.d,
        "p": plan.p,
        "q": plan.q,
        "ell": plan.ell,
        "configuration": config_to_json(plan.config),
        "designated": [
            {"name": name, "complement": list(comp)}
            for name, comp in plan.designated
        ],
    }


def plan_from_json(doc: dict) -> BlockDiagramPlan:
    where = "plan"
    _check_version(doc, where)
    config = config_from_json(_require(doc, "configuration", where))
    designated = _require(doc, "designated", where)
    if not isinstance(designated, list):
        raise SchemaError(f"{where}: 'designated' must be a list")
    named = []
    for i, entry in enumerate(designated):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: designated[{i}] must be an object")
        name = _require(entry, "name", f"{where}.designated[{i}]")
        if not isinstance(name, str):
            raise SchemaError(f"{where}: designated[{i}].name must be a string")
        comp = _require_labels(entry, "complement", f"{where}.designated[{i}]")
        unknown = [lab for lab in comp if lab not in config.labels]
        if unknown:
            raise SchemaError(f"{where}: designated[{i}] uses unknown labels {unknown}")
        named.append((name, tuple(comp)))
    d = _require_int(doc, "d", where)
    p = _require_int(doc, "p", where)
    q = _require_int(doc, "q", where)
    ell = _require_int(doc, "ell", where)
    # the shape build_block_diagram gives every plan: d + p vectors in
    # R^(p-1), q = ceil(d / p) blocks of which ell are positive
    if config.m != p - 1 or len(config) != d + p:
        raise SchemaError(
            f"{where}: d = {d}, p = {p} needs d + p vectors in R^(p-1), "
            f"not {len(config)} in R^{config.m}"
        )
    if q != -(-d // p) or not 1 <= ell <= q - 1:
        raise SchemaError(f"{where}: q = {q}, ell = {ell} do not fit d = {d}, p = {p}")
    return BlockDiagramPlan(d=d, p=p, q=q, ell=ell, config=config, designated=tuple(named))


def detect_schema(doc) -> str:
    """Classify a document by its required keys; ambiguity is an error.

    Build reports and plans legitimately embed the leaf documents, so their
    signatures take precedence; among the leaf schemas (configuration,
    polytope, points) a document matching more than one is rejected.
    """
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    _check_version(doc, "document")
    if "checks" in doc and "plan" in doc:
        return "report"
    if "configuration" in doc and "designated" in doc:
        return "plan"
    leaf_signatures = {
        "configuration": ("m", "vectors"),
        "polytope": ("vertices", "facets"),
        "points": ("d", "points"),
    }
    matches = [
        name for name, keys in leaf_signatures.items() if all(k in doc for k in keys)
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise SchemaError(
            "unrecognized document: expected configuration, polytope, points, "
            "plan, or build-report keys"
        )
    raise SchemaError(f"ambiguous document: matches schemas {sorted(matches)}")


# ---------------------------------------------------------------------------
# Check payloads (combinatorial polytopes)


def payload_illuminated(poly: IncidencePolytope) -> dict:
    report = illumination_report(poly)
    uncovered = [v for v, w in report.diagonal_partner if w is None]
    return {
        "check": "illuminated",
        "verdict": report.illuminated,
        "partners": [[v, w] for v, w in report.diagonal_partner],
        "uncovered": uncovered,
    }


def payload_unneighborly(poly: IncidencePolytope) -> dict:
    report = illumination_report(poly)
    connected = [v for v, w in report.missing_edge_partner if w is None]
    return {
        "check": "unneighborly",
        "verdict": report.unneighborly,
        "partners": [[v, w] for v, w in report.missing_edge_partner],
        "connectedToAll": connected,
    }


def payload_simplicial(poly: IncidencePolytope) -> dict:
    fat = [list(f) for f in poly.facets if len(f) > poly.d]
    return {"check": "simplicial", "verdict": not fat, "fatFacets": fat}


def payload_nonsimplicial(poly: IncidencePolytope) -> dict:
    fat = [list(f) for f in poly.facets if len(f) > poly.d]
    return {
        "check": "nonsimplicial",
        "verdict": bool(fat),
        "fatFacet": fat[0] if fat else None,
    }


# ---------------------------------------------------------------------------
# Check payloads (plans and realized point sets)


def payload_cover(plan: BlockDiagramPlan) -> dict:
    covered = set().union(*(set(comp) for _, comp in plan.designated))
    missing = [lab for lab in plan.config.labels if lab not in covered]
    return {
        "check": "complementsCoverVertices",
        "verdict": not missing,
        "uncovered": missing,
    }


def payload_f0(plan: BlockDiagramPlan, f0: int) -> dict:
    expected = plan.d + plan.p + plan.q + 1
    return {
        "check": "f0MatchesFormula",
        "verdict": f0 == expected,
        "f0": f0,
        "expected": expected,
        "M": formulas(plan.d).M,
    }


def payload_designated_full(plan: BlockDiagramPlan, base: IncidencePolytope) -> dict:
    # a facet of the enumerated base is known without a hyperplane: ()
    complements = {frozenset(base.vertices) - frozenset(f) for f in base.facets}
    found = [() if frozenset(comp) in complements else None for _, comp in plan.designated]
    return payload_designated_points(plan, found)


def payload_designated_points(plan: BlockDiagramPlan, planes: Sequence) -> dict:
    """Hyperplane certificates for each designated facet on the realized plan.

    ``planes`` holds one supporting hyperplane (or None) per designated
    complement, in plan order (``mani.designated_planes``).
    """
    entries = []
    for (name, comp), plane in zip(plan.designated, planes):
        entry = {
            "name": name,
            "complement": list(comp),
            "isFacetComplement": plane is not None,
        }
        if plane:
            normal, offset = plane
            entry["normal"] = _rat_list(normal)
            entry["offset"] = format_rational(offset)
        entries.append(entry)
    return {
        "check": "designatedAreFacets",
        "verdict": all(e["isFacetComplement"] for e in entries),
        "designated": entries,
    }


def payload_all_vertices(points: PointConfiguration, flags: Sequence[bool]) -> dict:
    """``flags`` says per point whether it is a vertex (``mani.vertex_proofs``)."""
    not_vertices = [lab for lab, ok in zip(points.labels, flags) if not ok]
    return {
        "check": "allPointsVertices",
        "verdict": not not_vertices,
        "count": len(points),
        "notVertices": not_vertices,
    }


def _unpaired(points: PointConfiguration, pairs: Sequence[Sequence[str]]) -> list[str]:
    seen = {a for a, _ in pairs}
    return [lab for lab in points.labels if lab not in seen]


def payload_illuminated_points(
    points: PointConfiguration, pairs: Sequence[Sequence[str]], flags: Sequence[bool]
) -> dict:
    """One inner diagonal per vertex, certified by midpoint-interior LPs.

    ``pairs`` are label pairs of ``points``; ``flags`` holds per pair the
    interior certificate of its midpoint, or None (``mani.midpoint_flags``),
    and is not read when some vertex has no pair.  A certificate is an
    affine dependence of the points, positive off the pair, from an LP on
    their Gale dual; the payload records only the pairs and verdicts.
    """
    missing = _unpaired(points, pairs)
    failing = [] if missing else [list(p) for p, ok in zip(pairs, flags) if not ok]
    return {
        "check": "illuminated",
        "verdict": not missing and not failing,
        "method": "midpointInterior",
        "pairs": [list(p) for p in pairs],
        "unpaired": missing,
        "failingPairs": failing,
    }


def payload_unneighborly_points(
    points: PointConfiguration, pairs: Sequence[Sequence[str]], flags: Sequence[bool]
) -> dict:
    doc = payload_illuminated_points(points, pairs, flags)
    doc["check"] = "unneighborly"
    return doc


def payload_nonsimplicial_points(
    points: PointConfiguration, fat_facet: Sequence[str], plane
) -> dict:
    """``plane`` is the fat facet's supporting hyperplane, or None."""
    doc = {
        "check": "nonsimplicial",
        "verdict": plane is not None and len(fat_facet) > points.d,
        "fatFacet": list(fat_facet),
        "size": len(fat_facet),
        "d": points.d,
    }
    if plane is not None:
        normal, offset = plane
        doc["normal"] = _rat_list(normal)
        doc["offset"] = format_rational(offset)
    return doc


def payload_simplicial_points(points: PointConfiguration, fat_facet: Sequence[str], plane) -> dict:
    return {
        "check": "simplicial",
        "verdict": not (plane is not None and len(fat_facet) > points.d),
        "fatFacets": [list(fat_facet)] if plane is not None else [],
    }


# ---------------------------------------------------------------------------
# Check payloads (vector configurations)


def payload_kspanning(config: VectorConfiguration, k: int) -> dict:
    report = is_positively_k_spanning(config, k)
    doc = {
        "check": f"kspanning:{k}",
        "verdict": report.spanning,
        "k": k,
        "n": len(config),
        "m": config.m,
    }
    if not report.spanning:
        doc["witnessDeletion"] = (
            [config.labels[i] for i in report.witness_deletion]
            if report.witness_deletion is not None
            else None
        )
    if report.certificate is not None:
        doc["certificate"] = certificate_to_json(report.certificate)
    return doc


def payload_minimal(config: VectorConfiguration, k: int) -> dict:
    base, minimality = is_minimal_k_spanning(config, k)
    doc = {
        "check": "minimal",
        "verdict": base.spanning and minimality.minimal,
        "k": k,
        "kSpanning": base.spanning,
        "noVectorRemovable": minimality.minimal,
        "removableIndex": (
            config.labels[minimality.removable_index]
            if minimality.removable_index is not None
            else None
        ),
        "perIndex": _per_index_rows(minimality.per_index),
    }
    return doc


def _per_index_rows(per_index) -> list[dict]:
    return [
        {"removed": removed, "witnessDeletion": list(witness), "kind": kind}
        for removed, witness, kind in per_index
    ]


def payload_minimal_dual(report: CounterexampleReport) -> dict:
    """Whether the dual is certified minimal positively k-spanning.

    ``exceedsBound`` records the comparison against 2km; it is data, not a
    gate — only d = 36 beats the bound, smaller builds are still sound.
    """
    return {
        "check": "minimal2spanningDual",
        "verdict": report.spanning and report.minimal,
        "k": report.k,
        "n": len(report.dual),
        "m": report.dual.m,
        "bound": report.classical_bound,
        "spanning": report.spanning,
        "minimal": report.minimal,
        "exceedsBound": report.exceeds_bound,
        "perIndex": _per_index_rows(report.per_index),
    }


# ---------------------------------------------------------------------------
# The check table


# check name -> payload builder, per report mode.  A builder reads its
# inputs by ``ManiConstruction`` field name (plus ``counterexample``, and
# the ``dual`` and ``k`` of the ``minimal`` and ``kspanning:k``
# checks that only verify runs): build passes the construction's own,
# verify decodes them from the report (``_ReportObjects``).  ``kspanning:k``
# checks of a certificate report are built in ``_builder``.
CHECKS = {
    "full": {
        "designatedAreFacets": lambda o: payload_designated_full(o["plan"], o["base"]),
        "complementsCoverVertices": lambda o: payload_cover(o["plan"]),
        "f0MatchesFormula": lambda o: payload_f0(o["plan"], o["stacked"].f0),
        "illuminated": lambda o: payload_illuminated(o["stacked"]),
        "unneighborly": lambda o: payload_unneighborly(o["stacked"]),
        "nonsimplicial": lambda o: payload_nonsimplicial(o["stacked"]),
        "simplicial": lambda o: payload_simplicial(o["stacked"]),
    },
    "certificate": {
        "designatedAreFacets": lambda o: payload_designated_points(
            o["plan"], o["designated_planes"]
        ),
        "complementsCoverVertices": lambda o: payload_cover(o["plan"]),
        "f0MatchesFormula": lambda o: payload_f0(o["plan"], len(o["points"])),
        "allPointsVertices": lambda o: payload_all_vertices(o["points"], o["vertex_flags"]),
        "illuminated": lambda o: payload_illuminated_points(
            o["points"], o["diagonal_partner"], o["diagonal_flags"]
        ),
        "unneighborly": lambda o: payload_unneighborly_points(
            o["points"], o["diagonal_partner"], o["diagonal_flags"]
        ),
        "nonsimplicial": lambda o: payload_nonsimplicial_points(
            o["points"], o["fat_facet"], o["fat_facet_plane"]
        ),
        "simplicial": lambda o: payload_simplicial_points(
            o["points"], o["fat_facet"], o["fat_facet_plane"]
        ),
        "minimal2spanningDual": lambda o: payload_minimal_dual(o["counterexample"]),
        "minimal": lambda o: payload_minimal(o["dual"], o["k"]),
    },
}


def _builder(mode, name: str):
    """The payload builder of check ``name`` on a ``mode`` report."""
    table = CHECKS.get(mode) if isinstance(mode, str) else None
    if table is None:
        raise SchemaError(f"report: unknown mode {mode!r}")
    if mode == "certificate" and name.startswith("kspanning:"):
        return lambda o: payload_kspanning(o["dual"], _parse_check_names([name])[0][1])
    if name not in table:
        raise BadParametersError(f"cannot re-derive check {name!r} from a {mode} report")
    return table[name]


# ---------------------------------------------------------------------------
# Build reports


def _in_check_order(names) -> list[str]:
    order = {name: i for i, name in enumerate(CHECK_ORDER)}
    return sorted(names, key=lambda n: (order.get(n, len(order)), n))


def _stack_to_json(cert) -> dict:
    return {
        "facet": list(cert.facet),
        "apex": cert.apex_label,
        "apexCoords": _rat_list(cert.apex),
        "normal": _rat_list(cert.normal),
        "offset": format_rational(cert.offset),
        "epsilon": format_rational(cert.epsilon),
        "trials": cert.trials,
    }


def build_report(
    construction: ManiConstruction,
    counterexample: CounterexampleReport | None = None,
) -> dict:
    """The full machine-readable result of a build, either mode.

    Every check the construction made gets a certificate from its ``CHECKS``
    builder, fed the construction's objects and LP flags; verify feeds the
    same builders the report's embedded objects, so re-deriving them from
    the written report gives byte-identical payloads and digests.
    """
    plan = construction.plan
    doc: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "buildReport",
        "mode": construction.mode,
        "d": plan.d,
        "p": plan.p,
        "q": plan.q,
        "ell": plan.ell,
        "f0": construction.f0,
        "M": formulas(plan.d).M,
        "isManiSize": construction.is_mani_size,
        "plan": plan_to_json(plan),
    }
    names = list(construction.checks)
    if construction.mode == "full":
        if construction.base is None or construction.stacked is None:
            raise BadParametersError("a full-mode report needs the built base and stacked polytopes")
        doc["basePolytope"] = polytope_to_json(construction.base)
        doc["polytope"] = polytope_to_json(construction.stacked)
    else:
        if construction.points is None:
            raise BadParametersError("a certificate-mode report needs the built points")
        doc["points"] = points_to_json(construction.points)
        doc["stacks"] = [_stack_to_json(c) for c in construction.stacks]
        doc["fatFacet"] = list(construction.fat_facet or ())
        doc["diagonalPartner"] = [list(p) for p in construction.diagonal_partner]
        if counterexample is not None:
            doc["dualConfiguration"] = config_to_json(counterexample.dual)
            names.append("minimal2spanningDual")
    objects = dict(
        vars(construction),
        fat_facet=construction.fat_facet or (),
        counterexample=counterexample,
    )
    ordered = [_builder(construction.mode, n)(objects) for n in _in_check_order(names)]
    doc["checks"] = {p["check"]: p["verdict"] for p in ordered}
    doc["certificates"] = ordered
    doc["certificateDigests"] = {p["check"]: digest(p) for p in ordered}
    return doc


# ---------------------------------------------------------------------------
# Verification against documents


def _parse_check_names(checks: Sequence[str]) -> list[tuple[str, int | None]]:
    """Split each requested check into (name, k); validates the vocabulary."""
    out = []
    for raw in checks:
        name = raw.strip()
        if not name:
            continue
        if name.startswith("kspanning:"):
            try:
                k = int(name.split(":", 1)[1])
            except ValueError:
                raise BadParametersError(f"bad check {name!r}: k must be an integer")
            if k < 1:
                raise BadParametersError(f"bad check {name!r}: k must be >= 1")
            out.append((name, k))
        elif name in {"illuminated", "unneighborly", "simplicial", "minimal"}:
            out.append((name, None))
        else:
            raise BadParametersError(f"unknown check {name!r}")
    if not out:
        raise BadParametersError("no checks requested")
    return out


def verify_configuration(config: VectorConfiguration, checks: Sequence[str]) -> list[dict]:
    parsed = _parse_check_names(checks)
    ks = [k for n, k in parsed if n.startswith("kspanning:")]
    payloads = []
    for name, k in parsed:
        if name.startswith("kspanning:"):
            payloads.append(payload_kspanning(config, k))
        elif name == "minimal":
            if len(ks) != 1:
                raise BadParametersError(
                    "the 'minimal' check needs exactly one kspanning:k check "
                    "alongside it to fix k"
                )
            payloads.append(payload_minimal(config, ks[0]))
        else:
            raise BadParametersError(
                f"check {name!r} does not apply to a vector configuration"
            )
    return payloads


def verify_polytope(poly: IncidencePolytope, checks: Sequence[str]) -> list[dict]:
    # the checks that apply are those of a full report's stacked polytope
    table = CHECKS["full"]
    payloads = []
    for name, _ in _parse_check_names(checks):
        if name not in table:
            raise BadParametersError(
                f"check {name!r} does not apply to a combinatorial polytope"
            )
        payloads.append(table[name]({"stacked": poly}))
    return payloads


def _diagonal_partner(objects: "_ReportObjects") -> list[list[str]]:
    pairs = _require(objects.report, "diagonalPartner", "report")
    if not isinstance(pairs, list) or not all(_is_labels(p) for p in pairs):
        raise SchemaError("report: 'diagonalPartner' must be a list of label pairs")
    known = set(objects["points"].labels)
    for pair in pairs:
        if len(pair) != 2 or any(lab not in known for lab in pair):
            raise SchemaError(f"bad diagonal pair {pair!r}")
    return pairs


def _fat_facet(objects: "_ReportObjects") -> list[str]:
    # a repeated label would count twice towards the more-than-d vertices
    # that make the facet fat
    labels = _require_labels(objects.report, "fatFacet", "report")
    if len(set(labels)) != len(labels):
        raise SchemaError("report: 'fatFacet' repeats a label")
    return labels


def _embedded_dual(objects: "_ReportObjects", dual: VectorConfiguration) -> VectorConfiguration:
    """``dual``, once the report's ``dualConfiguration`` is shown to equal it."""
    if config_from_json(objects.report["dualConfiguration"]) != dual:
        raise SchemaError("report: 'dualConfiguration' is not the Gale dual of its points")
    return dual


def _dual_configuration(objects: "_ReportObjects") -> VectorConfiguration:
    if "dualConfiguration" not in objects.report:
        raise BadParametersError("this check needs a report with a dual configuration")
    return _embedded_dual(objects, gale_dual(objects["points"]))


def _counterexample(objects: "_ReportObjects") -> CounterexampleReport:
    # the dual's scans use verify's own vertex functionals and midpoint
    # certificates; an embedded dual must be the Gale dual they certify
    construction = ManiConstruction(
        plan=objects["plan"],
        mode="certificate",
        points=objects["points"],
        separators=objects["separators"],
        diagonal_partner=objects["diagonal_partner"],
        diagonal_flags=objects["diagonal_flags"],
    )
    counterexample = dual_spanning_report(construction)
    if "dualConfiguration" in objects.report:
        _embedded_dual(objects, counterexample.dual)
    return counterexample


def _stack_from_json(entry, where: str) -> StackCertificate:
    if not isinstance(entry, dict):
        raise SchemaError(f"{where}: must be an object")
    apex = _require(entry, "apex", where)
    if not isinstance(apex, str):
        raise SchemaError(f"{where}: 'apex' must be a label")
    offset, epsilon = (
        _parse_rat_list([_require(entry, key, where)], f"{where}.{key}")[0]
        for key in ("offset", "epsilon")
    )
    return StackCertificate(
        facet=tuple(_require_labels(entry, "facet", where)),
        apex_label=apex,
        apex=_parse_rat_list(_require(entry, "apexCoords", where), f"{where}.apexCoords"),
        normal=_parse_rat_list(_require(entry, "normal", where), f"{where}.normal"),
        offset=offset,
        epsilon=epsilon,
        trials=_require_int(entry, "trials", where),
    )


def _base_points(objects: "_ReportObjects") -> PointConfiguration:
    """The report's first points, once shown to realize its plan."""
    plan, points = objects["plan"], objects["points"]
    n = len(plan.config)
    base = PointConfiguration(d=points.d, labels=points.labels[:n], coords=points.coords[:n])
    if not realizes(plan.config, base):
        raise SchemaError("report: the first points do not realize the plan's Gale diagram")
    return base


def _stacks(objects: "_ReportObjects") -> tuple[StackCertificate, ...]:
    """The report's ``stacks``, once they are shown to place its apexes."""
    plan, points = objects["plan"], objects["points"]
    entries = _require(objects.report, "stacks", "report")
    if not isinstance(entries, list):
        raise SchemaError("report: 'stacks' must be a list")
    stacks = tuple(_stack_from_json(e, f"report.stacks[{i}]") for i, e in enumerate(entries))
    reason = stack_mismatch(plan, points, stacks, objects["designated_planes"])
    if reason is not None:
        raise SchemaError(f"report: 'stacks' {reason}")
    return stacks


def _stack_functionals(objects: "_ReportObjects") -> dict[int, tuple[int, ...]]:
    """Each apex's stack plane, offered as its vertex functional once the
    stacks are shown to place the apexes; ``mani.vertex_proofs`` re-checks
    each before it relies on it."""
    n = len(objects["plan"].config)
    return {n + i: s.functional for i, s in enumerate(objects["stacks"])}


def _header(objects: "_ReportObjects") -> None:
    """Reject a report whose header disagrees with its plan and contents."""
    report, plan = objects.report, objects["plan"]
    f0 = objects["stacked"].f0 if report["mode"] == "full" else len(objects["points"])
    M = formulas(plan.d).M
    expected = {
        "d": plan.d, "p": plan.p, "q": plan.q, "ell": plan.ell,
        "f0": f0, "M": M, "isManiSize": f0 == M,
    }
    for key, value in expected.items():
        got = _require(report, key, "report")
        if type(got) is not type(value) or got != value:
            raise SchemaError(f"report: {key!r} is {got!r}, but its contents give {value!r}")


# how verify obtains each object a ``CHECKS`` builder reads: embedded
# documents are decoded, the rest re-derived from them by the steps of
# the certificate-mode build, run without the build's kept proofs
_DECODERS = {
    "plan": lambda o: plan_from_json(_require(o.report, "plan", "report")),
    "stacked": lambda o: polytope_from_json(_require(o.report, "polytope", "report")),
    "base": lambda o: polytope_from_json(_require(o.report, "basePolytope", "report")),
    "points": lambda o: points_from_json(_require(o.report, "points", "report")),
    "stacks": _stacks,
    "header": _header,
    "fat_facet": _fat_facet,
    "diagonal_partner": _diagonal_partner,
    "dual": _dual_configuration,
    "base_points": _base_points,
    "designated_planes": lambda o: designated_planes(o["plan"], o["base_points"]),
    "fat_facet_plane": lambda o: supporting_hyperplane(o["points"], o["fat_facet"]),
    "vertex_proofs": lambda o: vertex_proofs(o["points"], _stack_functionals(o)),
    "vertex_flags": lambda o: o["vertex_proofs"][0],
    "separators": lambda o: o["vertex_proofs"][1],
    # with a vertex left unpaired no payload reads a flag, and the dual's
    # minimality stays unproven
    "diagonal_flags": lambda o: ()
    if _unpaired(o["points"], o["diagonal_partner"])
    else midpoint_flags(o["points"], o["diagonal_partner"]),
    "counterexample": _counterexample,
}


class _ReportObjects(dict):
    """A build report's objects by key, each obtained on first use and kept."""

    def __init__(self, report: dict, k: int = 2):
        super().__init__(k=k)
        self.report = report

    def __missing__(self, key: str):
        self[key] = value = _DECODERS[key](self)
        return value


def _rederive(objects: _ReportObjects, name: str) -> dict:
    # every check decodes the plan and then the report's polytope or points
    # (and a certificate report's realized base and stacks) first and checks
    # the header against them, so a report is accepted only when those agree
    mode = _require(objects.report, "mode", "report")
    objects["plan"]
    if mode == "full":
        objects["stacked"]
    elif mode == "certificate":
        objects["stacks"]
    builder = _builder(mode, name)
    objects["header"]
    return builder(objects)


def rederive_report_payload(report: dict, name: str) -> dict:
    """Recompute one check certificate from a build report's embedded data."""
    return _rederive(_ReportObjects(report), name)


def verify_report(report: dict, checks: Sequence[str] | None) -> list[dict]:
    """Re-derive certificates for a build report.

    With no explicit checks, every check recorded in the report is re-run
    from the embedded objects, each decoded once; the digests of the
    resulting payloads must match the report's own (that equality is the
    round-trip invariant, left to the caller to assert or simply trust by
    determinism).  ``minimal`` tests the k of the one ``kspanning:k``
    requested with it, else k = 2.
    """
    recorded = _require(report, "checks", "report")
    if not isinstance(recorded, dict):
        raise SchemaError("report: 'checks' must be an object")
    k = 2
    if checks:
        parsed = _parse_check_names(checks)
        ks = [kk for _, kk in parsed if kk is not None]
        if len(ks) > 1 and ("minimal", None) in parsed:
            raise BadParametersError(
                "the 'minimal' check takes k from at most one kspanning:k check"
            )
        k = ks[0] if ks else 2
        requested = []
        for name, _ in parsed:
            if name == "simplicial" and "nonsimplicial" in recorded:
                requested.append("simplicial")
            elif name in recorded or name.startswith("kspanning:") or name == "minimal":
                requested.append(name)
            else:
                raise BadParametersError(
                    f"check {name!r} is not recorded in this report"
                )
    else:
        # same ordering as the build output, so round trips are line-stable
        requested = _in_check_order(recorded)
    objects = _ReportObjects(report, k)
    return [_rederive(objects, name) for name in requested]


def verify_document(doc, checks: Sequence[str] | None) -> list[dict]:
    """Dispatch verification by detected schema; returns check payloads."""
    schema = detect_schema(doc)
    if schema == "configuration":
        if not checks:
            raise BadParametersError(
                "a vector configuration needs explicit --checks (e.g. kspanning:2)"
            )
        return verify_configuration(config_from_json(doc), checks)
    if schema == "polytope":
        if not checks:
            raise BadParametersError(
                "a polytope needs explicit --checks (e.g. illuminated)"
            )
        return verify_polytope(polytope_from_json(doc), checks)
    if schema == "report":
        return verify_report(doc, checks)
    raise BadParametersError(f"no checks are defined for {schema} documents")

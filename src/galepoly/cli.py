"""Command-line surface: build, verify, table, export-svg.

Exit codes: 0 = verified/built, 1 = a requested or built check came back
false (a verdict, not a tool failure), 2 = usage or input error.  All
stdout is line-oriented JSON in canonical form, byte-stable across runs.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .errors import GalepolyError, SchemaError
from .mani import (
    construct_nonsimplicial_mani,
    dual_spanning_report,
    formula_table,
)
from .svg import svg_from_plan


def _check_line(payload: dict) -> str:
    line = {
        "check": payload["check"],
        "verdict": payload["verdict"],
        "digest": jsonio.digest(payload),
    }
    if not payload["verdict"]:
        line["certificate"] = payload
    return jsonio.dumps(line)


def cmd_build(args) -> int:
    construction = construct_nonsimplicial_mani(
        args.dim,
        ell=args.ell,
        p=args.p,
        mode=args.mode,
        strict=False,
    )
    counterexample = None
    if args.mode == "certificate":
        counterexample = dual_spanning_report(construction, k=2)
    report = jsonio.build_report(construction, counterexample)
    summary = {key: report[key] for key in ("d", "p", "q", "ell", "f0", "M")}
    print(jsonio.dumps(summary))
    for payload in report["certificates"]:
        print(_check_line(payload))
    if args.out:
        jsonio.write_document(report, args.out)
    else:
        print(jsonio.dumps(report))
    return 0 if all(report["checks"].values()) else 1


def cmd_verify(args) -> int:
    doc = jsonio.read_document(args.input)
    checks = [c for c in (args.checks or "").split(",") if c.strip()]
    payloads = jsonio.verify_document(doc, checks or None)
    for payload in payloads:
        print(_check_line(payload))
    if args.out:
        jsonio.write_document(
            {
                "schemaVersion": jsonio.SCHEMA_VERSION,
                "kind": "verifyReport",
                "checks": {p["check"]: p["verdict"] for p in payloads},
                "certificates": payloads,
                "certificateDigests": {
                    p["check"]: jsonio.digest(p) for p in payloads
                },
            },
            args.out,
        )
    return 0 if all(p["verdict"] for p in payloads) else 1


def cmd_table(args) -> int:
    rows, first = formula_table(args.max_dim)
    row_docs = [
        {"d": r.d, "p": r.p, "q": r.q, "nu": r.nu, "M": r.M} for r in rows
    ]
    for row in row_docs:
        print(jsonio.dumps(row))
    print(jsonio.dumps({"firstNuBelow2d": first}))
    if args.out:
        jsonio.write_document(
            {
                "schemaVersion": jsonio.SCHEMA_VERSION,
                "kind": "formulaTable",
                "rows": row_docs,
                "firstNuBelow2d": first,
            },
            args.out,
        )
    return 0


def cmd_export_svg(args) -> int:
    doc = jsonio.read_document(args.input)
    schema = jsonio.detect_schema(doc)
    if schema == "report":
        plan_doc = doc.get("plan")
        if plan_doc is None:
            raise SchemaError("report: missing embedded plan")
        plan = jsonio.plan_from_json(plan_doc)
    elif schema == "plan":
        plan = jsonio.plan_from_json(doc)
    else:
        raise SchemaError(f"export-svg needs a plan or build report, got {schema}")
    markup = svg_from_plan(plan)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(markup)
    else:
        sys.stdout.write(markup)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galepoly",
        description=(
            "Construct and certify illuminated polytopes, block Gale "
            "diagrams, and minimal positively k-spanning configurations "
            "in exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build",
        help="build the stacked block-diagram polytope for a dimension",
    )
    build.add_argument("--dim", type=int, required=True, help="dimension d (>= 6)")
    build.add_argument("--ell", type=int, default=1, help="number of positive blocks")
    build.add_argument("--p", type=int, default=None, help="block size override")
    build.add_argument(
        "--mode",
        choices=("full", "certificate"),
        default="full",
        help="full facet enumeration or geometric certificates only",
    )
    build.add_argument("--out", default=None, help="write the build report here")
    build.set_defaults(fn=cmd_build)

    verify = sub.add_parser(
        "verify",
        help="run checks against a polytope, configuration, or build report",
    )
    verify.add_argument("input", help="path to a JSON document")
    verify.add_argument(
        "--checks",
        default=None,
        help=(
            "comma-separated subset of illuminated, unneighborly, simplicial, "
            "kspanning:k, minimal (build reports default to all recorded checks)"
        ),
    )
    verify.add_argument("--out", default=None, help="write a verify report here")
    verify.set_defaults(fn=cmd_verify)

    table = sub.add_parser(
        "table", help="print vertex-count formula rows d, p, q, nu, M"
    )
    table.add_argument(
        "--max-dim", type=int, required=True, dest="max_dim", help="largest d"
    )
    table.add_argument("--out", default=None, help="write the table document here")
    table.set_defaults(fn=cmd_table)

    export = sub.add_parser(
        "export-svg", help="draw a plan's affine diagram (p - 1 in {2, 3})"
    )
    export.add_argument("input", help="plan JSON or build-report JSON")
    export.add_argument("--out", default=None, help="write the SVG here")
    export.set_defaults(fn=cmd_export_svg)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GalepolyError, OSError) as exc:
        print(f"galepoly: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

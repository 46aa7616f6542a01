"""Build reports and verify payloads against recorded goldens.

``report_goldens.json`` holds, for full-mode builds d = 6..9 at every ell
and certificate-mode builds (with their dual) d = 6..8 at every p in
{3, 4, 5} and every ell, the SHA-256 of the canonical build report and of
every payload verify re-derives from it: all recorded checks at once, each
recorded check and ``simplicial`` alone, and the explicit ``--checks``
vocabulary.  The goldens were recorded from the code in which
``build_report`` and ``rederive_report_payload`` each kept their own chain
of checks; ``python tests/test_report_differential.py`` rewrites them, which
is right only for a deliberate digest change.
"""

import json
import os

import pytest

from galepoly.jsonio import build_report, digest, dumps, rederive_report_payload, verify_report
from galepoly.mani import construct_nonsimplicial_mani, dual_spanning_report

GOLDENS = os.path.join(os.path.dirname(__file__), "report_goldens.json")

CASES = [("full", d, 3, ell) for d in (6, 7, 8, 9) for ell in range(1, -(-d // 3))] + [
    ("certificate", d, p, ell)
    for d in (6, 7, 8)
    for p in (3, 4, 5)
    for ell in range(1, -(-d // p))
]


def _case_id(case) -> str:
    return "{}-d{}-p{}-ell{}".format(*case)


def _report(mode, d, p, ell, with_dual=True) -> dict:
    construction = construct_nonsimplicial_mani(d, ell, p=p, mode=mode, strict=False)
    dual = None
    if mode == "certificate" and with_dual:
        dual = dual_spanning_report(construction, k=2)
    return json.loads(dumps(build_report(construction, dual)))


def _explicit_checks(report) -> list[str]:
    names = ["illuminated", "unneighborly", "simplicial"]
    if "dualConfiguration" in report:
        names += ["kspanning:2", "minimal"]
    return names


def observe(report) -> dict:
    singles = list(report["checks"]) + ["simplicial"]
    return {
        "report": digest(report),
        "all": [[p["check"], digest(p)] for p in verify_report(report, None)],
        "single": {n: digest(rederive_report_payload(report, n)) for n in singles},
        "explicit": [digest(p) for p in verify_report(report, _explicit_checks(report))],
    }


def _bad_diagonal_report() -> dict:
    """A d = 6 certificate report whose first partner pair is an edge."""
    report = _report("certificate", 6, 3, 1, with_dual=False)
    report["diagonalPartner"][0] = ["B1.0", "B1.1"]
    return report


def observe_bad_diagonal() -> dict:
    payloads = verify_report(_bad_diagonal_report(), None)
    return {p["check"]: digest(p) for p in payloads}


def _goldens() -> dict:
    with open(GOLDENS, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_and_verify_payloads_match_goldens(case):
    report = _report(*case)
    seen = observe(report)
    assert seen == _goldens()[_case_id(case)]
    assert dict(seen["all"]) == report["certificateDigests"]
    for name, value in report["certificateDigests"].items():
        assert seen["single"][name] == value


def test_non_inner_diagonal_fails_as_recorded():
    report = _bad_diagonal_report()
    payloads = {p["check"]: p for p in verify_report(report, None)}
    for name in ("illuminated", "unneighborly"):
        assert payloads[name]["verdict"] is False
        assert payloads[name]["failingPairs"] == [["B1.0", "B1.1"]]
        assert payloads[name]["unpaired"] == []
    assert {n: digest(p) for n, p in payloads.items()} == _goldens()["badDiagonal"]
    alone = verify_report(report, ["unneighborly"])
    assert alone == [payloads["unneighborly"]]


if __name__ == "__main__":
    goldens = {_case_id(case): observe(_report(*case)) for case in CASES}
    goldens["badDiagonal"] = observe_bad_diagonal()
    with open(GOLDENS, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Enumerated polytopes against recorded goldens, and their derived data
against a from-scratch build.

``polytope_goldens.json`` holds, for ``mani_simplicial(d)`` at d = 3..16
and every full-mode build at d = 6..15 and every ell, the SHA-256 of the
canonical document of the base and of the stacked polytope, of the stacked
polytope's illumination report and of its inner-diagonal matching.  They
were recorded from the code in which every stacking re-sorted all facet
rows and rebuilt every mask, and the cyclic and Gale polytopes were built
from label tuples; ``python tests/test_polytope_goldens.py`` rewrites them,
which is right only for a deliberate change of output.

Dataclass equality sees only ``d``, ``vertices`` and ``facets``, so each
polytope's ``_rows``, ``_masks`` and ``_index`` are also compared with
those of ``IncidencePolytope(d, vertices, facets)``.
"""

import json
import os

import pytest

from galepoly.jsonio import digest, polytope_to_json
from galepoly.mani import build_block_diagram, construct_nonsimplicial_mani, mani_simplicial
from galepoly.polytope import IncidencePolytope, illumination_report, inner_diagonal_matching

GOLDENS = os.path.join(os.path.dirname(__file__), "polytope_goldens.json")

CASES = [("simplicial", d, 0) for d in range(3, 17)] + [
    ("full", d, ell) for d in range(6, 16) for ell in range(1, build_block_diagram(d).q)
]


def _case_id(case) -> str:
    return "{}-d{}-ell{}".format(*case)


def _construction(kind, d, ell):
    if kind == "simplicial":
        return mani_simplicial(d)
    return construct_nonsimplicial_mani(d, ell, mode="full")


def assert_derived_data_fresh(poly: IncidencePolytope) -> None:
    """The rows, masks and index equal those of a from-scratch build."""
    fresh = IncidencePolytope(poly.d, poly.vertices, poly.facets)
    assert poly == fresh
    assert poly._rows == fresh._rows
    assert poly._masks == fresh._masks
    assert poly._index == fresh._index


def observe(construction) -> dict:
    poly = construction.stacked
    report = illumination_report(poly)
    matching = inner_diagonal_matching(poly)
    return {
        "base": digest(polytope_to_json(construction.base)),
        "stacked": digest(polytope_to_json(poly)),
        "illumination": digest(
            {
                "illuminated": report.illuminated,
                "unneighborly": report.unneighborly,
                "diagonalPartner": report.diagonal_partner,
                "missingEdgePartner": report.missing_edge_partner,
            }
        ),
        "matching": digest({"perfect": matching.perfect, "pairs": matching.pairs}),
    }


def _goldens() -> dict:
    with open(GOLDENS, encoding="ascii") as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(map(_case_id, CASES))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_polytopes_match_goldens(case):
    construction = _construction(*case)
    assert observe(construction) == _goldens()[_case_id(case)]
    assert_derived_data_fresh(construction.base)
    assert_derived_data_fresh(construction.stacked)


if __name__ == "__main__":
    goldens = {_case_id(case): observe(_construction(*case)) for case in CASES}
    with open(GOLDENS, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Block-diagram constructions, geometric stacking, and the dual stage."""

import gc
import os
import subprocess
import sys
import textwrap

import pytest

from galepoly import mani as mani_module
from galepoly.errors import (
    BadParametersError,
    CheckFailedError,
    NoEpsilonFoundError,
    NotAFacetError,
    TooLargeForBruteForceError,
)
from galepoly.gale import PointConfiguration, gale_dual, realize
from galepoly.linalg import QQ, dot
from galepoly.mani import (
    ManiConstruction,
    build_block_diagram,
    construct_nonsimplicial_mani,
    default_block_size,
    dual_spanning_report,
    formula_table,
    formulas,
    geometric_stack_point,
    mani_simplicial,
    realizes,
)
from galepoly.polytope import gamma, illumination_report

FULL_CHECKS = {
    "designatedAreFacets",
    "complementsCoverVertices",
    "illuminated",
    "unneighborly",
    "nonsimplicial",
    "f0MatchesFormula",
}

CERTIFICATE_CHECKS = FULL_CHECKS | {"allPointsVertices"}


def test_default_block_size_pinned():
    values = {1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 12: 3, 13: 4, 16: 4, 36: 6, 100: 10}
    for d, p in values.items():
        assert default_block_size(d) == p
    with pytest.raises(BadParametersError):
        default_block_size(0)


def test_formula_rows_pinned():
    for d, p, q, nu, m in [
        (1, 1, 1, 4, 2),
        (6, 2, 3, 12, 12),
        (7, 3, 3, 14, 14),
        (8, 3, 3, 15, 15),
        (16, 4, 4, 25, 25),
        (36, 6, 6, 49, 49),
    ]:
        row = formulas(d)
        assert (row.d, row.p, row.q, row.nu, row.M) == (d, p, q, nu, m)


def test_formula_table_reports_first_dimension_beating_2d():
    rows, first = formula_table(10)
    assert len(rows) == 10
    assert first == 8
    assert rows[7].nu == 15 and rows[7].M == 15
    _, none_yet = formula_table(7)
    assert none_yet is None
    with pytest.raises(BadParametersError):
        formula_table(0)


def test_block_diagram_shape_for_d6():
    plan = build_block_diagram(6)
    assert (plan.d, plan.p, plan.q, plan.ell) == (6, 3, 2, 1)
    assert len(plan.config) == 9
    assert plan.config.m == 2
    names = [name for name, _ in plan.designated]
    assert names == ["B1", "T1", "Bprime"]
    for _, comp in plan.designated:
        assert len(comp) == 3
    # every label lands in at least one designated complement
    covered = set().union(*(set(c) for _, c in plan.designated))
    assert covered == set(plan.config.labels)


def test_block_diagram_has_d_plus_p_vectors():
    for d, ell in [(6, 1), (8, 2), (16, 1), (16, 3), (25, 2), (36, 5)]:
        plan = build_block_diagram(d, ell=ell)
        assert len(plan.config) == d + plan.p
        assert plan.config.m == plan.p - 1
        assert len(plan.designated) == plan.q + 1


def test_block_diagram_validation():
    with pytest.raises(BadParametersError):
        build_block_diagram(5)
    with pytest.raises(BadParametersError):
        build_block_diagram(6, p=2)
    with pytest.raises(BadParametersError):
        build_block_diagram(6, ell=0)
    with pytest.raises(BadParametersError):
        build_block_diagram(6, ell=2)  # q = 2 allows only ell = 1
    with pytest.raises(BadParametersError):
        build_block_diagram(7, p=7)  # q = 1 leaves no negative block


def test_full_construction_d6_pinned_counts():
    result = construct_nonsimplicial_mani(6)
    assert result.mode == "full"
    assert set(result.checks) == FULL_CHECKS
    assert result.all_checks_pass()
    assert result.base.f0 == 9
    assert len(result.base.facets) == 15
    sizes = sorted(len(f) for f in result.base.facets)
    assert sizes == [6] * 9 + [7] * 6
    assert result.stacked.f0 == 12
    assert result.f0 == 12
    assert len(result.stacked.facets) == 30
    assert result.is_mani_size
    assert not result.stacked.is_simplicial()
    assert result.fat_facet is not None and len(result.fat_facet) == 7
    apexes = [v for v in result.stacked.vertices if v.startswith("S")]
    assert apexes == ["S1", "S2", "S3"]


def test_full_construction_d8_reaches_minimum_size():
    result = construct_nonsimplicial_mani(8)
    assert result.all_checks_pass()
    assert result.f0 == 15 == formulas(8).M
    assert result.is_mani_size


def test_full_construction_d16_ell3_pinned_counts():
    result = construct_nonsimplicial_mani(16, ell=3)
    assert result.all_checks_pass()
    assert result.f0 == 25
    assert result.is_mani_size
    assert len(result.base.facets) == 121
    assert len(result.stacked.facets) == 196


def test_gamma_runs_only_under_the_cap():
    # the opposite-set number is a library function on a built polytope,
    # not part of a build, and brute-forces only under its cap
    report = gamma(construct_nonsimplicial_mani(6).stacked, cap=14)
    assert (report.value, report.vertex, report.witness) == (3, "S1", ("B1.0", "B1.1", "B1.2"))
    with pytest.raises(TooLargeForBruteForceError):  # f0 = 25 exceeds the cap
        gamma(construct_nonsimplicial_mani(16, ell=3).stacked, cap=14)


def test_unknown_mode_rejected():
    with pytest.raises(BadParametersError):
        construct_nonsimplicial_mani(6, mode="fast")


def test_strict_mode_raises_on_failed_check():
    result = construct_nonsimplicial_mani(6, strict=False)
    result.checks["illuminated"] = False
    with pytest.raises(CheckFailedError) as info:
        result.raise_on_failure()
    assert info.value.check == "illuminated"
    assert info.value.result is result


def test_diagonal_partners_cover_all_vertices_d6():
    result = construct_nonsimplicial_mani(6)
    paired = {v for v, _ in result.diagonal_partner}
    assert paired == set(result.stacked.vertices)
    diagonals = {frozenset(pair) for pair in result.diagonal_partner}
    from galepoly.polytope import inner_diagonals

    actual = {frozenset(pair) for pair in inner_diagonals(result.stacked)}
    assert diagonals <= actual


def test_geometric_stack_on_octahedron_pinned():
    pts = PointConfiguration.from_pairs(
        3,
        [
            ("+1", (1, 0, 0)),
            ("-1", (-1, 0, 0)),
            ("+2", (0, 1, 0)),
            ("-2", (0, -1, 0)),
            ("+3", (0, 0, 1)),
            ("-3", (0, 0, -1)),
        ],
    )
    stacked, cert, interior = geometric_stack_point(pts, ("+1", "+2", "+3"))
    assert cert.apex_label == "z0"
    assert cert.normal == (QQ(1), QQ(1), QQ(1)) and cert.offset == QQ(1)
    assert cert.epsilon == QQ(1, 2)
    assert cert.trials == 2
    assert cert.apex == (QQ(5, 6), QQ(5, 6), QQ(5, 6))
    assert stacked.labels[-1] == "z0"
    assert dot(cert.normal, cert.apex) > cert.offset
    # one interior certificate per point off the facet: an affine
    # dependence of the stacked points, positive off the diagonal
    assert sorted(interior) == ["-1", "-2", "-3"]
    lifted = [(1,) + p for p in stacked.coords]
    for lab, c in interior.items():
        pair = (len(pts), pts.labels.index(lab))
        assert len(c) == len(stacked) and all(c[u] > 0 for u in range(len(c)) if u not in pair)
        assert all(sum(w * a for w, a in zip(c, col)) == 0 for col in zip(*lifted))


def test_geometric_stack_on_flat_quadrilateral_pinned():
    pts = PointConfiguration.from_pairs(
        2,
        [("A", (0, 0)), ("B", (1, 0)), ("C", (2, "1/4")), ("D", (0, 1))],
    )
    stacked, cert, _ = geometric_stack_point(pts, ("A", "B"))
    assert cert.normal == (QQ(0), QQ(-1)) and cert.offset == QQ(0)
    assert cert.epsilon == QQ(1, 16)
    assert cert.trials == 5
    assert cert.apex == (QQ(1, 2), QQ(-1, 16))


def test_geometric_stack_validation():
    pts = PointConfiguration.from_pairs(
        2, [("A", (0, 0)), ("B", (1, 0)), ("C", (0, 1))]
    )
    with pytest.raises(NotAFacetError):
        geometric_stack_point(pts, ("A",))
    with pytest.raises(BadParametersError):
        geometric_stack_point(pts, ("A", "B"), new_label="C")
    with pytest.raises(NoEpsilonFoundError):
        geometric_stack_point(pts, ("A", "B"), max_halvings=1,
                              guard_planes=[((QQ(0), QQ(-1)), QQ(0))])


def test_certificate_construction_d6_pinned():
    result = construct_nonsimplicial_mani(6, mode="certificate")
    assert result.mode == "certificate"
    assert set(result.checks) == CERTIFICATE_CHECKS
    assert result.all_checks_pass()
    assert result.f0 == 12
    assert result.is_mani_size
    assert len(result.base_points) == 9
    assert result.points.d == 6
    assert [c.epsilon for c in result.stacks] == [QQ(1, 32), QQ(1, 16), QQ(1, 16)]
    assert [c.apex_label for c in result.stacks] == ["S1", "S2", "S3"]
    assert result.fat_facet is not None and len(result.fat_facet) == 7
    assert result.fat_facet_plane is not None
    normal, offset = result.fat_facet_plane
    fat = set(result.fat_facet)
    for lab, coord in zip(result.points.labels, result.points.coords):
        if lab in fat:
            assert dot(normal, coord) == offset
        else:
            assert dot(normal, coord) < offset


def test_certificate_and_full_modes_agree_on_d6():
    full = construct_nonsimplicial_mani(6)
    cert = construct_nonsimplicial_mani(6, mode="certificate")
    assert full.f0 == cert.f0
    # the geometric stacking realizes the combinatorics the full mode found
    poly = full.stacked
    report = illumination_report(poly)
    assert report.illuminated
    for v, w in cert.diagonal_partner:
        assert v in poly.vertices and w in poly.vertices


def test_dual_stage_requires_certificate_mode():
    full = construct_nonsimplicial_mani(6)
    with pytest.raises(BadParametersError):
        dual_spanning_report(full)


def test_dual_stage_proves_k_2_only():
    cert = construct_nonsimplicial_mani(6, mode="certificate")
    for k in (1, 3):
        with pytest.raises(BadParametersError, match="k = 2 only"):
            dual_spanning_report(cert, k=k)


def test_dual_stage_d6_is_minimal_but_within_bound():
    cert = construct_nonsimplicial_mani(6, mode="certificate")
    report = dual_spanning_report(cert)
    assert report.k == 2
    assert len(report.dual) == 12
    assert report.dual.m == 5
    assert report.classical_bound == 20
    assert report.spanning and report.minimal
    assert not report.exceeds_bound
    assert not report.verdict()  # no counterexample in dimension 6
    assert len(report.per_index) == 12


def test_realized_base_matches_enumerated_base_for_d6():
    plan = build_block_diagram(6)
    points = realize(plan.config)
    dual = gale_dual(points)
    from galepoly.gale import enumerate_facet_complements

    assert enumerate_facet_complements(dual) == enumerate_facet_complements(
        plan.config
    )


@pytest.mark.parametrize("d,p", [(d, p) for d in range(6, 10) for p in (3, 4, 5)])
def test_realizes_the_realized_plan_and_its_affine_images_only(d, p):
    plan = build_block_diagram(d, p=p)
    points = realize(plan.config)
    assert realizes(plan.config, points)

    def mapped(f):
        return PointConfiguration(
            d=points.d, labels=points.labels, coords=tuple(f(i, x) for i, x in enumerate(points.coords))
        )

    # an invertible affine map keeps the affine dependences
    sheared = mapped(lambda i, x: (2 * x[0] + x[1] + 3,) + x[1:])
    assert realizes(plan.config, sheared)
    # one point moved by 1/7 breaks them: no dependence fits the diagram
    moved = mapped(lambda i, x: (x[0] + QQ(1, 7),) + x[1:] if i == 0 else x)
    assert not realizes(plan.config, moved)
    # the right points under the wrong labels, or in a wrong dimension
    swapped = PointConfiguration(d=points.d, labels=points.labels[::-1], coords=points.coords)
    assert not realizes(plan.config, swapped)
    flat = PointConfiguration(d=points.d - 1, labels=points.labels, coords=tuple(x[1:] for x in points.coords))
    assert not realizes(plan.config, flat)


def test_certificate_mode_rejects_a_gamma_cap():
    # no build computes gamma, in either mode: the parameter is gone
    for mode in ("full", "certificate"):
        with pytest.raises(TypeError, match="gamma_cap"):
            construct_nonsimplicial_mani(6, mode=mode, gamma_cap=14)
    assert not hasattr(construct_nonsimplicial_mani(6, mode="certificate"), "gamma_report")


def test_mani_simplicial_d4_is_not_minimum_size():
    result = mani_simplicial(4)
    assert result.f0 == 9
    assert result.all_checks_pass()
    assert not result.is_mani_size  # M(4) = 8 < 9 = nu(4)
    assert result.cover == (("1", "6"), ("2", "5"), ("3", "4"))
    assert result.stacked.is_simplicial()


def test_mani_simplicial_d6_reaches_minimum_size():
    result = mani_simplicial(6)
    assert result.f0 == 12
    assert result.all_checks_pass()
    assert result.is_mani_size
    assert len(result.cover) == 4
    assert all(len(c) == 2 for c in result.cover)


def test_mani_simplicial_validation():
    with pytest.raises(BadParametersError):
        mani_simplicial(2)


def test_builds_leave_no_cyclic_garbage():
    # the recursive helpers behind the cyclic facets and the simplicial
    # cover hold no function-cell cycle, so what a build drops is freed at
    # once, without the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for d in range(12, 17):
            mani_simplicial(d)
            assert gc.collect() == 0, d
        construct_nonsimplicial_mani(12, 1, mode="full")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mani_construction_defaults():
    empty = ManiConstruction(plan=build_block_diagram(6), mode="full")
    assert not empty.all_checks_pass()
    assert empty.f0 == 0


def test_construction_checks_survive_optimized_mode():
    """The checks behind the formulas, the block diagram, apex placement,
    the designated facets, the simplicial base, the dual's removal
    witnesses and report assembly raise under ``python -O``."""
    code = textwrap.dedent(
        """
        import sys
        from galepoly import jsonio, lp, mani, polytope
        from galepoly.errors import BadParametersError, CertificateError, NotAFacetError
        from galepoly.gale import PointConfiguration

        def expect_error(call, error=CertificateError, match=""):
            try:
                call()
            except error as exc:
                if match in str(exc):
                    return
            sys.exit("an unchecked verdict went unnoticed")

        real = mani._ceil_two_sqrt
        mani._ceil_two_sqrt = lambda d: 0
        expect_error(lambda: mani.formulas(6))
        mani._ceil_two_sqrt = real

        # a diagram that lost a vector, then one whose first block has a
        # negated vector
        real = mani.VectorConfiguration
        class Dropping:
            from_pairs = staticmethod(lambda m, pairs: real.from_pairs(m, pairs[:-1]))
        class Negating:
            from_pairs = staticmethod(lambda m, pairs: real.from_pairs(
                m, [(pairs[0][0], [-x for x in pairs[0][1]])] + pairs[1:]))
        for forged in (Dropping, Negating):
            mani.VectorConfiguration = forged
            expect_error(lambda: mani.build_block_diagram(6))
        mani.VectorConfiguration = real

        # a hyperplane the apex never gets beyond
        octahedron = PointConfiguration.from_pairs(3, [
            ("+1", (1, 0, 0)), ("-1", (-1, 0, 0)), ("+2", (0, 1, 0)),
            ("-2", (0, -1, 0)), ("+3", (0, 0, 1)), ("-3", (0, 0, -1)),
        ])
        expect_error(lambda: mani.geometric_stack_point(
            octahedron, ("+1", "+2", "+3"), hyperplane=((1, 1, 1), 10)))

        # a designated facet whose supporting-hyperplane check fails
        real = mani.supporting_hyperplane
        mani.supporting_hyperplane = lambda points, facet: None
        expect_error(lambda: mani.construct_nonsimplicial_mani(6, 1, mode="certificate"),
                     NotAFacetError)
        mani.supporting_hyperplane = real

        real = mani.cyclic_polytope
        pyramid = polytope.IncidencePolytope(d=3, vertices=tuple("abcde"), facets=(
            tuple("abcd"), tuple("abe"), tuple("bce"), tuple("cde"), tuple("ade")))
        mani.cyclic_polytope = lambda d, n: pyramid
        expect_error(lambda: mani.mani_simplicial(3))
        mani.cyclic_polytope = real

        # a forged midpoint certificate kept from a stacking trial, on fewer
        # points than the final ones: a c that is no dependence of the
        # points, then the true c negated
        c = mani.construct_nonsimplicial_mani(6, 1, mode="certificate")
        honest = c.diagonal_flags
        if len(honest[0]) >= len(c.points):
            sys.exit("the first diagonal is not proved on a trial's prefix hull")
        forges = (lambda c: (1,) * len(c), lambda c: tuple(-w for w in c))
        for forge in forges:
            c.diagonal_flags = (forge(honest[0]),) + honest[1:]
            expect_error(lambda: mani.dual_spanning_report(c))
        c.diagonal_flags = honest

        # the trials' own Gale-side step forged: the Farkas vector of each
        # diagonal LP negated, so each c is too; then a Gale dual scaled
        # vector by vector, which changes no LP verdict but leaves each c
        # no affine dependence.  The diagonal re-check raises on both.
        real = lp.solve_feasibility
        def negated(columns, b):
            x, y = real(columns, b)
            if y is not None and sys._getframe(1).f_code.co_name == "hull_flags":
                y = tuple(-a for a in y)
            return x, y
        lp.solve_feasibility = negated
        build = lambda: mani.construct_nonsimplicial_mani(6, 1, mode="certificate")
        expect_error(build, match="Gale-side")
        lp.solve_feasibility = real
        real = mani.gale_dual
        def scaled_dual(points):
            dual = real(points)
            coords = tuple(tuple((u + 1) * a for a in v) for u, v in enumerate(dual.coords))
            return mani.VectorConfiguration(m=dual.m, labels=dual.labels, coords=coords)
        mani.gale_dual = scaled_dual
        expect_error(build, match="Gale-side")
        mani.gale_dual = real

        # weights that are no dependence give a c outside the column space of
        # V*: the one elimination finds no h for it, and that raises too
        real = mani.ExactMatrix
        solved = []
        class Recording(real):
            def solve_columns(self, rhs):
                solved.append(real.solve_columns(self, rhs))
                return solved[-1]
        mani.ExactMatrix = Recording
        c.diagonal_flags = (forges[0](honest[0]),) + honest[1:]
        expect_error(lambda: mani.dual_spanning_report(c))
        c.diagonal_flags = honest
        if [h is None for h in solved[0]] != [True] + [False] * (len(solved[0]) - 1):
            sys.exit("the forged c was solved")

        # forged solutions h of V* h = c from the one elimination: negated,
        # zero, then none
        for forge in (lambda h: tuple(-a for a in h), lambda h: (0,) * len(h), lambda h: None):
            class Forged(real):
                def solve_columns(self, rhs, forge=forge):
                    return tuple(forge(h) for h in real.solve_columns(self, rhs))
            mani.ExactMatrix = Forged
            expect_error(lambda: mani.dual_spanning_report(c))
        mani.ExactMatrix = real
        if not mani.dual_spanning_report(c).minimal:
            sys.exit("the honest certificates prove no minimality")

        plan = mani.build_block_diagram(6)
        for mode in ("full", "certificate"):
            unbuilt = mani.ManiConstruction(plan=plan, mode=mode)
            expect_error(lambda: jsonio.build_report(unbuilt), BadParametersError)
        print(sys.flags.optimize)
        """
    )
    src = os.path.dirname(os.path.dirname(mani_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"

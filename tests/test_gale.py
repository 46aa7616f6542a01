"""Gale duality: cofaces, facet enumeration, dualization, realization."""

import itertools
import os
import subprocess
import sys
import textwrap

import pytest

from galepoly import gale as gale_module
from galepoly.errors import (
    BadParametersError,
    DegenerateInputError,
    EmptySelectionError,
    NotTwoSpanningError,
)
from galepoly.gale import (
    PointConfiguration,
    all_points_are_vertices,
    barycenter,
    enumerate_facet_complements,
    gale_dual,
    incidence_from_gale,
    is_coface,
    realize,
    supporting_hyperplane,
    verify_facets_geometrically,
)
from galepoly.linalg import QQ, dot
from galepoly.spanning import VectorConfiguration, standard_minimal_config

SQUARE_DIAGRAM = VectorConfiguration.from_pairs(
    1, [("1", (1,)), ("2", (-1,)), ("3", (1,)), ("4", (-1,))]
)

SQUARE_POINTS = PointConfiguration.from_pairs(
    2, [("1", (1, 1)), ("2", (-1, 1)), ("3", (-1, -1)), ("4", (1, -1))]
)

PRISM_POINTS = PointConfiguration.from_pairs(
    3,
    [
        ("a", (0, 0, 0)),
        ("b", (1, 0, 0)),
        ("c", (0, 1, 0)),
        ("d", (0, 0, 1)),
        ("e", (1, 0, 1)),
        ("f", (0, 1, 1)),
    ],
)


def test_point_configuration_validation():
    with pytest.raises(BadParametersError):
        PointConfiguration(d=1, labels=("a", "a"), coords=((QQ(0),), (QQ(1),)))
    with pytest.raises(Exception):
        PointConfiguration(d=2, labels=("a",), coords=((QQ(0),),))


def test_coface_of_opposite_pair():
    report = is_coface(SQUARE_DIAGRAM, (0, 1))
    assert report.is_coface
    assert report.certificate.kind == "PositiveDependence"
    assert report.certificate.lam == (QQ(1), QQ(1))


def test_coface_fails_on_same_sign_pair():
    report = is_coface(SQUARE_DIAGRAM, (0, 2))
    assert not report.is_coface
    assert report.certificate.kind == "StiemkeWitness"
    assert report.certificate.functional == (QQ(1),)


def test_single_nonzero_vector_is_never_a_coface():
    report = is_coface(SQUARE_DIAGRAM, (0,))
    assert not report.is_coface
    with pytest.raises(EmptySelectionError):
        is_coface(SQUARE_DIAGRAM, ())


def test_square_diagram_minimal_cofaces():
    assert enumerate_facet_complements(SQUARE_DIAGRAM) == [
        (0, 1),
        (0, 3),
        (1, 2),
        (2, 3),
    ]


def test_square_dual_is_the_alternating_diagram():
    dual = gale_dual(SQUARE_POINTS)
    assert dual.m == 1
    assert dual.labels == ("1", "2", "3", "4")
    signs = [v[0] for v in dual.coords]
    assert signs[0] != 0
    normalized = [s / abs(signs[0]) for s in signs]
    assert normalized in ([QQ(1), QQ(-1), QQ(1), QQ(-1)], [QQ(-1), QQ(1), QQ(-1), QQ(1)])
    assert enumerate_facet_complements(dual) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_simplex_dual_is_empty_dimensional():
    simplex_points = PointConfiguration.from_pairs(
        2, [("1", (0, 0)), ("2", (1, 0)), ("3", (0, 1))]
    )
    dual = gale_dual(simplex_points)
    assert dual.m == 0
    assert all(v == () for v in dual.coords)
    # m = 0 convention: every singleton is a minimal coface
    assert enumerate_facet_complements(dual) == [(0,), (1,), (2,)]


def test_gale_dual_rejects_degenerate_points():
    with pytest.raises(DegenerateInputError):
        gale_dual(
            PointConfiguration.from_pairs(2, [("1", (0, 0)), ("2", (1, 1))])
        )
    collinear = PointConfiguration.from_pairs(
        2, [("1", (0, 0)), ("2", (1, 1)), ("3", (2, 2))]
    )
    with pytest.raises(DegenerateInputError):
        gale_dual(collinear)


def test_prism_dual_has_three_antipodal_pair_cofaces():
    dual = gale_dual(PRISM_POINTS)
    assert dual.m == 2
    cofaces = enumerate_facet_complements(dual)
    sizes = sorted(len(c) for c in cofaces)
    assert sizes == [2, 2, 2, 3, 3]
    poly = incidence_from_gale(dual)
    assert poly.d == 3
    facet_sizes = sorted(len(f) for f in poly.facets)
    assert facet_sizes == [3, 3, 4, 4, 4]
    triangles = [set(f) for f in poly.facets if len(f) == 3]
    assert {"a", "b", "c"} in triangles and {"d", "e", "f"} in triangles


def test_realize_square_diagram_round_trip():
    points = realize(SQUARE_DIAGRAM)
    assert points.d == 2
    assert points.labels == SQUARE_DIAGRAM.labels
    dual = gale_dual(points)
    assert enumerate_facet_complements(dual) == enumerate_facet_complements(
        SQUARE_DIAGRAM
    )
    assert all_points_are_vertices(points)


def test_realize_standard_config_gives_unneighborly_five_polytope():
    from galepoly.polytope import missing_edges

    c = standard_minimal_config(2, 2)
    points = realize(c)
    assert points.d == 5
    poly = incidence_from_gale(c)
    assert poly.f0 == 8
    covered = {v for pair in missing_edges(poly) for v in pair}
    assert covered == set(poly.vertices)


def test_realize_rejects_non_two_spanning_input():
    c = VectorConfiguration.from_pairs(
        1, [("1", (1,)), ("2", (-1,)), ("3", (1,))]
    )
    with pytest.raises(NotTwoSpanningError) as info:
        realize(c)
    assert info.value.report is not None
    assert not info.value.report.spanning
    with pytest.raises(NotTwoSpanningError):
        incidence_from_gale(c)


def test_zero_vector_rejected_despite_two_spanning():
    pairs = list(standard_minimal_config(2, 2).pairs()) + [("zero", (0, 0))]
    c = VectorConfiguration.from_pairs(2, pairs)
    # still passes the deletion test, so rejection must be explicit
    with pytest.raises(NotTwoSpanningError):
        realize(c)
    with pytest.raises(NotTwoSpanningError):
        incidence_from_gale(c)


def test_caratheodory_bound_on_minimal_cofaces():
    for c in (SQUARE_DIAGRAM, gale_dual(PRISM_POINTS), standard_minimal_config(2, 2)):
        for coface in enumerate_facet_complements(c):
            assert len(coface) <= c.m + 1


def test_supporting_hyperplane_of_square_edge():
    plane = supporting_hyperplane(SQUARE_POINTS, ("1", "2"))
    assert plane is not None
    normal, offset = plane
    assert normal == (QQ(0), QQ(1)) and offset == QQ(1)
    for lab, p in zip(SQUARE_POINTS.labels, SQUARE_POINTS.coords):
        value = dot(normal, p)
        if lab in ("1", "2"):
            assert value == offset
        else:
            assert value < offset


def test_supporting_hyperplane_rejects_non_faces():
    assert supporting_hyperplane(SQUARE_POINTS, ("1", "3")) is None
    assert supporting_hyperplane(SQUARE_POINTS, ("1", "2", "3", "4")) is None
    with pytest.raises(BadParametersError):
        supporting_hyperplane(SQUARE_POINTS, ("nope",))


def test_verify_facets_geometrically_on_prism():
    dual = gale_dual(PRISM_POINTS)
    poly = incidence_from_gale(dual)
    assert verify_facets_geometrically(PRISM_POINTS, poly.facets)
    fake = [("a", "b", "c", "d")]
    assert not verify_facets_geometrically(PRISM_POINTS, fake)


def test_every_point_of_the_prism_is_a_vertex():
    assert all_points_are_vertices(PRISM_POINTS)
    with_center = PointConfiguration.from_pairs(
        3,
        list(zip(PRISM_POINTS.labels, PRISM_POINTS.coords))
        + [("mid", ("1/3", "1/3", "1/2"))],
    )
    assert not all_points_are_vertices(with_center)


def test_every_vertex_is_a_face_in_two_spanning_diagrams():
    for c in (SQUARE_DIAGRAM, standard_minimal_config(2, 2)):
        n = len(c)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            assert is_coface(c, others).is_coface


def test_barycenter():
    assert barycenter([(0, 0), (2, 0), (1, 3)]) == (QQ(1), QQ(1))
    with pytest.raises(BadParametersError):
        barycenter([])


def test_coface_complements_partition_into_faces_and_nonfaces():
    # exhaustive cross-check on the square: subsets of points are faces
    # exactly when their complements are cofaces of the dual diagram
    dual = gale_dual(SQUARE_POINTS)
    n = 4
    face_sets = set()
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            complement = [i for i in range(n) if i not in subset]
            if is_coface(dual, complement).is_coface:
                face_sets.add(subset)
    # proper nonempty faces of a square: 4 vertices + 4 edges
    assert len(face_sets) == 8


def test_realize_and_enumeration_checks_survive_optimized_mode():
    """The checks behind ``realize``, the coface size bound and the 2-spanning
    verdict of ``incidence_from_gale`` raise under ``python -O``."""
    code = textwrap.dedent(
        """
        import sys
        from galepoly import gale, mani
        from galepoly.errors import CertificateError
        from galepoly.linalg import ExactMatrix
        from galepoly.lp import DependenceCertificate

        config = mani.build_block_diagram(6).config

        def expect_error(call):
            try:
                call()
            except CertificateError:
                return
            sys.exit("an unchecked verdict went unnoticed")

        # realize: a 2-spanning configuration without a positive dependence
        real = gale.strict_positive_dependence
        gale.strict_positive_dependence = lambda coords, selection: DependenceCertificate(
            "StiemkeWitness", functional=(1,) * config.m
        )
        expect_error(lambda: gale.realize(config))
        gale.strict_positive_dependence = real

        # realize: the positive dependence outside the kernel
        ExactMatrix.solve = lambda self, b: None
        expect_error(lambda: gale.realize(config))

        # enumeration: a minimal coface beyond the size bound m + 1, forged
        # on the direction classes as all n of them at once
        real_candidates = gale._candidates
        gale._candidates = lambda free, n: [(tuple(range(n)), (1 << n) - 1)]
        expect_error(lambda: gale.enumerate_facet_complements(config))
        gale._candidates = real_candidates

        # incidence: a coface verdict that the deletion scan contradicts
        gale._two_spanning_from_cofaces = lambda config, cofaces: False
        expect_error(lambda: gale.incidence_from_gale(config))
        print(sys.flags.optimize)
        """
    )
    src = os.path.dirname(os.path.dirname(gale_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"

"""Constructions of illuminated polytopes with few vertices.

Two families live here.

* ``mani_simplicial``: a cyclic polytope on d + p vertices stacked on q + 1
  facets whose vertex-complements cover every vertex.  The result is a
  simplicial illuminated d-polytope with nu(d) = d + p + q + 1 vertices,
  where p is the least integer with p(p+1) >= d and q = ceil(d/p).

* ``construct_nonsimplicial_mani``: a Gale-diagram construction.  The
  diagram consists of blocks that are copies of the positive basis
  B = {-(1,...,1), e_1, ..., e_{p-1}} of R^(p-1) or its negative; each
  block is the complement of a simplex facet of the realized polytope Q,
  and stacking a pyramid over each of the q + 1 designated facets yields an
  illuminated polytope P with d + p + q + 1 vertices.  Because the diagram
  contains an opposite pair of vectors, Q (and P) keeps a facet with more
  than d vertices, so P is not simplicial.

``construct_nonsimplicial_mani`` runs in two modes.  ``full`` enumerates
every facet of Q from the diagram and stacks combinatorially; it is the
reference route for small d.  ``certificate`` never enumerates: it realizes
Q exactly, places each apex geometrically, and certifies each required
property (vertexhood, inner diagonals, a fat facet) by exact LPs and
hyperplane checks, which keeps d = 36 tractable.  Each designated facet is
proved once, by its supporting hyperplane on the realized base
(``designated_planes``).  An apex goes at barycenter + eps * normal for the
first eps of 1, 1/2, 1/4, ... at which every flag holds; by the
beneath-beyond lemma that is the first eps beneath F's neighbouring
facets and the guard planes, so it is computed from them
(``_first_trial``) and the trials before it are not run; that trial's
flags are still tested by exact LPs.  Vertices are tested on the points;
inner diagonals on the Gale dual of the hull, where faces of the points
match cofaces of V* (``hull_flags``).  Each trial's points are one
``PointConfiguration``, which keeps the one Gale dual taken of it and its
one lifted integer view as cached properties (``gale_dual``, ``lifted``);
every re-check on the lifted rows (1, p_u), the dual stage's and
``realizes``' included, reads that view.  The accepted trial's points are
the stacked points.  A vertex's separating functional is kept and
re-checked by arithmetic at later trials.  The build solves no vertex LP:
it offers functionals from proofs it holds, the base points' read off
``realize``'s 2-spanning scan (``_base_separators``) and each apex's its
stack plane; the LP runs only for one that fails its re-check.  Each
apex's accepted trial keeps the interior certificates of its diagonals,
which prove every partner pair with no final midpoint LP.

``spanning_bound_counterexample`` chains the d = 36 certificate build with
dualization: the Gale dual of the resulting 49-vertex polytope is certified
minimal positively 2-spanning with 49 > 2*2*12 vectors in R^12, beating the
classical 2km bound on the size of minimal positively k-spanning
configurations.  Both halves of that proof are read off the build's
certificates by Gale duality, on the dual the last stacking trial already
took, and the dual stage has no LP path: the base scan is proved off the
separating functionals of the vertices, re-checked as positive
dependences of the dual, and the witness that no vector can be removed off
the interior certificate of each vertex's inner diagonal, an affine
dependence of the points, all indices solved in one elimination of the
dual.  Both are re-checked by ``lp.verify_certificate``, the library's one
certificate check, on the dual's integer rows and in integer arithmetic.
A functional or certificate that fails its re-check leaves its verdict
unproven (false); no LP runs in its place.

Verify re-runs the certificate-mode steps a report does not embed through
the functions build calls (``designated_planes``, ``vertex_proofs``,
``midpoint_flags``, ``dual_spanning_report``) on the report's own points,
without the build's kept proofs; its midpoint flags and dual checks share
one Gale dual of those points.  It re-checks by arithmetic that the
first points realize the plan (``realizes``) and that the recorded apex
placements stand on the designated planes (``stack_mismatch``); those
checked stack planes are then the apexes' vertex functionals, re-checked
like the build's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile

from . import lp
from .errors import (
    BadParametersError,
    CertificateError,
    CheckFailedError,
    DegenerateInputError,
    NoCoverFoundError,
    NoEpsilonFoundError,
    NotAFacetError,
)
from .gale import (
    PointConfiguration,
    barycenter,
    gale_dual,
    incidence_from_gale,
    # the realized base with the proofs realize solved on the way
    realize_with_proofs as realize,
    supporting_hyperplane,
)
from .linalg import (
    QQ,
    ExactMatrix,
    check_dimension,
    dot,
    integer_multiple,
    primitive,
    separates,
    vec_add,
    vec_scale,
)
from .lp import (
    KIND_POSITIVE_DEPENDENCE,
    KIND_STIEMKE_WITNESS,
    DependenceCertificate,
    separating_functional,
    verify_certificate,
)
from .polytope import (
    IncidencePolytope,
    cyclic_polytope,
    illumination_report,
    stack_simplex_facet,
)
from .spanning import VectorConfiguration


# ---------------------------------------------------------------------------
# Counting formulas


@dataclass(frozen=True)
class FormulaRow:
    """Vertex-count data for one dimension.

    ``nu`` is the vertex count d + p + q + 1 achieved by both constructions;
    ``M`` = min(2d, nu) is the least number of vertices of an illuminated
    d-polytope (2d from the crosspolytope).
    """

    d: int
    p: int
    q: int
    nu: int
    M: int


def default_block_size(d: int) -> int:
    """Least p >= 1 with p(p+1) >= d; minimizes p + ceil(d/p)."""
    check_dimension(d, 1)
    p = max(1, (math.isqrt(4 * d + 1) - 1) // 2)
    while p * (p + 1) < d:
        p += 1
    while p > 1 and (p - 1) * p >= d:
        p -= 1
    return p


def _ceil_two_sqrt(d: int) -> int:
    t = math.isqrt(4 * d)
    return t if t * t >= 4 * d else t + 1


def formulas(d: int) -> FormulaRow:
    """p, q, nu, M for dimension d, cross-checked against two closed forms."""
    p = default_block_size(d)
    q = -(-d // p)
    nu = d + p + q + 1
    if nu != d + 1 + _ceil_two_sqrt(d):
        raise CertificateError("nu disagrees with d + 1 + ceil(2 sqrt d)")
    # ceil((sqrt d + 1)^2) = d + 1 + ceil(2 sqrt d) because d + 1 is an integer
    M = min(2 * d, nu)
    return FormulaRow(d=d, p=p, q=q, nu=nu, M=M)


def formula_table(max_dim: int) -> tuple[tuple[FormulaRow, ...], int | None]:
    """Rows for d = 1..max_dim and the first d with nu(d) < 2d, if any."""
    check_dimension(max_dim, 1, "max dimension")
    rows = tuple(formulas(d) for d in range(1, max_dim + 1))
    first = next((r.d for r in rows if r.nu < 2 * r.d), None)
    return rows, first


# ---------------------------------------------------------------------------
# Block Gale diagrams


@dataclass(frozen=True)
class BlockDiagramPlan:
    """A block Gale diagram together with its designated facet complements.

    The configuration has d + p vectors in R^(p-1): ell blocks valued at the
    positive basis B, q - ell blocks valued at -B, and a trailing group that
    completes to d + p vectors.  ``designated`` lists q + 1 named label sets
    of size p, each valued exactly at B or -B, so each is the complement of
    a simplex facet of the realized polytope.
    """

    d: int
    p: int
    q: int
    ell: int
    config: VectorConfiguration
    designated: tuple[tuple[str, tuple[str, ...]], ...]


def _basis_block(p: int, negate: bool) -> list[tuple[Fraction, ...]]:
    sign = QQ(-1) if negate else QQ(1)
    allones = tuple(-sign for _ in range(p - 1))
    vectors = [allones]
    for j in range(p - 1):
        vectors.append(tuple(sign if i == j else QQ(0) for i in range(p - 1)))
    return vectors


def build_block_diagram(d: int, p: int | None = None, ell: int = 1) -> BlockDiagramPlan:
    """Assemble the block diagram for dimension d with block size p.

    Block size defaults to the optimal one, bumped to 3 when that is
    smaller: with p = 2 the blocks are opposite pairs themselves and the
    fat-facet witness collapses, so the construction needs p >= 3.  ``ell``
    counts the positive blocks and must leave at least one negative block.
    """
    check_dimension(d, 1)
    if d < 6:
        raise BadParametersError("the block construction needs d >= 6")
    if p is None:
        p = max(3, default_block_size(d))
    check_dimension(p, 1, "block size p")
    if p < 3:
        raise BadParametersError(f"block size p = {p} is too small; need p >= 3")
    check_dimension(ell, 1, "ell")
    q = -(-d // p)
    if q < 2:
        raise BadParametersError(
            f"block size p = {p} leaves fewer than two blocks for d = {d}"
        )
    remainder = d + p - p * q
    if not 1 <= ell <= q - 1:
        raise BadParametersError(f"ell must lie in [1, {q - 1}] for d = {d}, p = {p}")
    pos = _basis_block(p, negate=False)
    neg = _basis_block(p, negate=True)
    pairs: list[tuple[str, tuple[Fraction, ...]]] = []
    designated: list[tuple[str, tuple[str, ...]]] = []
    for i in range(1, ell + 1):
        labels = tuple(f"B{i}.{j}" for j in range(p))
        pairs.extend(zip(labels, pos))
        designated.append((f"B{i}", labels))
    for i in range(1, q - ell + 1):
        labels = tuple(f"T{i}.{j}" for j in range(p))
        pairs.extend(zip(labels, neg))
        designated.append((f"T{i}", labels))
    trailing = tuple(f"C.{j}" for j in range(remainder))
    pairs.extend(zip(trailing, neg[:remainder]))
    borrowed = tuple(f"T1.{j}" for j in range(remainder, p))
    designated.append(("Bprime", trailing + borrowed))
    config = VectorConfiguration.from_pairs(p - 1, pairs)
    if len(config) != d + p:
        raise CertificateError(f"the diagram has {len(config)} vectors, not d + p = {d + p}")
    blocks = (sorted(pos), sorted(neg))
    for _, labels in designated:
        values = sorted(config.coords[config.index_of(lab)] for lab in labels)
        if values not in blocks:
            raise CertificateError("designated complement is not a positive basis block")
    return BlockDiagramPlan(
        d=d, p=p, q=q, ell=ell, config=config, designated=tuple(designated)
    )


# ---------------------------------------------------------------------------
# Geometric stacking


@dataclass(frozen=True)
class StackCertificate:
    """Everything needed to re-check one apex placement by arithmetic.

    The facet's supporting hyperplane is <normal, x> = offset with all other
    points strictly below; the apex sits at barycenter + epsilon * normal,
    with epsilon = 1/2^(trials - 1).  ``trials`` counts the halvings of the
    first height that passes, as if every height from 1 down had been
    tried; ``geometric_stack_point`` computes it rather than searching.
    """

    facet: tuple[str, ...]
    apex_label: str
    apex: tuple[Fraction, ...]
    normal: tuple[Fraction, ...]
    offset: Fraction
    epsilon: Fraction
    trials: int

    @property
    def functional(self) -> tuple[int, ...]:
        """The stack plane as an integer functional on the rows (1, x).

        It is positive at the apex and nonpositive wherever the plane is
        supporting, so it separates the apex from every point beneath the
        plane; ``hull_flags`` re-checks it before relying on it.
        """
        return tuple(integer_multiple((-self.offset, *self.normal)))


def hull_flags(points: PointConfiguration, vertices, diagonals, separators=None):
    """Exact LP flags on the hull of ``points``, yielded lazily in order.

    First, for each index in ``vertices``, whether that point is a vertex;
    then, for each index pair in ``diagonals``, the interior certificate of
    the pair's midpoint (so the segment is an inner diagonal), or None when
    the midpoint is not interior.  ``all()`` over the flags stops at the
    first failing LP.  Stacking trials (``geometric_stack_point``) keep the
    diagonal certificates of the trial they accept; verify's final midpoint
    LPs come through here too (``midpoint_flags``).

    ``separators`` maps point indices to kept separating functionals:
    integer vectors y on the rows (1, p_u), from earlier LPs
    (``separating_functional``) or from proofs a build already holds
    (``_base_separators``, ``StackCertificate.functional``).  None is
    trusted: a kept functional that is still positive on its point's row
    and nonpositive on every other row, checked in integers on the points'
    lifted view (``PointConfiguration.lifted``), proves the point a vertex
    without an LP.  Otherwise the LP runs and its functional is kept in the
    map.  Without ``separators`` every vertex flag solves its LP.

    The diagonals are tested on the Gale dual V* of the hull, the one
    ``gale_dual`` that ``points`` keeps; it also proves that the points
    affinely span R^d (a hull that does not has no interior point).
    Faces of the points match cofaces of V*, so the midpoint of p_i and p_j
    is interior exactly when V* minus {v*_i, v*_j} has no nonzero
    nonnegative dependence, that is (Gordan) when some h has h.v*_u > 0 for
    every u off the pair.  One ``solve_feasibility`` per pair asks for the
    dependence: columns (1, v*_u) for u off the pair, rhs (1, 0, ..., 0).
    Its Farkas vector y gives h = -y[1:], and the certificate is the
    integer vector c_u = h.v*_u over V*'s integer view (one common lcm,
    ``VectorConfiguration.integer_coords``, kept on the dual): an affine
    dependence of the points, positive at every u off the pair.  Both are
    re-checked in integers on the lifted view before c is yielded.  The
    view is read only by those re-checks, so it is built only for a hull
    that has one to make.
    """
    if separators is None:
        separators = {}
    coords = points.coords
    for i in vertices:
        kept = separators.get(i)
        if kept is not None and separates(kept, points.lifted, i):
            yield True
            continue
        # the vertex LP runs on the Fraction points, not on ``lifted``: it
        # scales each column by its own lcm, which keeps its entries smaller
        # than one common scale does (on the lifted view the d = 36 build
        # took 4.1 s to construct and 1.3 s to verify, against 2.5 s and
        # 0.6 s, CPU on a shared 2-vCPU VM)
        y = separating_functional(coords, i)
        if y is not None:
            separators[i] = tuple(integer_multiple(y))
        yield y is not None
    if not diagonals:
        return
    n = len(coords)
    try:
        dual = gale_dual(points)
    except DegenerateInputError:
        yield from (None for _ in diagonals)
        return
    # one common scale for V* and one for the points (their lifted view)
    # keep c a dependence of the points
    vstar = dual.integer_coords
    rhs = [1] + [0] * dual.m
    for i, j in diagonals:
        off = [u for u in range(n) if u not in (i, j)]
        # through the module, so a wrapper set on lp.solve_feasibility sees it
        _, y = lp.solve_feasibility([(1, *vstar[u]) for u in off], rhs)
        if y is None:
            yield None
            continue
        h = integer_multiple(y[1:])
        c = tuple(-sum(a * b for a, b in zip(h, v)) for v in vstar)
        if any(c[u] <= 0 for u in off) or any(sum(w * a for w, a in zip(c, col)) for col in zip(*points.lifted)):
            raise CertificateError(f"the Gale-side certificate of pair {i}, {j} proves no interior midpoint")
        yield c


def vertex_proofs(points: PointConfiguration, separators=None):
    """Whether each point is a vertex, and the separating functional of each.

    Returns the flags in point order and a map from each vertex's index to
    its integer separating functional.  ``separators`` holds functionals
    kept from earlier hulls, re-checked before any LP (``hull_flags``);
    without it every point solves its vertex LP.
    """
    separators = {} if separators is None else separators
    flags = tuple(hull_flags(points, range(len(points)), (), separators))
    return flags, {i: separators[i] for i, ok in enumerate(flags) if ok}


def midpoint_flags(points: PointConfiguration, pairs) -> tuple[tuple[int, ...] | None, ...]:
    """The interior certificate of the midpoint of each label pair, or None.

    A certificate is an integer affine dependence c of the points with
    c_u > 0 at every point off the pair (``hull_flags``); None means the
    midpoint is not interior.  One Gale dual of the points serves every
    pair (the one ``points`` keeps, so verify's dual check reads it too),
    and each pair solves its LP, in order.  Verify calls this on a
    report's final points; the build solves no final midpoint LP, as its
    stacking trials already proved each pair.
    """
    index = {lab: i for i, lab in enumerate(points.labels)}
    return tuple(hull_flags(points, (), [(index[a], index[b]) for a, b in pairs]))


def _value(y, row) -> int:
    return sum(a * b for a, b in zip(y, row))


def _first_trial(points: PointConfiguration, inside, hyperplane, guard_planes, center, max_halvings: int) -> int:
    """The first trial whose apex can pass.

    F is the simplex facet of the points at indices ``inside``, h its
    supporting functional (-offset, normal), and the apex of trial t sits at
    a(eps) = c + eps * normal, c = ``center``, eps = 1/2^(t - 1).  By the
    beneath-beyond lemma a trial passes exactly when a is beyond F and
    strictly beneath every other facet: then no old vertex is swallowed
    and no point off F shares a face with a, while a point on or beyond
    another facet puts a vertex off F on a face with a or swallows it.  The
    facets visible from a point form a connected set, so a is beneath every
    other facet once it is beneath F's d neighbours.

    The neighbour across the ridge F minus p_j is found by gift wrapping.
    One elimination of the rows of F in the lifted view and (0, normal)
    gives for each j the affine g_j that is 1 at p_j, 0 on the rest of F and
    constant along the normal.  The neighbour's plane is f_j = h + lam_j g_j
    with lam_j the largest -h(w)/g_j(w) over the points w with g_j(w) < 0
    (none: that facet never meets the apex's ray).  f_j is lam_j/d at c and
    rises along the normal as h does, so a leaves the region beneath it at
    eps_j = -f_j(c) / (h's rise).  The limit eps* is the least eps_j and
    guard threshold, and the first trial is the least t with
    1/2^(t - 1) < eps*; every trial before it fails.  ``max_halvings`` + 1
    means that none can pass.

    Unless h vanishes exactly on F and is negative on every other point,
    checked in integers on the lifted view, or when F's rows are dependent,
    the first trial is 1.
    """
    lifted, d = points.lifted, points.d
    normal, offset = hyperplane
    h = integer_multiple((-offset, *normal))
    on = set(inside)
    if len(h) != d + 1 or len(on) != d:
        return 1
    values = [_value(h, row) for row in lifted]
    if any(v != 0 if u in on else v >= 0 for u, v in enumerate(values)):
        return 1
    units = [[int(r == j) for r in range(d + 1)] for j in range(d)]
    solved = ExactMatrix([lifted[i] for i in inside] + [(0, *h[1:])]).solve_columns(units)
    if None in solved:
        return 1
    outside = [u for u in range(len(points)) if u not in on]
    # h on the apex's lifted row rises by lifted[0][0] * (h . normal) per
    # unit of eps, and so does every f_j, as g_j is constant along the normal
    rise = d * lifted[0][0] * dot(h[1:], normal)
    limits = []
    for i, g in zip(inside, solved):
        g = integer_multiple(g)
        ratios = [QQ(-values[w], gw) for w in outside if (gw := _value(g, lifted[w])) < 0]
        if ratios:
            limits.append(-max(ratios) * _value(g, lifted[i]) / rise)
    for a, b in guard_planes:
        slope = dot(a, normal)
        if slope > 0:
            limits.append((b - dot(a, center)) / slope)
    if not limits:
        return 1
    least = min(limits)
    if least <= 0:
        return max_halvings + 1
    return min(1 + (least.denominator // least.numerator).bit_length(), max_halvings + 1)


def geometric_stack_point(
    points: PointConfiguration,
    facet_labels,
    hyperplane=None,
    guard_planes=(),
    new_label: str | None = None,
    max_halvings: int = 60,
    separators=None,
) -> tuple[PointConfiguration, StackCertificate, dict[str, tuple[int, ...]]]:
    """Place an apex just beyond a simplex facet and certify the placement.

    The apex sits at barycenter + eps * normal, at the first of the heights
    eps = 1, 1/2, 1/4, ... at which (a) it stays strictly beneath every
    guard hyperplane, (b) every previous point remains a vertex of the
    enlarged hull, and (c) the midpoint of the segment from the apex to
    each point off the facet lies in the interior of the enlarged hull (so
    those segments are inner diagonals).  Being beyond the facet's own
    hyperplane holds for every positive height.  That first height is
    computed from the facet's neighbours and the guards (``_first_trial``),
    and the trials before it are not run.  Its trial tests every flag by
    ``hull_flags``, and if one fails the heights keep halving, so the
    accepted trial and its ``trials`` count are those of trying every
    height in turn.

    ``separators`` keeps the points' separating functionals across trials
    and calls (``hull_flags``); the apex is appended, so indices stay valid.
    The accepted apex is offered its stack plane
    (``StackCertificate.functional``), re-checked like any kept functional.

    Each trial builds its points first and tests its flags on them, so
    the stacked points returned are the accepted trial's, which keep the
    Gale dual their diagonals were tested on (``gale_dual``).

    Returns the stacked points, the placement's certificate, and the
    interior certificate of the accepted trial for each diagonal, keyed by
    the label of its point off the facet: an affine dependence of the
    stacked points, positive off the diagonal, read off their Gale dual
    (``hull_flags``).
    """
    facet = tuple(facet_labels)
    if hyperplane is None:
        hyperplane = supporting_hyperplane(points, facet)
        if hyperplane is None:
            raise NotAFacetError(f"{sorted(facet)} has no supporting hyperplane")
    normal, offset = hyperplane
    fset = set(facet)
    inside = [i for i, lab in enumerate(points.labels) if lab in fset]
    off_facet = [i for i, lab in enumerate(points.labels) if lab not in fset]
    center = barycenter([points.coords[i] for i in inside])
    if new_label is None:
        used = set(points.labels)
        j = 0
        while f"z{j}" in used:
            j += 1
        new_label = f"z{j}"
    elif new_label in points.labels:
        raise BadParametersError(f"label {new_label!r} already in use")

    start = _first_trial(points, inside, hyperplane, guard_planes, center, max_halvings)
    diagonals = [(len(points), i) for i in off_facet]
    for trial in range(start, max_halvings + 1):
        eps = QQ(1, 2 ** (trial - 1))
        apex = vec_add(center, vec_scale(eps, normal))
        if dot(normal, apex) <= offset:
            raise CertificateError("apex is not beyond the facet's hyperplane")
        if all(dot(a, apex) < b for a, b in guard_planes):
            stacked = PointConfiguration(
                d=points.d, labels=points.labels + (new_label,), coords=points.coords + (apex,)
            )
            held = list(takewhile(bool, hull_flags(stacked, range(len(points)), diagonals, separators)))
            if len(held) == len(points) + len(diagonals):
                cert = StackCertificate(
                    facet=facet,
                    apex_label=new_label,
                    apex=apex,
                    normal=normal,
                    offset=offset,
                    epsilon=eps,
                    trials=trial,
                )
                if separators is not None:
                    separators[len(points)] = cert.functional
                return stacked, cert, {points.labels[i]: c for i, c in zip(off_facet, held[len(points):])}
    raise NoEpsilonFoundError(
        f"no valid apex height within {max_halvings} halvings for facet {sorted(facet)}"
    )


def stack_mismatch(plan: BlockDiagramPlan, points: PointConfiguration, stacks, planes) -> str | None:
    """The first way ``stacks`` fail to place the apexes of ``points``, or None.

    ``points`` must list the plan's labels and then its q + 1 apexes, and
    stack i must place apex i over designated facet i as
    ``geometric_stack_point`` does: its plane a positive multiple of
    ``planes[i]``, the facet's supporting hyperplane on the base points
    (``designated_planes``), ``epsilon`` the ``1/2^(trials - 1)`` of the
    accepted trial, ``apex = barycenter(facet) + epsilon * normal`` (hence
    beyond the facet), the apex strictly beneath every other stack's plane
    (so each plane supports its facet over the earlier apexes too), and the
    apex equal to the point of that label.  Plain ``Fraction`` arithmetic,
    no LP.
    """
    facets, apexes = _designated_facets(plan), _apex_labels(plan.q)
    n = len(plan.config)
    if points.labels != plan.config.labels + tuple(apexes):
        return "need points labelled as the plan's vectors followed by the apexes " + ", ".join(apexes)
    if len(stacks) != len(facets):
        return f"lists {len(stacks)} stacks, not q + 1 = {len(facets)}"
    if any(len(s.normal) != points.d or len(s.apex) != points.d for s in stacks):
        return f"need normals and apexes of length d = {points.d}"
    for i, s in enumerate(stacks):
        where = f"stack {i}"
        if s.facet != facets[i] or s.apex_label != apexes[i]:
            return f"{where} does not put apex {apexes[i]} over designated facet {i}"
        if planes[i] is None or primitive(s.normal + (s.offset,)) != planes[i][0] + (planes[i][1],):
            return f"{where}'s plane does not support its facet as a multiple of the designated plane"
        # trial t tries epsilon = 1/2^(t - 1); the bit length bounds the power
        if s.trials != s.epsilon.denominator.bit_length() or s.epsilon != QQ(1, 2 ** (s.trials - 1)):
            return f"{where}'s epsilon is not 1/2^(trials - 1)"
        fset = set(facets[i])
        center = barycenter([p for lab, p in zip(points.labels[:n], points.coords) if lab in fset])
        if s.apex != vec_add(center, vec_scale(s.epsilon, s.normal)):
            return f"{where}'s apex is not barycenter + epsilon * normal"
        if any(dot(t.normal, s.apex) >= t.offset for j, t in enumerate(stacks) if j != i):
            return f"{where}'s apex is not beneath every other stack's plane"
        if s.apex != points.coords[n + i]:
            return f"{where}'s apex differs from point {apexes[i]}"
    return None


# ---------------------------------------------------------------------------
# The nonsimplicial construction


@dataclass
class ManiConstruction:
    """Result of the block-diagram construction, either mode.

    ``checks`` maps check names to booleans; a fully successful build has
    every value true.  Full mode fills ``base``/``stacked`` (combinatorial
    polytopes); certificate mode fills ``base_points``/``points`` and
    ``stacks`` plus the fat-facet witness, and keeps what its checks
    computed: the supporting hyperplanes ``designated_planes`` (one per
    designated facet of the base) and ``fat_facet_plane``, the LP flags
    ``vertex_flags`` per point, ``diagonal_flags``, the interior certificate
    (or None) of each ``diagonal_partner`` pair, and ``separators``, the
    integer separating functional of each point whose vertex flag holds
    (``vertex_proofs``).  A diagonal certificate is an integer affine
    dependence c of the points, positive off its pair (``hull_flags``).  A
    build's is the one the pair's apex kept from its accepted stacking
    trial, on the prefix of ``points`` up to that apex.  That prefix is
    full-dimensional, so its interior lies in the interior of the final
    hull.  Verify's are solved on all of ``points`` (``midpoint_flags``).
    """

    plan: BlockDiagramPlan
    mode: str
    checks: dict[str, bool] = field(default_factory=dict)
    base: IncidencePolytope | None = None
    stacked: IncidencePolytope | None = None
    base_points: PointConfiguration | None = None
    points: PointConfiguration | None = None
    stacks: tuple[StackCertificate, ...] = ()
    fat_facet: tuple[str, ...] | None = None
    fat_facet_plane: tuple[tuple[Fraction, ...], Fraction] | None = None
    designated_planes: tuple[tuple[tuple[Fraction, ...], Fraction] | None, ...] = ()
    diagonal_partner: tuple[tuple[str, str], ...] = ()
    vertex_flags: tuple[bool, ...] = ()
    diagonal_flags: tuple[tuple[int, ...] | None, ...] = ()
    separators: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def f0(self) -> int:
        if self.stacked is not None:
            return self.stacked.f0
        return len(self.points) if self.points is not None else 0

    @property
    def is_mani_size(self) -> bool:
        """Whether the vertex count meets the known minimum for dimension d."""
        return self.f0 == formulas(self.plan.d).M

    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def raise_on_failure(self) -> None:
        failed = sorted(name for name, ok in self.checks.items() if not ok)
        if failed:
            raise CheckFailedError(failed[0], self)


def _apex_labels(q: int) -> list[str]:
    return [f"S{i}" for i in range(1, q + 2)]


def _designated_facets(plan: BlockDiagramPlan) -> list[tuple[str, ...]]:
    labels = plan.config.labels
    out = []
    for _, comp in plan.designated:
        cset = set(comp)
        out.append(tuple(lab for lab in labels if lab not in cset))
    return out


def _construct_full(plan: BlockDiagramPlan) -> ManiConstruction:
    result = ManiConstruction(plan=plan, mode="full")
    base = incidence_from_gale(plan.config)
    result.base = base
    complements = {frozenset(base.vertices) - frozenset(f) for f in base.facets}
    result.checks["designatedAreFacets"] = all(
        frozenset(comp) in complements for _, comp in plan.designated
    )
    covered = set().union(*(set(c) for _, c in plan.designated))
    result.checks["complementsCoverVertices"] = covered == set(plan.config.labels)
    stacked = base
    facets = _designated_facets(plan)
    for facet, apex in zip(facets, _apex_labels(plan.q)):
        stacked = stack_simplex_facet(stacked, facet, new_label=apex)
    result.stacked = stacked
    report = illumination_report(stacked)
    result.checks["illuminated"] = report.illuminated
    result.checks["unneighborly"] = report.unneighborly
    result.diagonal_partner = tuple(
        (v, w) for v, w in report.diagonal_partner if w is not None
    )
    fat = next((f for f in stacked.facets if len(f) > stacked.d), None)
    result.fat_facet = fat
    result.checks["nonsimplicial"] = fat is not None
    result.checks["f0MatchesFormula"] = stacked.f0 == plan.d + plan.p + plan.q + 1
    return result


def designated_planes(plan: BlockDiagramPlan, base: PointConfiguration):
    """The supporting hyperplane of each designated facet of ``base``.

    ``base`` holds points labelled as the plan's vectors; the planes come
    in plan order, None where the facet has none.
    """
    return tuple(supporting_hyperplane(base, f) for f in _designated_facets(plan))


def realizes(config: VectorConfiguration, points: PointConfiguration) -> bool:
    """Whether a positive rescaling of ``config`` is a Gale diagram of ``points``.

    The labels must agree, V must have rank m, the lifted points (1, p_u)
    rank d + 1 with n = m + d + 1, and the linear system
    sum_u lam_u * v_u[c] * (1, p_u)[t] = 0 (one row per c, t) a kernel
    column that is strictly one-signed.  Then the columns of diag(lam) V
    lie in the affine dependences of the points, and span them by their
    rank, so diag(lam) V is a Gale diagram of the points; a positive
    rescaling keeps every coface.  Exact linear algebra, no LP.  The rank
    tests and the system read V's integer view
    (``VectorConfiguration.integer_coords``) and the points' lifted view
    (``PointConfiguration.lifted``), whose common factors change neither
    a rank nor the kernel.
    """
    n, m, d = len(config), config.m, points.d
    if points.labels != config.labels or n != m + d + 1:
        return False
    vints, lifted = config.integer_coords, points.lifted
    if ExactMatrix(vints, cols=m).rank() != m or ExactMatrix(lifted).rank() != d + 1:
        return False
    system = ExactMatrix(
        [[v[c] * a[t] for v, a in zip(vints, lifted)] for c in range(m) for t in range(d + 1)],
        cols=n,
    )
    kernel = system.kernel_basis()
    columns = (kernel.column(j) for j in range(kernel.cols))
    return any(all(x > 0 for x in col) or all(x < 0 for x in col) for col in columns)


def _base_separators(base: PointConfiguration, lam, dependences) -> dict[int, tuple[int, ...]]:
    """A separating functional of each point of the realized ``base``, read
    off the proofs ``realize_with_proofs`` returns with it; the converse of
    ``_dual_base_scan``.

    ``realize`` divides the rows of a basis of the dependences of V by its
    strictly positive dependence ``lam``, so every dependence mu of V has
    mu_u / lam_u = phi(p_u) for an affine phi.  ``dependences`` holds the
    2-spanning scan's ``PositiveDependence`` of V minus v_i for each i;
    with mu_i = 0, its phi is 0 at p_i and positive at every other point.
    Negated and shifted by half its least value there, it is positive at
    p_i alone.  One elimination of the lifted rows solves for every i; a
    system without a solution offers no functional, and ``hull_flags``
    re-checks the others.
    """
    rhs = []
    for i, weights in enumerate(dependences):
        mu = weights[:i] + (0,) + weights[i:]
        phi = [w / v for w, v in zip(mu, lam)]
        half = min(phi[:i] + phi[i + 1:]) / 2
        rhs.append([half - x for x in phi])
    solved = ExactMatrix(base.lifted).solve_columns(rhs)
    return {i: tuple(integer_multiple(y)) for i, y in enumerate(solved) if y is not None}


def _construct_certificate(plan: BlockDiagramPlan) -> ManiConstruction:
    result = ManiConstruction(plan=plan, mode="certificate")
    config = plan.config
    result.base_points, lam, dependences = realize(config)
    planes = designated_planes(plan, result.base_points)
    covered = set().union(*(set(c) for _, c in plan.designated))
    result.checks["complementsCoverVertices"] = covered == set(config.labels)
    if None in planes:
        raise NotAFacetError("designated complement fails the supporting-hyperplane check")
    result.designated_planes = planes
    result.checks["designatedAreFacets"] = True

    # one separating functional per point index, kept across all trials and
    # first read off realize's proofs, and the accepted trials' midpoint
    # certificates by apex-and-point label pair
    separators = _base_separators(result.base_points, lam, dependences)
    interior: dict[frozenset[str], tuple[int, ...]] = {}
    current = result.base_points
    stacks = []
    for i, (facet, apex) in enumerate(zip(_designated_facets(plan), _apex_labels(plan.q))):
        guards = [planes[j] for j in range(len(planes)) if j != i]
        current, cert, certs = geometric_stack_point(
            current,
            facet,
            hyperplane=planes[i],
            guard_planes=guards,
            new_label=apex,
            separators=separators,
        )
        stacks.append(cert)
        interior.update((frozenset((apex, lab)), c) for lab, c in certs.items())
    result.points = current
    result.stacks = tuple(stacks)
    result.checks["f0MatchesFormula"] = len(current) == plan.d + plan.p + plan.q + 1

    # one certified inner diagonal per vertex: each original label lies in
    # some designated complement and pairs with that facet's apex, and each
    # apex with the first label of its complement; both lie off the apex's
    # facet, so the apex's accepted trial proved the pair's midpoint interior
    partner: dict[str, str] = {}
    for (name, comp), apex in zip(plan.designated, _apex_labels(plan.q)):
        for lab in comp:
            partner.setdefault(lab, apex)
        partner.setdefault(apex, comp[0])
    pairs = [(lab, partner[lab]) for lab in current.labels]
    result.vertex_flags, result.separators = vertex_proofs(current, separators)
    result.diagonal_flags = tuple(interior.get(frozenset(pair)) for pair in pairs)
    result.checks["allPointsVertices"] = all(result.vertex_flags)
    result.checks["illuminated"] = all(result.diagonal_flags)
    result.checks["unneighborly"] = all(result.diagonal_flags)
    result.diagonal_partner = tuple(pairs)

    # fat facet: drop one opposite pair of diagram vectors; the remaining
    # d + p - 2 > d original points must span a supporting hyperplane
    drop = {"B1.0", plan.designated[-1][1][0]}
    fat = tuple(lab for lab in config.labels if lab not in drop)
    plane = supporting_hyperplane(current, fat)
    result.fat_facet = fat
    result.fat_facet_plane = plane
    result.checks["nonsimplicial"] = plane is not None and len(fat) > plan.d
    return result


def construct_nonsimplicial_mani(
    d: int,
    ell: int = 1,
    p: int | None = None,
    mode: str = "full",
    strict: bool = True,
) -> ManiConstruction:
    """Build and check the stacked block-diagram polytope for dimension d.

    ``full`` mode enumerates all facets of the realized base polytope and
    stacks combinatorially; ``certificate`` mode realizes coordinates and
    certifies each property by exact LPs without any facet enumeration.
    With ``strict`` (the default) a failed check raises; pass False to get
    the result object back for inspection instead.
    """
    plan = build_block_diagram(d, p=p, ell=ell)
    if mode == "full":
        result = _construct_full(plan)
    elif mode == "certificate":
        result = _construct_certificate(plan)
    else:
        raise BadParametersError(f"unknown mode {mode!r}")
    if strict:
        result.raise_on_failure()
    return result


# ---------------------------------------------------------------------------
# The simplicial construction


@dataclass
class SimplicialConstruction:
    """Cyclic polytope stacked over a covering family of facet complements."""

    d: int
    p: int
    q: int
    base: IncidencePolytope
    stacked: IncidencePolytope
    cover: tuple[tuple[str, ...], ...]
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def f0(self) -> int:
        return self.stacked.f0

    @property
    def is_mani_size(self) -> bool:
        """Whether the vertex count meets the known minimum for dimension d."""
        return self.stacked.f0 == formulas(self.d).M

    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def _find_cover(
    candidates: list[int],
    uncovered: int,
    limit: int,
    set_size: int,
    chosen: tuple[int, ...] = (),
) -> list[int] | None:
    """First (in lexicographic branch order) cover of the uncovered elements
    by at most ``limit`` candidate sets in all, ``chosen`` included, chosen
    by always branching on the least uncovered element.  Sets are int
    masks: bit i stands for element i.

    It recurses on itself rather than on an inner closure, which would be a
    function-cell reference cycle left for the cyclic garbage collector.
    """
    if not uncovered:
        return list(chosen)
    slots = limit - len(chosen)
    if slots * set_size < uncovered.bit_count():
        return None
    least = uncovered & -uncovered
    for idx, cand in enumerate(candidates):
        if cand & least:
            got = _find_cover(candidates, uncovered & ~cand, limit, set_size, chosen + (idx,))
            if got is not None:
                return got
    return None


def mani_simplicial(d: int) -> SimplicialConstruction:
    """Simplicial illuminated d-polytope with d + p + q + 1 vertices."""
    check_dimension(d, 1)
    if d < 3:
        raise BadParametersError("the stacked cyclic construction needs d >= 3")
    row = formulas(d)
    p, q = row.p, row.q
    n = d + p
    base = cyclic_polytope(d, n)
    if not base.is_simplicial():
        raise CertificateError(f"the cyclic polytope C({d}, {n}) is not simplicial")
    everything = (1 << n) - 1
    bits = [1 << i for i in range(n)]
    complements = [everything ^ sum(map(bits.__getitem__, r)) for r in base._rows]
    cover_idx = _find_cover(complements, everything, q + 1, p)
    if cover_idx is None:
        raise NoCoverFoundError(
            f"no {q + 1} facet complements cover all {n} vertices for d = {d}"
        )
    labels = base.vertices
    cover = tuple(
        tuple(labels[i] for i in range(n) if complements[c] >> i & 1) for c in cover_idx
    )
    stacked = base
    for c, apex in zip(cover_idx, _apex_labels(q)):
        stacked = stack_simplex_facet(stacked, base.facets[c], new_label=apex)
    result = SimplicialConstruction(
        d=d, p=p, q=q, base=base, stacked=stacked, cover=cover
    )
    covered = 0
    for c in cover_idx:
        covered |= complements[c]
    result.checks["complementsCoverVertices"] = covered == everything
    result.checks["simplicial"] = stacked.is_simplicial()
    report = illumination_report(stacked)
    result.checks["illuminated"] = report.illuminated
    result.checks["unneighborly"] = report.unneighborly
    result.checks["f0MatchesFormula"] = stacked.f0 == row.nu
    return result


# ---------------------------------------------------------------------------
# The 2km bound counterexample


@dataclass
class CounterexampleReport:
    """Certified minimal positively 2-spanning configuration beating 2km.

    The configuration is the Gale dual of the d = 36 certificate-mode build:
    49 vectors in R^12, exceeding the classical bound 2*k*m = 48.
    """

    construction: ManiConstruction
    dual: VectorConfiguration
    k: int
    classical_bound: int
    spanning: bool
    minimal: bool
    exceeds_bound: bool
    per_index: tuple[tuple[str, tuple[str, ...], str], ...] = ()

    def verdict(self) -> bool:
        return (
            self.construction.all_checks_pass()
            and self.spanning
            and self.minimal
            and self.exceeds_bound
        )


def _dual_base_scan(lifted, vstar, separators) -> bool:
    """Whether the Gale dual V* is positively 2-spanning, proved off vertex functionals.

    ``lifted`` and ``vstar`` are the rows (1, p_u) and v*_u, each set scaled
    to integers by one common factor.  V* minus v*_i positively spans
    exactly when p_i is a vertex.  If y separates p_i from the other
    points, lam_u = y.(1, p_i) - y.(1, p_u) is positive off i, and these
    values of an affine function are a linear dependence of V* because its
    columns span the affine dependences of the points.  Each integer lam is
    re-checked in integers as a ``PositiveDependence`` of the rows of V*
    off i (``verify_certificate`` on ``vstar`` and a selection).  One rank
    test of V* and its all-ones dependence (which leaves no v*_i outside
    the span of the others) complete the proof that V* minus v*_i spans,
    with no LP.

    A missing functional, or one whose lam fails the re-check, leaves the
    proof undone: False, with no LP in its place.  A point that is no
    vertex has no functional, and then V* minus v*_i does not span.  For a
    true Gale dual the values of a separating functional always pass, so a
    functional fails only when it or V* is forged.
    """
    if not (
        all(sum(col) == 0 for col in zip(*vstar))
        and ExactMatrix(vstar).rank() == len(vstar[0])
    ):
        return False
    n = len(lifted)
    for i in range(n):
        y = separators.get(i)
        if y is None:
            return False
        values = [sum(a * b for a, b in zip(y, r)) for r in lifted]
        lam = tuple(values[i] - v for u, v in enumerate(values) if u != i)
        proof = DependenceCertificate(KIND_POSITIVE_DEPENDENCE, lam=lam)
        if not verify_certificate(vstar, [u for u in range(n) if u != i], proof):
            return False
    return True


def _removal_witnesses(dual, vstar, pairs, certificates):
    """Why no v*_i can leave the Gale dual V*, read off midpoint certificates.

    The interior certificate of the midpoint of p_i and p_j is an integer
    affine dependence c of the first len(c) points, positive off {i, j}
    (``hull_flags``): the stacked points of the apex's accepted trial in a
    build, every point in verify.  With c_u = 0 for the apexes after those
    points it is an affine dependence of all the points, nonnegative off
    {i, j} and positive on the first points.  The columns of V* span those,
    so V* h = c is solvable and h is a Stiemke witness that V* minus
    {v*_i, v*_j} does not positively span.  One elimination of V* solves
    for every index (``ExactMatrix.solve_columns``), and each h, scaled to
    integers, is re-checked in integers by ``verify_certificate`` on
    ``vstar``, V* scaled once by a common lcm, off the pair.  A c outside
    the span has no h (None), which fails the re-check like a wrong h.
    Index i uses the first of ``pairs`` (label pairs, each with its
    certificate or None in ``certificates``) that starts with its label and
    has a certificate.  Returns one ``(label, (partner,), kind)`` per index,
    or None when some index has no such pair.
    """
    proofs = {}
    for (a, b), c in zip(pairs, certificates):
        if c is not None:
            proofs.setdefault(a, (b, c))
    if any(lab not in proofs for lab in dual.labels):
        return None
    removed, rhs = [], []
    for i, lab in enumerate(dual.labels):
        partner, c = proofs[lab]
        pair = (i, dual.index_of(partner))
        removed.append((lab, partner, [u for u in range(len(dual)) if u not in pair]))
        # a build's certificate weighs the points up to its apex; the later
        # apexes weigh 0
        rhs.append(tuple(c) + (0,) * (len(dual) - len(c)))
    per_index = []
    for (lab, partner, off), h in zip(removed, ExactMatrix(dual.coords).solve_columns(rhs)):
        h = None if h is None else integer_multiple(h)
        if not verify_certificate(vstar, off, DependenceCertificate(KIND_STIEMKE_WITNESS, functional=h)):
            raise CertificateError(f"the midpoint certificate of {lab} and {partner} is no removal witness")
        per_index.append((lab, (partner,), KIND_STIEMKE_WITNESS))
    return tuple(per_index)


def dual_spanning_report(construction: ManiConstruction, k: int = 2) -> CounterexampleReport:
    """Dualize a certificate-mode construction and prove it minimal 2-spanning.

    The dual is the one the construction's ``points`` keep (``gale_dual``):
    a build's last accepted stacking trial took it, and verify's midpoint
    flags did.  The lifted points are scaled to integers once, in the
    points' cached view (``PointConfiguration.lifted``), and V* is read in
    its kept integer view (``integer_coords``): this stage reads both as the
    build's last stacking trial or verify's midpoint flags left them.  The
    base scan is proved off the construction's ``separators``
    (``_dual_base_scan``); a missing or failing functional leaves
    ``spanning`` false.  Each removal's witness is read off the interior
    certificate of its ``diagonal_partner`` pair in ``diagonal_flags``
    (``_removal_witnesses``); without one for every index minimality is
    unproven and ``minimal`` is false.  Neither half solves an LP.  Only
    k = 2 is proved; any other k is a ``BadParametersError``.
    """
    if k != 2:
        raise BadParametersError(f"the dual stage proves k = 2 only, not k = {k}")
    if construction.points is None:
        raise BadParametersError("dual stage needs a certificate-mode construction")
    dual = gale_dual(construction.points)
    vstar = dual.integer_coords
    spanning = _dual_base_scan(construction.points.lifted, vstar, construction.separators)
    per_index = None
    if spanning:
        per_index = _removal_witnesses(
            dual, vstar, construction.diagonal_partner, construction.diagonal_flags
        )
    return CounterexampleReport(
        construction=construction,
        dual=dual,
        k=k,
        classical_bound=2 * k * dual.m,
        spanning=spanning,
        minimal=per_index is not None,
        exceeds_bound=len(dual) > 2 * k * dual.m,
        per_index=per_index or (),
    )


def spanning_bound_counterexample() -> CounterexampleReport:
    """Build the d = 36 polytope and certify its dual past the 2km bound."""
    construction = construct_nonsimplicial_mani(36, ell=1, mode="certificate", strict=False)
    return dual_spanning_report(construction, k=2)

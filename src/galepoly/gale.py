"""Gale duality: cofaces, facet enumeration, dualization, realization.

A configuration of n vectors in R^m is read as the Gale diagram of a
polytope with n vertices in dimension d = n - m - 1.  A subset S of vectors
is a coface when 0 lies in the relative interior of conv(S), equivalently
when S carries a strictly positive dependence; the faces of the polytope
are exactly the complements of cofaces, and facets are the complements of
the inclusion-minimal ones.

Facet enumeration rests on two lemmas.  Scaling a vector by a positive
factor keeps every coface, and a minimal coface holds at most one vector
per direction.  So ``enumerate_facet_complements`` solves its LPs on one
representative per direction class and expands each minimal coface found
there by the copies of its members; the block diagrams of the
construction repeat one positive basis and its negation, so most of their
vectors are such copies.

``gale_dual`` maps labeled points to such a configuration (kernel of the
lifted coordinate matrix) and ``realize`` inverts it for positively
2-spanning configurations.  A ``PointConfiguration`` keeps its derived
views as cached properties: ``lifted``, the rows (1, p_u) times one common
lcm of their denominators, and ``gale_dual``, the kernel of that matrix.
The Gale dual, ``supporting_hyperplane``, ``mani.realizes`` and the
re-checks of ``mani.hull_flags`` and of the dual stage all read the one
lifted view; a positive factor common to all rows changes no sign, no
zero sum, no kernel and no primitive plane.  Outputs are unique only up
to a linear change of coordinates; downstream consumers rely on coface
structure alone, which both directions preserve exactly (and which the
tests re-derive on both sides).  ``supporting_hyperplane`` and ``verify_facets_geometrically``
cross-check claimed combinatorics against exact convex geometry.

The coface LPs (``is_coface``), the sign masks of the kept Stiemke
functionals (``_StiemkePool``), ``realize``'s positive dependence and
kernel, and the rank test of ``incidence_from_gale`` run on the
configuration's integer view, ``VectorConfiguration.integer_coords``:
every vector times one common lcm of all the denominators, computed once
per configuration.  One positive factor changes no coface, no sign and no
pivot of the solver, so every certificate is the one the Fraction rows
give, while the target sums, the re-checks and the masks run in
integers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadParametersError,
    CertificateError,
    DegenerateInputError,
    NotTwoSpanningError,
)
from .linalg import (
    QQ,
    ExactMatrix,
    LabelledRows,
    as_vector,
    common_scale,
    dot,
    integer_multiple,
    is_zero_vector,
    primitive,
    vec_sum,
)
from .lp import (
    KIND_POSITIVE_DEPENDENCE,
    DependenceCertificate,
    is_vertex_of_hull,
    strict_positive_dependence,
)
from .spanning import VectorConfiguration, is_positively_k_spanning


@dataclass(frozen=True)
class PointConfiguration(LabelledRows):
    """Ordered labeled points in R^d, checked and stored by the labelled
    row rule (``linalg.LabelledRows``).

    ``lifted`` and ``gale_dual`` are cached properties: each is computed
    the first time it is read and kept on the object.  That is derived
    data, not a field, so equality, hashing and repr see only the labels
    and coordinates.
    """

    d: int
    labels: tuple[str, ...]
    coords: tuple[tuple[Fraction, ...], ...]

    @functools.cached_property
    def lifted(self) -> tuple[tuple[int, ...], ...]:
        """The rows (1, p_u) times one common lcm of all their denominators.

        One positive factor for every row keeps each affine dependence of
        the points, each sign of a functional on a row and each kernel, so
        every step that reads the lifted points reads them here, in
        integers.
        """
        return common_scale([(QQ(1),) + tuple(p) for p in self.coords])

    @functools.cached_property
    def gale_dual(self) -> VectorConfiguration:
        """Kernel-basis rows of the lifted point matrix, one vector per point.

        The points must affinely span R^d, i.e. ``lifted`` must have rank
        d+1.  The result lives in R^(n-d-1) and carries the labels in
        order; a simplex (n = d+1) yields the empty-dimension configuration.
        """
        n, d = len(self), self.d
        if n < d + 1:
            raise DegenerateInputError(f"{n} points cannot affinely span dimension {d}")
        # one elimination: the kernel has n - d - 1 columns exactly at rank d + 1
        kernel = ExactMatrix(list(zip(*self.lifted)), cols=n).kernel_basis()
        m = n - d - 1
        if kernel.cols != m:
            raise DegenerateInputError("points do not affinely span the ambient space")
        return VectorConfiguration(m=m, labels=self.labels, coords=kernel.entries)


@dataclass(frozen=True)
class CofaceReport:
    subset: tuple[int, ...]
    is_coface: bool
    certificate: DependenceCertificate


def is_coface(config: VectorConfiguration, subset: Iterable[int]) -> CofaceReport:
    """Does 0 lie in the relative interior of the convex hull of the subset?

    Decided by the strict-positive-dependence test on the configuration's
    integer view; in ambient dimension 0 every nonempty subset qualifies
    (the hull is the single point 0).
    """
    idx = tuple(sorted(set(subset)))
    cert = strict_positive_dependence(config.integer_coords, idx)
    return CofaceReport(idx, cert.kind == KIND_POSITIVE_DEPENDENCE, cert)


class _StiemkePool:
    """Stiemke functionals from failed coface tests, kept as sign masks.

    A failed test of a subset T returns a functional c with c . u_i >= 0 on
    T and > 0 somewhere on T.  The same c proves that any other subset S is
    no coface when it is >= 0 on S and > 0 somewhere on S: read over the
    vectors as ``pos`` (c . u_i > 0) and ``neg`` (c . u_i < 0) masks, when
    ``S & neg == 0`` and ``S & pos != 0``.  The signs are exact integer dot
    products of c's integer multiple with the configuration's integer view
    (``VectorConfiguration.integer_coords``); both factors are positive, so
    the signs are those of c . u_i, and each stored c is a checkable
    certificate for the rejection.
    """

    def __init__(self, coords: Sequence[Sequence[int]]):
        self.coords = coords
        self.entries: list[tuple[int, int, tuple[Fraction, ...]]] = []

    def add(self, functional: tuple[Fraction, ...]) -> None:
        c = integer_multiple(functional)
        pos = neg = 0
        for i, u in enumerate(self.coords):
            value = sum(a * b for a, b in zip(c, u))
            if value > 0:
                pos |= 1 << i
            elif value < 0:
                neg |= 1 << i
        self.entries.append((pos, neg, functional))

    def witness(self, subset: int) -> tuple[Fraction, ...] | None:
        """A stored functional proving that the subset mask is no coface."""
        for pos, neg, functional in self.entries:
            if not subset & neg and subset & pos:
                return functional
        return None


def _candidates(free: list[tuple[tuple[int, ...], int]], n: int):
    """The sets one larger than those in ``free``, all of whose subsets with
    one element fewer are in ``free``, in lexicographic order.

    ``free`` lists, in lexicographic order and with their masks, the
    coface-free sets of one size: those containing no coface found so far.
    A set contains a found coface exactly when one of its subsets with one
    element fewer does, so the candidates are the extensions of a free set T
    by some j > max(T) whose other subsets of that size are free as well.
    """
    known = {mask for _, mask in free}
    for subset, mask in free:
        for j in range(subset[-1] + 1 if subset else 0, n):
            grown = mask | 1 << j
            if all((grown & ~(1 << i)) in known for i in subset):
                yield subset + (j,), grown


def _direction_classes(config: VectorConfiguration) -> list[list[int]]:
    """The vector indices grouped by positive direction, each class in
    increasing order and the classes in order of their first member.

    Two vectors share a class when ``primitive`` maps them to the same
    integer vector, that is, when one is a positive multiple of the other;
    all zero vectors form one class.
    """
    classes: dict[tuple[Fraction, ...], list[int]] = {}
    for i, u in enumerate(config.coords):
        classes.setdefault(primitive(u), []).append(i)
    return list(classes.values())


def enumerate_facet_complements(config: VectorConfiguration) -> list[tuple[int, ...]]:
    """All inclusion-minimal cofaces, in size-then-lexicographic order.

    Two lemmas reduce the search to one vector per direction.  Scaling a
    vector by a positive factor keeps every coface, since it rescales one
    weight of a strictly positive dependence.  And a minimal coface holds at
    most one vector per direction: with v = c u (c > 0) both in S, the
    dependence of S folds v's weight into u's, so S minus v is a coface
    already (a zero vector is a coface by itself).  So the minimal cofaces
    are the sets that take one member from each class of a minimal coface
    of the class representatives (``_direction_classes``, first members).

    On the representatives, a minimal coface carries a one-dimensional
    space of dependencies, so its size is at most m+1; enumeration stops at
    that size and tests, at each size, only the sets that contain no coface
    already found, which preserves exactly the minimal ones.  Those
    candidates are generated from the coface-free sets of the size below
    (``_candidates``).  Each failed coface test leaves its Stiemke
    functional in a pool, and a candidate that some pooled functional
    already proves to be no coface is skipped without an LP.  Only
    non-cofaces are skipped that way, so the result and its order are those
    of testing every candidate.
    """
    m = config.m
    classes = _direction_classes(config)
    reps = [members[0] for members in classes]
    k = len(reps)
    found: list[tuple[int, ...]] = []
    free: list[tuple[tuple[int, ...], int]] = [((), 0)]
    pool = _StiemkePool([config.integer_coords[r] for r in reps])
    for _ in range(min(k, m + 1)):
        survivors = []
        for subset, mask in _candidates(free, k):
            if pool.witness(mask) is None:
                report = is_coface(config, tuple(reps[c] for c in subset))
                if report.is_coface:
                    found.append(subset)
                    continue
                pool.add(report.certificate.functional)
            survivors.append((subset, mask))
        free = survivors
    if any(len(f) > m + 1 for f in found):
        raise CertificateError("minimal coface exceeds the size bound")
    cofaces = [
        tuple(sorted(choice))
        for f in found
        for choice in itertools.product(*(classes[c] for c in f))
    ]
    return sorted(cofaces, key=lambda s: (len(s), s))


def gale_dual(points: PointConfiguration) -> VectorConfiguration:
    """The Gale dual of the points, their cached ``PointConfiguration.gale_dual``.

    It is computed once per points object, so every Gale-side fact of one
    point set reads the same V*.
    """
    return points.gale_dual


def _reject_zero_vectors(config: VectorConfiguration) -> None:
    """Zero vectors are cofaces all by themselves and degenerate the dual.

    A configuration may pass the 2-spanning test despite a zero member, but
    the realized polytope then hides one point inside a face of all the
    others, so the face-lattice invariants this module promises break down.
    """
    for lab, v in config.pairs():
        if is_zero_vector(v):
            raise NotTwoSpanningError(
                f"vector {lab!r} is zero: its singleton coface degenerates the dual"
            )


def realize(config: VectorConfiguration) -> PointConfiguration:
    """Points whose Gale dual has exactly the cofaces of the configuration.

    Requires positive 2-spanning (so that every point of the result is a
    vertex of its hull).  A strictly positive dependence lambda is extended
    to a kernel basis of the configuration matrix with lambda as its first
    member; scaling row i by 1/lambda_i makes the first coordinate constant,
    and the remaining n-m-1 coordinates are the points.
    """
    return realize_with_proofs(config)[0]


def realize_with_proofs(config: VectorConfiguration):
    """``realize``'s points, lambda, and the dependences its scan proved.

    Returns ``(points, lam, dependences)``: lam is the strictly positive
    dependence of V the points are built on, and ``dependences[i]`` the
    ``PositiveDependence`` weights of V minus v_i, over the other indices
    in order, that the 2-spanning scan solved.  ``mani`` reads a separating
    functional of every point off them (``mani._base_separators``).
    """
    _reject_zero_vectors(config)
    report = is_positively_k_spanning(config, 2)
    if not report.spanning:
        raise NotTwoSpanningError(
            "realize requires a positively 2-spanning configuration", report
        )
    n = len(config)
    m = config.m
    cert = strict_positive_dependence(config.integer_coords, range(n))
    if cert.kind != KIND_POSITIVE_DEPENDENCE:
        raise CertificateError("no positive dependence on a positively 2-spanning configuration")
    lam = cert.lam
    kernel = ExactMatrix(list(zip(*config.integer_coords)), cols=n).kernel_basis()
    coeff = kernel.solve(lam)
    if coeff is None:
        raise CertificateError("the positive dependence is not in the kernel")
    j_star = next(j for j in range(kernel.cols) if coeff[j] != 0)
    columns = [lam] + [kernel.column(j) for j in range(kernel.cols) if j != j_star]
    d = n - m - 1
    coords = tuple(
        tuple(columns[t][i] / lam[i] for t in range(1, d + 1)) for i in range(n)
    )
    points = PointConfiguration(d=d, labels=config.labels, coords=coords)
    return points, lam, tuple(c.lam for c in report.certificates)


def _two_spanning_from_cofaces(
    config: VectorConfiguration, cofaces: Sequence[tuple[int, ...]]
) -> bool:
    """Positive 2-spanning read off the minimal cofaces, plus one rank test.

    V minus i positively spans R^m exactly when it has rank m and carries a
    strictly positive dependence.  By conformal decomposition such a
    dependence is a positive sum of nonnegative circuits, and their supports
    are the minimal cofaces; so V minus i carries one exactly when the
    minimal cofaces avoiding i cover it.  With n >= 2 every vector then lies
    in a minimal coface, hence in a circuit, so no single deletion lowers
    the rank and rank(V) = m is the one rank test needed.
    """
    n, m = len(config), config.m
    if m < 1 or n < 2:
        return False
    masks = [sum(1 << i for i in coface) for coface in cofaces]
    everything = (1 << n) - 1
    for i in range(n):
        bit = 1 << i
        covered = 0
        for mask in masks:
            if not mask & bit:
                covered |= mask
        if covered != everything ^ bit:
            return False
    return ExactMatrix(config.integer_coords).rank() == m


def incidence_from_gale(config: VectorConfiguration) -> "IncidencePolytope":
    """Polytope whose facets are the complements of the minimal cofaces.

    Requires positive 2-spanning, which guarantees that every label is a
    vertex and that the complement family is a valid facet list.  That is
    decided from the enumerated cofaces; only when it fails does the
    deletion scan run, to report the least failing deletion.
    """
    from .polytope import _from_rows

    _reject_zero_vectors(config)
    complements = enumerate_facet_complements(config)
    if not _two_spanning_from_cofaces(config, complements):
        report = is_positively_k_spanning(config, 2)
        if report.spanning:
            raise CertificateError(
                "the minimal cofaces and the deletion scan disagree on 2-spanning"
            )
        raise NotTwoSpanningError(
            "incidence extraction requires a positively 2-spanning configuration",
            report,
        )
    n = len(config)
    rows = [tuple(sorted(set(range(n)).difference(coface))) for coface in complements]
    return _from_rows(n - config.m - 1, config.labels, rows)


def supporting_hyperplane(
    points: PointConfiguration, subset_labels: Iterable[str]
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Exact hyperplane through the subset with all other points strictly beneath.

    Returns a primitive integer normal a and offset beta with <a, p> = beta
    on the subset and <a, p> < beta off it, or None when the subset is not
    the full vertex set of a supporting hyperplane (wrong affine dimension,
    an outside point on the hyperplane, or points on both sides).  The
    plane is the kernel of the subset's rows of ``PointConfiguration.lifted``,
    each with its leading 1 moved last: a kernel vector (a, gamma) has
    <a, p> + gamma = 0 on the subset, so beta = -gamma.
    """
    labels = set(subset_labels)
    unknown = labels - set(points.labels)
    if unknown:
        raise BadParametersError(f"labels not in configuration: {sorted(unknown)}")
    inside = [i for i, lab in enumerate(points.labels) if lab in labels]
    outside = [i for i in range(len(points)) if points.labels[i] not in labels]
    if not inside or not outside:
        return None
    # the homogenizing column goes last, so elimination pivots on the
    # coordinates first, as on the rows (p, -1): pivoting on it first fills
    # in the sparse rows of a realized base (the kernels of its designated
    # and fat-facet planes at d = 60 took 0.069 s against 0.032 s CPU)
    rows = [points.lifted[i][1:] + points.lifted[i][:1] for i in inside]
    kernel = ExactMatrix(rows, cols=points.d + 1).kernel_basis()
    if kernel.cols != 1:
        return None
    *a, gamma = primitive(kernel.column(0))
    a, beta = tuple(a), -gamma
    values = [dot(a, points.coords[i]) - beta for i in outside]
    if all(v < 0 for v in values):
        return a, beta
    if all(v > 0 for v in values):
        return tuple(-x for x in a), -beta
    return None


def verify_facets_geometrically(
    points: PointConfiguration, facets: Sequence[Sequence[str]]
) -> bool:
    """Each claimed facet supports the points; no facet plus an extra point does."""
    for facet in facets:
        if supporting_hyperplane(points, facet) is None:
            return False
        members = set(facet)
        for lab in points.labels:
            if lab not in members:
                if supporting_hyperplane(points, list(members | {lab})) is not None:
                    return False
    return True


def all_points_are_vertices(points: PointConfiguration) -> bool:
    """Every point lies outside the hull of the others (exact LP per point)."""
    return all(is_vertex_of_hull(points.coords, i) for i in range(len(points)))


def barycenter(points: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    pts = [as_vector(p) for p in points]
    if not pts:
        raise BadParametersError("barycenter of no points")
    n = QQ(len(pts))
    return tuple(c / n for c in vec_sum(pts, len(pts[0])))

"""Reference certification paths for the differential tests.

These are the k-spanning and minimality scans and the geometric stacking
as they ran before any reused an answer or shared a loop: the k-spanning
scan solves every deletion by its own LP, the minimality scan runs every
removal's k-spanning scan on its own, and the stacking solves a vertex LP for every point and a
midpoint LP for every diagonal at every trial, in point order, then solves
every final flag again.  Its midpoint test is the point-side one, on the
points translated by the midpoint (``fraction_kernels.interior_point_test``),
where the library tests each diagonal on the hull's Gale dual.  The removal
functionals of a certificate dual are solved one ``ExactMatrix.solve`` per
index.  A supporting hyperplane is the kernel of the rows (p_i, -1) of
its points, where the library reads the lifted view (1, p_i).  They are
used only to compare results exactly.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

import itertools

from fraction_kernels import interior_point_test

from galepoly.gale import PointConfiguration, barycenter
from galepoly.linalg import QQ, ExactMatrix, dot, primitive, vec_add, vec_scale
from galepoly.lp import DependenceCertificate, is_vertex_of_hull, positively_spans
from galepoly.mani import StackCertificate, _apex_labels, _designated_facets
from galepoly.spanning import MinimalityReport, SpanningReport


def is_positively_k_spanning(config, k):
    """Every (k-1)-deletion by its own LP, in lexicographic order; too few
    vectors fail vacuously with a maximal witness deletion."""
    n = len(config)
    if k - 1 >= n:
        e1 = tuple(QQ(1) if i == 0 else QQ(0) for i in range(config.m))
        cert = DependenceCertificate("RankDeficiency", direction=e1)
        return SpanningReport(False, k, witness_deletion=tuple(range(n)), certificate=cert)
    for deletion in itertools.combinations(range(n), k - 1):
        ok, cert = positively_spans(config.coords, [i for i in range(n) if i not in deletion])
        if not ok:
            return SpanningReport(False, k, witness_deletion=deletion, certificate=cert)
    return SpanningReport(True, k)


def is_minimal_k_spanning(config, k):
    """Base scan, then one full k-spanning scan per removed vector."""
    base = is_positively_k_spanning(config, k)
    if not base.spanning:
        return base, MinimalityReport(False, k)
    per_index = []
    for index in range(len(config)):
        sub = config.subconfiguration(j for j in range(len(config)) if j != index)
        report = is_positively_k_spanning(sub, k)
        if report.spanning:
            return base, MinimalityReport(False, k, removable_index=index)
        witness = tuple(sub.labels[j] for j in report.witness_deletion)
        per_index.append((config.labels[index], witness, report.certificate.kind))
    return base, MinimalityReport(True, k, per_index=tuple(per_index))


def hull_flags(coords, vertices, diagonals):
    """Every flag by its own LP: vertex tests, then midpoint-interior tests."""
    for i in vertices:
        yield is_vertex_of_hull(coords, i)
    for i, j in diagonals:
        mid = vec_scale(QQ(1, 2), vec_add(coords[i], coords[j]))
        yield interior_point_test(coords, mid)[0]


def geometric_stack_point(points, facet, hyperplane, guard_planes, new_label, max_halvings=60):
    """Halve the apex height until guards, vertices and diagonals all hold."""
    normal, offset = hyperplane
    fset = set(facet)
    center = barycenter([c for lab, c in zip(points.labels, points.coords) if lab in fset])
    off_facet = [i for i, lab in enumerate(points.labels) if lab not in fset]
    eps = QQ(1)
    for trial in range(1, max_halvings + 1):
        apex = vec_add(center, vec_scale(eps, normal))
        if all(dot(a, apex) < b for a, b in guard_planes):
            coords = points.coords + (apex,)
            n = len(coords)
            if all(hull_flags(coords, range(n - 1), [(n - 1, i) for i in off_facet])):
                stacked = PointConfiguration(
                    d=points.d, labels=points.labels + (new_label,), coords=coords
                )
                cert = StackCertificate(
                    facet=tuple(facet), apex_label=new_label, apex=apex,
                    normal=normal, offset=offset, epsilon=eps, trials=trial,
                )
                return stacked, cert
        eps = eps / 2
    raise AssertionError("no apex height found")


def construct_certificate(construction):
    """Re-stack a certificate-mode construction's base and re-solve its flags.

    Uses the construction's base points, designated planes and diagonal
    pairs, and returns ``(points, stacks, vertex_flags, diagonal_flags)``.
    """
    plan, planes = construction.plan, construction.designated_planes
    current = construction.base_points
    stacks = []
    for i, (facet, apex) in enumerate(zip(_designated_facets(plan), _apex_labels(plan.q))):
        guards = [planes[j] for j in range(len(planes)) if j != i]
        current, cert = geometric_stack_point(current, facet, planes[i], guards, apex)
        stacks.append(cert)
    index = {lab: i for i, lab in enumerate(current.labels)}
    n = len(current)
    diagonals = [(index[a], index[b]) for a, b in construction.diagonal_partner]
    flags = list(hull_flags(current.coords, range(n), diagonals))
    return current, tuple(stacks), tuple(flags[:n]), tuple(flags[n:])


def removal_functionals(dual, pairs, certificates):
    """The h with V* h = c of each index of the dual, by its own solve.

    For index i, c is the first certificate of a pair starting with its
    label, as ``mani._removal_witnesses`` reads it: an affine dependence of
    the points it weighs, with c_u = 0 past them.
    """
    proofs = {}
    for (a, b), cert in zip(pairs, certificates):
        if cert is not None:
            proofs.setdefault(a, (b, cert))
    matrix = ExactMatrix(dual.coords)
    out = []
    for lab in dual.labels:
        _, c = proofs[lab]
        out.append(matrix.solve(list(c) + [0] * (len(dual) - len(c))))
    return out


def supporting_hyperplane(points, subset_labels):
    """The primitive (a, beta) spanned by the kernel of the rows (p_i, -1)
    of the subset, oriented so the other points lie beneath; None unless
    that kernel is a line and the other points lie strictly on one side."""
    labels = set(subset_labels)
    inside = [i for i, lab in enumerate(points.labels) if lab in labels]
    outside = [i for i, lab in enumerate(points.labels) if lab not in labels]
    if not inside or not outside:
        return None
    system = ExactMatrix([list(points.coords[i]) + [QQ(-1)] for i in inside], cols=points.d + 1)
    kernel = system.kernel_basis()
    if kernel.cols != 1:
        return None
    vec = primitive(kernel.column(0))
    a, beta = vec[:-1], vec[-1]
    values = [dot(a, points.coords[i]) - beta for i in outside]
    if all(v < 0 for v in values):
        return a, beta
    if all(v > 0 for v in values):
        return tuple(-x for x in a), -beta
    return None

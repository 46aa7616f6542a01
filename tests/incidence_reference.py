"""Reference code for the differential tests: the original set-based paths.

These are the incidence-polytope validation, the face-level functions and
stacking as they ran on frozensets and label tuples before the library
moved to int bitmasks; facet enumeration with one LP per candidate subset
(no Stiemke-witness pool), and with the pool but with every candidate
scanned against the cofaces found so far; and the cyclic polytope's facets
filtered from all d-subsets by the evenness test.  They are kept in
behaviour (same errors in the same order, same canonical facet order, same
partners) and used only to compare results exactly.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

import itertools

import networkx

from galepoly import gale
from galepoly.errors import (
    BadParametersError,
    NotAFacetError,
    NotASimplexFacetError,
    UnknownVertexError,
)
from galepoly.lp import KIND_POSITIVE_DEPENDENCE, strict_positive_dependence


def canonical_facets(d, vertices, facets):
    """Validate like the original ``IncidencePolytope`` and return its facets."""
    if d < 1:
        raise BadParametersError("dimension must be at least 1")
    if len(set(vertices)) != len(vertices):
        raise BadParametersError("vertex labels must be distinct")
    if any(not v for v in vertices):
        raise BadParametersError("vertex labels must be nonempty")
    order = {v: i for i, v in enumerate(vertices)}
    seen = []
    for facet in facets:
        missing = [v for v in facet if v not in order]
        if missing:
            raise UnknownVertexError(f"facet uses unknown vertices {missing}")
        if len(set(facet)) != len(facet):
            raise BadParametersError("facet repeats a vertex")
        if len(facet) == len(vertices):
            raise BadParametersError("a facet cannot contain every vertex")
        if not facet:
            raise BadParametersError("a facet cannot be empty")
        seen.append(frozenset(facet))
    for a, b in itertools.combinations(seen, 2):
        if a <= b or b <= a:
            raise BadParametersError("facets must be pairwise incomparable")
    covered = set().union(*seen) if seen else set()
    lonely = [v for v in vertices if v not in covered]
    if lonely:
        raise BadParametersError(f"vertices on no facet: {lonely}")
    return tuple(
        sorted(
            (tuple(sorted(f, key=order.__getitem__)) for f in facets),
            key=lambda f: tuple(order[v] for v in f),
        )
    )


def is_edge(vertices, facets, u, v) -> bool:
    """For two distinct vertices u and v."""
    common = [set(f) for f in facets if u in f and v in f]
    if not common:
        return False
    return set.intersection(*common) == {u, v}


def inner_diagonals(vertices, facets):
    out = []
    for u, v in itertools.combinations(vertices, 2):
        if not any(u in f and v in f for f in facets):
            out.append((u, v))
    return tuple(out)


def missing_edges(vertices, facets):
    return tuple(
        (u, v)
        for u, v in itertools.combinations(vertices, 2)
        if not is_edge(vertices, facets, u, v)
    )


def illumination_report(vertices, facets):
    """``(illuminated, unneighborly, diagonal_partner, missing_edge_partner)``."""
    diagonals = set(inner_diagonals(vertices, facets))
    diag_partner = []
    edge_partner = []
    for v in vertices:
        dp = next(
            (w for w in vertices if w != v and ((v, w) in diagonals or (w, v) in diagonals)),
            None,
        )
        ep = next(
            (w for w in vertices if w != v and not is_edge(vertices, facets, v, w)), None
        )
        diag_partner.append((v, dp))
        edge_partner.append((v, ep))
    return (
        all(dp is not None for _, dp in diag_partner),
        all(ep is not None for _, ep in edge_partner),
        tuple(diag_partner),
        tuple(edge_partner),
    )


def inner_diagonal_matching(vertices, facets):
    """``(perfect, pairs)`` of networkx's maximum matching of the same graph."""
    graph = networkx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(inner_diagonals(vertices, facets))
    matching = networkx.max_weight_matching(graph, maxcardinality=True)
    order = list(vertices).index
    pairs = sorted(
        (tuple(sorted(edge, key=order)) for edge in matching),
        key=lambda e: (order(e[0]), order(e[1])),
    )
    return 2 * len(pairs) == len(vertices), tuple(pairs)


def stack_simplex_facet(d, vertices, facets, facet, new_label=None):
    """``(vertices, facets)`` of the stacked polytope, fully re-validated."""
    fset = frozenset(facet)
    order = {v: i for i, v in enumerate(vertices)}
    for v in fset:
        if v not in order:
            raise UnknownVertexError(f"no vertex labeled {v!r}")
    if fset not in {frozenset(f) for f in facets}:
        raise NotAFacetError(f"{sorted(fset)} is not a facet")
    if len(fset) != d:
        raise NotASimplexFacetError(
            f"facet has {len(fset)} vertices; stacking needs exactly d = {d}"
        )
    if new_label is None:
        i = 0
        while f"z{i}" in order:
            i += 1
        new_label = f"z{i}"
    elif new_label in order:
        raise BadParametersError(f"label {new_label!r} already in use")
    kept = [f for f in facets if frozenset(f) != fset]
    sorted_f = sorted(fset, key=order.__getitem__)
    added = [tuple(w for w in sorted_f if w != v) + (new_label,) for v in sorted_f]
    stacked = tuple(vertices) + (new_label,)
    return stacked, canonical_facets(d, stacked, tuple(kept) + tuple(added))


def enumerate_facet_complements(config):
    """All minimal cofaces by one strict-positive-dependence LP per candidate."""
    n, m = len(config), config.m
    found = []
    for size in range(1, min(n, m + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if any(f <= s for f in found):
                continue
            cert = strict_positive_dependence(config.coords, subset)
            if cert.kind == KIND_POSITIVE_DEPENDENCE:
                found.append(s)
    return [tuple(sorted(f)) for f in found]


def enumerate_by_filtering(config):
    """Pooled enumeration over every candidate of each size, each one
    scanned against the masks of the cofaces found so far."""
    n, m = len(config), config.m
    found, found_masks = [], []
    pool = gale._StiemkePool(config.coords)
    for size in range(1, min(n, m + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in subset)
            if any(f & mask == f for f in found_masks):
                continue
            if pool.witness(mask) is not None:
                continue
            report = gale.is_coface(config, subset)
            if report.is_coface:
                found.append(subset)
                found_masks.append(mask)
            else:
                pool.add(report.certificate.functional)
    return found


def gale_evenness(subset, n):
    """Any two outside elements are separated by evenly many inside elements."""
    inside = set(subset)
    outside = [i for i in range(1, n + 1) if i not in inside]
    prefix = [0] * (n + 2)
    for i in range(1, n + 1):
        prefix[i + 1] = prefix[i] + (1 if i in inside else 0)
    for a, b in itertools.combinations(outside, 2):
        if (prefix[b] - prefix[a + 1]) % 2 != 0:
            return False
    return True


def cyclic_facets(d, n):
    """The facets of C(d, n) as index tuples: every d-subset of 1..n that
    passes the evenness test, in lexicographic order."""
    return [s for s in itertools.combinations(range(1, n + 1), d) if gale_evenness(s, n)]

"""Vertex-facet incidence polytopes and illumination combinatorics.

A polytope is carried purely combinatorially: a dimension d, an ordered
list of vertex labels, and the list of facets as vertex subsets.  All
face-level questions (edges, inner diagonals, illumination, stacking) are
answered from incidences alone; geometric agreement is a theorem that the
realization tests check, never an assumption made here.

Incidences are held as int bitmasks, one facet-membership mask per vertex,
so a face-level question is a few integer ANDs rather than set algebra over
the facet list.

An inner diagonal is a vertex pair contained in no common facet.  A
polytope is illuminated when every vertex lies on an inner diagonal, and
unneighborly when every vertex misses at least one edge; illumination
implies unneighborliness because an inner diagonal is a missing edge.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BadParametersError,
    CertificateError,
    NotAFacetError,
    NotASimplexFacetError,
    TooLargeForBruteForceError,
    UnknownVertexError,
)

DEFAULT_GAMMA_CAP = 14


@dataclass(frozen=True)
class IncidencePolytope:
    """Combinatorial polytope: dimension, ordered vertices, facet subsets.

    Facets are canonicalized on construction: each facet sorted by vertex
    order, the facet list sorted lexicographically by those index tuples.
    Construction enforces that labels are distinct, every vertex lies in at
    least one facet, no facet contains every vertex, and facets are pairwise
    inclusion-incomparable.

    Construction also keeps the incidences as bitmasks over the canonical
    facet order: ``_rows[f]`` is facet f as sorted vertex indices and
    ``_masks[i]`` has bit f set exactly when vertex i lies on facet f.
    ``illumination`` is a cached property: the illumination report,
    computed the first time it is read and kept on the object.  These are
    derived data, not fields, so equality and hashing see only the labels.
    """

    d: int
    vertices: tuple[str, ...]
    facets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.d < 1:
            raise BadParametersError("dimension must be at least 1")
        if len(set(self.vertices)) != len(self.vertices):
            raise BadParametersError("vertex labels must be distinct")
        if any(not v for v in self.vertices):
            raise BadParametersError("vertex labels must be nonempty")
        order = {v: i for i, v in enumerate(self.vertices)}
        rows = []
        for facet in self.facets:
            missing = [v for v in facet if v not in order]
            if missing:
                raise UnknownVertexError(f"facet uses unknown vertices {missing}")
            if len(set(facet)) != len(facet):
                raise BadParametersError("facet repeats a vertex")
            if len(facet) == len(self.vertices):
                raise BadParametersError("a facet cannot contain every vertex")
            if not facet:
                raise BadParametersError("a facet cannot be empty")
            rows.append(tuple(sorted(order[v] for v in facet)))
        self._store(order, sorted(rows))
        # a facet lies in another (or repeats) exactly when the facets
        # through all of its vertices are more than itself
        masks = self._masks
        for f, row in enumerate(self._rows):
            if _facets_through(masks, row) != 1 << f:
                raise BadParametersError("facets must be pairwise incomparable")
        lonely = [v for v, mask in zip(self.vertices, masks) if not mask]
        if lonely:
            raise BadParametersError(f"vertices on no facet: {lonely}")

    def _store(self, index: dict[str, int], rows: list[tuple[int, ...]], facets=None) -> None:
        """Set the canonical facets and the masks from sorted index rows.

        ``facets`` gives the rows' label tuples when the caller has them.
        """
        masks = [0] * len(self.vertices)
        for f, row in enumerate(rows):
            bit = 1 << f
            for i in row:
                masks[i] |= bit
        if facets is None:
            label = self.vertices.__getitem__
            facets = [tuple(map(label, r)) for r in rows]
        object.__setattr__(self, "facets", tuple(facets))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_masks", tuple(masks))

    @property
    def f0(self) -> int:
        return len(self.vertices)

    def vertex_index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise UnknownVertexError(f"no vertex labeled {label!r}") from None

    def facets_containing(self, label: str) -> tuple[tuple[str, ...], ...]:
        mask = self._masks[self.vertex_index(label)]
        return tuple(f for k, f in enumerate(self.facets) if mask >> k & 1)

    def is_simplicial(self) -> bool:
        return all(len(f) == self.d for f in self.facets)

    @functools.cached_property
    def illumination(self) -> IlluminationReport:
        """The polytope's illumination report (``illumination_report``)."""
        return _illumination(self)


def _facets_through(masks: Sequence[int], row: Iterable[int]) -> int:
    """Mask of the facets containing every vertex of ``row``."""
    common = -1
    for i in row:
        common &= masks[i]
    return common


def _edge(masks: Sequence[int], i: int, j: int) -> bool:
    """Mask form of ``is_edge``: the vertices share a facet, and every other
    vertex misses one of their common facets."""
    common = masks[i] & masks[j]
    if not common:
        return False
    return all(common & ~mask for k, mask in enumerate(masks) if k != i and k != j)


def is_edge(poly: IncidencePolytope, u: str, v: str) -> bool:
    """Is {u, v} the exact intersection of the facets containing both?

    Pairs sharing no facet are never edges (for d >= 2 every edge lies in a
    facet; for d = 1 the improper segment does not count as an edge).
    """
    iu, iv = poly.vertex_index(u), poly.vertex_index(v)
    if iu == iv:
        raise BadParametersError("an edge needs two distinct vertices")
    return _edge(poly._masks, iu, iv)


def inner_diagonals(poly: IncidencePolytope) -> tuple[tuple[str, str], ...]:
    """All vertex pairs lying in no common facet, in vertex order."""
    masks, labels = poly._masks, poly.vertices
    return tuple(
        (labels[i], labels[j])
        for i, j in itertools.combinations(range(poly.f0), 2)
        if not masks[i] & masks[j]
    )


def missing_edges(poly: IncidencePolytope) -> tuple[tuple[str, str], ...]:
    """All vertex pairs that are not edges, in vertex order."""
    masks, labels = poly._masks, poly.vertices
    return tuple(
        (labels[i], labels[j])
        for i, j in itertools.combinations(range(poly.f0), 2)
        if not _edge(masks, i, j)
    )


@dataclass(frozen=True)
class IlluminationReport:
    """Per-vertex diagonal and missing-edge partners, plus both verdicts.

    ``diagonal_partner[v]`` is the first vertex (in vertex order) forming an
    inner diagonal with v, or None; likewise ``missing_edge_partner``.  The
    polytope is illuminated when every vertex has a diagonal partner and
    unneighborly when every vertex has a missing-edge partner.
    """

    illuminated: bool
    unneighborly: bool
    diagonal_partner: tuple[tuple[str, str | None], ...]
    missing_edge_partner: tuple[tuple[str, str | None], ...]


def illumination_report(poly: IncidencePolytope) -> IlluminationReport:
    """The polytope's illumination report, computed once per polytope object
    and kept on it as the cached property ``IncidencePolytope.illumination``."""
    return poly.illumination


def _illumination(poly: IncidencePolytope) -> IlluminationReport:
    masks, labels = poly._masks, poly.vertices
    diag_partner = []
    edge_partner = []
    for i, v in enumerate(labels):
        others = [j for j in range(len(labels)) if j != i]
        dp = next((labels[j] for j in others if not masks[i] & masks[j]), None)
        ep = next((labels[j] for j in others if not _edge(masks, i, j)), None)
        diag_partner.append((v, dp))
        edge_partner.append((v, ep))
    illuminated = all(dp is not None for _, dp in diag_partner)
    unneighborly = all(ep is not None for _, ep in edge_partner)
    if illuminated and not unneighborly:
        raise CertificateError("illuminated but not unneighborly, yet an inner diagonal is a missing edge")
    return IlluminationReport(
        illuminated, unneighborly, tuple(diag_partner), tuple(edge_partner)
    )


def stack_simplex_facet(
    poly: IncidencePolytope, facet: Iterable[str], new_label: str | None = None
) -> IncidencePolytope:
    """Replace a simplex facet F by the d facets (F minus one vertex) + apex.

    The apex label defaults to the first unused ``z0``, ``z1``, ...  The
    apex shares no facet with any vertex off F, so its inner diagonals are
    exactly the pairs with those vertices.

    The kept facets were validated with ``poly``, so only the d new facets
    are checked against the others, and the masks are rebuilt rather than
    the whole polytope re-validated.  The kept facets keep their label
    tuples.
    """
    fset = frozenset(facet)
    index = poly._index
    for v in fset:
        if v not in index:
            raise UnknownVertexError(f"no vertex labeled {v!r}")
    row = tuple(sorted(index[v] for v in fset))
    if row not in poly._rows:
        raise NotAFacetError(f"{sorted(fset)} is not a facet")
    if len(fset) != poly.d:
        raise NotASimplexFacetError(
            f"facet has {len(fset)} vertices; stacking needs exactly d = {poly.d}"
        )
    if new_label is None:
        i = 0
        while f"z{i}" in index:
            i += 1
        new_label = f"z{i}"
    elif new_label in index:
        raise BadParametersError(f"label {new_label!r} already in use")
    elif not new_label:
        raise BadParametersError("vertex labels must be nonempty")
    apex = poly.f0
    vertices = poly.vertices + (new_label,)
    kept = [(r, f) for r, f in zip(poly._rows, poly.facets) if r != row]
    added = [tuple(w for w in row if w != v) + (apex,) for v in row]
    added = [(r, tuple(vertices[w] for w in r)) for r in added]
    # kept is sorted already, so the sort is little more than a merge
    entries = sorted(kept + added)
    stacked = object.__new__(IncidencePolytope)
    object.__setattr__(stacked, "d", poly.d)
    object.__setattr__(stacked, "vertices", vertices)
    stacked._store({**index, new_label: apex}, [r for r, _ in entries], [f for _, f in entries])
    masks = stacked._masks
    everything = (1 << len(stacked._rows)) - 1
    for f, r in enumerate(stacked._rows):
        if r[-1] != apex:
            continue
        outside = 0
        for w, mask in enumerate(masks):
            if w not in r:
                outside |= mask
        # no other facet contains this one, and it contains no other facet
        if _facets_through(masks, r) != 1 << f or everything & ~outside != 1 << f:
            raise BadParametersError("facets must be pairwise incomparable")
    lonely = [v for v, mask in zip(stacked.vertices, masks) if not mask]
    if lonely:
        raise BadParametersError(f"vertices on no facet: {lonely}")
    return stacked




def crosspolytope(d: int) -> IncidencePolytope:
    """2d vertices +-1 ... +-d; facets pick one sign per coordinate."""
    if d < 1:
        raise BadParametersError("dimension must be at least 1")
    vertices = []
    for i in range(1, d + 1):
        vertices.extend((f"+{i}", f"-{i}"))
    facets = [
        tuple(f"{s}{i}" for i, s in zip(range(1, d + 1), signs))
        for signs in itertools.product("+-", repeat=d)
    ]
    return IncidencePolytope(d=d, vertices=tuple(vertices), facets=tuple(facets))


def simplex(d: int) -> IncidencePolytope:
    """d+1 vertices; every d-subset is a facet."""
    if d < 1:
        raise BadParametersError("dimension must be at least 1")
    vertices = tuple(str(i) for i in range(1, d + 2))
    facets = tuple(itertools.combinations(vertices, d))
    return IncidencePolytope(d=d, vertices=vertices, facets=facets)


def _evenness_rows(d: int, n: int) -> list[tuple[int, ...]]:
    """The d-subsets of 1..n satisfying Gale's evenness condition, in
    lexicographic order.

    In such a subset every maximal run of consecutive elements that contains
    neither 1 nor n has even length.  The subsets are grown position by
    position, taking i before leaving it out; a run may end (i left out)
    only when it has even length or began at 1, and a run still open past n
    contains n.
    """
    rows: list[tuple[int, ...]] = []
    _grow_evenness(d, n, 1, 0, [], rows)
    return rows


def _grow_evenness(d: int, n: int, i: int, run: int, row: list[int], rows: list) -> None:
    """Extend ``row`` from position i, with a run of length ``run`` open
    before it, appending each completed row to ``rows``.

    A module-level function rather than an inner closure: a closure that
    calls itself is a function-cell reference cycle, which would keep
    ``rows`` alive until the cyclic garbage collector runs.
    """
    closable = run % 2 == 0 or run == i - 1
    left = d - len(row)
    if left == 0:
        if i > n or closable:
            rows.append(tuple(row))
        return
    if n - i + 1 < left:
        return
    row.append(i)
    _grow_evenness(d, n, i + 1, run + 1, row, rows)
    row.pop()
    if closable:
        _grow_evenness(d, n, i + 1, 0, row, rows)


def cyclic_polytope(d: int, n: int) -> IncidencePolytope:
    """Combinatorics of the convex hull of n moment-curve points in R^d.

    Vertices are labeled "1" ... "n" in curve order; facets are the
    d-subsets satisfying the evenness condition: any two vertices outside
    the subset have an even number of subset elements strictly between
    them.  They are generated directly rather than filtered from all
    d-subsets.  Requires n >= d+1 and d >= 2 (and yields the simplex at
    n = d+1).
    """
    if d < 2 or n < d + 1:
        raise BadParametersError("cyclic polytope needs d >= 2 and n >= d+1")
    vertices = tuple(str(i) for i in range(1, n + 1))
    facets = tuple(tuple(vertices[i - 1] for i in row) for row in _evenness_rows(d, n))
    return IncidencePolytope(d=d, vertices=vertices, facets=facets)


@dataclass(frozen=True)
class OppositeSetReport:
    """Largest vertex set lying opposite a single vertex.

    ``value`` is the maximum size of a set W of diagonal partners of some
    vertex v such that the remaining vertices (all but W and v) illuminate
    themselves; ``vertex``/``witness`` realize the maximum.  A
    non-illuminated polytope scores 0 with no witness.
    """

    value: int
    vertex: str | None = None
    witness: tuple[str, ...] = ()


def _illuminates_itself(partners: dict[str, set[str]], vertices: Iterable[str]) -> bool:
    group = set(vertices)
    return all(partners[v] & group for v in group)


def gamma(poly: IncidencePolytope, cap: int = DEFAULT_GAMMA_CAP) -> OppositeSetReport:
    """Brute-force opposite-set maximum over all vertices and partner subsets.

    Exponential in the number of diagonal partners per vertex, so refuses
    polytopes with more than ``cap`` vertices.
    """
    report = illumination_report(poly)
    if not report.illuminated:
        return OppositeSetReport(0)
    if poly.f0 > cap:
        raise TooLargeForBruteForceError(
            f"{poly.f0} vertices exceed the brute-force cap {cap}", cap=cap
        )
    partners: dict[str, set[str]] = {v: set() for v in poly.vertices}
    for u, v in inner_diagonals(poly):
        partners[u].add(v)
        partners[v].add(u)
    best = OppositeSetReport(0)
    all_vertices = set(poly.vertices)
    for v in poly.vertices:
        mine = sorted(partners[v], key=poly.vertex_index)
        for size in range(len(mine), 0, -1):
            if size <= best.value:
                break
            hit = False
            for w_set in itertools.combinations(mine, size):
                rest = all_vertices - set(w_set) - {v}
                if _illuminates_itself(partners, rest):
                    best = OppositeSetReport(size, vertex=v, witness=w_set)
                    hit = True
                    break
            if hit:
                break
    return best


@dataclass(frozen=True)
class MatchingReport:
    """Maximum matching in the inner-diagonal graph.

    ``perfect`` means every vertex is matched; ``pairs`` lists the matched
    diagonals sorted by vertex order.  The matching is the one Edmonds'
    blossom algorithm finds growing an alternating tree from each exposed
    vertex in vertex order and scanning neighbours in vertex order, so it is
    deterministic but otherwise one maximum matching among many.
    """

    perfect: bool
    pairs: tuple[tuple[str, str], ...]


def inner_diagonal_matching(poly: IncidencePolytope) -> MatchingReport:
    """A maximum matching of the inner diagonals, checked before it is
    returned: the pairs are disjoint inner diagonals, and a matching that
    misses a vertex comes with a Tutte–Berge barrier proving it maximum."""
    masks, labels = poly._masks, poly.vertices
    adj = [
        [j for j, other in enumerate(masks) if j != i and not mask & other]
        for i, mask in enumerate(masks)
    ]
    pairs = _certified(adj, _max_matching(adj))
    return MatchingReport(
        perfect=2 * len(pairs) == poly.f0,
        pairs=tuple((labels[i], labels[j]) for i, j in pairs),
    )


def _max_matching(adj: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Maximum-cardinality matching of the graph with adjacency lists
    ``adj`` (Edmonds 1965), as sorted index pairs.

    A vertex left exposed by a failed search stays exposed for good
    (Edmonds), so one search from each exposed root, in vertex order,
    suffices.
    """
    mate = [-1] * len(adj)
    for root in range(len(adj)):
        if mate[root] < 0:
            _augment(adj, mate, root)
    return [(i, j) for i, j in enumerate(mate) if i < j]


def _augment(adj: Sequence[Sequence[int]], mate: list[int], root: int) -> bool:
    """Grow an alternating tree from the exposed vertex ``root``, shrinking
    blossoms, and flip the first augmenting path found into ``mate``.

    Even vertices are the tree's outer vertices (``outer``); ``parent``
    links an odd vertex to the even vertex that reached it, and ``base``
    maps every vertex to the base of the blossom holding it.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def ancestor(a: int, b: int) -> int:
        """Base of the blossom closed by the edge between even a and b."""
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark(v: int, top: int, child: int, blossom: list[bool]) -> None:
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # v and w are both even: the edge closes a blossom
                top = ancestor(v, w)
                blossom = [False] * n
                mark(v, top, w, blossom)
                mark(w, top, v, blossom)
                for u in range(n):
                    if blossom[base[u]]:
                        base[u] = top
                        if not outer[u]:
                            outer[u] = True
                            queue.append(u)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:
                        p = parent[w]
                        after = mate[p]
                        mate[w], mate[p] = p, w
                        w = after
                    return True
                outer[mate[w]] = True
                queue.append(mate[w])
    return False


def _certified(adj: Sequence[Sequence[int]], pairs) -> list[tuple[int, int]]:
    """``pairs`` sorted, after checking they form a maximum matching.

    The pairs must be disjoint edges.  When they miss a vertex, the
    Tutte–Berge formula needs a barrier A with
    odd components(G - A) - |A| = n - 2|M|: every matching misses at least
    that many vertices, so no matching is larger.
    """
    pairs = sorted(tuple(sorted(p)) for p in pairs)
    seen: set[int] = set()
    for i, j in pairs:
        if i in seen or j in seen:
            raise CertificateError("matching repeats a vertex")
        seen.update((i, j))
        if j not in adj[i]:
            raise CertificateError("matching uses a non-diagonal")
    exposed = len(adj) - 2 * len(pairs)
    if exposed and _deficiency(adj, _barrier(adj, pairs)) != exposed:
        raise CertificateError("matching is not maximum: no Tutte-Berge barrier fits it")
    return pairs


def _barrier(adj: Sequence[Sequence[int]], pairs) -> set[int]:
    """The Gallai–Edmonds barrier of the maximum matching ``pairs``: the
    neighbours outside D of D, the vertices some maximum matching misses.

    An exposed vertex is in D.  A matched vertex v with partner u is in D
    exactly when G - v has a matching as large; removing the pair leaves
    one fewer, and any augmenting path in G - v starts at u (one avoiding u
    would augment the matching of G), so one search from u decides.
    """
    mate = [-1] * len(adj)
    for i, j in pairs:
        mate[i], mate[j] = j, i
    deficient = set()
    for v, u in enumerate(mate):
        if u < 0:
            deficient.add(v)
            continue
        without = [[w for w in row if w != v] for row in adj]
        without[v] = []
        trial = list(mate)
        trial[v] = trial[u] = -1
        if _augment(without, trial, u):
            deficient.add(v)
    return {w for v in deficient for w in adj[v]} - deficient


def _deficiency(adj: Sequence[Sequence[int]], barrier: set[int]) -> int:
    """Odd components of G - ``barrier``, less the size of the barrier."""
    seen = set(barrier)
    odd = 0
    for start in range(len(adj)):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            size += 1
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        odd += size % 2
    return odd - len(barrier)

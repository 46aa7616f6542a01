"""Vertex-facet incidence polytopes and illumination combinatorics.

A polytope is carried purely combinatorially: a dimension d, an ordered
list of vertex labels, and the list of facets as vertex subsets.  All
face-level questions (edges, inner diagonals, illumination, stacking) are
answered from incidences alone; geometric agreement is a theorem that the
realization tests check, never an assumption made here.

Incidences are held twice: as sorted vertex-index rows, one per facet in
canonical order, and as int bitmasks, one facet-membership mask per vertex,
so a face-level question is a few integer ANDs rather than set algebra over
the facet list.  Every polytope is built once from index rows: a labelled
facet list is mapped to rows and checked by the same row checker that the
cyclic polytope's evenness rows and the Gale polytope's coface complements
go through directly, and stacking splices its new rows and bits into the
old ones rather than rebuilding them.

An inner diagonal is a vertex pair contained in no common facet.  A
polytope is illuminated when every vertex lies on an inner diagonal, and
unneighborly when every vertex misses at least one edge; illumination
implies unneighborliness because an inner diagonal is a missing edge.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadParametersError,
    CertificateError,
    NotAFacetError,
    NotASimplexFacetError,
    TooLargeForBruteForceError,
    UnknownVertexError,
)
from .linalg import check_dimension, check_labels

DEFAULT_GAMMA_CAP = 14


@dataclass(frozen=True)
class IncidencePolytope:
    """Combinatorial polytope: dimension, ordered vertices, facet subsets.

    Facets are canonicalized on construction: each facet sorted by vertex
    order, the facet list sorted lexicographically by those index tuples.
    Construction enforces that labels are a tuple of distinct nonempty
    strings, every vertex lies in at least one facet, no facet contains
    every vertex, and facets are pairwise inclusion-incomparable.

    Construction also keeps the incidences as bitmasks over the canonical
    facet order: ``_rows[f]`` is facet f as sorted vertex indices,
    ``_masks[i]`` has bit f set exactly when vertex i lies on facet f, and
    ``_index`` maps each label to its position.  ``illumination`` is a
    cached property: the illumination report, computed the first time it is
    read and kept on the object.  These are derived data, not fields, so
    equality and hashing see only the labels.
    """

    d: int
    vertices: tuple[str, ...]
    facets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        index = _vertex_index(self.d, self.vertices)
        _set_rows(self, index, _label_rows(index, self.facets))

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


def _assign(poly: IncidencePolytope, **fields) -> None:
    """Set fields and derived data on a frozen polytope under construction."""
    for name, value in fields.items():
        object.__setattr__(poly, name, value)


def _vertex_index(d: int, vertices: tuple[str, ...]) -> dict[str, int]:
    """The position of each label, after checking the dimension and labels."""
    check_dimension(d, 1)
    return check_labels(vertices, "vertex labels")


def _label_rows(index: dict[str, int], facets) -> Iterator[tuple[int, ...]]:
    """Each facet as sorted vertex indices, made only when the row checker
    asks for it, so an unknown vertex is reported after the facets before it
    were checked."""
    try:
        for facet in facets:
            try:
                yield tuple(sorted([index[v] for v in facet]))
            except KeyError:
                missing = [v for v in facet if v not in index]
                raise UnknownVertexError(f"facet uses unknown vertices {missing}") from None
    except TypeError:
        raise BadParametersError("facets must be sequences of vertex labels") from None


def _from_rows(d: int, vertices: tuple[str, ...], rows: Iterable[tuple[int, ...]]) -> IncidencePolytope:
    """The polytope whose facets are the given sorted vertex-index rows,
    checked as ``IncidencePolytope(d, vertices, facets)`` checks its facets."""
    poly = object.__new__(IncidencePolytope)
    _assign(poly, d=d, vertices=vertices)
    _set_rows(poly, _vertex_index(d, vertices), rows)
    return poly


def _set_rows(poly: IncidencePolytope, index: dict[str, int], rows: Iterable[tuple[int, ...]]) -> None:
    """Check the sorted vertex-index rows of the facets, put them in
    canonical order and set the facets, rows, masks and index.

    Each row is checked as it arrives; the family is then checked for
    nesting and for vertices on no facet.  Distinct facets of one size
    cannot nest, so only facets smaller than the largest are tested against
    the facets through all of their vertices, and repeated rows, which sort
    next to each other, are caught on the side.
    """
    n = len(index)
    checked = []
    for row in rows:
        if len(set(row)) != len(row):
            raise BadParametersError("facet repeats a vertex")
        if len(row) == n:
            raise BadParametersError("a facet cannot contain every vertex")
        if not row:
            raise BadParametersError("a facet cannot be empty")
        checked.append(row)
    checked.sort()
    masks = [0] * n
    for f, row in enumerate(checked):
        bit = 1 << f
        for i in row:
            masks[i] |= bit
    widest = max(map(len, checked), default=0)
    if any(map(operator.eq, checked, checked[1:])) or any(
        _facets_through(masks, row) != 1 << f
        for f, row in enumerate(checked)
        if len(row) < widest
    ):
        raise BadParametersError("facets must be pairwise incomparable")
    lonely = [v for v, mask in zip(poly.vertices, masks) if not mask]
    if lonely:
        raise BadParametersError(f"vertices on no facet: {lonely}")
    labels = poly.vertices
    _assign(
        poly,
        # itemgetter of one index gives the label itself, not a 1-tuple
        facets=tuple(
            operator.itemgetter(*row)(labels) if len(row) > 1 else (labels[row[0]],)
            for row in checked
        ),
        _index=index,
        _rows=tuple(checked),
        _masks=tuple(masks),
    )


def _facets_through(masks: Sequence[int], row: Iterable[int]) -> int:
    """Mask of the facets containing every vertex of ``row``."""
    common = -1
    for i in row:
        common &= masks[i]
    return common


def _edge(masks: Sequence[int], i: int, j: int) -> bool:
    """Mask form of ``is_edge``: the vertices share a facet, and every other
    vertex misses one of their common facets, so i and j are the only
    vertices on all of them."""
    common = masks[i] & masks[j]
    if not common:
        return False
    return list(map(common.__and__, masks)).count(common) == 2


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

    The stacked polytope is spliced from ``poly``: F's row and bit are
    deleted, and each new row is inserted at its bisected place in the
    canonical order, with a zero bit opened at that place in every mask.
    The kept facets keep their label tuples.  Of the family checks only
    the one for vertices on no facet can fail: the new facets are distinct
    d-sets, none of them lies in a kept facet, since no kept facet holds
    the apex, and none holds one, since a kept facet inside F minus v would
    lie inside F.
    """
    try:
        fset = frozenset(facet)
    except TypeError:
        # an unhashable entry is no vertex label, as vertex_index says of it
        raise UnknownVertexError(f"facet entries must be vertex labels, not {facet!r}") from None
    index = poly._index
    for v in fset:
        if v not in index:
            raise UnknownVertexError(f"no vertex labeled {v!r}")
    row = tuple(sorted(index[v] for v in fset))
    rows = list(poly._rows)
    k = bisect.bisect_left(rows, row)
    if k == len(rows) or rows[k] != row:
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
    elif isinstance(new_label, str) and new_label in index:
        raise BadParametersError(f"label {new_label!r} already in use")
    vertices = poly.vertices + (new_label,)
    index = _vertex_index(poly.d, vertices)
    apex = poly.f0
    facets = list(poly.facets)
    del rows[k], facets[k]
    low = (1 << k) - 1
    masks = [mask & low | mask >> (k + 1) << k for mask in poly._masks]
    masks.append(0)
    # F minus its last vertex sorts first; each insertion lies past the last
    for v in reversed(row):
        added = tuple(w for w in row if w != v) + (apex,)
        at = bisect.bisect_left(rows, added)
        rows.insert(at, added)
        facets.insert(at, tuple(vertices[w] for w in added))
        low = (1 << at) - 1
        masks = [mask & low | mask >> at << (at + 1) for mask in masks]
        for w in added:
            masks[w] |= 1 << at
    lonely = [v for v, mask in zip(vertices, masks) if not mask]
    if lonely:
        raise BadParametersError(f"vertices on no facet: {lonely}")
    stacked = object.__new__(IncidencePolytope)
    _assign(
        stacked,
        d=poly.d,
        vertices=vertices,
        facets=tuple(facets),
        _index=index,
        _rows=tuple(rows),
        _masks=tuple(masks),
    )
    return stacked


def crosspolytope(d: int) -> IncidencePolytope:
    """2d vertices +-1 ... +-d; facets pick one sign per coordinate."""
    check_dimension(d, 1)
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
    check_dimension(d, 1)
    vertices = tuple(str(i) for i in range(1, d + 2))
    facets = tuple(itertools.combinations(vertices, d))
    return IncidencePolytope(d=d, vertices=vertices, facets=facets)


def _evenness_rows(d: int, n: int) -> list[tuple[int, ...]]:
    """The d-subsets of 0..n-1 satisfying Gale's evenness condition, in
    lexicographic order.

    In such a subset every maximal run of consecutive elements that contains
    neither 0 nor n-1 has even length.  The subsets are grown position by
    position, taking i before leaving it out, by a depth-first walk with an
    explicit stack of (position, length of the run open before it, length
    of the row); a run may end (i left out) only when it has even length or
    began at 0, and a run still open past n-1 contains n-1.
    """
    rows: list[tuple[int, ...]] = []
    row: list[int] = []
    stack = [(0, 0, 0)]
    while stack:
        i, run, size = stack.pop()
        del row[size:]
        closable = run % 2 == 0 or run == i
        if size == d:
            if i == n or closable:
                rows.append(tuple(row))
        elif n - i >= d - size:
            if closable:
                stack.append((i + 1, 0, size))
            row.append(i)
            stack.append((i + 1, run + 1, size + 1))
    return rows


def cyclic_polytope(d: int, n: int) -> IncidencePolytope:
    """Combinatorics of the convex hull of n moment-curve points in R^d.

    Vertices are labeled "1" ... "n" in curve order; facets are the
    d-subsets satisfying the evenness condition: any two vertices outside
    the subset have an even number of subset elements strictly between
    them.  They are generated directly, as index rows, rather than filtered
    from all d-subsets.  Requires n >= d+1 and d >= 2 (and yields the
    simplex at n = d+1).
    """
    check_dimension(d, 1)
    check_dimension(n, 1, "vertex count")
    if d < 2 or n < d + 1:
        raise BadParametersError("cyclic polytope needs d >= 2 and n >= d+1")
    vertices = tuple(str(i) for i in range(1, n + 1))
    return _from_rows(d, vertices, _evenness_rows(d, n))


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

"""The in-library maximum matching against networkx, and its certificate.

``polytope._max_matching`` (Edmonds' blossom algorithm) must find a
matching as large as networkx's ``max_weight_matching(maxcardinality=True)``
on seeded and hypothesis graphs of up to 14 vertices and on shapes that
force blossoms.  ``polytope._certified`` must accept every matching it
finds, with a Tutte–Berge barrier when the matching is not perfect, and
raise ``CertificateError`` on a matching that is too small or a barrier
that does not fit.
"""

import itertools
import random

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galepoly import polytope
from galepoly.errors import CertificateError
from galepoly.polytope import crosspolytope, inner_diagonal_matching, simplex


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    return [sorted(row) for row in adj]


def _cycle(start, length):
    return [(start + k, start + (k + 1) % length) for k in range(length)]


# Matchings on these are found in vertex order, and the ones marked are
# labelled so that the last augmenting path runs through a blossom from
# whichever end it is searched: a search that does not shrink blossoms
# misses it.
BLOSSOM_SHAPES = {
    "triangle": (3, _cycle(0, 3)),
    "pentagon": (5, _cycle(0, 5)),
    "heptagon": (7, _cycle(0, 7)),
    # blossom: triangles 0-1-4 and 2-3-5 joined by the edge 0-2
    "two triangles and an edge": (6, [(0, 1), (1, 4), (4, 0), (2, 3), (3, 5), (5, 2), (0, 2)]),
    # blossom: triangles 0-1-6 and 4-5-7 joined by the path 0-2-3-4
    "two triangles and a path": (
        8,
        [(0, 1), (1, 6), (6, 0), (0, 2), (2, 3), (3, 4), (4, 5), (5, 7), (7, 4)],
    ),
    # blossom: the stem 4-1 enters the triangle 0-2-3 at 3 through the
    # matched edge 1-3 (1-2 is a chord), and the exposed 5 hangs off 0
    "flower with a stem": (6, [(4, 1), (1, 3), (1, 2), (0, 2), (2, 3), (3, 0), (0, 5)]),
    "petersen": (
        10,
        _cycle(0, 5) + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)] + [(k, k + 5) for k in range(5)],
    ),
    "star": (5, [(0, k) for k in range(1, 5)]),
    "no edges": (4, []),
    "no vertices": (0, []),
}


def _reference_size(n, edges):
    graph = networkx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(e for e in edges if e[0] != e[1])
    return len(networkx.max_weight_matching(graph, maxcardinality=True))


def _check(n, edges):
    adj = _adjacency(n, edges)
    pairs = polytope._max_matching(adj)
    assert len(pairs) == _reference_size(n, edges)
    assert polytope._certified(adj, pairs) == pairs
    matched = [v for pair in pairs for v in pair]
    assert len(set(matched)) == len(matched)
    assert all(i < j and j in adj[i] for i, j in pairs)
    exposed = n - 2 * len(pairs)
    if exposed:
        barrier = polytope._barrier(adj, pairs)
        assert polytope._deficiency(adj, barrier) == exposed
    # one pair fewer is no maximum matching, whatever barrier is tried
    if pairs:
        with pytest.raises(CertificateError, match="not maximum"):
            polytope._certified(adj, pairs[1:])
    return adj, pairs


@pytest.mark.parametrize("shape", sorted(BLOSSOM_SHAPES))
def test_blossom_shapes_match_networkx(shape):
    _check(*BLOSSOM_SHAPES[shape])


def test_seeded_graphs_match_networkx():
    rng = random.Random(1965)
    for _ in range(400):
        n = rng.randint(1, 14)
        density = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        _check(n, edges)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 14))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pairs, max_size=3 * n))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_hypothesis_graphs_match_networkx(graph):
    _check(*graph)


def test_the_matching_is_found_in_vertex_order():
    # roots and neighbours in vertex order: the pentagon 0-1-2-3-4 matches
    # 0 with 1 first, then 2 with 3, leaving 4
    assert polytope._max_matching(_adjacency(*BLOSSOM_SHAPES["pentagon"])) == [(0, 1), (2, 3)]
    # the flower's last search, from 4, re-matches 1-3 as 1-4, 3-2, 0-5
    flower = _adjacency(*BLOSSOM_SHAPES["flower with a stem"])
    assert polytope._max_matching(flower) == [(0, 5), (1, 4), (2, 3)]


@pytest.mark.parametrize("forged", [set(), {1}, {0, 1}])
def test_forged_barrier_raises(monkeypatch, forged):
    n, edges = BLOSSOM_SHAPES["star"]
    adj = _adjacency(n, edges)
    pairs = polytope._max_matching(adj)
    assert polytope._barrier(adj, pairs) == {0}
    monkeypatch.setattr(polytope, "_barrier", lambda adj, pairs: forged)
    with pytest.raises(CertificateError, match="not maximum"):
        polytope._certified(adj, pairs)


def test_forged_barrier_raises_through_the_library(monkeypatch):
    # simplex(3) has no inner diagonal: four isolated vertices, empty barrier
    assert inner_diagonal_matching(simplex(3)).pairs == ()
    monkeypatch.setattr(polytope, "_barrier", lambda adj, pairs: {0})
    with pytest.raises(CertificateError, match="not maximum"):
        inner_diagonal_matching(simplex(3))


@pytest.mark.parametrize(
    "forged, message",
    [
        ([(0, 1), (1, 0)], "repeats a vertex"),
        ([(0, 0)], "non-diagonal"),
        ([(0, 2)], "non-diagonal"),
        ([(0, 1), (2, 3)], "not maximum"),
        ([], "not maximum"),
    ],
)
def test_forged_matchings_raise(monkeypatch, forged, message):
    # crosspolytope(3): indices 0..5 are +1, -1, +2, -2, +3, -3
    monkeypatch.setattr(polytope, "_max_matching", lambda adj: forged)
    with pytest.raises(CertificateError, match=message):
        inner_diagonal_matching(crosspolytope(3))

"""Independent correctness checks for benchmark outputs.

Nothing here calls into galepoly's solvers: every certificate the library
returns is re-checked by direct ``Fraction`` arithmetic, combinatorial
verdicts are recomputed from facet incidences with bitmasks, and digests
are recomputed with ``hashlib`` over our own canonical JSON encoding.  Each
check returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vertex_count_minimum(d: int) -> int:
    """M(d) = min(2d, d + 1 + ceil(2 sqrt d)), computed with integers."""
    t = math.isqrt(4 * d)
    if t * t < 4 * d:
        t += 1
    return min(2 * d, d + 1 + t)


def least_block_size(d: int) -> int:
    """Least p >= 1 with p(p+1) >= d: the block count of the formulas."""
    p = 1
    while p * (p + 1) < d:
        p += 1
    return p


def default_block_size(d: int) -> int:
    """Block size of the Gale-diagram construction when none is given."""
    return max(3, least_block_size(d))


def cyclic_facet_count(d: int, n: int) -> int:
    """Facets of the cyclic d-polytope with n vertices (closed form)."""
    m = d // 2
    if d % 2 == 0:
        return n * math.comb(n - m, m) // (n - m)
    return 2 * math.comb(n - m - 1, m)


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def rank(rows) -> int:
    """Rank of a list of rational rows by plain Gaussian elimination."""
    grid = [list(r) for r in rows]
    r = 0
    width = len(grid[0]) if grid else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(grid)) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        for i in range(r + 1, len(grid)):
            if grid[i][c] != 0:
                f = grid[i][c] / grid[r][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        r += 1
    return r


def rationals(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


# ---------------------------------------------------------------------------
# Dependence and hyperplane certificates


def dependence_certificate_problems(vectors, cert: dict) -> list[str]:
    """Re-check a serialized dependence certificate on the given vectors."""
    if not vectors:
        return ["certificate over an empty selection"]
    kind = cert.get("kind")
    m = len(vectors[0])
    if kind == "PositiveDependence":
        lam = rationals(cert.get("lambda", ()))
        if len(lam) != len(vectors) or any(x <= 0 for x in lam):
            return ["positive dependence has a nonpositive or missing weight"]
        total = [sum((l * v[i] for l, v in zip(lam, vectors)), Fraction(0)) for i in range(m)]
        return [] if all(x == 0 for x in total) else ["weighted sum is not zero"]
    if kind == "StiemkeWitness":
        c = rationals(cert.get("functional", ()))
        if len(c) != m or all(x == 0 for x in c):
            return ["Stiemke functional is zero or has the wrong length"]
        values = [_dot(c, v) for v in vectors]
        if all(x >= 0 for x in values) and any(x > 0 for x in values):
            return []
        return ["Stiemke functional is negative somewhere or zero everywhere"]
    if kind == "RankDeficiency":
        w = rationals(cert.get("direction", ()))
        if len(w) != m or all(x == 0 for x in w):
            return ["rank direction is zero or has the wrong length"]
        if all(_dot(w, v) == 0 for v in vectors):
            return []
        return ["rank direction is not orthogonal to the selection"]
    return [f"unknown certificate kind {kind!r}"]


def hyperplane_problems(points: dict, on: set, below, normal, offset) -> list[str]:
    """Points labeled ``on`` lie on <normal, x> = offset; ``below`` strictly under."""
    problems = []
    for lab in on:
        if _dot(normal, points[lab]) != offset:
            problems.append(f"{lab} is off the hyperplane")
    for lab in below:
        if not _dot(normal, points[lab]) < offset:
            problems.append(f"{lab} is not strictly below the hyperplane")
    return problems


# ---------------------------------------------------------------------------
# Combinatorial polytopes


class Incidence:
    """Facet incidences as bitmasks: bit f of ``masks[v]`` marks facet f."""

    def __init__(self, vertices, facets):
        self.vertices = list(vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        self.masks = [0] * len(self.vertices)
        self.facet_bits = []
        for f, facet in enumerate(facets):
            bits = 0
            for v in facet:
                self.masks[index[v]] |= 1 << f
                bits |= 1 << index[v]
            self.facet_bits.append(bits)

    def diagonal(self, i: int, j: int) -> bool:
        return self.masks[i] & self.masks[j] == 0

    def edge(self, i: int, j: int) -> bool:
        common = self.masks[i] & self.masks[j]
        if not common:
            return False
        inter = -1
        f = 0
        while common:
            if common & 1:
                inter &= self.facet_bits[f]
            common >>= 1
            f += 1
        return inter == (1 << i) | (1 << j)

    def first_partner(self, i: int, test) -> str | None:
        for j in range(len(self.vertices)):
            if j != i and test(i, j):
                return self.vertices[j]
        return None


def illumination_problems(vertices, facets, diagonal_partner, edge_partner,
                          illuminated: bool, unneighborly: bool) -> list[str]:
    """Recompute first inner-diagonal and missing-edge partners per vertex."""
    inc = Incidence(vertices, facets)
    want_diag = [(v, inc.first_partner(i, inc.diagonal)) for i, v in enumerate(vertices)]
    want_edge = [
        (v, inc.first_partner(i, lambda a, b: not inc.edge(a, b)))
        for i, v in enumerate(vertices)
    ]
    problems = []
    if [tuple(p) for p in diagonal_partner] != want_diag:
        problems.append("diagonal partners differ from the recomputed ones")
    if [tuple(p) for p in edge_partner] != want_edge:
        problems.append("missing-edge partners differ from the recomputed ones")
    if illuminated != all(w is not None for _, w in want_diag):
        problems.append("illumination verdict is wrong")
    if unneighborly != all(w is not None for _, w in want_edge):
        problems.append("unneighborliness verdict is wrong")
    return problems


def matching_problems(vertices, facets, pairs, perfect: bool) -> list[str]:
    """Pairs are disjoint inner diagonals, the matching is maximal, and the
    perfect flag agrees with its size."""
    inc = Incidence(vertices, facets)
    index = {v: i for i, v in enumerate(vertices)}
    used = set()
    for u, v in pairs:
        if u in used or v in used:
            return ["matching repeats a vertex"]
        used.update((u, v))
        if not inc.diagonal(index[u], index[v]):
            return [f"matched pair {u},{v} is not an inner diagonal"]
    free = [i for i, v in enumerate(vertices) if v not in used]
    for a in free:
        for b in free:
            if a < b and inc.diagonal(a, b):
                return ["matching is not maximal"]
    if perfect != (2 * len(pairs) == len(vertices)):
        return ["perfect flag disagrees with the matching size"]
    return []


# ---------------------------------------------------------------------------
# Build reports


def digest_problems(doc: dict, payloads: list) -> list[str]:
    """Re-derived payloads must hash to the report's own certificateDigests."""
    recorded = doc.get("certificateDigests", {})
    got = {p["check"]: sha256_hex(canonical(p)) for p in payloads}
    if got != recorded:
        bad = sorted(k for k in set(got) | set(recorded) if got.get(k) != recorded.get(k))
        return [f"digests do not reproduce for {bad}"]
    return []


def certificate_report_problems(doc: dict) -> list[str]:
    """Re-check every hyperplane and the Gale dual of a certificate-mode report."""
    problems = []
    d, p, q = doc["d"], doc["p"], doc["q"]
    labels = [e["label"] for e in doc["points"]["points"]]
    points = {e["label"]: rationals(e["coords"]) for e in doc["points"]["points"]}
    n = len(labels)
    if n != d + p + q + 1:
        problems.append(f"f0 = {n}, expected d + p + q + 1 = {d + p + q + 1}")
    if p == default_block_size(d) and n != vertex_count_minimum(d):
        problems.append(f"f0 = {n} differs from M({d}) = {vertex_count_minimum(d)}")
    if not all(doc["checks"].values()):
        problems.append("a recorded check is false")
    base = [e["label"] for e in doc["plan"]["configuration"]["vectors"]]
    certs = {c["check"]: c for c in doc["certificates"]}

    for entry in certs["designatedAreFacets"]["designated"]:
        comp = set(entry["complement"])
        on = {lab for lab in base if lab not in comp}
        problems += hyperplane_problems(
            points, on, comp, rationals(entry["normal"]), Fraction(entry["offset"])
        )

    placed = list(base)
    for stack in doc["stacks"]:
        facet = set(stack["facet"])
        normal, offset = rationals(stack["normal"]), Fraction(stack["offset"])
        problems += hyperplane_problems(
            points, facet, [lab for lab in base if lab not in facet], normal, offset
        )
        center = [sum(col, Fraction(0)) / len(facet)
                  for col in zip(*(points[lab] for lab in stack["facet"]))]
        eps = Fraction(stack["epsilon"])
        apex = tuple(c + eps * a for c, a in zip(center, normal))
        if apex != points[stack["apex"]] or not _dot(normal, apex) > offset:
            problems.append(f"apex {stack['apex']} is not beyond its facet")
        placed.append(stack["apex"])
    if placed != labels:
        problems.append("stacked labels do not extend the base labels in order")

    fat = certs["nonsimplicial"]
    if len(fat["fatFacet"]) <= d:
        problems.append("fat facet is not larger than d")
    on = set(fat["fatFacet"])
    problems += hyperplane_problems(
        points, on, [lab for lab in labels if lab not in on],
        rationals(fat["normal"]), Fraction(fat["offset"]),
    )

    dual = doc["dualConfiguration"]
    vectors = [rationals(e["coords"]) for e in dual["vectors"]]
    m = dual["m"]
    if [e["label"] for e in dual["vectors"]] != labels or m != n - d - 1:
        problems.append("dual labels or dimension are wrong")
    lifted = [(Fraction(1),) + points[lab] for lab in labels]
    for j in range(d + 1):
        for i in range(m):
            if sum((lifted[t][j] * vectors[t][i] for t in range(n)), Fraction(0)) != 0:
                problems.append("dual is not in the kernel of the lifted points")
                break
    if rank(vectors) != m:
        problems.append("dual vectors do not span R^m")
    minimal = certs["minimal2spanningDual"]
    if not (minimal["spanning"] and minimal["minimal"]) or len(minimal["perIndex"]) != n:
        problems.append("dual is not certified minimal positively 2-spanning")
    kinds = {"PositiveDependence", "StiemkeWitness", "RankDeficiency"}
    if any(e["kind"] not in kinds for e in minimal["perIndex"]):
        problems.append("unknown certificate kind in perIndex")
    return problems

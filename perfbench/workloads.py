"""Seeded workloads: request generation, execution, and output checks.

A workload is an endless closed-loop stream of requests grouped in rounds.
Every round holds the same request classes in a seeded order, so a run
that executes whole rounds sees the same mix whatever the seed; the seed
picks the concrete inputs of each class.  ``execute`` is the only code that
is timed; galepoly is otherwise called only to warm up and to build the
full-mode reports that ``verify-stream`` sends.  ``check`` verifies a
result with the independent arithmetic in ``oracle``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

import oracle
from galepoly import jsonio, mani, polytope


@dataclass
class Request:
    cls: str
    key: str
    args: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    response: bytes
    value: object = None


# ---------------------------------------------------------------------------
# certify: certificate-mode builds, dual certification, report round trip


class Certify:
    """Each round runs the three d = 6 jobs (p, ell) once, in a seeded order.
    Their costs differ by about 20%, so a run of twelve or more jobs gives a
    median and a tail of like operations whatever the seed; d = 7 jobs take
    half as long again, which leaves too few of them in a run for a steady
    median."""

    name = "certify"
    JOBS = [(6, 3, 1), (6, 4, 1), (6, 5, 1)]

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Request]:
        rng = random.Random(f"certify:{self.seed}:{r}")
        jobs = rng.sample(self.JOBS, len(self.JOBS))
        return [Request(f"d{job[0]}", "certify:%d:%d:%d" % job, job) for job in jobs]

    def warm_up(self) -> None:
        # every certificate-mode job at d = 6 is in the stream, so warm up
        # on a full-mode build and a small spanning check instead
        c = mani.construct_nonsimplicial_mani(6, 1, mode="full")
        jsonio.verify_document(json.loads(jsonio.dumps(jsonio.build_report(c))), None)
        doc = _config_doc(random.Random("certify:warm-up"), 2, 2, "standard", "w")
        jsonio.verify_document(doc, ["kspanning:2", "minimal"])

    @staticmethod
    def execute(req: Request) -> Result:
        d, p, ell = req.args
        c = mani.construct_nonsimplicial_mani(d, ell, p=p, mode="certificate")
        dual = mani.dual_spanning_report(c, k=2)
        doc = jsonio.build_report(c, dual)
        text = jsonio.dumps(doc).encode("ascii")
        back = jsonio.verify_document(json.loads(text), None)
        return Result(text, (c, dual, doc, back))

    @staticmethod
    def check(req: Request, res: Result) -> list[str]:
        c, dual, doc, back = res.value
        d, p, ell = req.args
        problems = []
        if (doc["d"], doc["p"], doc["ell"]) != (d, p, ell):
            problems.append("report describes another job")
        if not (c.all_checks_pass() and dual.spanning and dual.minimal):
            problems.append("construction or dual verdict failed")
        if res.response != oracle.canonical(doc):
            problems.append("report bytes are not the canonical encoding")
        problems += oracle.certificate_report_problems(json.loads(res.response))
        problems += oracle.digest_problems(doc, back)
        return problems


# ---------------------------------------------------------------------------
# enumerate: full facet enumeration and polytope combinatorics

# base-polytope facet counts of full-mode builds (default p, q = 4), pinned
# at the commit that introduced the benchmark
FULL_BASE_FACETS = {
    (12, 1): 77, (12, 2): 53, (12, 3): 53,
    (13, 1): 122, (13, 2): 58, (13, 3): 98,
    (14, 1): 159, (14, 2): 72, (14, 3): 103,
    (15, 1): 208, (15, 2): 92, (15, 3): 110,
}


class Enumerate:
    """Per round: full-mode builds at d = 12..15 and the simplicial
    construction at d = 12..16, each followed by an illumination report, an
    inner-diagonal matching and a polytope document.  A full-mode class
    steps through ell = 1..q-1 from a seeded start, so every ell recurs
    equally often.  The dimensions keep the costliest classes close in cost,
    so the tail latency does not hinge on which ell a run happens to get,
    and the nine classes put the median inside a cluster of similar costs."""

    name = "enumerate"
    FULL = (12, 13, 14, 15)
    SIMPLICIAL = (12, 13, 14, 15, 16)

    def __init__(self, seed: int):
        rng = random.Random(f"enumerate:{seed}")
        self.seed = seed
        self.offsets = {d: rng.randrange(3) for d in self.FULL}

    def round(self, r: int) -> list[Request]:
        rng = random.Random(f"enumerate:{self.seed}:{r}")
        out = []
        for d in self.FULL:
            q = -(-d // oracle.default_block_size(d))
            ell = (self.offsets[d] + r) % (q - 1) + 1
            out.append(Request(f"full{d}", f"full:{d}:{ell}", ("full", d, ell)))
        for d in self.SIMPLICIAL:
            out.append(Request(f"simplicial{d}", f"simplicial:{d}", ("simplicial", d, None)))
        rng.shuffle(out)
        return out

    def warm_up(self) -> None:
        for c in (mani.construct_nonsimplicial_mani(10, 1), mani.mani_simplicial(10)):
            polytope.illumination_report(c.stacked)
            polytope.inner_diagonal_matching(c.stacked)

    @staticmethod
    def execute(req: Request) -> Result:
        kind, d, ell = req.args
        if kind == "full":
            c = mani.construct_nonsimplicial_mani(d, ell, mode="full")
        else:
            c = mani.mani_simplicial(d)
        poly = c.stacked
        illum = polytope.illumination_report(poly)
        matching = polytope.inner_diagonal_matching(poly)
        text = jsonio.dumps(jsonio.polytope_to_json(poly)).encode("ascii")
        return Result(text, (c, illum, matching))

    @staticmethod
    def check(req: Request, res: Result) -> list[str]:
        c, illum, matching = res.value
        kind, d, ell = req.args
        poly = c.stacked
        problems = []
        if not c.all_checks_pass():
            problems.append("a construction check failed")
        if poly.f0 != oracle.vertex_count_minimum(d):
            problems.append(f"f0 = {poly.f0}, expected M({d})")
        if kind == "full":
            p = oracle.default_block_size(d)
            base_facets = FULL_BASE_FACETS[(d, ell)]
            if not any(len(f) > d for f in poly.facets):
                problems.append("full build has no fat facet")
        else:
            p = oracle.least_block_size(d)
            base_facets = oracle.cyclic_facet_count(d, d + p)
            if any(len(f) != d for f in poly.facets):
                problems.append("simplicial build has a non-simplex facet")
        q = -(-d // p)
        if len(c.base.facets) != base_facets:
            problems.append(f"base has {len(c.base.facets)} facets, expected {base_facets}")
        if len(poly.facets) != base_facets + (q + 1) * (d - 1):
            problems.append("stacking changed the facet count wrongly")
        if not illum.illuminated:
            problems.append("construction is not illuminated")
        problems += oracle.illumination_problems(
            poly.vertices, poly.facets, illum.diagonal_partner,
            illum.missing_edge_partner, illum.illuminated, illum.unneighborly,
        )
        problems += oracle.matching_problems(
            poly.vertices, poly.facets, matching.pairs, matching.perfect
        )
        doc = {"schemaVersion": 1, "d": poly.d, "vertices": list(poly.vertices),
               "facets": [list(f) for f in poly.facets]}
        if res.response != oracle.canonical(doc):
            problems.append("polytope document differs from the polytope")
        return problems


# ---------------------------------------------------------------------------
# verify-stream: small JSON requests, a fixed share of them re-sent

CONFIG_CLASSES = ((1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
CONFIG_VARIANTS = ("standard", "extra", "minus")
POLY_CHECKS = ["illuminated", "unneighborly", "simplicial"]
# full-mode builds (d, p, ell) whose reports are sent, q = ceil(d/p) >= 2
REPORT_JOBS = [(d, p, ell) for d in (6, 7, 8) for p in (3, 4, 5) for ell in range(1, -(-d // p))]
COPIES_PER_ROUND = 3  # of the 24 fresh request classes below
RESENDS_PER_ROUND = 24  # of 96 requests: 72 fresh + 24 re-sent


def _config_doc(rng: random.Random, m: int, k: int, variant: str, tag: str) -> dict:
    """k copies of +-e_1..+-e_m under a seeded signed permutation, shear and
    positive scaling (which keep minimal k-spanning), then the variant:
    one extra vector (k-spanning, not minimal) or one vector fewer (not
    k-spanning)."""
    vectors = []
    for i in range(m):
        for sign in (1, -1):
            for _ in range(k):
                v = [0] * m
                v[i] = sign
                vectors.append(v)
    perm = rng.sample(range(m), m)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    vectors = [[signs[i] * v[perm[i]] for i in range(m)] for v in vectors]
    if m >= 2:
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        for v in vectors:
            v[i] += s * v[j]
    vectors = [[c * x for x in v] for v in vectors for c in (rng.randint(1, 3),)]
    if variant == "extra":
        extra = [0] * m
        while not any(extra):
            extra = [rng.randint(-2, 2) for _ in range(m)]
        vectors.append(extra)
    elif variant == "minus":
        del vectors[rng.randrange(len(vectors))]
    rng.shuffle(vectors)
    return {
        "schemaVersion": 1,
        "m": m,
        "vectors": [
            {"label": f"{tag}v{i}", "coords": [str(x) for x in v]}
            for i, v in enumerate(vectors)
        ],
    }


def _cross_facets(d: int, label) -> list[list[str]]:
    return [[label(f"{s}{i}") for i, s in zip(range(1, d + 1), signs)]
            for signs in itertools.product("+-", repeat=d)]


def _poly_doc(rng: random.Random, kind: str, tag: str) -> dict:
    """Crosspolytope, cyclic polytope, or a crosspolytope stacked on one or
    two facets, with seeded labels and vertex order."""
    label = lambda v: f"{tag}{v}"  # noqa: E731
    if kind == "cyclic":
        d = rng.choice((4, 5, 6))
        n = d + rng.choice((3, 4, 5))
        vertices = [label(i) for i in range(1, n + 1)]
        facets = []
        for subset in itertools.combinations(range(1, n + 1), d):
            inside = set(subset)
            outside = [i for i in range(1, n + 1) if i not in inside]
            if all(sum(1 for t in range(a + 1, b) if t in inside) % 2 == 0
                   for a, b in itertools.combinations(outside, 2)):
                facets.append([label(i) for i in subset])
    else:
        d = rng.choice((3, 4, 5, 6) if kind == "cross" else (3, 4, 5))
        vertices = [label(f"{s}{i}") for i in range(1, d + 1) for s in "+-"]
        facets = _cross_facets(d, label)
        if kind == "stacked":
            for apex, facet in enumerate(rng.sample(list(facets), rng.choice((1, 2)))):
                z = label(f"z{apex}")
                facets.remove(facet)
                facets.extend([w for w in facet if w != v] + [z] for v in facet)
                vertices.append(z)
    rng.shuffle(vertices)
    return {"schemaVersion": 1, "d": d, "vertices": vertices, "facets": facets}


class VerifyStream:
    """Per round, three times over: 18 configuration documents (six (m, k)
    classes, each as the standard minimal configuration, with an extra
    vector, and with one vector missing), 4 polytope documents and 2
    full-mode build reports; plus 24 re-sends of documents sent earlier in
    the run, a quarter of all requests."""

    name = "verify-stream"

    def __init__(self, seed: int):
        self.seed = seed
        self.history: list[Request] = []
        self.reports = {}
        for d, p, ell in REPORT_JOBS:
            c = mani.construct_nonsimplicial_mani(d, ell, p=p, mode="full")
            self.reports[(d, p, ell)] = jsonio.dumps(jsonio.build_report(c)).encode("ascii")

    def round(self, r: int) -> list[Request]:
        rng = random.Random(f"verify-stream:{self.seed}:{r}")
        fresh = []
        for _ in range(COPIES_PER_ROUND):
            for m, k in CONFIG_CLASSES:
                for variant in CONFIG_VARIANTS:
                    tag = f"r{r}c{len(fresh)}"
                    text = json.dumps(_config_doc(rng, m, k, variant, tag)).encode("ascii")
                    checks = [f"kspanning:{k}", "minimal"]
                    expect = {"kspanning": variant != "minus", "minimal": variant == "standard"}
                    fresh.append(Request(f"config{m}.{k}.{variant}", "", (text, checks), expect))
            for kind in ("cross", "cyclic", "stacked", "stacked"):
                tag = f"r{r}p{len(fresh)}_"
                text = json.dumps(_poly_doc(rng, kind, tag)).encode("ascii")
                ok = kind != "cyclic"
                expect = {"illuminated": ok, "unneighborly": ok, "simplicial": True}
                fresh.append(Request(f"polytope.{kind}", "", (text, list(POLY_CHECKS)), expect))
            for _ in range(2):
                job = rng.choice(REPORT_JOBS)
                fresh.append(Request("report", "", (self.reports[job], None)))
        for req in fresh:
            req.key = oracle.sha256_hex(req.args[0] + json.dumps(req.args[1]).encode())
        rng.shuffle(fresh)
        out = []
        slots = set(rng.sample(range(1, len(fresh) + RESENDS_PER_ROUND), RESENDS_PER_ROUND))
        for pos in range(len(fresh) + RESENDS_PER_ROUND):
            if pos in slots:
                prior = rng.choice(self.history)
                out.append(Request("resend", prior.key, prior.args, prior.expect))
            else:
                req = fresh.pop()
                self.history.append(req)
                out.append(req)
        return out

    def warm_up(self) -> None:
        rng = random.Random("verify-stream:warm-up")
        jsonio.verify_document(_config_doc(rng, 2, 1, "standard", "w"), ["kspanning:1", "minimal"])
        jsonio.verify_document(_poly_doc(rng, "cross", "w"), POLY_CHECKS)

    @staticmethod
    def execute(req: Request) -> Result:
        text, checks = req.args
        doc = json.loads(text)
        payloads = jsonio.verify_document(doc, checks)
        return Result(jsonio.dumps(payloads).encode("ascii"), (doc, payloads))

    @staticmethod
    def check(req: Request, res: Result) -> list[str]:
        doc, payloads = res.value
        problems = []
        if res.response != oracle.canonical(payloads):
            problems.append("response bytes are not the canonical encoding")
        if req.args[1] is None:
            problems += oracle.digest_problems(doc, payloads)
            if not all(p["verdict"] for p in payloads):
                problems.append("a build-report check is false")
        elif "vectors" in doc:
            problems += _config_problems(doc, payloads, req.expect)
        else:
            problems += _polytope_problems(doc, payloads, req.expect)
        return problems


def _config_problems(doc: dict, payloads: list, expect: dict) -> list[str]:
    span, minimal = payloads
    labels = [v["label"] for v in doc["vectors"]]
    problems = []
    if span["verdict"] != expect["kspanning"] or minimal["verdict"] != expect["minimal"]:
        problems.append("verdict differs from the one known by construction")
    if not span["verdict"]:
        dropped = set(span["witnessDeletion"])
        if not dropped <= set(labels):
            problems.append("witness deletion names unknown vectors")
        rest = [oracle.rationals(v["coords"]) for v in doc["vectors"]
                if v["label"] not in dropped]
        problems += oracle.dependence_certificate_problems(rest, span["certificate"])
    elif minimal["verdict"]:
        if [e["removed"] for e in minimal["perIndex"]] != labels:
            problems.append("minimality scan skipped a vector")
    elif minimal["removableIndex"] not in labels:
        problems.append("removable vector is not in the configuration")
    return problems


def _polytope_problems(doc: dict, payloads: list, expect: dict) -> list[str]:
    got = {p["check"]: p for p in payloads}
    problems = []
    if {name: p["verdict"] for name, p in got.items()} != expect:
        problems.append("verdict differs from the one known by construction")
    problems += oracle.illumination_problems(
        doc["vertices"], doc["facets"], got["illuminated"]["partners"],
        got["unneighborly"]["partners"], got["illuminated"]["verdict"],
        got["unneighborly"]["verdict"],
    )
    if got["simplicial"]["fatFacets"]:
        problems.append("simplicial polytope reports fat facets")
    return problems


WORKLOADS = {w.name: w for w in (Certify, Enumerate, VerifyStream)}

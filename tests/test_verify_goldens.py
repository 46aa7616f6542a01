"""Verify payloads of seeded configuration documents against goldens.

Each case is a configuration document in R^m, m = 1..4, checked for
``kspanning:k`` (k = 1..3) and, when it has few vectors, ``minimal``.  The
coordinates are rational strings with non-unit denominators, some not in
lowest terms, and the families add zero vectors, positive multiples and
opposite pairs (``multiples``) and vectors on a hyperplane, whose failing
deletion prints a ``RankDeficiency`` direction from
``ExactMatrix.kernel_basis`` (``flat``).  ``verify_goldens.json`` holds the
SHA-256 of each document and of its ``verify_document`` payloads;
``python tests/test_verify_goldens.py`` rewrites it, which is right only
for a deliberate change of output.
"""

import json
import os
import random

import pytest

from galepoly.jsonio import digest, verify_document

GOLDENS = os.path.join(os.path.dirname(__file__), "verify_goldens.json")

FAMILIES = ("random", "multiples", "flat")
CASES = [(family, k, m, seed) for family in FAMILIES for k in (1, 2, 3) for m in (1, 2, 3, 4) for seed in (0, 1)]

# the minimal scan solves up to n * C(n-1, k-1) LPs; larger documents get
# the k-spanning check alone
MINIMAL_MAX_VECTORS = 10


def _case_id(case) -> str:
    return "{}-k{}-m{}-s{}".format(*case)


def _rational(rng: random.Random, bound: int = 6) -> str:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, 5)
    return str(num) if den == 1 and rng.random() < 0.5 else f"{num}/{den}"


def _scaled(rng: random.Random, vector) -> list[str]:
    """A positive multiple of an integer vector, as rational strings."""
    num, den = rng.randint(1, 7), rng.randint(1, 4)
    return [f"{a * num}/{den}" for a in vector]


def _vectors(family: str, k: int, m: int, rng: random.Random) -> list[list[str]]:
    if family == "random":
        return [[_rational(rng) for _ in range(m)] for _ in range(rng.randint(m + 1, 2 * k * m + 1))]
    if family == "multiples":
        # k copies of each of +-e_i, each a positive multiple of its own,
        # then a zero vector, a multiple of an earlier vector and the
        # opposite of another, in seeded positions
        units = [[sign * (j == i) for j in range(m)] for i in range(m) for sign in (1, -1)]
        vectors = [_scaled(rng, u) for u in units for _ in range(k)]
        picks = [rng.randrange(len(units)) for _ in range(2)]
        extras = [["0"] * m, _scaled(rng, units[picks[0]]), _scaled(rng, [-a for a in units[picks[1]]])]
        for extra in extras:
            vectors.insert(rng.randrange(len(vectors) + 1), extra)
        return vectors
    # flat: the last coordinate is a fixed combination of the others, so
    # every vector lies on one hyperplane (all vectors are 0 when m = 1)
    weights = [rng.randint(-3, 3) for _ in range(m - 1)]
    vectors = []
    for _ in range(rng.randint(m + 1, 2 * k * m + 1)):
        head = [rng.randint(-5, 5) for _ in range(m - 1)]
        den = rng.randint(1, 5)
        vectors.append([f"{a}/{den}" for a in head] + [f"{sum(w * a for w, a in zip(weights, head))}/{den}"])
    return vectors


def document(case) -> tuple[dict, list[str]]:
    """The seeded configuration document of a case and its checks."""
    family, k, m, seed = case
    rng = random.Random(f"{family}-{k}-{m}-{seed}")
    vectors = _vectors(family, k, m, rng)
    doc = {
        "schemaVersion": 1,
        "m": m,
        "vectors": [{"label": f"v{i}", "coords": coords} for i, coords in enumerate(vectors)],
    }
    checks = [f"kspanning:{k}"]
    if len(vectors) <= MINIMAL_MAX_VECTORS:
        checks.append("minimal")
    return doc, checks


def observe(case) -> dict:
    doc, checks = document(case)
    return {"document": digest(doc), "payloads": digest(verify_document(doc, checks))}


def _goldens() -> dict:
    with open(GOLDENS, encoding="ascii") as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(map(_case_id, CASES))


def test_the_cases_print_both_failure_certificates_and_both_verdicts():
    kinds, verdicts, minimal = set(), set(), 0
    for case in CASES:
        doc, checks = document(case)
        payloads = verify_document(doc, checks)
        verdicts.add(payloads[0]["verdict"])
        if "certificate" in payloads[0]:
            kinds.add(payloads[0]["certificate"]["kind"])
        minimal += len(payloads) == 2 and payloads[1]["verdict"]
    assert kinds == {"RankDeficiency", "StiemkeWitness"}
    assert verdicts == {True, False}
    assert minimal > 0


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_verify_payloads_match_goldens(case):
    assert observe(case) == _goldens()[_case_id(case)]


if __name__ == "__main__":
    goldens = {_case_id(case): observe(case) for case in CASES}
    with open(GOLDENS, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")

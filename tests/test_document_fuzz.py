"""Malformed documents: ``verify_document`` only ever raises a GalepolyError.

Each example takes one emitted document (a configuration, polytope, points
set or plan, or a d = 6 build report of either mode) and applies one to
three mutations at random places in it: a key dropped, a value replaced by
a list, an integer, a string, a boolean or null, or a list truncated.  The
documents are small and every check has k <= 2, so no example can start
unbounded ``kspanning:k`` work.

Verify derives a certificate report's minimality witnesses from its own
midpoint certificates and reads no recorded ``perIndex``, so the last tests
change only that list: whatever it holds, verify re-derives the honest
payloads, whose digests are the report's own.  It re-checks the recorded
``stacks``, so mutations confined to them must end in a GalepolyError
unless they leave the stacks as they were.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from galepoly.errors import GalepolyError
from galepoly.gale import PointConfiguration
from galepoly.jsonio import (
    build_report,
    config_to_json,
    digest,
    dumps,
    plan_to_json,
    points_to_json,
    polytope_to_json,
    verify_document,
)
from galepoly.mani import build_block_diagram, construct_nonsimplicial_mani, dual_spanning_report
from galepoly.polytope import crosspolytope
from galepoly.spanning import standard_minimal_config

POLYTOPE_CHECKS = ["illuminated", "unneighborly", "simplicial"]


@functools.lru_cache(maxsize=None)
def _documents() -> tuple:
    """(canonical text, check lists to try) per document."""
    certificate = construct_nonsimplicial_mani(6, mode="certificate")
    docs = [
        (config_to_json(standard_minimal_config(2, 2)), [["kspanning:2", "minimal"]]),
        (polytope_to_json(crosspolytope(3)), [POLYTOPE_CHECKS]),
        (points_to_json(PointConfiguration.from_pairs(2, [("a", (0, 0)), ("b", (1, 0)), ("c", (0, 1))])), [None]),
        (plan_to_json(build_block_diagram(6)), [None]),
        (build_report(construct_nonsimplicial_mani(6)), [None, POLYTOPE_CHECKS]),
        (build_report(certificate, dual_spanning_report(certificate)), [None, ["kspanning:2"]]),
    ]
    return tuple((dumps(doc), checks) for doc, checks in docs)


REPLACEMENTS = st.one_of(
    st.lists(st.sampled_from([0, 1, "a", "1/2", True, None, [], {}]), max_size=2),
    st.integers(-2, 40),
    st.sampled_from(["", "x", "1/0", "B1.0", "full", "certificate", "kspanning:2"]),
    st.booleans(),
    st.none(),
)


def _mutate(data, doc) -> None:
    """One mutation at a random place below the top-level object."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 2)) == 0:
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "list", "drop", "truncate"]))
        if action == "drop":
            del node[key]
        elif action == "truncate" and isinstance(child, list):
            node[key] = child[: data.draw(st.integers(0, max(0, len(child) - 1)))]
        elif action == "list":
            node[key] = data.draw(st.sampled_from([[], [child]]))
        else:
            node[key] = data.draw(REPLACEMENTS)
        return


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_documents_raise_only_galepoly_errors(data):
    text, check_lists = data.draw(st.sampled_from(_documents()))
    checks = data.draw(st.sampled_from(check_lists))
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    try:
        verify_document(doc, checks)
    except GalepolyError:
        pass


# mutations of a certificate report's recorded minimality witnesses: each
# takes the ``perIndex`` list and the dual's labels and returns the new list
# (or ``DROP`` to remove the key)
DROP = object()
PER_INDEX_MUTATIONS = {
    "missing": lambda entries, labels: DROP,
    "not a list": lambda entries, labels: {"removed": labels[0]},
    "entry not an object": lambda entries, labels: [labels[0]] + entries[1:],
    "removed not a label": lambda entries, labels: [dict(entries[0], removed=0)] + entries[1:],
    "witness not a list": lambda entries, labels: [dict(entries[0], witnessDeletion=labels[1])]
    + entries[1:],
    "duplicate entry": lambda entries, labels: entries[:1] + entries[:-1],
    "extra entry": lambda entries, labels: entries + entries[-1:],
    "entry dropped": lambda entries, labels: entries[1:],
    "unknown removed label": lambda entries, labels: [dict(entries[0], removed="nowhere")]
    + entries[1:],
    "unknown witness label": lambda entries, labels: [dict(entries[0], witnessDeletion=["nowhere"])]
    + entries[1:],
    "empty witness": lambda entries, labels: [dict(entries[0], witnessDeletion=[])] + entries[1:],
    "witness too long": lambda entries, labels: [
        dict(entries[0], witnessDeletion=entries[0]["witnessDeletion"] + [labels[-1]])
    ]
    + entries[1:],
    "witness holds the removed label": lambda entries, labels: [
        dict(entries[0], witnessDeletion=[labels[0]])
    ]
    + entries[1:],
    "entries out of order": lambda entries, labels: entries[1:2] + entries[:1] + entries[2:],
}


@functools.lru_cache(maxsize=None)
def _certificate_report_text() -> str:
    certificate = construct_nonsimplicial_mani(6, mode="certificate")
    return dumps(build_report(certificate, dual_spanning_report(certificate)))


def _with_per_index(mutation) -> dict:
    doc = json.loads(_certificate_report_text())
    cert = next(c for c in doc["certificates"] if c["check"] == "minimal2spanningDual")
    labels = [v["label"] for v in doc["dualConfiguration"]["vectors"]]
    entries = mutation(cert["perIndex"], labels)
    if entries is DROP:
        del cert["perIndex"]
    else:
        cert["perIndex"] = entries
    return doc


@functools.lru_cache(maxsize=None)
def _honest_payloads_text() -> str:
    return dumps(verify_document(json.loads(_certificate_report_text()), None))


def _assert_verified_as_honest(doc) -> None:
    payloads = verify_document(doc, None)
    assert dumps(payloads) == _honest_payloads_text()
    assert {p["check"]: digest(p) for p in payloads} == doc["certificateDigests"]


@pytest.mark.parametrize("name", sorted(PER_INDEX_MUTATIONS))
def test_hostile_recorded_witnesses_fail_cleanly(name):
    # the forgery fails to move anything: no error, the honest payloads
    _assert_verified_as_honest(_with_per_index(PER_INDEX_MUTATIONS[name]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_shuffled_and_replaced_witnesses_never_escape(data):
    labels = [v["label"] for v in json.loads(_certificate_report_text())["dualConfiguration"]["vectors"]]
    names = st.sampled_from(labels + ["", "nowhere"])
    entry = st.fixed_dictionaries(
        {"removed": names, "witnessDeletion": st.lists(names, max_size=2)}
    )

    def mutation(entries, _labels):
        entries = data.draw(st.permutations(entries))
        for _ in range(data.draw(st.integers(0, 2))):
            entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(entry)
        return entries

    # no recorded witness reaches verify's payloads
    _assert_verified_as_honest(_with_per_index(mutation))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_mutated_stacks_never_verify(data):
    doc = json.loads(_certificate_report_text())
    original = doc["stacks"]
    holder = {"stacks": json.loads(json.dumps(original))}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, holder)
    doc.pop("stacks")
    doc.update(holder)
    checks = data.draw(st.sampled_from([None, ["illuminated"]]))
    try:
        verify_document(doc, checks)
    except GalepolyError:
        return
    # verify accepts recorded stacks only when they are the build's own
    assert doc["stacks"] == original

"""Positively k-spanning configurations and inclusion-minimality."""

import os
import random
import subprocess
import sys

import pytest

from galepoly import spanning as spanning_module
from galepoly.errors import BadParametersError, DimensionMismatchError
from galepoly.linalg import QQ
from galepoly.jsonio import config_from_json, verify_document
from galepoly.lp import KIND_POSITIVE_DEPENDENCE, DependenceCertificate, verify_certificate
from galepoly.spanning import (
    VectorConfiguration,
    is_minimal_k_spanning,
    is_positively_k_spanning,
    standard_minimal_config,
)


def config(m, vectors):
    return VectorConfiguration.from_pairs(
        m, ((f"v{i}", v) for i, v in enumerate(vectors))
    )


def test_configuration_validation():
    with pytest.raises(BadParametersError):
        VectorConfiguration(m=2, labels=("a", "a"), coords=((QQ(0), QQ(0)),) * 2)
    with pytest.raises(BadParametersError):
        VectorConfiguration(m=2, labels=("",), coords=((QQ(0), QQ(0)),))
    with pytest.raises(DimensionMismatchError):
        VectorConfiguration(m=2, labels=("a",), coords=((QQ(0),),))
    with pytest.raises(DimensionMismatchError):
        VectorConfiguration(m=1, labels=("a", "b"), coords=((QQ(0),),))


def test_configuration_accessors():
    c = config(2, [(1, 0), (0, 1), (-1, -1)])
    assert len(c) == 3
    assert c.index_of("v2") == 2
    with pytest.raises(BadParametersError):
        c.index_of("nope")
    sub = c.subconfiguration((2, 0))
    assert sub.labels == ("v0", "v2")
    assert c.pairs()[1] == ("v1", (QQ(0), QQ(1)))


def test_duplicate_coordinates_are_distinct_members():
    c = VectorConfiguration.from_pairs(1, [("a", (1,)), ("b", (1,)), ("c", (-1,))])
    assert len(c) == 3
    report = is_positively_k_spanning(c, 1)
    assert report.spanning


def test_one_spanning_of_positive_basis():
    c = config(2, [(1, 0), (0, 1), (-1, -1)])
    report = is_positively_k_spanning(c, 1)
    assert report.spanning and report.k == 1
    assert report.witness_deletion is None and report.certificate is None


def test_single_copy_basis_pair_is_not_two_spanning():
    c = config(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    report = is_positively_k_spanning(c, 2)
    assert not report.spanning
    assert report.witness_deletion == (0,)
    assert verify_certificate(
        c.coords,
        [i for i in range(4) if i != 0],
        report.certificate,
    )


def test_the_vacuous_failure_passes_its_own_recheck():
    # one vector in R^1 cannot lose k - 1 = 1 vector and still span: the
    # scan deletes it and proves the empty remainder rank deficient
    doc = {"schemaVersion": 1, "m": 1, "vectors": [{"label": "a", "coords": ["1"]}]}
    (payload,) = verify_document(doc, ["kspanning:2"])
    assert payload["verdict"] is False and payload["witnessDeletion"] == ["a"]
    cert = payload["certificate"]
    assert cert == {"kind": "RankDeficiency", "direction": ["1"]}
    coords = config_from_json(doc).coords
    direction = DependenceCertificate(cert["kind"], direction=tuple(cert["direction"]))
    assert verify_certificate(coords, [], direction)


def test_two_copies_of_basis_pairs_are_two_spanning():
    c = standard_minimal_config(2, 2)
    assert len(c) == 8
    report = is_positively_k_spanning(c, 2)
    assert report.spanning


def test_vacuous_failure_when_deletions_exhaust_the_configuration():
    c = config(2, [(1, 0), (0, 1)])
    report = is_positively_k_spanning(c, 4)
    assert not report.spanning
    assert report.witness_deletion == (0, 1)
    report = is_positively_k_spanning(c, 3)
    assert not report.spanning
    assert len(report.witness_deletion) == 2


def test_k_must_be_positive():
    c = config(1, [(1,), (-1,)])
    with pytest.raises(BadParametersError):
        is_positively_k_spanning(c, 0)


def test_standard_config_shape_and_labels():
    c = standard_minimal_config(2, 1)
    assert len(c) == 4
    assert c.labels == ("+e1.1", "-e1.1", "+e2.1", "-e2.1")
    c = standard_minimal_config(3, 2)
    assert len(c) == 12
    assert c.m == 3
    one = standard_minimal_config(1, 1)
    assert one.pairs() == (("+e1.1", (QQ(1),)), ("-e1.1", (QQ(-1),)))
    with pytest.raises(BadParametersError):
        standard_minimal_config(0, 1)
    with pytest.raises(BadParametersError):
        standard_minimal_config(1, 0)


def test_standard_config_is_minimal_k_spanning():
    base, minimality = is_minimal_k_spanning(standard_minimal_config(3, 2), 2)
    assert base.spanning
    assert minimality.minimal
    assert minimality.removable_index is None
    assert len(minimality.per_index) == 12
    for removed, witness, kind in minimality.per_index:
        assert removed not in witness
        assert kind in ("StiemkeWitness", "RankDeficiency")


def test_minimal_in_dimension_one():
    base, minimality = is_minimal_k_spanning(config(1, [(1,), (-1,)]), 1)
    assert base.spanning and minimality.minimal


def test_extra_vector_breaks_minimality():
    base = standard_minimal_config(2, 2)
    extra = VectorConfiguration.from_pairs(
        2, list(base.pairs()) + [("extra", (1, 1))]
    )
    spanning, minimality = is_minimal_k_spanning(extra, 2)
    assert spanning.spanning
    assert not minimality.minimal
    # the scan reports the least removable index; the appended vector is
    # removable too (dropping it restores the minimal standard family)
    assert minimality.removable_index == 0
    gone = extra.index_of("extra")
    without_extra = extra.subconfiguration(j for j in range(len(extra)) if j != gone)
    assert is_positively_k_spanning(without_extra, 2).spanning


def test_non_spanning_is_vacuously_non_minimal():
    c = config(2, [(1, 0), (0, 1)])
    base, minimality = is_minimal_k_spanning(c, 1)
    assert not base.spanning
    assert not minimality.minimal
    assert minimality.removable_index is None


def test_spanning_monotone_in_k():
    rng = random.Random(1812)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(2, 7)
        c = config(
            m,
            [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n)],
        )
        for k in (3, 2):
            if is_positively_k_spanning(c, k).spanning:
                assert is_positively_k_spanning(c, k - 1).spanning


def test_witness_deletion_is_lexicographically_least():
    # deleting any of indices 1, 2, 3 breaks spanning; the report must
    # name the least one even when later deletions fail as well
    c = config(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0)])
    report = is_positively_k_spanning(c, 2)
    assert not report.spanning
    assert report.witness_deletion == (1,)


def test_importing_the_library_does_not_load_multiprocessing():
    code = (
        "import sys, galepoly, galepoly.cli, galepoly.jsonio; "
        "print('multiprocessing' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(spanning_module.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

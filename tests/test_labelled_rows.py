"""The labelled-row rule: dimensions, labels and rows of configurations.

``VectorConfiguration`` and ``PointConfiguration`` check their dimension
and labels and store each row as a tuple of Fractions (``linalg.as_vector``);
``IncidencePolytope`` checks its dimension and labels by the same rule.
Every bad value ends in a ``GalepolyError``, and rows of any sequence type
or of rational strings build the configuration of their Fraction rows.
"""

from fractions import Fraction as F

import pytest

from galepoly.errors import BadParametersError, DimensionMismatchError, SchemaError
from galepoly.gale import PointConfiguration
from galepoly.jsonio import config_from_json, points_from_json
from galepoly.polytope import IncidencePolytope
from galepoly.spanning import VectorConfiguration

TRIANGLE = (("a", "b"), ("b", "c"), ("a", "c"))


def test_list_rows_give_a_hashable_configuration():
    # list rows were stored as lists, and hash() raised a bare TypeError
    config = VectorConfiguration(m=1, labels=("a", "b"), coords=([F(1)], [F(-1)]))
    twin = VectorConfiguration(m=1, labels=("a", "b"), coords=((F(1),), (F(-1),)))
    assert (config, hash(config)) == (twin, hash(twin))
    assert config.coords == ((F(1),), (F(-1),))
    points = PointConfiguration(d=1, labels=("a", "b"), coords=[[0], [1]])
    assert hash(points) == hash(PointConfiguration.from_pairs(1, [("a", (0,)), ("b", (1,))]))


@pytest.mark.parametrize("cls", [VectorConfiguration, PointConfiguration])
def test_float_rows_are_refused_at_construction(cls):
    # float rows built, and config_to_json, is_positively_k_spanning and
    # PointConfiguration.lifted then raised bare TypeErrors and
    # AttributeErrors; now no configuration holds a float
    with pytest.raises(BadParametersError, match="float"):
        cls(1, ("a", "b"), ((0.5,), (-1,)))


@pytest.mark.parametrize("entry", ["abc", "1/0", "", None, [1], (1,), 0.5])
@pytest.mark.parametrize("cls", [VectorConfiguration, PointConfiguration])
def test_from_pairs_refuses_entries_that_are_not_exact_rationals(cls, entry):
    # 'abc' raised a bare ValueError and '1/0' a bare ZeroDivisionError
    with pytest.raises(BadParametersError):
        cls.from_pairs(1, [("a", [entry])])


@pytest.mark.parametrize("bad", ["1", 1.0, None, True, False])
def test_dimensions_must_be_ints_and_not_bools(bad):
    # '1' raised a bare TypeError from a < comparison; a bool was taken as
    # the int it subclasses
    with pytest.raises(BadParametersError, match="dimension must be an int"):
        VectorConfiguration(m=bad, labels=("a",), coords=((F(1),),))
    with pytest.raises(BadParametersError, match="dimension must be an int"):
        PointConfiguration(d=bad, labels=("a",), coords=((F(1),),))
    with pytest.raises(BadParametersError, match="dimension must be an int"):
        IncidencePolytope(bad, ("a", "b", "c"), TRIANGLE)


@pytest.mark.parametrize("cls", [VectorConfiguration, PointConfiguration])
def test_bool_entries_are_refused(cls):
    # a bool is an int to Python but not a rational to a document, whose
    # reader refuses it too
    for row in ((True,), (F(1), False)):
        with pytest.raises(BadParametersError, match="bool"):
            cls(len(row), ("a",), (row,))


def test_rational_strings_build_the_fraction_configuration():
    # string rows were stored as strings: the configuration was not equal
    # to its Fraction twin
    config = VectorConfiguration(m=1, labels=("a",), coords=(("1/2",),))
    twin = VectorConfiguration(m=1, labels=("a",), coords=((F(1, 2),),))
    assert (config, hash(config)) == (twin, hash(twin))
    points = PointConfiguration(d=2, labels=("p",), coords=(["-3/4", 2],))
    assert points == PointConfiguration(d=2, labels=("p",), coords=((F(-3, 4), F(2)),))


@pytest.mark.parametrize("coords", [None, 3, "ab", ("12",), (b"12",), ((F(1),), 7)])
def test_rows_must_be_sequences_of_entries(coords):
    # a string row would be read as its characters
    with pytest.raises(BadParametersError):
        VectorConfiguration(m=2, labels=("a",), coords=coords)


def test_counts_and_lengths_must_match():
    with pytest.raises(DimensionMismatchError):
        VectorConfiguration(m=1, labels=("a", "b"), coords=((1,),))
    with pytest.raises(DimensionMismatchError):
        PointConfiguration(d=2, labels=("a",), coords=((1,),))
    with pytest.raises(BadParametersError, match="at least 0"):
        VectorConfiguration(m=-1, labels=(), coords=())


@pytest.mark.parametrize("labels, message", [
    (("a", "a"), "labels must be distinct"),
    (("a", ""), "labels must be nonempty"),
])
def test_labels_must_be_distinct_and_nonempty(labels, message):
    with pytest.raises(BadParametersError, match=message):
        VectorConfiguration(m=1, labels=labels, coords=((1,), (-1,)))
    with pytest.raises(BadParametersError, match=message):
        PointConfiguration(d=1, labels=labels, coords=((0,), (1,)))
    with pytest.raises(BadParametersError, match="vertex " + message):
        IncidencePolytope(1, labels, ((labels[0],), (labels[1],)))


def test_from_pairs_takes_labels_by_str_and_refuses_what_is_not_a_pair():
    config = VectorConfiguration.from_pairs(1, enumerate([(1,), (-1,)]))
    assert config.labels == ("0", "1")
    for pairs in (None, [("a",)], [("a", (1,), "x")], [7]):
        with pytest.raises(BadParametersError):
            VectorConfiguration.from_pairs(1, pairs)


def test_a_document_row_of_the_wrong_length_is_a_schema_error():
    # the decoder located a bad label, but let a row of the wrong length
    # out as a DimensionMismatchError
    entries = [{"label": "a", "coords": ["1"]}]
    with pytest.raises(SchemaError, match="configuration: row length"):
        config_from_json({"m": 2, "vectors": entries})
    with pytest.raises(SchemaError, match="points: row length"):
        points_from_json({"d": 2, "points": entries})

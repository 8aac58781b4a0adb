import pytest
from hypothesis import given, strategies as st

from shaclsat.namespaces import XSD_BOOLEAN, XSD_DATETIME, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from shaclsat.terms import (
    ComparisonVerdict,
    Term,
    Triple,
    TripleGraph,
    StrictModeError,
    blank,
    boolean,
    compare_terms,
    integer,
    iri,
    literal,
    malformed_literal,
    string,
)

LT, EQ, GT, INC = (
    ComparisonVerdict.LT,
    ComparisonVerdict.EQ,
    ComparisonVerdict.GT,
    ComparisonVerdict.INCOMPARABLE,
)


def test_term_equality_is_full_field_equality():
    assert integer(5) == literal("5", XSD_INTEGER)
    assert integer(5) != literal("05", XSD_INTEGER)
    assert string("a") != literal("a", language="en")
    assert iri("http://e/a") != blank("a")


def test_term_shape_invariants():
    with pytest.raises(ValueError):
        Term("iri", "x", datatype=XSD_INTEGER)
    with pytest.raises(ValueError):
        Term("literal", "x", datatype=XSD_INTEGER, language="en")
    with pytest.raises(ValueError):
        Term("thing", "x")


def test_numeric_order():
    assert compare_terms(integer(2), integer(3)) is LT
    assert compare_terms(integer(3), integer(2)) is GT
    assert compare_terms(integer(2), literal("2.0", XSD_DECIMAL)) is EQ
    assert compare_terms(literal("2.5", XSD_DOUBLE), integer(2)) is GT


def test_string_and_boolean_order():
    assert compare_terms(string("a"), string("a")) is EQ
    assert compare_terms(string("a"), string("b")) is LT
    assert compare_terms(boolean(False), boolean(True)) is LT
    assert compare_terms(literal("1", XSD_BOOLEAN), boolean(True)) is EQ


def test_cross_type_and_non_values_incomparable():
    assert compare_terms(integer(2), string("a")) is INC
    assert compare_terms(iri("http://e/a"), iri("http://e/a")) is INC
    assert compare_terms(blank("b"), integer(1)) is INC
    assert compare_terms(string("a"), literal("a", language="en")) is INC


def test_datetime_order():
    t1 = literal("2020-01-01T00:00:00", XSD_DATETIME)
    t2 = literal("2020-01-02T00:00:00", XSD_DATETIME)
    assert compare_terms(t1, t2) is LT
    aware = literal("2020-01-01T00:00:00Z", XSD_DATETIME)
    assert compare_terms(t1, aware) is INC  # naive vs aware has no answer


def test_malformed_literals_are_incomparable():
    bad = literal("abc", XSD_INTEGER)
    assert malformed_literal(bad)
    assert compare_terms(bad, integer(1)) is INC
    assert compare_terms(literal("300", "http://www.w3.org/2001/XMLSchema#byte"), integer(1)) is INC


def test_integer_lexical_reads_only_decimal_digits():
    superscript = literal("\u00b2", XSD_INTEGER)  # a digit that int() does not read
    assert malformed_literal(superscript)
    assert compare_terms(superscript, integer(2)) is INC
    assert compare_terms(literal("\u0663", XSD_INTEGER), integer(3)) is EQ  # Arabic-Indic 3


def test_strict_mode_rejects_literal_subjects():
    t = Triple(string("x"), iri("http://e/p"), iri("http://e/o"))
    with pytest.raises(StrictModeError):
        TripleGraph(frozenset({t}), "strict")
    assert len(TripleGraph(frozenset({t}), "generalized")) == 1


_term_pool = st.sampled_from(
    [
        integer(0),
        integer(1),
        integer(7),
        literal("1.5", XSD_DECIMAL),
        literal("0.5", XSD_DOUBLE),
        boolean(True),
        boolean(False),
        string(""),
        string("a"),
        string("ab"),
        literal("x", language="en"),
        iri("http://e/a"),
        iri("http://e/b"),
        blank("b0"),
        literal("2020-01-01T00:00:00", XSD_DATETIME),
    ]
)


@given(_term_pool, _term_pool)
def test_compare_is_antisymmetric(a, b):
    va, vb = compare_terms(a, b), compare_terms(b, a)
    flip = {LT: GT, GT: LT, EQ: EQ, INC: INC}
    assert vb is flip[va]


@given(_term_pool, _term_pool, _term_pool)
def test_compare_lt_is_transitive(a, b, c):
    if compare_terms(a, b) is LT and compare_terms(b, c) is LT:
        assert compare_terms(a, c) is LT


@given(_term_pool)
def test_compare_never_lt_with_itself(a):
    assert compare_terms(a, a) in (EQ, INC)

import copy
import dataclasses
import gc
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shaclsat.namespaces import XSD_BOOLEAN, XSD_DATETIME, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from shaclsat.terms import (
    BOOLEAN,
    NUMERIC,
    ComparisonVerdict,
    Term,
    Triple,
    TripleGraph,
    StrictModeError,
    blank,
    boolean,
    compare_terms,
    decimal_form,
    integer,
    iri,
    literal,
    malformed_literal,
    string,
    term_value,
)
from shaclsat.terms import _Interned

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


def test_equal_terms_are_one_object():
    a = "http://e/a"
    assert iri(a) is iri(a) is Term("iri", a) is Term(kind="iri", lexical=a)
    assert literal("5", XSD_INTEGER) is integer(5) is Term("literal", "5", XSD_INTEGER)
    assert literal("5", XSD_INTEGER) is Term(lexical="5", kind="literal", datatype=XSD_INTEGER)
    assert literal("hi", language="en") is Term("literal", "hi", None, "en")
    assert literal("hi", language="en") is not literal("hi", language="fr")
    assert blank("b0") is blank("b0") is Term("blank", "b0")
    for term in (iri(a), integer(5), literal("hi", language="en"), string("x"), blank("b0")):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term
        assert dataclasses.replace(term) is term
    assert dataclasses.replace(iri(a), lexical="http://e/b") is iri("http://e/b")
    assert Term.__eq__ is object.__eq__ and Term.__hash__ is object.__hash__


def test_an_invalid_term_leaves_no_entry():
    with pytest.raises(ValueError):
        Term("iri", "http://e/never", datatype=XSD_INTEGER)
    assert ("iri", "http://e/never", XSD_INTEGER, None) not in _Interned._canonical
    with pytest.raises(ValueError):
        Term("thing", "http://e/never")
    assert ("thing", "http://e/never", None, None) not in _Interned._canonical


def test_the_term_table_is_weak():
    key = ("literal", "only here", None, "en")
    term = literal("only here", language="en")
    assert _Interned._canonical[key] is term
    del term
    gc.collect()
    assert key not in _Interned._canonical


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


_BYTE = "http://www.w3.org/2001/XMLSchema#byte"
_ONES = (10**5000 - 1) // 9  # 5,000 ones: more digits than int() reads from a string

# (lexical form, datatype, term_value); None marks a malformed literal
LEXICAL_FORMS = [
    ("5", XSD_INTEGER, (NUMERIC, Fraction(5))),
    (" +5 ", XSD_INTEGER, (NUMERIC, Fraction(5))),
    ("-007", XSD_INTEGER, (NUMERIC, Fraction(-7))),
    ("1" * 5000, XSD_INTEGER, (NUMERIC, Fraction(_ONES))),
    ("-" + "1" * 5000, XSD_INTEGER, (NUMERIC, Fraction(-_ONES))),
    ("", XSD_INTEGER, None),
    ("+", XSD_INTEGER, None),
    ("1_000", XSD_INTEGER, None),
    ("\u0663", XSD_INTEGER, None),  # Arabic-Indic three, which int() reads
    ("\u00b2", XSD_INTEGER, None),  # superscript two, which int() does not
    ("1.0", XSD_INTEGER, None),
    ("127", _BYTE, (NUMERIC, Fraction(127))),
    ("128", _BYTE, None),
    ("2.5", XSD_DECIMAL, (NUMERIC, Fraction(5, 2))),
    ("-.5", XSD_DECIMAL, (NUMERIC, Fraction(-1, 2))),
    ("1.", XSD_DECIMAL, (NUMERIC, Fraction(1))),
    ("1e2", XSD_DECIMAL, (NUMERIC, Fraction(100))),  # as str(float) writes it
    ("1_000.5", XSD_DECIMAL, None),
    ("\u0663.5", XSD_DECIMAL, None),
    ("Infinity", XSD_DECIMAL, None),
    ("NaN", XSD_DECIMAL, None),
    ("1e3", XSD_DOUBLE, (NUMERIC, Fraction(1000))),
    ("-2.5E-1", XSD_DOUBLE, (NUMERIC, Fraction(-1, 4))),
    ("INF", XSD_DOUBLE, (NUMERIC, math.inf)),
    ("-INF", XSD_DOUBLE, (NUMERIC, -math.inf)),
    ("inf", XSD_DOUBLE, None),
    ("NaN", XSD_DOUBLE, None),
    ("1e999", XSD_DOUBLE, None),
    ("1_0", XSD_DOUBLE, None),
    ("\u0663", XSD_DOUBLE, None),
    ("true", XSD_BOOLEAN, (BOOLEAN, True)),
    ("0", XSD_BOOLEAN, (BOOLEAN, False)),
    ("2", XSD_BOOLEAN, None),
]


def test_numeric_lexical_forms():
    for lexical, datatype, value in LEXICAL_FORMS:
        term = literal(lexical, datatype)
        assert term_value(term) == value, lexical[:20]
        assert malformed_literal(term) is (value is None), lexical[:20]


def test_decimal_form_is_the_decimal_digits_at_any_length():
    past_limit = 10 ** (sys.get_int_max_str_digits() + 5) + 7
    values = [0, 1, -1, past_limit, -past_limit]
    values += [sign * 10**k for k in (1, 2, 19, 20, 300) for sign in (1, -1)]
    for value in values:
        assert decimal_form(value) == str(Decimal(value))


def test_strict_mode_rejects_literal_subjects():
    t = Triple(string("x"), iri("http://e/p"), iri("http://e/o"))
    with pytest.raises(StrictModeError):
        TripleGraph(frozenset({t}), "strict")
    assert len(TripleGraph(frozenset({t}), "generalized")) == 1


def test_a_triple_is_a_tuple_with_named_fields():
    s, p, o = iri("http://e/s"), iri("http://e/p"), literal("5", XSD_INTEGER)
    t = Triple(s, p, o)
    assert (t.subject, t.predicate, t.object) == tuple(t) == (s, p, o)
    assert hash(t) == hash((s, p, o)) and t == Triple(s, p, o)
    for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(copied) is Triple and copied == t
    assert t.sort_key() == (s.sort_key(), p.sort_key(), o.sort_key())
    with pytest.raises(ValueError, match="triple predicates must be IRIs"):
        Triple(s, o, p)
    with pytest.raises(AttributeError):
        t.subject = o


def _naive_index(triples, key: int, value: int) -> dict:
    """Per predicate, each term at position `key` with the set of terms at
    `value`, by filtering the triples once per predicate and term."""
    out = {}
    for p in {t[1] for t in triples}:
        rows = [t for t in triples if t[1] == p]
        out[p] = {k: {t[value] for t in rows if t[key] == k} for k in {t[key] for t in rows}}
    return out


def _indexed_graphs() -> list[TripleGraph]:
    from corpus import corpus_documents, graphs_for
    from shaclsat.turtle import parse_turtle

    e = "http://e/"
    p, q = iri(e + "p"), iri(e + "q")
    a, b, c, x = iri(e + "a"), iri(e + "b"), blank("c"), blank("x")
    # repeated predicates: a subject with several objects and an object
    # with several subjects, over IRIs, blank nodes and literals
    mixed = [
        Triple(a, p, b), Triple(a, p, c), Triple(a, p, string("s")), Triple(c, p, b),
        Triple(x, p, b), Triple(a, q, b), Triple(integer(3), q, literal("t", language="en")),
        Triple(c, q, integer(3)), Triple(b, p, b),
    ]
    return [
        *graphs_for(seed=21, count=40, max_size=20),
        *(parse_turtle(text) for _, text in corpus_documents()),
        TripleGraph(frozenset(mixed)),
        TripleGraph(frozenset()),
    ]


def test_the_triple_index_is_a_naive_rebuild_of_the_triples():
    for graph in _indexed_graphs():
        assert graph.forward == _naive_index(graph.triples, 0, 2)
        assert graph.backward == _naive_index(graph.triples, 2, 0)


def test_the_triple_index_stays_out_of_equality_hash_and_repr():
    assert [f.name for f in dataclasses.fields(TripleGraph)] == ["triples", "mode"]
    for graph in _indexed_graphs():
        twin = TripleGraph(frozenset(list(graph.triples)))  # an equal set, built anew
        before = (hash(graph), repr(graph))
        # built on the first read and kept, on one of the two only
        assert graph.forward is graph.forward and graph.backward is graph.backward
        assert graph == twin and twin == graph and len({graph, twin}) == 1
        assert hash(graph) == hash(twin) == before[0]
        assert repr(graph) == before[1] == repr(TripleGraph(graph.triples))


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

import random

import pytest

from corpus import corpus_documents, graphs_for
from shaclsat.namespaces import RDF_FIRST, RDF_NIL, RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER
from shaclsat.terms import GENERALIZED, STRICT, Term, Triple, blank, iri, literal
from shaclsat.turtle import ParseError, parse_turtle, serialize_turtle

EX = "http://ex.org/"


def test_fig1_graph_has_four_triples():
    g = parse_turtle(
        """
        @prefix : <http://ex.org/> .
        :Alex a :Student ;
          :hasFaculty :CS ;
          :hasSupervisor :Jane .
        :Jane :hasFaculty :CS .
        """
    )
    assert len(g) == 4
    expected = {
        Triple(iri(EX + "Alex"), iri(RDF_TYPE), iri(EX + "Student")),
        Triple(iri(EX + "Alex"), iri(EX + "hasFaculty"), iri(EX + "CS")),
        Triple(iri(EX + "Alex"), iri(EX + "hasSupervisor"), iri(EX + "Jane")),
        Triple(iri(EX + "Jane"), iri(EX + "hasFaculty"), iri(EX + "CS")),
    }
    assert g.triples == expected


def test_empty_input_gives_empty_graph():
    assert len(parse_turtle("")) == 0
    assert serialize_turtle(parse_turtle("")) == ""


def test_literal_subject_strict_vs_generalized():
    text = '"5"^^<http://www.w3.org/2001/XMLSchema#integer> <http://e/p> <http://e/o> .'
    assert len(parse_turtle(text, GENERALIZED)) == 1
    with pytest.raises(ParseError):
        parse_turtle(text, STRICT)


def test_collections_expand_to_first_rest_chains():
    g = parse_turtle("@prefix : <http://e/> .\n:s :p (:a :b) .")
    preds = {t.predicate.lexical for t in g.triples}
    assert RDF_FIRST in preds
    objs = {t.object.lexical for t in g.triples if t.predicate.lexical == RDF_FIRST}
    assert objs == {"http://e/a", "http://e/b"}
    g_empty = parse_turtle("@prefix : <http://e/> .\n:s :p () .")
    assert any(t.object == iri(RDF_NIL) for t in g_empty.triples)


def test_numeric_boolean_and_string_literals():
    g = parse_turtle(
        '@prefix : <http://e/> .\n'
        ':s :p 5, 2.5, 1e3, true, "hi", "x"@en, "y"^^:dt, -3 .'
    )
    objects = {t.object for t in g.triples}
    assert literal("5", XSD_INTEGER) in objects
    assert literal("-3", XSD_INTEGER) in objects
    assert literal("true", XSD_BOOLEAN) in objects
    assert literal("x", language="en") in objects
    assert literal("y", "http://e/dt") in objects


def test_blank_property_lists_and_labels():
    g = parse_turtle(
        "@prefix : <http://e/> .\n"
        ":s :p [ :q :o ; :q2 [ :q3 :o2 ] ] .\n"
        "_:x :p _:x ."
    )
    labels = {t.subject.lexical for t in g.triples if t.subject.is_blank}
    assert len(labels) == 3  # two anonymous plus one labeled, renamed apart


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_turtle("@prefix : <http://e/> .\n:s :p :o ..")
    assert err.value.line == 2


def test_undeclared_prefix_rejected():
    with pytest.raises(ParseError):
        parse_turtle(":s :p :o .")


def test_a_redeclared_prefix_expands_under_its_new_namespace():
    g = parse_turtle(
        "@prefix : <http://a.example/> .\n:s :p :o .\n"
        "PREFIX : <http://b.example/>\n:s :p :o , :q .\n"
    )
    assert {(t.subject.lexical, t.predicate.lexical, t.object.lexical) for t in g.triples} == {
        ("http://a.example/s", "http://a.example/p", "http://a.example/o"),
        ("http://b.example/s", "http://b.example/p", "http://b.example/o"),
        ("http://b.example/s", "http://b.example/p", "http://b.example/q"),
    }


def test_parsing_builds_each_distinct_term_at_most_once(monkeypatch):
    rng = random.Random(5)
    lines = ["@prefix : <http://ex.org/> .", "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> ."]
    for i in range(1000):
        friends = ", ".join(f":p{j}" for j in rng.sample(range(1000), 3))
        lines.append(f':p{i} a :Person ; :name "n{i % 50}"@en ; :age {rng.randrange(90)} ;'
                     f' :active "{rng.choice(["true", "false"])}"^^xsd:boolean ; :knows {friends} .')
    built = []
    check = Term.__post_init__
    monkeypatch.setattr(Term, "__post_init__", lambda term: built.append(term) or check(term))
    g = parse_turtle("\n".join(lines))
    distinct = {x for t in g.triples for x in (t.subject, t.predicate, t.object)}
    assert len(g.triples) == 1000 * 7
    assert len(built) <= len(distinct)


def test_base_unsupported():
    with pytest.raises(ParseError):
        parse_turtle("@base <http://e/> .")


def _blank_isomorphic(g1, g2) -> bool:
    from itertools import permutations

    from shaclsat.terms import Term

    b1 = sorted({t.lexical for trip in g1.triples for t in (trip.subject, trip.object) if t.is_blank})
    b2 = sorted({t.lexical for trip in g2.triples for t in (trip.subject, trip.object) if t.is_blank})
    if len(b1) != len(b2) or len(g1) != len(g2):
        return False

    def mapped(triple, mapping):
        def m(t):
            return blank(mapping[t.lexical]) if t.is_blank else t

        return Triple(m(triple.subject), triple.predicate, m(triple.object))

    for perm in permutations(b2):
        mapping = dict(zip(b1, perm))
        if {mapped(t, mapping) for t in g1.triples} == set(g2.triples):
            return True
    return False


def test_serializer_round_trip_is_isomorphic_on_corpus():
    for _, text in corpus_documents():
        g = parse_turtle(text)
        again = parse_turtle(serialize_turtle(g))
        assert _blank_isomorphic(g, again)
    for g in graphs_for(seed=7, count=25):
        again = parse_turtle(serialize_turtle(g))
        assert _blank_isomorphic(g, again)
        # parse . serialize . parse agrees with parse, up to renaming
        third = parse_turtle(serialize_turtle(again))
        assert _blank_isomorphic(again, third)


def test_serializer_is_deterministic_for_blank_nodes():
    g = parse_turtle("@prefix : <http://e/> .\n:s :p [ :q :o ] , [ :q :o2 ] .")
    assert serialize_turtle(g) == serialize_turtle(g)
    assert "_:b0" in serialize_turtle(g)


def test_generalized_accepts_superset_of_strict():
    text = "@prefix : <http://e/> .\n:s :p :o .\n:t a :C ."
    strict_triples = parse_turtle(text, STRICT).triples
    general_triples = parse_turtle(text, GENERALIZED).triples
    assert strict_triples == general_triples


_P = "@prefix : <http://e/> .\n"

# Every error the parser raises, with the line and column it names: the
# start of the offending token, counting columns from 1 in characters.
ERROR_POSITIONS = [
    (_P + ":s :p <http://e/o", GENERALIZED, ("unterminated IRI", 2, 7)),
    (_P + ":s :p <http://e/ o> .", GENERALIZED, ("whitespace inside IRI", 2, 7)),
    (_P + "\t:s :p :o .\n\t:t\t:p\t<a b> .", GENERALIZED, ("whitespace inside IRI", 3, 8)),
    (_P + ":s :p <http://e/\\x41> .", GENERALIZED, ("invalid IRI escape \\x", 2, 7)),
    (_P + ":s :p <http://e/\\u00G1> .", GENERALIZED, ("invalid unicode escape", 2, 7)),
    (_P + ':s :p "a\\u12" .', GENERALIZED, ("invalid unicode escape", 2, 7)),
    (_P + ':s :p "abc', GENERALIZED, ("unterminated string", 2, 7)),
    (_P + ':s :p """abc" .', GENERALIZED, ("unterminated string", 2, 7)),
    (_P + ':s :p "ab\nc" .', GENERALIZED, ("newline in string", 2, 7)),
    (_P + ':s :p "a\\qb" .', GENERALIZED, ("invalid string escape \\q", 2, 7)),
    (_P + ":s :p _: .", GENERALIZED, ("empty blank node label", 2, 7)),
    (_P + ":s :p :o ; ! .", GENERALIZED, ("unexpected character '!'", 2, 12)),
    (_P + ":s :p foo .", GENERALIZED, ("expected prefixed name, got 'foo'", 2, 7)),
    (_P + ":s :p ex:o .", GENERALIZED, ("undeclared prefix 'ex'", 2, 7)),
    (_P + "@base <http://e/> .", GENERALIZED, ("base directives are not supported", 2, 1)),
    ("BASE <http://e/>\n", GENERALIZED, ("base directives are not supported", 1, 1)),
    (_P + ":s :p ( :a :b", GENERALIZED, ("unterminated collection", 2, 14)),
    (_P + '\n  "x" :p :o .', STRICT, ("literal subject not allowed in strict mode", 3, 3)),
    (_P + ":s 5 :o .", GENERALIZED, ("expected predicate", 2, 4)),
    (_P + ":s :p :o ..", GENERALIZED, ("unexpected token dot", 2, 11)),
    ("@prefix <http://e/> .", GENERALIZED, ("expected prefix declaration", 1, 9)),
    (_P + ':s :p "x"^^5 .', GENERALIZED, ("expected datatype IRI", 2, 12)),
    (_P + "a :p :o .", GENERALIZED, ("'a' is only valid in predicate position", 2, 1)),
    (_P + ":s :p ; .", GENERALIZED, ("unexpected token semi", 2, 7)),
    (_P + ":s :p [ :q :o .", GENERALIZED, ("expected rbracket, got dot", 2, 15)),
]


@pytest.mark.parametrize("text, mode, expected", ERROR_POSITIONS)
def test_parse_errors_name_message_line_and_column(text, mode, expected):
    with pytest.raises(ParseError) as err:
        parse_turtle(text, mode)
    assert (err.value.message, err.value.line, err.value.column) == expected


@pytest.mark.parametrize("numeral", ["²", "٣", "1٣", "-٣", "1.٣"])
def test_numerals_are_ascii(numeral):
    # Turtle's INTEGER is [0-9]+: other decimal digits start no number
    with pytest.raises(ParseError):
        parse_turtle(f"@prefix : <http://e/> .\n:a :p {numeral} .")


def test_nesting_depth_costs_no_recursion():
    n = 3000
    nested = parse_turtle(_P + ":s :p " + "[ :p " * n + ":o" + " ]" * n + " .")
    assert len(nested) == n + 1
    assert len({t.subject for t in nested.triples}) == n + 1
    lists = parse_turtle(_P + ":s :p " + "( " * n + ":o" + " )" * n + " .")
    assert len(lists) == 2 * n + 1
    subject = parse_turtle(_P + "[ :p " * n + ":o" + " ]" * n + " .")
    assert len(subject) == n


def test_blank_label_at_end_of_text_is_an_error_not_a_hang():
    with pytest.raises(ParseError) as err:
        parse_turtle("<http://e/s> <http://e/p> _:b")
    assert (err.value.message, err.value.line, err.value.column) == ("expected dot, got eof", 1, 30)


@pytest.mark.parametrize("name", [":b", "ex:b", "_:b"])
def test_final_dot_after_a_name_closes_the_statement(name):
    # a local name cannot end in ".", so the last dot of the text is the statement's
    text = _P + "@prefix ex: <http://e/> .\n:a :p " + name + "."
    [triple] = parse_turtle(text).triples
    assert triple.subject == iri("http://e/a")
    assert parse_turtle(text + "\n") == parse_turtle(text)
    [inner] = parse_turtle(_P + ":a :p :b.c .").triples
    assert inner.object == iri("http://e/b.c")

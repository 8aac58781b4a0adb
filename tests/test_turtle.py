import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import corpus_documents, graphs_for
from shaclsat.namespaces import RDF_FIRST, RDF_NIL, RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER
from shaclsat.terms import GENERALIZED, STRICT, Term, Triple, blank, iri, literal
from shaclsat import turtle
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
    # a lexical error anywhere comes before a grammar error
    (_P + ':s :p ; .\n:t :p "abc', GENERALIZED, ("unterminated string", 3, 7)),
    (_P + ":s :p :o .\n:s :p ex:o .\n:t :p <a b> .", GENERALIZED, ("whitespace inside IRI", 4, 7)),
    (_P + ':a :p :b .\n:s 5 :o .\n:t :p "x\\q" .', GENERALIZED, ("invalid string escape \\q", 4, 7)),
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


# The statement reader against the token path -------------------------------

_XSD = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"


def _outcome(text, mode=GENERALIZED):
    try:
        return parse_turtle(text, mode)
    except ParseError as err:
        return (err.message, err.line, err.column)


def _token_path_outcomes(texts):
    """Each text's outcome with every statement read by the token path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turtle._Parser, "_read", lambda self, pos: None)
        return [_outcome(text, mode) for text, mode in texts]


def _person_statements(rng, n):
    lines = []
    for i in range(n):
        friends = " , ".join(f":p{j}" for j in rng.sample(range(n), rng.randrange(3)))
        parts = [":Person"] + ([":knows " + friends] if friends else [])
        parts.append(f":age {rng.randrange(100)}")
        if rng.random() < 0.3:
            parts.append(f':name "n{i}" , "m{i}"')
        lines.append(f":p{i} a {' ; '.join(parts)} .")
    return lines


# statements at the edge of what the reader takes
_EDGES = [
    ":s a5 .", ":s a:b :o .", ":s a :C.", ":s a.", ":s :p :o.", ":s :p :b.c .", ":s :p :b.c.", ":s :p :b..",
    ":s :p 49.", ":s :p 49.5 .", ":s :p 49.x .", ":s :p 1e3 .", ":s :p 1e .", ":s :p 5E .", ":s :p 0049 .",
    ":s :p -5 .", ":s :p +5 .", ':s :p "a\\"b" .', ':s :p "x"@en .', ':s :p "x" @en .',
    ':s :p "x"^^xsd:int .', ':s :p "x" ^^ xsd:int .', ':s :p """l""" .', ':s :p "" .', ':s :p """""" .',
    ":s :p 'q' .", ':s :p "a#b" .', ":s :p _:x .", "_:x :p :o .", ":s :p zz:o .", "zz:s :p :o .",
    ":s zz:p :o .", ":s :p :o ; .", ":s :p :o ;; :q :r .", ":s :p :o , .", ":s :p :o :q .",
    ":s :p :o , :q :r .", "<http://e/s><http://e/p><http://e/o>.", ":s:p:o.", ":s :p <http://e/\\u0041> .",
    "<http://e/\\u0041> :p :o .", ":s :p <a#b> .", ":s :p :o#c\n.", ":s :p :o .#c", ":s :p true .",
    ":s :p [] .", ":s :p ( ) .", ":s a :C ; a :D , :E .", ":s :p %41:x .", "-x:s :p :o .", ":s :p :o",
]


def test_reader_and_token_path_agree_on_corpus_serialized_and_person_graphs():
    texts = [(text, mode) for _, text in corpus_documents() for mode in (GENERALIZED, STRICT)]
    for end in ("", "\n:x :y :w ."):
        texts += [(_P + _XSD + ":x :y :z .\n" + edge + end, GENERALIZED) for edge in _EDGES]
    texts += [(serialize_turtle(g), GENERALIZED) for g in graphs_for(seed=7, count=25)]
    rng = random.Random(11)
    for _ in range(20):
        glue = rng.choice(["\n", " ", "", " # c\n"])
        texts.append((_P + _XSD + glue.join(_person_statements(rng, 40)), GENERALIZED))
    assert [_outcome(text, mode) for text, mode in texts] == _token_path_outcomes(texts)


# (reader-shaped, near miss) spellings: the near misses go to the token path
_SUBJECTS = (
    [":s", ":b.c", "<http://e/s>", "xsd:int"],
    ["_:x", '"lit"', "[ :p :o ]", "[]", "( :a )", "zz:s", "5"],
)
_PREDICATES = ([":p", ":q", "a", "<http://e/p>"], ["zz:p", "a:b", "5", "ab", "a5", "<http://e/\\u0070>"])
_OBJECTS = (
    [":o", ":b.c", "<http://e/o>", "49", "0", '"s"', '""', '"a b"'],
    ["49.", "49.5", "1e", "1e3", "5E-1", "-5", "+5", '"a\\"b"', '"x"@en', '"x"^^xsd:int', '"x" @en',
     "'q'", '"""l"""', "_:x", "zz:o", "true", "[ :p :o ]", "( :a 7 )", "[]", "a", "\u0663", '"a'],
)
_SEPARATORS = ([",", ";"], [";;", ", ,"])
_ENDS = (["."], ["; .", "", "..", ". .", " ."])
_GLUE = [" ", "\n", " ", "", "\t", " # note\n", "#c\n"]


@st.composite
def _near_reader_documents(draw):
    def pick(pools):
        good, miss = pools
        return draw(st.sampled_from(good * 8 + miss))

    statements = []
    for _ in range(draw(st.integers(1, 4))):
        pieces = [pick(_SUBJECTS), pick(_PREDICATES), pick(_OBJECTS)]
        for _ in range(draw(st.integers(0, 3))):
            sep = pick(_SEPARATORS)
            pieces += [sep, pick(_OBJECTS)] if sep[0] == "," else [sep, pick(_PREDICATES), pick(_OBJECTS)]
        pieces.append(pick(_ENDS))
        statements.append("".join(piece + draw(st.sampled_from(_GLUE)) for piece in pieces))
    statements.append(draw(st.sampled_from(["", "# last"])))
    return _P + _XSD + "".join(statements), draw(st.sampled_from([GENERALIZED, STRICT]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(_near_reader_documents(), min_size=1, max_size=2))
def test_reader_and_token_path_agree_next_to_near_misses(texts):
    assert [_outcome(text, mode) for text, mode in texts] == _token_path_outcomes(texts)


def _token_path_statements(text, monkeypatch):
    """How many statements of `text` the token path reads."""
    read = []
    statement = turtle._Parser._statement
    monkeypatch.setattr(turtle._Parser, "_statement", lambda self: read.append(1) or statement(self))
    parse_turtle(text)
    monkeypatch.undo()
    return len(read)


def test_the_reader_takes_plain_statements_and_leaves_brackets_to_the_token_path(monkeypatch):
    rng = random.Random(3)
    persons = [_P]
    for i in range(1000):
        j, k = rng.sample(range(1000), 2)
        persons.append(f':p{i} a :Person ; :knows :p{j} , :p{k} ; :age {rng.randrange(90)} ; :name "n{i}" .')
    assert len(parse_turtle("\n".join(persons))) == 5000
    assert _token_path_statements("\n".join(persons), monkeypatch) == 0
    shapes = _P + _XSD + "@prefix sh: <http://www.w3.org/ns/shacl#> .\n" + (
        ":PersonShape a sh:NodeShape ;\n"
        "    sh:targetClass :Person ;\n"
        "    sh:property [ sh:path :knows ; sh:minCount 1 ] ;\n"
        "    sh:property [ sh:path [ sh:zeroOrMorePath :knows ] ; sh:nodeKind sh:IRI ] .\n"
        ":AgeShape a sh:PropertyShape ; sh:path :age ; sh:datatype xsd:integer ; sh:maxCount 1 .\n"
        ":PersonShape sh:property :AgeShape .\n"
        ":NameShape a sh:NodeShape ; sh:targetObjectsOf :name ; sh:not [ sh:nodeKind sh:IRI ] .\n"
    )
    assert _token_path_statements(shapes, monkeypatch) == 2

import random
import sys

import pytest

from corpus import random_formula
from shaclsat.scl import (
    AtConst,
    AtMostGlobal,
    CountExists,
    Rel,
    SclSentence,
    ShapeDef,
    Top,
    TopSentence,
    sentence_conj,
)
from shaclsat.scl_text import SclSyntaxError, parse_scl, parse_scl_formula, print_scl
from shaclsat.terms import iri


def test_top_parses():
    assert parse_scl("(top)") == TopSentence()


def test_count_constructor_reading():
    f = parse_scl_formula("(count>= 2 (rel <http://e/R>) (top))")
    assert f == CountExists(2, Rel(iri("http://e/R")), Top())


def test_count_zero_is_top():
    assert parse_scl_formula("(count>= 0 (rel <http://e/R>) (top))") == Top()


def test_fig2_round_trip():
    text = (
        "(and (for-class <http://ex.org/Student> (not (hasshape <http://ex.org/d>)))"
        " (def-shape <http://ex.org/d> (disjoint (seq (rel <http://ex.org/hasSupervisor>)"
        " (rel <http://ex.org/hasFaculty>)) <http://ex.org/hasFaculty>)))"
    )
    sentence = parse_scl(text)
    assert print_scl(sentence) == text
    assert parse_scl(print_scl(sentence)) == sentence


def test_all_filter_forms_round_trip():
    forms = [
        "(filter is-iri)",
        "(filter is-literal)",
        "(filter is-blank)",
        "(filter datatype <http://www.w3.org/2001/XMLSchema#integer>)",
        '(filter lang "en")',
        "(filter min-length 3)",
        "(filter max-length 7)",
        '(filter pattern "^a\\\\d+")',
        '(filter min-value "5"^^<http://www.w3.org/2001/XMLSchema#integer> strict)',
        '(filter max-value "b" incl)',
    ]
    for form in forms:
        f = parse_scl_formula(form)
        assert print_scl(f) == form
        assert parse_scl_formula(print_scl(f)) == f


def test_literal_terms_round_trip():
    forms = [
        '(eq "hi")',
        '(eq "hi"@en)',
        '(eq "5"^^<http://www.w3.org/2001/XMLSchema#integer>)',
        '(eq "a\\"b\\\\c")',
        "(eq _:b0)",
        "(eq <http://e/c>)",
    ]
    for form in forms:
        f = parse_scl_formula(form)
        assert print_scl(f) == form


def test_order_and_extended_sentences():
    text = "(order (rel <http://e/R>) <http://e/Q> le inv)"
    assert print_scl(parse_scl_formula(text)) == text
    text = "(at-most 2 (filter is-literal))"
    assert print_scl(parse_scl(text)) == text


# (parser, text, message, offset); an int is ASCII digits, so the
# superscript two and the Arabic-Indic three are symbols, and one of 5,000
# digits is more than int() reads from a string
MALFORMED = [
    (parse_scl, "(at <http://e/c (top))", "unterminated IRI", 4),
    (parse_scl, '(at <http://e/c> (eq "abc))', "unterminated string", 21),
    (parse_scl, '(at <http://e/c> (eq "5"^^<http://e/dt))', "unterminated datatype IRI", 24),
    (parse_scl, '(at <http://e/c> (eq "a\\qb"))', "invalid escape", 23),
    (parse_scl, "(at _: (top))", "empty blank label", 4),
    (parse_scl, "(at <http://e/c> (top)) ^", "unexpected character '^'", 24),
    (parse_scl, "(wat)", "unknown sentence form 'wat'", 0),
    (parse_scl, "(count>= x (rel <a>) (top))", "unknown sentence form 'count>='", 0),
    (parse_scl, "(at <http://e/c> (wat))", "unknown formula form 'wat'", 17),
    (parse_scl, "(at <http://e/c> (count>= 1 (wat <http://e/r>) (top)))",
     "unknown path form 'wat'", 28),
    (parse_scl, "(at <http://e/c> (filter is-uri))", "unknown filter 'is-uri'", 25),
    (parse_scl_formula, "(order (rel <http://e/r>) <http://e/q> lt sideways)",
     "expected one of ('fwd', 'inv'), got 'sideways'", 42),
    (parse_scl_formula, '(filter min-value "1" open)',
     "expected one of ('strict', 'incl'), got 'open'", 22),
    (parse_scl, "(top) junk", "trailing input after sentence", 6),
    (parse_scl_formula, "(top) junk", "trailing input after formula", 6),
    (parse_scl, "(and (top)", "expected lparen, got eof", 10),
    (parse_scl, "(at <http://e/c> (top) (top))", "expected rparen, got lparen", 23),
    (parse_scl, "(at <http://e/c> (count>= x (rel <http://e/r>) (top)))",
     "expected int, got symbol", 26),
    (parse_scl, "(at (top))", "expected term, got lparen", 4),
    (parse_scl, "top", "expected lparen, got symbol", 0),
    (parse_scl, "()", "expected symbol, got rparen", 1),
    (parse_scl, "(at <http://e/c> (count>= \u00b2 (rel <http://e/r>) (top)))",
     "expected int, got symbol", 26),
    (parse_scl, "(at <http://e/c> (count>= \u0663 (rel <http://e/r>) (top)))",
     "expected int, got symbol", 26),
    (parse_scl, "(at <http://e/c> (count>= " + "1" * 5000 + " (rel <http://e/r>) (top)))",
     "integer too long", 26),
    (parse_scl, '(at <http://e/c> (filter pattern "a("))',
     "invalid pattern 'a(': missing ), unterminated subpattern", 33),
]


def test_syntax_errors_carry_positions():
    for parse, text, message, offset in MALFORMED:
        with pytest.raises(SclSyntaxError) as err:
            parse(text)
        assert (str(err.value), err.value.position) == (f"{message} (offset {offset})", offset)


# every position that names a relation, with {} where the name goes
RELATION_POSITIONS = [
    (parse_scl, "(at <http://e/c> (count>= 1 (rel {}) (top)))"),
    (parse_scl, "(at <http://e/c> (count>= 1 (inv {}) (top)))"),
    (parse_scl, "(for-subjects {} (top))"),
    (parse_scl, "(for-objects {} (top))"),
    (parse_scl_formula, "(disjoint (rel <http://e/r>) {})"),
    (parse_scl_formula, "(equals (rel <http://e/r>) {})"),
    (parse_scl_formula, "(order (rel <http://e/r>) {} lt fwd)"),
]


@pytest.mark.parametrize("parse, template", RELATION_POSITIONS)
def test_relation_names_are_iris(parse, template):
    assert print_scl(parse(template.format("<http://e/q>"))) == template.format("<http://e/q>")
    for name in ('"x"', "_:b"):
        text = template.format(name)
        with pytest.raises(SclSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"expected iri, got {name} (offset {text.index(name)})"
    text = template.format("(top)")
    with pytest.raises(SclSyntaxError, match="expected iri, got lparen"):
        parse(text)


def test_deep_forms_parse_without_recursion():
    depth = 10_000
    chain = "(at <http://e/c> " + "(not " * depth + "(top)" + ")" * depth + ")"
    path = "(seq (rel <http://e/r>) " * (depth - 1) + "(rel <http://e/r>)" + ")" * (depth - 1)
    steps = "(at <http://e/c> (count>= 1 " + path + " (top)))"
    assert sys.getrecursionlimit() < depth
    for text in (chain, steps):
        assert print_scl(parse_scl(text)) == text


def _random_sentence(rng: random.Random) -> SclSentence:
    parts = []
    for i in range(rng.randint(1, 3)):
        body = random_formula(rng, rng.randint(0, 8))
        head = rng.random()
        if head < 0.4:
            parts.append(AtConst(iri(f"http://e/c{i}"), body))
        elif head < 0.7:
            parts.append(ShapeDef(iri(f"http://e/s{i}"), body))
        else:
            parts.append(AtMostGlobal(rng.randint(0, 3), body))
    return sentence_conj(parts)


def test_round_trip_on_random_asts():
    rng = random.Random(2024)
    for _ in range(1000):
        sentence = _random_sentence(rng)
        text = print_scl(sentence)
        assert parse_scl(text) == sentence
        assert print_scl(parse_scl(text)) == text

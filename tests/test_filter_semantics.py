"""The compiled filter tests against a reference chain.

`reference_term_satisfies` is the filter semantics as one `isinstance`
chain that re-reads the filter at every call: the pattern searched by its
string, the tag lowered and the bound compared through `compare_terms`.
`term_test` compiles each filter once; over a seeded grid of terms and
filters both must give the same truth value.
"""

import random
import re

import pytest

from shaclsat import namespaces as ns
from shaclsat.filter_semantics import term_satisfies, term_test
from shaclsat.scl import (
    AtConst,
    Filter,
    HasDatatype,
    HasLanguage,
    IsBlank,
    IsIri,
    IsLiteral,
    Matches,
    MaxLength,
    MaxValue,
    MinLength,
    MinValue,
)
from shaclsat.search import bounded_sat
from shaclsat.terms import (
    ComparisonVerdict,
    blank,
    compare_terms,
    effective_datatype,
    iri,
    literal,
    malformed_literal,
)


def reference_term_satisfies(filter_name, term) -> bool:
    if isinstance(filter_name, IsIri):
        return term.is_iri
    if isinstance(filter_name, IsLiteral):
        return term.is_literal
    if isinstance(filter_name, IsBlank):
        return term.is_blank
    if isinstance(filter_name, HasDatatype):
        return (
            term.is_literal
            and effective_datatype(term) == filter_name.datatype
            and not malformed_literal(term)
        )
    if isinstance(filter_name, HasLanguage):
        return (
            term.is_literal
            and term.language is not None
            and term.language.lower() == filter_name.tag.lower()
        )
    rep = None if term.is_blank else term.lexical
    if isinstance(filter_name, MinLength):
        return rep is not None and len(rep) >= filter_name.bound
    if isinstance(filter_name, MaxLength):
        return rep is not None and len(rep) <= filter_name.bound
    if isinstance(filter_name, Matches):
        return rep is not None and re.search(filter_name.pattern, rep) is not None
    if isinstance(filter_name, MinValue):
        verdict = compare_terms(term, filter_name.bound)
        if filter_name.strict:
            return verdict is ComparisonVerdict.GT
        return verdict in (ComparisonVerdict.GT, ComparisonVerdict.EQ)
    if isinstance(filter_name, MaxValue):
        verdict = compare_terms(term, filter_name.bound)
        if filter_name.strict:
            return verdict is ComparisonVerdict.LT
        return verdict in (ComparisonVerdict.LT, ComparisonVerdict.EQ)
    raise TypeError(f"unknown filter {filter_name!r}")


X = ns.XSD_NS
HUGE = "1" + "0" * 5000  # past the interpreter's 4,300-digit limit for str(int)

# lexical forms per datatype: well-formed ones first, then malformed ones
LEXICAL = {
    ns.XSD_INTEGER: ["0", "5", "-3", "+7", " 12 ", "0005", HUGE, "-" + HUGE, "5.0", "abc", "", "٣"],
    X + "byte": ["127", "-128", "5", "128", "-129"],
    X + "nonNegativeInteger": ["0", "5", "-1"],
    X + "negativeInteger": ["-1", "-" + HUGE, "0"],
    X + "unsignedLong": ["18446744073709551615", "18446744073709551616"],
    ns.XSD_DECIMAL: ["1.5", "5", "-0.25", ".5", "5.", "1e3", "INF", "1.5.2", "abc"],
    ns.XSD_DOUBLE: ["1.5", "5", "5e0", "INF", "+INF", "-INF", "NaN", "1e400", "1.7976931348623157e308", "x"],
    ns.XSD_FLOAT: ["1.5", "-INF", "INF", "NaN", "0", "inf"],
    ns.XSD_BOOLEAN: ["true", "false", "1", "0", "TRUE", "yes"],
    ns.XSD_DATETIME: [
        "2020-01-01T00:00:00",
        "2020-01-01T00:00:00Z",
        "2020-01-01T01:00:00+01:00",
        "2020-01-02T00:00:00",
        "2019-12-31T23:00:00-01:00",
        "2020-13-01T00:00:00",
        "not a date",
    ],
    ns.XSD_STRING: ["", "abc", "ABC", "a\x00", "10", "chat"],
    X + "date": ["2020-01-01", "v0"],
}

TERMS = (
    [iri("http://e/a"), iri("http://e/ABC"), iri(""), blank("b0"), blank("abc")]
    + [literal(s) for s in ("", "abc", "Abc", "5", "chat", "x" * 40)]
    + [literal(s, dt) for dt, forms in LEXICAL.items() for s in forms]
    + [literal("chat", language=tag) for tag in ("en", "EN", "en-US", "De", "de")]
    + [literal("", language="en"), literal("5", language="en")]
)

BOUNDS = (
    [literal(s, ns.XSD_INTEGER) for s in ("5", "0", "-3", HUGE)]
    + [literal(s, ns.XSD_DECIMAL) for s in ("1.5", "-0.25")]
    + [literal(s, ns.XSD_DOUBLE) for s in ("INF", "-INF", "1.5")]
    + [literal(s) for s in ("abc", "", "chat")]
    + [literal(s, ns.XSD_BOOLEAN) for s in ("true", "false")]
    + [literal(s, ns.XSD_DATETIME) for s in ("2020-01-01T00:00:00", "2020-01-01T00:00:00Z")]
    # incomparable bounds: no value, or a value of no order
    + [literal("abc", ns.XSD_INTEGER), literal("NaN", ns.XSD_DOUBLE), literal("x", language="en")]
    + [literal("v0", X + "date"), iri("http://e/a"), blank("b0")]
)

FILTERS = (
    [IsIri(), IsLiteral(), IsBlank()]
    + [HasDatatype(dt) for dt in [*LEXICAL, ns.RDF_LANGSTRING, X + "gYear"]]
    + [HasLanguage(tag) for tag in ("en", "EN", "de", "en-us", "")]
    + [MinLength(n) for n in (0, 1, 3, 5001)] + [MaxLength(n) for n in (0, 1, 3, 5001)]
    + [Matches(p) for p in ("^a", "A", "", "\\d", "(?i)CHAT", "^$", "0{3}", "^-?\\d+$")]
    + [kind(bound, strict) for kind in (MinValue, MaxValue) for bound in BOUNDS for strict in (False, True)]
)


def _random_terms(seed: int, count: int) -> list:
    """Literals of every grid datatype with lexical forms drawn from
    digits, signs, points, exponents and letters."""
    rng = random.Random(seed)
    alphabet = "0123456789+-.eEINFaZ:T "
    datatypes = [*LEXICAL, None]
    terms = []
    for _ in range(count):
        lexical = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.1:
            terms.append(literal(lexical, language=rng.choice(["en", "EN", "de"])))
        else:
            terms.append(literal(lexical, rng.choice(datatypes)))
    return terms


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_tests_agree_with_the_reference_chain(seed):
    terms = TERMS + _random_terms(seed, 150)
    random.Random(seed).shuffle(terms)  # a test holds no state from one term to the next
    for f in FILTERS:
        test = term_test(f)
        for term in terms:
            expected = reference_term_satisfies(f, term)
            assert test(term) is expected, (f, term)
            assert term_satisfies(f, term) is expected, (f, term)


def test_grid_reaches_both_truth_values_of_every_filter_kind():
    """The grid is no vacuous oracle: every filter kind, each strictness of
    a bound included, holds at some term and fails at another."""
    outcomes: dict[tuple, set] = {}
    for f in FILTERS:
        kind = (type(f).__name__, getattr(f, "strict", None))
        outcomes.setdefault(kind, set()).update(reference_term_satisfies(f, t) for t in TERMS)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_invalid_pattern_raises_re_error_through_the_api():
    bad = Matches("a(")
    with pytest.raises(re.error):
        term_test(bad)
    with pytest.raises(re.error):
        term_satisfies(bad, literal("a"))
    with pytest.raises(re.error):
        bounded_sat(AtConst(iri("http://e/c"), Filter(bad)), max_domain=2)

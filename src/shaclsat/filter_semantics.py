"""Ground truth of monadic filters over individual RDF terms.

`term_test` turns a filter into a plain predicate on terms once: the
pattern compiled, the language tag lowered and the bound's value read,
so each test of a term makes one comparison.  The logic route's structure
evaluator and the canonical model search consult these predicates; the
direct validator reads each SHACL component on its own, so the two
validation routes stay independent.  `term_satisfies` is the same test,
built for one call.  Callers that test many terms keep the predicates
they build: the term table of a search holds one per filter of its
alphabet, and the structure evaluator one per filter it reads.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

from .scl import (
    FilterName,
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
from .terms import (
    BLANK,
    IRI,
    LITERAL,
    Term,
    effective_datatype,
    malformed_literal,
    term_value,
)

TermTest = Callable[[Term], bool]


def term_satisfies(filter_name: FilterName, term: Term) -> bool:
    """Canonical truth of a monadic filter at a term."""
    return term_test(filter_name)(term)


def term_test(filter_name: FilterName) -> TermTest:
    """The filter as a predicate on terms.  An invalid `Matches` pattern
    raises `re.error` here, before any term is tested."""
    if isinstance(filter_name, IsIri):
        return lambda term: term.kind == IRI
    if isinstance(filter_name, IsLiteral):
        return lambda term: term.kind == LITERAL
    if isinstance(filter_name, IsBlank):
        return lambda term: term.kind == BLANK
    if isinstance(filter_name, HasDatatype):
        datatype = filter_name.datatype
        return lambda term: (
            term.kind == LITERAL
            and effective_datatype(term) == datatype
            and not malformed_literal(term)
        )
    if isinstance(filter_name, HasLanguage):
        tag = filter_name.tag.lower()
        return lambda term: (
            term.kind == LITERAL and term.language is not None and term.language.lower() == tag
        )
    if isinstance(filter_name, MinLength):
        bound = filter_name.bound
        return lambda term: term.kind != BLANK and len(term.lexical) >= bound
    if isinstance(filter_name, MaxLength):
        bound = filter_name.bound
        return lambda term: term.kind != BLANK and len(term.lexical) <= bound
    if isinstance(filter_name, Matches):
        search = re.compile(filter_name.pattern).search
        return lambda term: term.kind != BLANK and search(term.lexical) is not None
    if isinstance(filter_name, MinValue):
        return _bound_test(filter_name.bound, operator.gt if filter_name.strict else operator.ge)
    if isinstance(filter_name, MaxValue):
        return _bound_test(filter_name.bound, operator.lt if filter_name.strict else operator.le)
    raise TypeError(f"unknown filter {filter_name!r}")


def _bound_test(bound: Term, holds: Callable[[object, object], bool]) -> TermTest:
    """A value bound: the term's value is of the bound's comparison type
    and `holds` of it and the bound's value.  A bound with no value holds
    at no term."""
    parsed = term_value(bound)
    if parsed is None:
        return lambda term: False
    ctype, limit = parsed

    def test(term: Term) -> bool:
        value = term_value(term)
        if value is None or value[0] != ctype:
            return False
        try:
            return holds(value[1], limit)
        except TypeError:  # a naive and a timezone-aware dateTime are incomparable
            return False

    return test

"""Generalized RDF terms, triples and graphs, plus interpreted order comparisons.

Terms are immutable and interned: equal terms are one object, so terms
hash and compare by identity, and two terms are equal exactly when kind,
lexical form, datatype and language tag all coincide.  Order comparisons
follow the SPARQL operator mapping: values are totally ordered inside each
comparison type (numeric, string/plain, boolean, dateTime) and incomparable
across types; IRIs and blank nodes are never comparable.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional, Union

from .namespaces import (
    NUMERIC_DATATYPES,
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    XSD_INTEGER_RANGES,
    XSD_STRING,
)

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_KIND_RANK = {IRI: 0, LITERAL: 1, BLANK: 2}


class _Interned(type):
    """Metaclass of `Term`: a call returns the canonical term.

    The weak table is looked up by the field values before anything is
    built, so only a term not alive yet is constructed and checked; a term
    that nothing else references leaves the table.  The lookup and the fill
    take no lock, so terms must be built from one thread at a time, as the
    program does.
    """

    _canonical: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __call__(cls, kind, lexical, datatype=None, language=None):
        key = (kind, lexical, datatype, language)
        term = _Interned._canonical.get(key)
        if term is None:
            term = _Interned._canonical[key] = super().__call__(kind, lexical, datatype, language)
        return term


@dataclass(frozen=True, eq=False)
class Term(metaclass=_Interned):
    kind: str
    lexical: str
    datatype: Optional[str] = None
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.kind != LITERAL and (self.datatype or self.language):
            raise ValueError("only literals carry a datatype or language tag")
        if self.datatype and self.language:
            raise ValueError("a literal has at most one of datatype and language tag")

    @property
    def is_iri(self) -> bool:
        return self.kind == IRI

    @property
    def is_literal(self) -> bool:
        return self.kind == LITERAL

    @property
    def is_blank(self) -> bool:
        return self.kind == BLANK

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.lexical, self.datatype or "", self.language or "")

    @cached_property
    def _value(self) -> Optional[tuple[str, object]]:
        # parsed once per term: a term is interned, and its value is immutable
        return _parse_value(self)

    def __reduce__(self):
        # a copied or unpickled term is rebuilt through the table
        return Term, (self.kind, self.lexical, self.datatype, self.language)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Term({n3(self)})"


def iri(value: str) -> Term:
    return Term(IRI, value)


def blank(label: str) -> Term:
    return Term(BLANK, label)


def literal(lexical: str, datatype: Optional[str] = None, language: Optional[str] = None) -> Term:
    return Term(LITERAL, lexical, datatype, language)


def boolean(value: bool) -> Term:
    return literal("true" if value else "false", XSD_BOOLEAN)


def integer(value: int) -> Term:
    return literal(decimal_form(value), XSD_INTEGER)


def decimal_form(value: int) -> str:
    """The canonical decimal form of an integer: `str(int)`, and past the
    interpreter's digit limit, where `str` refuses, a `Decimal` with
    exponent 0, which prints the same digits at any length."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def string(value: str) -> Term:
    return literal(value)


_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(text: str) -> str:
    return "".join(_STRING_ESCAPES.get(ch, ch) for ch in text)


def n3(term: Term) -> str:
    """Render a term in N-Triples style; the canonical textual form."""
    if term.kind == IRI:
        return f"<{term.lexical}>"
    if term.kind == BLANK:
        return f"_:{term.lexical}"
    body = f'"{_escape(term.lexical)}"'
    if term.language:
        return f"{body}@{term.language}"
    if term.datatype:
        return f"{body}^^<{term.datatype}>"
    return body


def effective_datatype(term: Term) -> Optional[str]:
    """Datatype of a literal under RDF 1.1 rules; None for non-literals."""
    if term.kind != LITERAL:
        return None
    if term.language:
        return RDF_LANGSTRING
    return term.datatype or XSD_STRING


class Triple(tuple):
    """(subject, predicate, object): a tuple, so hashing and comparing a
    triple, and unpacking it, run in C; the fields are also readable by
    name."""

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> Triple:
        if predicate.kind != IRI:
            raise ValueError("triple predicates must be IRIs")
        return tuple.__new__(cls, (subject, predicate, object))

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __reduce__(self):
        return Triple, tuple(self)

    def sort_key(self) -> tuple:
        return (self[0].sort_key(), self[1].sort_key(), self[2].sort_key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Triple({n3(self[0])} {n3(self[1])} {n3(self[2])})"


STRICT = "strict"
GENERALIZED = "generalized"


class StrictModeError(ValueError):
    """A literal appeared in subject position of a strict-mode graph."""


@dataclass(frozen=True)
class TripleGraph:
    """A set of triples, read by predicate through its one index: the
    objects of each subject (`forward`) and the subjects of each object
    (`backward`).  Each is built on first read and kept, outside `__eq__`,
    `__hash__` and `__repr__`; readers never mutate it."""

    triples: frozenset[Triple]
    mode: str = GENERALIZED

    def __post_init__(self) -> None:
        if self.mode not in (STRICT, GENERALIZED):
            raise ValueError(f"unknown graph mode: {self.mode!r}")
        if self.mode == STRICT:
            for s, _, _ in self.triples:
                if s.kind == LITERAL:
                    raise StrictModeError(f"literal subject {n3(s)} in strict mode")

    def __len__(self) -> int:
        return len(self.triples)

    @cached_property
    def forward(self) -> dict[Term, dict[Term, set[Term]]]:
        index: dict[Term, dict[Term, set[Term]]] = {}
        for s, p, o in self.triples:
            index.setdefault(p, {}).setdefault(s, set()).add(o)
        return index

    @cached_property
    def backward(self) -> dict[Term, dict[Term, set[Term]]]:
        index: dict[Term, dict[Term, set[Term]]] = {}
        for s, p, o in self.triples:
            index.setdefault(p, {}).setdefault(o, set()).add(s)
        return index


class ComparisonVerdict(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"
    INCOMPARABLE = "Incomparable"


# Comparison types; each is a total order over its value space.
NUMERIC = "numeric"
STRING = "string"
BOOLEAN = "boolean"
DATETIME = "dateTime"

NumericValue = Union[Fraction, float]  # float only for +/-inf


# XSD lexical forms, ASCII digits only.  A decimal keeps an optional
# exponent, which `str(float)` writes for very large or small values.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMERAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_integer_lexical(lexical: str, datatype: str) -> Optional[int]:
    text = lexical.strip()
    if not _INTEGER.fullmatch(text):
        return None
    try:
        value = int(text)
    except ValueError:  # more digits than int() reads from a string
        value = int(Decimal(text))
    lo, hi = XSD_INTEGER_RANGES[datatype]
    if lo is not None and value < lo:
        return None
    if hi is not None and value > hi:
        return None
    return value


def _parse_float_lexical(lexical: str) -> Optional[NumericValue]:
    text = lexical.strip()
    if text == "INF" or text == "+INF":
        return math.inf
    if text == "-INF":
        return -math.inf
    if text == "NaN":
        return None  # NaN is incomparable; treat as no value
    if not _NUMERAL.fullmatch(text):
        return None
    value = float(text)
    if math.isinf(value):
        return None
    return Fraction(value)


def _parse_datetime_lexical(lexical: str) -> Optional[datetime]:
    text = lexical.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def term_value(term: Term) -> Optional[tuple[str, object]]:
    """(comparison type, value) for terms that take part in an order.

    Returns None for IRIs, blank nodes, malformed literals and literals of
    non-orderable datatypes.
    """
    return term._value


def _parse_value(term: Term) -> Optional[tuple[str, object]]:
    if term.kind != LITERAL:
        return None
    if term.language:
        return None
    dt = term.datatype
    if dt is None or dt == XSD_STRING:
        return (STRING, term.lexical)
    if dt in XSD_INTEGER_RANGES:
        value = parse_integer_lexical(term.lexical, dt)
        return None if value is None else (NUMERIC, Fraction(value))
    if dt == XSD_DECIMAL:
        text = term.lexical.strip()
        return (NUMERIC, Fraction(Decimal(text))) if _NUMERAL.fullmatch(text) else None
    if dt in (XSD_DOUBLE, XSD_FLOAT):
        value = _parse_float_lexical(term.lexical)
        return None if value is None else (NUMERIC, value)
    if dt == XSD_BOOLEAN:
        text = term.lexical.strip()
        if text in ("true", "1"):
            return (BOOLEAN, True)
        if text in ("false", "0"):
            return (BOOLEAN, False)
        return None
    if dt == XSD_DATETIME:
        value = _parse_datetime_lexical(term.lexical)
        return None if value is None else (DATETIME, value)
    return None


def malformed_literal(term: Term) -> bool:
    """True for literals whose lexical form is invalid for their datatype."""
    if term.kind != LITERAL or term.language or term.datatype is None:
        return False
    if term.datatype in NUMERIC_DATATYPES or term.datatype in (XSD_BOOLEAN, XSD_DATETIME):
        return term_value(term) is None
    return False


def compare_terms(a: Term, b: Term) -> ComparisonVerdict:
    va = a._value
    vb = b._value
    if va is None or vb is None or va[0] != vb[0]:
        return ComparisonVerdict.INCOMPARABLE
    x, y = va[1], vb[1]
    try:
        if x == y:
            return ComparisonVerdict.EQ
        return ComparisonVerdict.LT if x < y else ComparisonVerdict.GT
    except TypeError:
        # e.g. naive vs timezone-aware dateTime values
        return ComparisonVerdict.INCOMPARABLE

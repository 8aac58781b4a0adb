"""Filter combinations, the term-counting function, and the cardinality
axiomatization that lets uninterpreted filter relations stand in for the
canonical ones.

A combination is a conjunction of (negated) constant equalities and
(negated) monadic filters over one variable.  `gamma` computes how many
RDF terms satisfy a combination, where terms are counted up to value
identity (all lexical variants of one value count once).  `axiomatize`
conjoins one global upper-bound counting sentence per combination with a
finite count; combinations ruled out by a pairwise incompatibility are
covered by dedicated zero conjuncts instead of being enumerated.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from . import namespaces as ns
from .filter_semantics import term_satisfies, term_test
from .scl import (
    AtMostGlobal,
    EqConst,
    Filter,
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
    Not,
    SclFormula,
    SclSentence,
    conj,
    formula_filters,
    node_constants,
    sentence_conj,
)
from .terms import (
    BOOLEAN,
    DATETIME,
    NUMERIC,
    STRING,
    Term,
    blank,
    boolean,
    decimal_form,
    effective_datatype,
    iri,
    literal,
    term_value,
)

# Unicode scalar values (codepoints minus surrogates)
ALPHABET_SIZE = 0x110000 - 0x0800
CARDINALITY_CAP = 2**64
COMBINATION_CAP = 4096  # most filter combinations a catalog or an axiomatization lists
_ENUM_LIMIT = 4096


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Cardinality:
    value: Optional[int]  # None means infinite (or beyond the cap)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:
        return "Cardinality(inf)" if self.is_infinite else f"Cardinality({self.value})"


INFINITE = Cardinality(None)


def _finite(n: int) -> Cardinality:
    return INFINITE if n > CARDINALITY_CAP else Cardinality(n)


@dataclass(frozen=True)
class FilterCombination:
    positive_eq: frozenset[Term] = frozenset()
    negative_eq: frozenset[Term] = frozenset()
    positive_filters: frozenset[FilterName] = frozenset()
    negative_filters: frozenset[FilterName] = frozenset()

    def is_contradictory(self) -> bool:
        """A literal required and excluded at once; gamma treats this as 0."""
        return bool(
            self.positive_eq & self.negative_eq or self.positive_filters & self.negative_filters
        )

    def formula(self) -> SclFormula:
        """The conjunction of the literals: the equalities, then the filters,
        each positive ones first and each group in sort order."""
        terms = lambda items: sorted(items, key=Term.sort_key)
        names = lambda items: sorted(items, key=FilterName.sort_key)
        return conj(
            [EqConst(c) for c in terms(self.positive_eq)]
            + [Not(EqConst(c)) for c in terms(self.negative_eq)]
            + [Filter(f) for f in names(self.positive_filters)]
            + [Not(Filter(f)) for f in names(self.negative_filters)]
        )


def term_satisfies_combination(combo: FilterCombination, term: Term) -> bool:
    for c in combo.positive_eq:
        if term != c:
            return False
    for c in combo.negative_eq:
        if term == c:
            return False
    for f in combo.positive_filters:
        if not term_satisfies(f, term):
            return False
    for f in combo.negative_filters:
        if term_satisfies(f, term):
            return False
    return True


# --------------------------------------------------------------------------
# Canonical value identity
# --------------------------------------------------------------------------


def canonical_key(term: Term) -> tuple:
    """Terms with the same key denote the same canonical element."""
    if term.is_literal:
        value = term_value(term)
        if value is not None:
            return ("lit", effective_datatype(term), value[0], _value_text(value[1]))
        if term.language:
            return ("lang", term.language.lower(), term.lexical)
        return ("lit", effective_datatype(term), None, term.lexical)
    return (term.kind, term.lexical)


def _value_text(value) -> str:
    """`str(value)`, also for a fraction whose terms pass the interpreter's
    limit on integer digits."""
    if isinstance(value, Fraction):
        text = decimal_form(value.numerator)
        return text if value.denominator == 1 else f"{text}/{decimal_form(value.denominator)}"
    return str(value)


# A literal family: its cardinality, and a draw that returns candidate
# terms: all of them when the family is enumerated, else n samples.
_Family = tuple[Cardinality, Callable[[int], Iterable[Term]]]


class TermTable:
    """The want-independent work of `gamma_with_witnesses`, done once per
    term and once per combination: each term's filter signature and
    canonical key, and each combination's cardinality and literal families.

    Bit i of a term's signature is set when the i-th filter of `filters`
    holds at the term, so a combination over those filters is one mask
    compare away.  Each filter is compiled once, into the predicate
    `term_test` builds, and a term is signed by running the predicates.
    An enumerated integer range signs no term: its members are read off
    their decimal forms, kept per range, length bounds and patterns.  The
    sampled draws of the dense datatypes (decimal, double and float) are
    kept per (lower end, upper end, datatype, n), so each is drawn once.
    The table only grows; build one for one search or one axiomatization
    and drop it when that call returns.  No family refers back to the
    table, so dropping it frees it without the cycle collector.
    """

    def __init__(self, filters: Iterable[FilterName]):
        self.bit = {f: 1 << i for i, f in enumerate(filters)}
        self._tests = [(bit, term_test(f)) for f, bit in self.bit.items()]
        self._terms: dict[Term, tuple[int, tuple]] = {}
        self._masks: dict[FilterCombination, tuple[int, int]] = {}
        self._families: dict[FilterCombination, tuple[Cardinality, list[_Family]]] = {}
        self.integer_forms: dict[tuple, dict[str, None]] = {}
        self.dense_samples: dict[tuple, list[Term]] = {}

    def entry(self, term: Term) -> tuple[int, tuple]:
        """The term's signature and its canonical key."""
        entry = self._terms.get(term)
        if entry is None:
            signature = 0
            for bit, test in self._tests:
                if test(term):
                    signature |= bit
            entry = self._terms[term] = (signature, canonical_key(term))
        return entry

    def signature(self, term: Term) -> int:
        return self.entry(term)[0]

    def key(self, term: Term) -> tuple:
        return self.entry(term)[1]

    def masks(self, combo: FilterCombination) -> tuple[int, int]:
        """(required, mask): a signature masked by `mask` is `required`
        exactly when every positive filter of `combo` holds at the term
        and no negative one does."""
        masks = self._masks.get(combo)
        if masks is None:
            positive = negative = 0
            for f in combo.positive_filters:
                positive |= self.bit[f]
            for f in combo.negative_filters:
                negative |= self.bit[f]
            # a filter both required and excluded holds at no term
            masks = self._masks[combo] = (-1 if positive & negative else positive, positive | negative)
        return masks

    def satisfies(self, combo: FilterCombination, term: Term) -> bool:
        """`term_satisfies_combination`, reading the filters off the signature."""
        for c in combo.positive_eq:
            if term != c:
                return False
        if term in combo.negative_eq:
            return False
        required, mask = self.masks(combo)
        return self.signature(term) & mask == required

    def families(self, combo: FilterCombination) -> tuple[Cardinality, list[_Family]]:
        entry = self._families.get(combo)
        if entry is None:
            entry = self._families[combo] = _witness_families(combo, self)
        return entry


# --------------------------------------------------------------------------
# Constraint record solved out of a combination
# --------------------------------------------------------------------------


@dataclass
class _Bounds:
    lo: Optional[tuple] = None  # (ctype, value, strict)
    hi: Optional[tuple] = None
    impossible: bool = False

    def add(self, side: str, ctype: str, value, strict: bool) -> None:
        """Tighten the lower ("lo") or upper ("hi") bound; bounds of two
        comparison types hold at no value."""
        if self.ctype not in (None, ctype):
            self.impossible = True
            return
        current = getattr(self, side)
        if current is None:
            setattr(self, side, (ctype, value, strict))
            return
        _, old, old_strict = current
        tighter = value > old if side == "lo" else value < old
        if tighter or (value == old and strict and not old_strict):
            setattr(self, side, (ctype, value, strict))

    @property
    def ctype(self) -> Optional[str]:
        end = self.lo or self.hi
        return end[0] if end else None


@dataclass
class _Solved:
    kinds: set[str]
    bounds: _Bounds  # positive bounds only
    neg_datatypes: set[str]
    neg_languages: set[str]
    neg_value_filters: list[FilterName]  # the negated MinValue and MaxValue filters
    datatype: Optional[str] = None
    language: Optional[str] = None
    len_lo: int = 0
    len_hi: Optional[int] = None
    impossible: bool = False


def _solve(combo: FilterCombination) -> _Solved:
    kinds = {"iri", "literal", "blank"}
    sv = _Solved(kinds, _Bounds(), neg_datatypes=set(), neg_languages=set(), neg_value_filters=[])
    for f in combo.positive_filters:
        if isinstance(f, IsIri):
            kinds &= {"iri"}
        elif isinstance(f, IsLiteral):
            kinds &= {"literal"}
        elif isinstance(f, IsBlank):
            kinds &= {"blank"}
        elif isinstance(f, HasDatatype):
            kinds &= {"literal"}
            if sv.datatype is not None and sv.datatype != f.datatype:
                sv.impossible = True
            sv.datatype = f.datatype
        elif isinstance(f, HasLanguage):
            kinds &= {"literal"}
            tag = f.tag.lower()
            if sv.language is not None and sv.language != tag:
                sv.impossible = True
            sv.language = tag
        elif isinstance(f, (MinValue, MaxValue)):
            kinds &= {"literal"}
            value = term_value(f.bound)
            if value is None:
                sv.impossible = True
            else:
                sv.bounds.add("lo" if isinstance(f, MinValue) else "hi", *value, f.strict)
        elif isinstance(f, MinLength):
            kinds -= {"blank"}
            sv.len_lo = max(sv.len_lo, f.bound)
        elif isinstance(f, MaxLength):
            kinds -= {"blank"}
            sv.len_hi = f.bound if sv.len_hi is None else min(sv.len_hi, f.bound)
        elif isinstance(f, Matches):
            kinds -= {"blank"}
    for f in combo.negative_filters:
        if isinstance(f, IsIri):
            kinds -= {"iri"}
        elif isinstance(f, IsLiteral):
            kinds -= {"literal"}
        elif isinstance(f, IsBlank):
            kinds -= {"blank"}
        elif isinstance(f, HasDatatype):
            sv.neg_datatypes.add(f.datatype)
        elif isinstance(f, HasLanguage):
            sv.neg_languages.add(f.tag.lower())
        elif isinstance(f, (MinValue, MaxValue)):
            sv.neg_value_filters.append(f)
        elif isinstance(f, MinLength):
            # not(len >= n)  <=>  len <= n - 1
            sv.len_hi = f.bound - 1 if sv.len_hi is None else min(sv.len_hi, f.bound - 1)
        elif isinstance(f, MaxLength):
            sv.len_lo = max(sv.len_lo, f.bound + 1)
    if sv.bounds.impossible:
        sv.impossible = True
    if sv.len_hi is not None and sv.len_lo > sv.len_hi:
        sv.impossible = True
    if sv.datatype is not None and sv.datatype in sv.neg_datatypes:
        sv.impossible = True
    if sv.language is not None and sv.language in sv.neg_languages:
        sv.impossible = True
    if sv.datatype is not None and sv.language is not None and sv.datatype != ns.RDF_LANGSTRING:
        sv.impossible = True
    return sv


def _family_bounds(sv: _Solved, ctype: str) -> Optional[_Bounds]:
    """Positive bounds plus flipped negative bounds, for one comparison type."""
    if sv.bounds.ctype not in (None, ctype):
        return None
    merged = _Bounds(sv.bounds.lo, sv.bounds.hi)
    for f in sv.neg_value_filters:
        value = term_value(f.bound)
        if value is None or value[0] != ctype:
            continue  # vacuously satisfied by this family
        # not(x > b) -> x <= b ; not(x >= b) -> x < b, and the mirror images
        merged.add("hi" if isinstance(f, MinValue) else "lo", ctype, value[1], not f.strict)
    return None if merged.impossible else merged


def _integer_range(bounds: _Bounds, datatype: str) -> Optional[tuple[Optional[int], Optional[int]]]:
    lo, hi = ns.XSD_INTEGER_RANGES[datatype]
    if bounds.lo is not None:
        _, value, strict = bounds.lo
        if value == math.inf:
            return None
        if value != -math.inf:
            candidate = math.floor(value) + 1 if strict else math.ceil(value)
            lo = candidate if lo is None else max(lo, candidate)
    if bounds.hi is not None:
        _, value, strict = bounds.hi
        if value == -math.inf:
            return None
        if value != math.inf:
            candidate = math.ceil(value) - 1 if strict else math.floor(value)
            hi = candidate if hi is None else min(hi, candidate)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


# the integers of any one length of this many characters or more outnumber the cap
_CAP_DIGITS = len(decimal_form(CARDINALITY_CAP)) + 2


def _width(value: int) -> int:
    """No fewer characters than the canonical decimal form of `value` has:
    digits plus a sign."""
    return abs(value).bit_length() * 31 // 100 + 2


def _integer_length_count(lo: int, hi: int, len_lo: int, len_hi: Optional[int]) -> int:
    """Integers in [lo, hi] whose canonical decimal form has an allowed length.

    Those whose form has at most L characters are one interval,
    [1 - 10^(L-1), 10^L - 1], so the count is two interval intersections."""
    # no integer in [lo, hi] has more characters than this
    widest = max(_width(lo), _width(hi))

    def at_most(length: int) -> int:
        length = min(length, widest)
        if length < 1:
            return 0
        return max(min(hi, 10**length - 1) - max(lo, 1 - 10 ** (length - 1)) + 1, 0)

    top = at_most(widest if len_hi is None else len_hi)
    return max(top - at_most(len_lo - 1), 0)


def _string_space(len_lo: int, len_hi: Optional[int]) -> Cardinality:
    if len_hi is None:
        return INFINITE
    total = 0
    for length in range(max(0, len_lo), len_hi + 1):
        total += ALPHABET_SIZE**length
        if total > CARDINALITY_CAP:
            return INFINITE
    return Cardinality(total)


def _dense_interval(bounds: _Bounds) -> str:
    """'empty', 'point', or 'open' for a dense order type."""
    if bounds.lo is None or bounds.hi is None:
        return "open"
    _, lo, lo_strict = bounds.lo
    _, hi, hi_strict = bounds.hi
    if lo > hi:
        return "empty"
    if lo == hi:
        return "empty" if (lo_strict or hi_strict) else "point"
    return "open"


# The datatypes whose values a bound of each comparison type reaches, in the
# order their families are drawn when a combination pins no datatype.
_ORDERED_DATATYPES = {
    NUMERIC: sorted(ns.XSD_INTEGER_RANGES) + [ns.XSD_DECIMAL, ns.XSD_DOUBLE, ns.XSD_FLOAT],
    BOOLEAN: [ns.XSD_BOOLEAN],
    DATETIME: [ns.XSD_DATETIME],
    STRING: [ns.XSD_STRING],
}
_COMPARISON_TYPE = {dt: ctype for ctype, dts in _ORDERED_DATATYPES.items() for dt in dts}

_EMPTY: _Family = (Cardinality(0), lambda n: [])


def _datatype_family(
    combo: FilterCombination, sv: _Solved, datatype: str, table: TermTable
) -> _Family:
    """The canonical literals of one datatype that satisfy the combination.
    A family small enough to enumerate draws every one of them; the bounds
    are solved once, for the count and the draw."""
    if datatype in sv.neg_datatypes:
        return _EMPTY
    ctype = _COMPARISON_TYPE.get(datatype)
    if ctype is None:
        # rdf:langString or an unknown datatype: no order values
        if sv.bounds.ctype is not None:
            return _EMPTY
        if datatype != ns.RDF_LANGSTRING:
            return INFINITE, lambda n: [literal(f"v{i}", datatype) for i in range(n)]
        if sv.language is None:  # a family per tag
            return INFINITE, lambda n: _tagged_strings(sv, n)
        return _string_space(sv.len_lo, sv.len_hi), lambda n: [
            literal(s, language=sv.language) for s in _strings_within(sv.len_lo, sv.len_hi, n)
        ]
    bounds = _family_bounds(sv, ctype)
    if bounds is None:
        return _EMPTY

    def enumerated(terms: list[Term]) -> _Family:
        """The family of the candidates that meet `combo`, one per key; an
        excluded constant's key is taken from the start."""
        required, mask = table.masks(combo)
        seen = {canonical_key(c) for c in combo.negative_eq}
        kept = []
        for term in terms:
            signature, key = table.entry(term)
            if signature & mask == required and key not in seen:
                seen.add(key)
                kept.append(term)
        return Cardinality(len(kept)), lambda n: kept

    if datatype == ns.XSD_BOOLEAN:
        return enumerated([boolean(False), boolean(True)])

    if datatype in ns.XSD_INTEGER_RANGES:
        rng = _integer_range(bounds, datatype)
        if rng is None:
            return _EMPTY
        lo, hi = rng  # the draw's range, open ends included

        def sample(n: int) -> list[Term]:
            start = lo if lo is not None else (min(hi, 0) - n if hi is not None else 0)
            stop = start + n if hi is None else min(start + n, hi + 1)
            return [literal(decimal_form(v), datatype) for v in range(start, stop)]

        first, last = rng
        len_lo, len_hi = sv.len_lo, sv.len_hi
        if first is None or last is None:
            if len_hi is None:
                return INFINITE, sample
            # bounded canonical length makes the set finite.  The integers
            # of any one length from `reach` on lie beyond the finite end and
            # outnumber the cap, so the lengths are clamped before any power
            reach = max(_width(end) for end in (first, last, 0) if end is not None) + _CAP_DIGITS
            len_hi = min(len_hi, reach)
            len_lo = min(len_lo, len_hi)
            limit = 10**len_hi
            first = -limit if first is None else first
            last = limit if last is None else last
        if last - first + 1 <= _ENUM_LIMIT:
            return _integer_family(combo, datatype, (first, last, len_lo, len_hi), table.integer_forms)
        count = last - first + 1
        if len_lo > 0 or len_hi is not None:
            count = _integer_length_count(first, last, len_lo, len_hi)
        required, mask = table.masks(combo)
        for text in _excluded_forms(combo, datatype):  # at the canonical element
            count -= table.signature(literal(text, datatype)) & mask == required
        return _finite(max(count, 0)), sample

    if ctype == STRING:
        nul_family = _nul_interval_terms(bounds)
        if nul_family is not None:
            return enumerated(nul_family)
        if bounds.lo is not None and bounds.hi is not None and bounds.lo[1] > bounds.hi[1]:
            return _EMPTY
        return _string_space(sv.len_lo, sv.len_hi), lambda n: [
            literal(s) for s in _strings_within(sv.len_lo, sv.len_hi, n)
        ]

    # decimal, double, float and dateTime: dense orders
    if ctype == NUMERIC:
        bounds = _finite_part(bounds, datatype)
        if bounds is None:  # no finite value left; a double or float may be INF or -INF
            if datatype == ns.XSD_DECIMAL:
                return _EMPTY
            return enumerated([literal("-INF", datatype), literal("INF", datatype)])
    shape = _dense_interval(bounds)
    if shape == "empty":
        return _EMPTY
    if shape == "point":
        return enumerated([_point_term(bounds, datatype)])
    if ctype == DATETIME:
        return INFINITE, lambda n: [
            literal(f"2020-01-{day:02d}T00:00:00", datatype) for day in range(1, n + 1)
        ]
    samples = table.dense_samples  # the draw refers to the samples, never to the table

    def dense(n: int) -> list[Term]:
        key = (bounds.lo, bounds.hi, datatype, n)
        drawn = samples.get(key)
        if drawn is None:
            drawn = samples[key] = _dense_sample(bounds, datatype, n)
        return drawn

    return INFINITE, dense


def _integer_family(combo: FilterCombination, datatype: str, extent: tuple, forms_of: dict) -> _Family:
    """The canonical literals of an integer datatype that meet `combo`,
    over `extent` (first, last, len_lo, len_hi): at most `_ENUM_LIMIT`
    values, at each of which every filter but the lengths and patterns
    holds already.  So the members are read off their decimal forms, found
    once per `forms_of` for each extent and pattern signs."""
    positive = frozenset(f.pattern for f in combo.positive_filters if isinstance(f, Matches))
    negative = frozenset(f.pattern for f in combo.negative_filters if isinstance(f, Matches))
    forms = forms_of.get((extent, positive, negative))
    if forms is None:
        first, last, len_lo, len_hi = extent
        matches = [re.compile(p).search for p in positive]
        misses = [re.compile(p).search for p in negative]
        texts = (decimal_form(value) for value in range(first, last + 1))
        forms = forms_of[(extent, positive, negative)] = dict.fromkeys(
            text
            for text in texts
            if len_lo <= len(text) and (len_hi is None or len(text) <= len_hi)
            and all(search(text) for search in matches) and not any(search(text) for search in misses)
        )
    excluded = forms.keys() & _excluded_forms(combo, datatype)
    return Cardinality(len(forms) - len(excluded)), lambda n: (
        literal(text, datatype) for text in forms if text not in excluded
    )


def _excluded_forms(combo: FilterCombination, datatype: str) -> set[str]:
    """The decimal forms of the canonical elements that the integer
    datatype's excluded constants denote, whatever their lexical forms."""
    values = [term_value(c) for c in combo.negative_eq if effective_datatype(c) == datatype]
    return {decimal_form(value[1].numerator) for value in values if value}


# The largest finite double; `float` reads a numeral past it as infinity.
_FLOAT_MAX = Fraction(sys.float_info.max)


def _finite_part(bounds: _Bounds, datatype: str) -> Optional[_Bounds]:
    """The numeric bounds the finite values of the datatype meet, with an
    end that all of them meet dropped; None when none of them does: an
    INF lower or -INF upper bound, or, for a double or float, an end past
    the float range on the inside."""
    floats = datatype in (ns.XSD_DOUBLE, ns.XSD_FLOAT)
    finite = _Bounds()
    for side, sign in (("lo", 1), ("hi", -1)):
        end = getattr(bounds, side)
        if end is None:
            continue
        _, value, strict = end
        value *= sign  # an upper end, mirrored into a lower one
        if value == math.inf or floats and (value > _FLOAT_MAX or value == _FLOAT_MAX and strict):
            return None
        if value != -math.inf and not (floats and value < -_FLOAT_MAX):
            setattr(finite, side, end)
    return finite


def _point_term(bounds: _Bounds, datatype: str) -> Term:
    value = bounds.lo[1]
    if datatype == ns.XSD_DATETIME:
        return literal(value.isoformat(), datatype)
    if value.denominator == 1:
        return literal(decimal_form(value.numerator), datatype)
    return literal(_numeral(value), datatype)


def _dense_sample(bounds: _Bounds, datatype: str, n: int) -> list[Term]:
    """n evenly spaced values inside a dense interval.  An open lower end
    is taken at 0 when the upper end lies above 0, and n + 1 below the
    upper end otherwise; an open upper end n + 1 above the lower one."""
    lo = bounds.lo[1] if bounds.lo is not None else None
    hi = bounds.hi[1] if bounds.hi is not None else None
    if lo is None:
        lo = Fraction(0) if hi is None or hi > 0 else hi - (n + 1)
    if hi is None:
        hi = lo + n + 1
    if hi < lo:
        return []
    step = (hi - lo) / (n + 1)
    return [literal(_numeral(lo + step * i), datatype) for i in range(1, n + 1)]


def _numeral(value: Fraction) -> str:
    """`str(float(value))`; past the float range, the quotient in decimal
    to 17 digits after the integer part."""
    try:
        return str(float(value))
    except OverflowError:
        with localcontext() as context:
            context.prec = len(decimal_form(abs(value.numerator) // value.denominator)) + 17
            return str(Decimal(value.numerator) / Decimal(value.denominator))


def _nul_interval_terms(bounds: _Bounds) -> Optional[list[Term]]:
    """The one finite shape of a string interval: upper bound reachable from
    the lower bound by appending NUL characters."""
    if bounds.lo is None or bounds.hi is None:
        return None
    lo, hi = bounds.lo[1], bounds.hi[1]
    if not hi.startswith(lo) or set(hi[len(lo) :]) - {"\x00"}:
        return None
    pad = len(hi) - len(lo)
    return [literal(lo + "\x00" * j) for j in range(pad + 1)]


def gamma(combo: FilterCombination, table: Optional[TermTable] = None) -> Cardinality:
    count, _ = gamma_with_witnesses(combo, 0, table)
    return count


def gamma_with_witnesses(
    combo: FilterCombination, want: int, table: Optional[TermTable] = None
) -> tuple[Cardinality, list[Term]]:
    """Cardinality plus up to `want` witness terms (distinct canonical
    elements, also distinct from every constant mentioned in the combo).
    `table` must know every filter of `combo`; without one, a table for
    this call alone is built."""
    if combo.is_contradictory():
        return Cardinality(0), []
    if table is None:
        filters = combo.positive_filters | combo.negative_filters
        table = TermTable(sorted(filters, key=FilterName.sort_key))
    if combo.positive_eq:
        if len(combo.positive_eq) > 1:
            return Cardinality(0), []
        c = next(iter(combo.positive_eq))
        if table.satisfies(combo, c):
            return Cardinality(1), [c]
        return Cardinality(0), []

    count, families = table.families(combo)
    witnesses: list[Term] = []
    if not want:
        return count, witnesses
    # an excluded constant's key is used from the start, so of the
    # combination only its filters are left to check
    used_keys = {table.key(c) for c in combo.negative_eq}
    required, mask = table.masks(combo)
    for _, draw in families:
        for term in draw(want * 3 + 8):
            signature, key = table.entry(term)
            if key not in used_keys and signature & mask == required:
                used_keys.add(key)
                witnesses.append(term)
                if len(witnesses) == want:
                    return count, witnesses
    return count, witnesses


def _witness_families(combo: FilterCombination, table: TermTable) -> tuple[Cardinality, list[_Family]]:
    """The cardinality of a combination without a positive equality, and
    the families its witnesses are drawn from, in order."""
    sv = _solve(combo)
    if sv.impossible or not sv.kinds:
        return Cardinality(0), []

    # a positive filter other than a node kind rules out blank nodes, and
    # one about values rules out IRIs
    families: list[_Family] = []
    if "blank" in sv.kinds:
        families.append((INFINITE, lambda n: [blank(f"w{i}") for i in range(n)]))

    if "iri" in sv.kinds:

        def iri_sampler(n: int) -> list[Term]:
            base = ns.GEN_NS + "fresh:"
            out = []
            for i in range(n):
                name = f"{base}{i}".ljust(sv.len_lo, "x")
                if sv.len_hi is not None and len(name) > sv.len_hi:
                    name = f"u{i}"[: sv.len_hi]
                out.append(iri(name))
            return out

        families.append((_string_space(sv.len_lo, sv.len_hi), iri_sampler))

    if "literal" in sv.kinds:
        if sv.language is not None:
            datatypes = [ns.RDF_LANGSTRING]
        elif sv.datatype is not None:
            datatypes = [sv.datatype]
        elif sv.bounds.ctype is not None:
            datatypes = _ORDERED_DATATYPES[sv.bounds.ctype]
        else:  # no pinned datatype, tag or bound
            datatypes = []
            families.append((INFINITE, lambda n: _mixed_literals(sv, n)))
        families += [_datatype_family(combo, sv, datatype, table) for datatype in datatypes]

    counts = [card.value for card, _ in families]
    if None in counts:
        return INFINITE, families
    return _finite(sum(counts)), families


_SAMPLE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def _strings_within(len_lo: int, len_hi: Optional[int], n: int) -> list[str]:
    """Up to n distinct strings whose length falls inside the bounds."""
    lo = max(0, len_lo)
    if len_hi is not None and lo > len_hi:
        return []
    if len_hi is None:
        return [f"s{i}".ljust(lo, "x") for i in range(n)]
    length = len_hi  # the widest allowed length has the most room
    if length == 0:
        return [""]
    base = len(_SAMPLE_ALPHABET)
    out = []
    for i in range(min(n, base**min(length, 8))):
        # the base-36 digits of i, least significant first, padded with the zero digit
        digits, value = [], i
        while value:
            value, digit = divmod(value, base)
            digits.append(_SAMPLE_ALPHABET[digit])
        out.append("".join(digits) + _SAMPLE_ALPHABET[0] * (length - len(digits)))
    return out


def _tagged_strings(sv: _Solved, n: int) -> list[Term]:
    """n language-tagged literals, one lexical form under n fresh tags."""
    return [
        literal(s, language=f"x-t{i}")
        for i, s in enumerate(_strings_within(sv.len_lo, sv.len_hi, 1) * n)
    ]


def _mixed_literals(sv: _Solved, n: int) -> list[Term]:
    """Literals of several datatypes, for a combination that pins none."""
    plain = [literal(s) for s in _strings_within(sv.len_lo, sv.len_hi, n)]
    numbers = [
        literal(str(i), ns.XSD_INTEGER)
        for i in range(n)
        if sv.len_lo <= len(str(i)) and (sv.len_hi is None or len(str(i)) <= sv.len_hi)
    ]
    return plain + _tagged_strings(sv, n) + numbers


# --------------------------------------------------------------------------
# Combination enumeration and the axiomatization
# --------------------------------------------------------------------------


def filter_alphabet(sentence: SclSentence) -> tuple[list[FilterName], list[Term]]:
    """Filters and constants occurring in a sentence; pattern filters are
    left out of the combination alphabet."""
    filters = sorted(
        (f for f in formula_filters(sentence) if not isinstance(f, Matches)),
        key=FilterName.sort_key,
    )
    constants = sorted(node_constants(sentence), key=Term.sort_key)
    return filters, constants


def has_pattern_filters(sentence: SclSentence) -> bool:
    return any(isinstance(f, Matches) for f in formula_filters(sentence))


def _literal_incompatible(a: object, b: object) -> bool:
    """Cheap test that no term meets both constants or filters a and b;
    a comes first in the alphabet, which lists the constants first."""
    if isinstance(a, Term):
        return a != b if isinstance(b, Term) else not term_satisfies(b, a)
    solved = _solve(FilterCombination(positive_filters=frozenset({a, b})))
    return solved.impossible or not solved.kinds


def incompatible_pairs(filters: list[FilterName], constants: list[Term]) -> list[tuple]:
    return [pair for pair in combinations(constants + filters, 2) if _literal_incompatible(*pair)]


def collect_combinations(
    sentence: SclSentence, cap: int = COMBINATION_CAP
) -> Iterator[FilterCombination]:
    """Full-sign combinations over the sentence's filter/constant alphabet,
    skipping those already ruled out by a pairwise incompatibility."""
    filters, constants = filter_alphabet(sentence)
    return compatible_combinations(constants + filters, incompatible_pairs(filters, constants), cap)


def compatible_combinations(
    items: list, pairs: list[tuple], cap: int = COMBINATION_CAP, excluded: frozenset = frozenset()
) -> Iterator[FilterCombination]:
    """The combination of each full sign vector over `items` that makes no
    incompatible pair (in alphabet order) true, in the order of
    `product((True, False), repeat=len(items))`, with the constants of
    `excluded` negated; CapExceeded on the one past `cap`.  Depth first,
    each step signs true every later item that clashes with no item signed
    true so far, so it visits one prefix per combination it yields."""
    index = {item: i for i, item in enumerate(items)}
    clashes = [0] * len(items)  # bit j of clashes[i]: item j > i is incompatible with item i
    for a, b in pairs:
        clashes[index[a]] |= 1 << index[b]
    emitted = 0
    stack = [(0, 0, 0)]  # (items signed true, items they clash with, first item to sign), as bits
    while stack:
        positive, blocked, start = stack.pop()
        for i in range(start, len(items)):
            if not blocked >> i & 1:
                stack.append((positive, blocked, i + 1))  # item i false comes after item i true
                positive, blocked = positive | 1 << i, blocked | clashes[i]
        emitted += 1
        if emitted > cap:
            raise CapExceeded(f"more than {cap} filter combinations")
        positives = [item for i, item in enumerate(items) if positive >> i & 1]
        negatives = [item for i, item in enumerate(items) if not positive >> i & 1]
        yield FilterCombination(
            positive_eq=frozenset(x for x in positives if isinstance(x, Term)),
            negative_eq=excluded.union(x for x in negatives if isinstance(x, Term)),
            positive_filters=frozenset(x for x in positives if isinstance(x, FilterName)),
            negative_filters=frozenset(x for x in negatives if isinstance(x, FilterName)),
        )


def axiomatize(sentence: SclSentence, cap: int = COMBINATION_CAP) -> SclSentence:
    """Conjoin the upper-bound counting sentences that force uninterpreted
    filters to respect the canonical cardinalities."""
    filters, constants = filter_alphabet(sentence)
    pairs = incompatible_pairs(filters, constants)
    table = TermTable(filters)
    parts: list[SclSentence] = [sentence]
    for pair in pairs:
        atoms = [EqConst(item) if isinstance(item, Term) else Filter(item) for item in pair]
        parts.append(AtMostGlobal(0, conj(atoms)))
    # every combination is counted against the cap before any `gamma`
    for combo in list(compatible_combinations(constants + filters, pairs, cap)):
        card = gamma(combo, table)
        if card.is_infinite:
            continue
        parts.append(AtMostGlobal(card.value, combo.formula()))
    return sentence_conj(parts)

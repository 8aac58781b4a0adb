"""Integer literal families against a sign-every-term reference.

An integer family whose range has at most `_ENUM_LIMIT` values is counted
and drawn from the decimal forms of its values alone.  The reference below
builds and signs every canonical literal of the range instead, reading
each filter through `term_test`, the ground truth of the filters."""

import random
from decimal import Decimal

from shaclsat import namespaces as ns
from shaclsat.filter_semantics import term_test
from shaclsat.filters import (
    _ENUM_LIMIT,
    FilterCombination,
    TermTable,
    canonical_key,
    gamma_with_witnesses,
)
from shaclsat.scl import FilterName, HasDatatype, Matches, MaxLength, MaxValue, MinLength, MinValue
from shaclsat.terms import decimal_form, integer, iri, literal

_INTEGER_TYPES = sorted(ns.XSD_INTEGER_RANGES)
_PATTERNS = ("^-", "0$", "^[0-9]{2}$")


def _signed_window(filters: list, datatype: str, first: int, last: int) -> list:
    """(term, canonical key, the filters that hold) of each canonical
    literal of `datatype` from `first` to `last`, in ascending value order.
    The window may reach past the datatype's range: no filter set with
    `HasDatatype(datatype)` admits those values."""
    tests = [(f, term_test(f)) for f in filters]
    rows = []
    for value in range(first, last + 1):
        term = literal(decimal_form(value), datatype)
        rows.append((term, canonical_key(term), {f for f, test in tests if test(term)}))
    return rows


def _reference(combo: FilterCombination, rows: list) -> list:
    """The terms of the signed window that meet `combo`.  An excluded
    constant removes its canonical element whatever its lexical form."""
    excluded = {canonical_key(c) for c in combo.negative_eq}
    return [
        term
        for term, key, holds in rows
        if combo.positive_filters <= holds and not combo.negative_filters & holds and key not in excluded
    ]


def _value_filter(side: str, end: int, rng: random.Random) -> FilterName:
    """A bound whose integers are those from `end` up ("lo") or down to it
    ("hi"): inclusive at `end`, strict one past it, or a decimal half way
    to the next integer out, inclusive or strict."""
    kind, out = (MinValue, -1) if side == "lo" else (MaxValue, 1)
    style = rng.choice(("inclusive", "strict", "decimal"))
    if style == "inclusive":
        return kind(integer(end), False)
    if style == "strict":
        return kind(integer(end + out), True)
    half = Decimal(2 * end + out) / 2
    return kind(literal(str(half), ns.XSD_DECIMAL), rng.random() < 0.5)


def _extent(datatype: str, rng: random.Random) -> tuple:
    """(filters, first, last, size): the datatype and value bounds every
    combination of a draw holds, a window of integers holding every
    member, and how many values of the datatype the bounds admit.  The
    range is small, empty, exactly `_ENUM_LIMIT` or one more value, or
    sits at an end of the datatype's range."""
    low, high = ns.XSD_INTEGER_RANGES[datatype]
    ends = [end for end in (low, high) if end is not None]
    shape = rng.choice(("small",) * 5 + ("empty", "limit", "past") + ("edge",) * 2 * bool(ends))
    width = {"small": rng.randint(1, 300), "empty": -rng.randint(0, 3), "limit": _ENUM_LIMIT,
             "past": _ENUM_LIMIT + 1}.get(shape)
    if width is not None:
        a = rng.randint(-2000, 2000)
        bounds = {"lo": a, "hi": a + width - 1}
    else:  # at an end of the datatype's range: the bound there absent, on it or past it
        edge = rng.choice(ends)
        width = rng.choice((1, 50, 300, _ENUM_LIMIT, _ENUM_LIMIT + 1))
        past = rng.choice((None, 0, 5))
        if edge == low:
            bounds = {"lo": None if past is None else low - past, "hi": low + width - 1}
        else:
            bounds = {"lo": high - width + 1, "hi": None if past is None else high + past}
    filters = [HasDatatype(datatype)]
    filters += [_value_filter(side, end, rng) for side, end in bounds.items() if end is not None]
    a = max(end for end in (low, bounds["lo"]) if end is not None)
    b = min(end for end in (high, bounds["hi"]) if end is not None)
    first = (low if bounds["lo"] is None else bounds["lo"]) - 2
    last = (high if bounds["hi"] is None else bounds["hi"]) + 2
    return filters, first, last, b - a + 1


def _extras(first: int, last: int, rng: random.Random) -> list:
    """Filters each combination of a draw signs either way: a value bound
    inside the window, length bounds and patterns."""
    extras = [_value_filter(rng.choice(("lo", "hi")), rng.randint(first, last), rng)]
    extras += [MinLength(rng.randint(1, 6)), MaxLength(rng.randint(1, 6))]
    extras += [Matches(p) for p in rng.sample(_PATTERNS, rng.randint(0, 3))]
    return rng.sample(extras, rng.randint(0, len(extras)))


def _excluded(datatype: str, first: int, last: int, rng: random.Random) -> list:
    """Constants near the start of the window: canonical and non-canonical
    forms of the datatype, and literals of other datatypes with the same
    digits."""
    out = []
    for _ in range(rng.randint(0, 3)):
        value = rng.randint(first, min(first + 12, last))
        digits, sign = decimal_form(abs(value)), "-" if value < 0 else ""
        forms = [
            literal(decimal_form(value), datatype),
            literal(f"{sign or '+'}{digits}", datatype),
            literal(f"{sign}0{digits}", datatype),
            literal(f" {decimal_form(value)} ", datatype),
            literal(decimal_form(value), rng.choice(_INTEGER_TYPES)),
            literal(decimal_form(value)),
            literal(f"{value}.0", ns.XSD_DECIMAL),
            iri(f"http://e/{value}"),
        ]
        out.append(rng.choice(forms))
    return out


def test_integer_families_match_the_sign_every_term_reference():
    """Four seeded draws per integer datatype, three combinations each: the
    count, and the witnesses for 0, 1, 5 and one more than the count.  A
    sampled family's witnesses start its members in order."""
    checked = enumerated = 0
    for seed in range(4 * len(_INTEGER_TYPES)):
        rng = random.Random(seed)
        datatype = _INTEGER_TYPES[seed % len(_INTEGER_TYPES)]
        fixed, first, last, size = _extent(datatype, rng)
        extras = _extras(first, last, rng)
        table = TermTable(sorted(fixed + extras, key=FilterName.sort_key))
        rows = _signed_window(fixed + extras, datatype, first, last)
        for _ in range(3):
            signs = [rng.random() < 0.5 for _ in extras]
            combo = FilterCombination(
                positive_eq=frozenset(),
                negative_eq=frozenset(_excluded(datatype, first, last, rng)),
                positive_filters=frozenset(fixed + [f for f, s in zip(extras, signs) if s]),
                negative_filters=frozenset(f for f, s in zip(extras, signs) if not s),
            )
            members = _reference(combo, rows)
            count, _ = gamma_with_witnesses(combo, 0, table)
            # a range past the limit is sampled, and its count reads no pattern
            sampled = size > _ENUM_LIMIT
            patterns = any(isinstance(f, Matches) for f in extras)
            if sampled and patterns:
                assert count.value >= len(members), (seed, combo)
            else:
                assert count.value == len(members), (seed, combo)
            for want in (0, 1, 5, count.value + 1):
                _, witnesses = gamma_with_witnesses(combo, want, table)
                if sampled:
                    assert witnesses == members[: len(witnesses)], (seed, combo, want)
                else:
                    assert witnesses == members[:want], (seed, combo, want)
            checked += 1
            enumerated += not sampled and bool(members)
    assert checked == 156 and enumerated == 50


def test_an_excluded_constant_counts_once_whatever_its_lexical_form():
    """"+3" and "03" denote the canonical element "3": excluded from the
    eleven integers 0 to 10, each leaves ten, and ten witnesses; "3" of
    another datatype leaves all eleven."""
    bounds = frozenset({HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), False),
                        MaxValue(integer(10), False)})
    for lexical, datatype, left in [
        ("3", ns.XSD_INTEGER, 10), ("+3", ns.XSD_INTEGER, 10), ("03", ns.XSD_INTEGER, 10),
        ("3", ns.XSD_NS + "int", 11), ("3", None, 11),
    ]:
        combo = FilterCombination(negative_eq=frozenset({literal(lexical, datatype)}),
                                  positive_filters=bounds)
        count, witnesses = gamma_with_witnesses(combo, 20)
        assert count.value == len(witnesses) == left, lexical


def test_a_finite_integer_family_draws_as_many_witnesses_as_it_counts():
    """For each sign vector over bounds, lengths and a pattern, with each
    form of an excluded constant, both on an enumerated range and on one
    past the limit (where the pattern is left out, as its count does not
    read patterns)."""
    forms = ("7", "+7", "07", " 7", "-0", "+0")
    for top, extra in [(99, [Matches("0$")]), (_ENUM_LIMIT + 10, [])]:
        alphabet = [MinValue(integer(-20), True), MaxValue(integer(top), False),
                    MinLength(2), MaxLength(3), *extra]
        for mask in range(1 << len(alphabet)):
            for lexical in forms:
                combo = FilterCombination(
                    negative_eq=frozenset({literal(lexical, ns.XSD_INTEGER)}),
                    positive_filters=frozenset(
                        [HasDatatype(ns.XSD_INTEGER)]
                        + [f for i, f in enumerate(alphabet) if mask >> i & 1]
                    ),
                    negative_filters=frozenset(f for i, f in enumerate(alphabet) if not mask >> i & 1),
                )
                count, _ = gamma_with_witnesses(combo, 0)
                if count.is_infinite:
                    continue
                _, witnesses = gamma_with_witnesses(combo, count.value + 1)
                assert len(witnesses) == count.value, (combo, lexical)

import hashlib
import inspect
import random
import sys
from itertools import combinations, product

import pytest

from shaclsat import namespaces as ns
from shaclsat.filters import (
    _SAMPLE_ALPHABET,
    _integer_length_count,
    _strings_within,
    ALPHABET_SIZE,
    CapExceeded,
    Cardinality,
    FilterCombination,
    axiomatize,
    canonical_key,
    collect_combinations,
    compatible_combinations,
    gamma,
    gamma_with_witnesses,
    has_pattern_filters,
    term_satisfies_combination,
)
from shaclsat.scl import (
    AtConst,
    AtMostGlobal,
    CountExists,
    EqConst,
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
    Not,
    Rel,
    Top,
    conj,
    conjuncts,
)
from shaclsat.terms import blank, boolean, integer, iri, literal, n3, string

XSD = ns.XSD_NS


def combo(pos=(), neg=(), eq=(), neq=()):
    return FilterCombination(
        positive_eq=frozenset(eq),
        negative_eq=frozenset(neq),
        positive_filters=frozenset(pos),
        negative_filters=frozenset(neg),
    )


# ---- the three stated values -------------------------------------------------


def test_gamma_boolean_is_two():
    assert gamma(combo(pos=[HasDatatype(ns.XSD_BOOLEAN)])) == Cardinality(2)


def test_gamma_integer_interval_is_four():
    c = combo(pos=[
        HasDatatype(ns.XSD_INTEGER),
        MinValue(integer(0), strict=True),
        MaxValue(integer(5), strict=True),
    ])
    assert gamma(c) == Cardinality(4)


def test_gamma_literal_is_infinite():
    assert gamma(combo(pos=[IsLiteral()])).is_infinite


def test_gamma_contradiction_is_zero():
    c = combo(eq=[iri("http://e/c")], neq=[iri("http://e/c")])
    assert gamma(c) == Cardinality(0)


# ---- the brute-force universe oracle ------------------------------------------

# The oracle enumerates a finite universe of canonical-lexical terms, one
# per value class; value-class identification itself is covered separately.
_UNIVERSE = (
    [boolean(True), boolean(False)]
    + [integer(v) for v in range(-12, 13)]
    + [literal(str(v), XSD + "byte") for v in (-128, 0, 125, 126, 127)]
    + [literal(s) for s in ("", "a", "b", "aa", "ab", "ba", "bb")]
    + [literal(s, language="en") for s in ("a", "b")]
    + [literal("a", language="fr")]
    + [iri("http://e/a"), iri("http://e/b"), iri("u:x")]
    + [blank("b0"), blank("b1")]
    + [literal("2.5", ns.XSD_DECIMAL), literal("2020-01-01T00:00:00", ns.XSD_DATETIME)]
    + [literal("opaque", "http://e/custom")]
)


def oracle_count(c: FilterCombination) -> int:
    keys = set()
    for term in _UNIVERSE:
        if term_satisfies_combination(c, term):
            keys.add(canonical_key(term))
    return len(keys)


def test_canonical_key_collapses_lexical_variants():
    assert canonical_key(integer(5)) == canonical_key(literal("05", ns.XSD_INTEGER))
    assert canonical_key(integer(3)) == canonical_key(literal("+3", ns.XSD_INTEGER))
    assert canonical_key(boolean(True)) == canonical_key(literal("1", ns.XSD_BOOLEAN))
    assert canonical_key(integer(5)) != canonical_key(literal("5", XSD + "byte"))
    assert canonical_key(string("a")) != canonical_key(literal("a", language="en"))


_A, _B = iri("http://e/a"), iri("http://e/b")

# combinations whose full canonical extension is inside the universe
_EXACT_COMBOS = [
    combo(pos=[HasDatatype(ns.XSD_BOOLEAN)]),
    combo(pos=[HasDatatype(ns.XSD_BOOLEAN)], neq=[boolean(True)]),
    combo(pos=[HasDatatype(ns.XSD_BOOLEAN), MinValue(boolean(False), strict=True)]),
    combo(pos=[HasDatatype(ns.XSD_BOOLEAN), MaxValue(boolean(True), strict=True)]),
    combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), True), MaxValue(integer(5), True)]),
    combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(-2), False), MaxValue(integer(2), False)]),
    combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), True), MaxValue(integer(1), True)]),
    combo(
        pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), False), MaxValue(integer(9), False)],
        neq=[integer(3)],
    ),
    combo(
        pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), False), MaxValue(integer(9), False)],
        neg=[MinValue(integer(4), False)],
    ),
    combo(pos=[HasDatatype(XSD + "byte"), MinValue(integer(125), False)]),
    combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(literal("2.5", ns.XSD_DECIMAL), True),
               MaxValue(integer(5), True)]),
    combo(pos=[HasDatatype(ns.XSD_BOOLEAN), IsIri()]),
    combo(pos=[HasDatatype(ns.XSD_BOOLEAN), HasLanguage("en")]),
    combo(pos=[HasDatatype(ns.XSD_INTEGER), HasDatatype(ns.XSD_BOOLEAN)]),
    combo(pos=[IsIri(), IsBlank()]),
    combo(pos=[HasLanguage("en"), HasLanguage("fr")]),
    combo(eq=[_A]),
    combo(eq=[_A], pos=[IsLiteral()]),
    combo(eq=[_A, _B]),
    combo(eq=[boolean(True)], pos=[HasDatatype(ns.XSD_BOOLEAN)]),
    combo(pos=[HasDatatype(ns.XSD_DECIMAL), MinValue(literal("2.5", ns.XSD_DECIMAL), False),
               MaxValue(literal("2.5", ns.XSD_DECIMAL), False)]),
    combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(4), True), MaxValue(integer(5), True)]),
]


def test_gamma_matches_bruteforce_oracle_on_exact_combos():
    assert len(_EXACT_COMBOS) >= 20
    for c in _EXACT_COMBOS:
        value = gamma(c)
        assert not value.is_infinite, c
        assert value.value == oracle_count(c), (c, value, oracle_count(c))


def test_gamma_infinite_cases_dominate_oracle():
    for c in [
        combo(),
        combo(pos=[IsIri()]),
        combo(pos=[IsBlank()]),
        combo(pos=[HasLanguage("en")]),
        combo(pos=[HasDatatype(ns.XSD_DECIMAL), MinValue(integer(0), True)]),
        combo(neg=[IsLiteral()]),
        combo(pos=[HasDatatype("http://e/custom")]),
    ]:
        assert gamma(c).is_infinite


def test_gamma_antitone_in_positive_literals():
    base = combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), True),
                      MaxValue(integer(9), True)])
    tighter = combo(pos=[HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), True),
                         MaxValue(integer(9), True), MinValue(integer(3), False)])
    assert tighter.positive_filters >= base.positive_filters
    assert gamma(tighter).value <= gamma(base).value
    flipped = combo(
        pos=[HasDatatype(ns.XSD_INTEGER)],
        neg=[HasDatatype(ns.XSD_INTEGER)],
    )
    assert gamma(flipped) == Cardinality(0)


def test_gamma_string_counting_below_cap_is_exact():
    assert gamma(combo(pos=[HasDatatype(ns.XSD_STRING), MaxLength(0)])) == Cardinality(1)
    one = gamma(combo(pos=[HasDatatype(ns.XSD_STRING), MaxLength(1)]))
    assert one == Cardinality(1 + ALPHABET_SIZE)
    assert gamma(combo(pos=[HasDatatype(ns.XSD_STRING), MinLength(4)])).is_infinite
    assert gamma(combo(pos=[HasDatatype(ns.XSD_STRING), MinLength(4), MaxLength(3)])) == Cardinality(0)


def test_gamma_witnesses_are_valid_and_distinct():
    for c in _EXACT_COMBOS + [combo(), combo(pos=[IsBlank()])]:
        card, witnesses = gamma_with_witnesses(c, 5)
        keys = {canonical_key(w) for w in witnesses}
        assert len(keys) == len(witnesses)
        for w in witnesses:
            assert term_satisfies_combination(c, w)
        if not card.is_infinite:
            assert len(witnesses) == min(card.value, 5)


# ---- combination collection and the axiomatization ----------------------------


def _sentence_with(filters, constants=()):
    body = Top()
    for f in filters:
        body = Filter(f) if isinstance(body, Top) else body
    parts = [Filter(f) for f in filters] + [EqConst(c) for c in constants]
    from shaclsat.scl import conj

    return AtConst(iri("http://e/n"), conj(parts))


def test_collect_combinations_counts():
    # one filter and one constant: 4 sign assignments, none pruned except
    # the (eq n, is-iri n is false)... n is an IRI so nothing prunes
    sentence = _sentence_with([IsIri()], [iri("http://e/n")])
    combos = list(collect_combinations(sentence))
    assert len(combos) <= 4
    sentence = _sentence_with([], [])
    assert list(collect_combinations(AtConst(iri("http://e/n"), Top()))) != []


def test_collect_combinations_prunes_incompatible_pairs():
    sentence = _sentence_with([HasDatatype(ns.XSD_BOOLEAN), IsIri()])
    for c in collect_combinations(sentence):
        assert not (HasDatatype(ns.XSD_BOOLEAN) in c.positive_filters and IsIri() in c.positive_filters)


def test_collect_combinations_cap():
    # pairwise-compatible filters survive pruning, so the full 2^8 stream
    # overruns a cap of 16
    filters = [MinLength(i) for i in range(8)]
    sentence = _sentence_with(filters)
    with pytest.raises(CapExceeded):
        list(collect_combinations(sentence, cap=16))


def _product_combinations(items, pairs, cap, excluded):
    """The walk as it was first written: every sign vector in `product`
    order, the incompatible ones dropped after they are built."""
    emitted = 0
    for signs in product((True, False), repeat=len(items)):
        positives = [item for item, sign in zip(items, signs) if sign]
        if any(pair in pairs for pair in combinations(positives, 2)):
            continue
        negatives = [item for item, sign in zip(items, signs) if not sign]
        emitted += 1
        if emitted > cap:
            raise CapExceeded(f"more than {cap} filter combinations")
        yield FilterCombination(
            positive_eq=frozenset(i for i in positives if not isinstance(i, MinLength)),
            negative_eq=excluded | frozenset(i for i in negatives if not isinstance(i, MinLength)),
            positive_filters=frozenset(i for i in positives if isinstance(i, MinLength)),
            negative_filters=frozenset(i for i in negatives if isinstance(i, MinLength)),
        )


def _drained(combos):
    """The combinations up to the cap, and the cap's message, if any."""
    out = []
    try:
        for c in combos:
            out.append(c)
    except CapExceeded as exc:
        return out, str(exc)
    return out, None


def test_walk_is_the_product_order_without_the_incompatible_vectors():
    rng = random.Random(28)
    for _ in range(300):
        items = [iri(f"http://e/c{i}") for i in range(rng.randint(0, 5))]
        items += [MinLength(i) for i in range(rng.randint(0, 5))]
        pairs = [pair for pair in combinations(items, 2) if rng.random() < rng.random()]
        excluded = frozenset(iri(f"http://e/x{i}") for i in range(rng.randint(0, 2)))
        cap = rng.choice([0, 1, 3, 17, 4096])
        got = _drained(compatible_combinations(items, pairs, cap, excluded))
        expected = _drained(_product_combinations(items, set(pairs), cap, excluded))
        assert got == expected, (items, pairs, cap)
    # ten items, no pair: all 1,024 vectors, and the cap stops on the one past it
    items = [MinLength(i) for i in range(10)]
    assert len(list(compatible_combinations(items, []))) == 1024
    combos, message = _drained(compatible_combinations(items, [], 1000))
    assert len(combos) == 1000 and message == "more than 1000 filter combinations"


def test_walk_visits_one_prefix_per_combination():
    """A constant that differs from m others has m + 2 combinations: all
    constants negated, or one of them alone.  The walk pops one prefix per
    combination, so the count grows linearly in m, and with 17 others it
    runs fewer than 2^11 lines, where a walk over all 2^18 sign vectors
    runs hundreds of thousands.  Lines are counted by tracing the walk, so
    no clock is read."""
    code = compatible_combinations.__code__
    source, first = inspect.getsourcelines(compatible_combinations)
    pops = {first + i for i, line in enumerate(source) if "stack.pop()" in line}
    assert pops
    lines = []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.append(frame.f_lineno)
            return local

        return local

    for others in range(18):
        body = conj([Not(EqConst(iri(f"http://e/d{i}"))) for i in range(others)])
        lines.clear()
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            combos = list(collect_combinations(AtConst(iri("http://e/c"), body)))
        finally:
            sys.settrace(previous)
        assert len(combos) == others + 2
        assert sum(line in pops for line in lines) == others + 2
    assert len(lines) < 2**11


def test_axiomatize_counts_against_the_cap_before_any_gamma(monkeypatch):
    import shaclsat.filters as filters

    calls = []
    real = filters.gamma
    monkeypatch.setattr(filters, "gamma", lambda *args: calls.append(args) or real(*args))
    sentence = _sentence_with([MinLength(i) for i in range(8)])
    with pytest.raises(CapExceeded, match="more than 16 filter combinations"):
        axiomatize(sentence, cap=16)
    assert calls == []
    axiomatize(sentence)  # the constant and the 8 filters hold together
    assert len(calls) == 2**9


def test_axiomatize_boolean_bound_present():
    sentence = AtConst(iri("http://e/n"), CountExists(1, Rel(iri("http://e/R")),
                                                      Filter(HasDatatype(ns.XSD_BOOLEAN))))
    out = axiomatize(sentence)
    bounds = [p for p in conjuncts(out) if isinstance(p, AtMostGlobal)]
    assert any(p.bound == 2 for p in bounds)


def test_axiomatize_no_filters_no_constants_is_identity():
    sentence = AtConst(iri("http://e/n"), Top())
    out = axiomatize(sentence)
    extras = [p for p in conjuncts(out) if isinstance(p, AtMostGlobal)]
    # only the constant's own singleton bound appears
    assert all(p.bound <= 1 for p in extras)


def test_pattern_filters_flagged_not_axiomatized():
    sentence = AtConst(iri("http://e/n"), Filter(Matches("^a")))
    assert has_pattern_filters(sentence)
    out = axiomatize(sentence)
    for part in conjuncts(out):
        if isinstance(part, AtMostGlobal):
            from shaclsat.scl import formula_filters

            assert not any(isinstance(f, Matches) for f in formula_filters(part.body))


def test_axioms_hold_on_generated_canonical_structures():
    # every emitted bound is an upper bound: no canonical structure violates
    # a conjunct of the axiomatization
    import random

    from corpus import graphs_for
    from shaclsat.scl import AtConst, CountExists, Rel, And, Not
    from shaclsat.structures import Evaluator, canonical_structure, with_constants
    from shaclsat.scl import node_constants

    sentences = [
        AtConst(iri("http://e/n"), CountExists(1, Rel(iri("http://corpus.example/r")),
                                               Filter(HasDatatype(ns.XSD_BOOLEAN)))),
        AtConst(iri("http://e/n"), And(Filter(IsIri()), Not(Filter(MinLength(2))))),
        AtConst(iri("http://e/n"), CountExists(2, Rel(iri("http://corpus.example/r")),
                                               Filter(MinValue(integer(0), True)))),
    ]
    for sentence in sentences:
        axioms = [p for p in conjuncts(axiomatize(sentence)) if isinstance(p, AtMostGlobal)]
        for graph in graphs_for(seed=31, count=20, max_size=10):
            structure = with_constants(canonical_structure(graph), node_constants(sentence))
            if len(structure.domain) > 6:
                continue
            ev = Evaluator(structure)
            for axiom in axioms:
                assert not ev.counterexamples(axiom), (axiom, structure.domain)


# ---- every literal family, pinned ---------------------------------------------

_DT = literal("2020-01-03T00:00:00", ns.XSD_DATETIME)
_DEC = literal("2.5", ns.XSD_DECIMAL)
_INF, _NEG_INF = literal("INF", ns.XSD_DOUBLE), literal("-INF", ns.XSD_DOUBLE)

# (alphabet, excluded constant): between them the alphabets reach every
# family and every branch of its count and sampler
_FAMILY_ALPHABETS = [
    ([IsBlank(), IsIri(), MinLength(45), MaxLength(3)], iri(ns.GEN_NS + "fresh:0")),
    ([IsBlank(), IsLiteral(), MaxLength(2)], blank("w0")),
    ([HasLanguage("en"), MinLength(2), MaxLength(3), MaxValue(string("m"), False)],
     literal("aaa", language="en")),
    ([HasDatatype(ns.XSD_BOOLEAN), MinValue(boolean(False), True)], boolean(True)),
    ([HasDatatype(ns.XSD_INTEGER), MinValue(integer(0), False), MaxValue(integer(10), True)], integer(3)),
    ([HasDatatype(ns.XSD_INTEGER), MinValue(integer(-5000), False), MaxValue(integer(100000), False),
      MaxLength(4)], integer(-999)),
    ([HasDatatype(ns.XSD_INTEGER), MinValue(integer(7), True), MaxLength(5)], integer(8)),
    ([HasDatatype(ns.XSD_INTEGER), MaxValue(integer(-3), False)], integer(-3)),
    ([HasDatatype(XSD + "byte"), MinValue(integer(100), False)], literal("127", XSD + "byte")),
    ([HasDatatype(ns.XSD_DECIMAL), MinValue(_DEC, False), MaxValue(_DEC, False),
      MaxValue(integer(2), True)], _DEC),
    ([HasDatatype(ns.XSD_DECIMAL), MinValue(integer(3), False), MaxValue(integer(3), False),
      MinValue(_NEG_INF, False)], literal("3.0", ns.XSD_DECIMAL)),
    ([HasDatatype(ns.XSD_DOUBLE), MinValue(integer(1), True), MinValue(_INF, False),
      MaxValue(_INF, False)], literal("1.5", ns.XSD_DOUBLE)),
    ([HasDatatype(ns.XSD_INTEGER), MinValue(_INF, False), MaxValue(_NEG_INF, False)], integer(0)),
    ([HasDatatype(ns.XSD_INTEGER), HasDatatype(ns.XSD_DECIMAL), HasDatatype(ns.XSD_STRING),
      MinValue(boolean(True), False)], integer(1)),
    ([HasDatatype(ns.XSD_DATETIME), MinValue(_DT, False), MaxValue(_DT, False)],
     literal("2020-01-01T00:00:00", ns.XSD_DATETIME)),
    ([HasDatatype(ns.XSD_STRING), MinValue(string("a"), False), MaxValue(string("a\0\0"), False)],
     string("a\0")),
    ([HasDatatype(ns.XSD_STRING), MaxLength(1)], string("a")),
    ([HasDatatype("http://e/custom"), MinLength(2), MinValue(integer(0), False)],
     literal("v1", "http://e/custom")),
    ([MinValue(integer(0), False), MaxValue(integer(3), True)], integer(1)),
    ([MinValue(string("b"), False), IsLiteral()], string("b")),
    ([MaxValue(boolean(False), False), MinValue(_DT, True)], boolean(False)),
]

# sha1 over (count, witness texts) of every sign combination above,
# measured before the families were described once (a460eaf), then again
# once INF and -INF became the double and float values past the float
# range (the three alphabets with an INF bound changed), then again once
# an excluded constant took its canonical element out of an enumerated
# family whatever its lexical form (one line moved: "3.0"^^xsd:decimal
# excluded from the point 3 counted 1 with no witness, and now counts 0)
FAMILY_DIGEST = "43613c975bef8e5847910d453f4cbcd26402bc3f"


def _family_pin() -> str:
    digest = hashlib.sha1()
    for filters, constant in _FAMILY_ALPHABETS:
        for signs in product((True, False), repeat=len(filters)):
            for excluded in ((), (constant,)):
                c = combo(
                    pos=[f for f, s in zip(filters, signs) if s],
                    neg=[f for f, s in zip(filters, signs) if not s],
                    neq=excluded,
                )
                card, witnesses = gamma_with_witnesses(c, 5)
                digest.update(repr((card.value, [n3(w) for w in witnesses])).encode())
    return digest.hexdigest()


def test_every_literal_family_keeps_its_count_and_witnesses():
    assert _family_pin() == FAMILY_DIGEST


def test_an_excluded_constant_takes_its_element_out_of_an_enumerated_family():
    """A constant of another lexical form than the family's member still
    denotes it: the count drops with the witnesses."""
    point = [HasDatatype(ns.XSD_DECIMAL), MinValue(integer(3), False), MaxValue(integer(3), False)]
    for pos, excluded, left in [
        ([HasDatatype(ns.XSD_BOOLEAN)], literal("1", ns.XSD_BOOLEAN), ["false"]),
        ([HasDatatype(ns.XSD_BOOLEAN)], literal("0", ns.XSD_BOOLEAN), ["true"]),
        (point, literal("3.0", ns.XSD_DECIMAL), []),
        (point, literal("+3", ns.XSD_DECIMAL), []),
        (point, integer(3), ["3"]),
    ]:
        card, witnesses = gamma_with_witnesses(combo(pos=pos, neq=[excluded]), 5)
        assert (card.value, [w.lexical for w in witnesses]) == (len(left), left), excluded



# ---- rdf:langString and values past the float range ---------------------------


def test_lang_string_family_is_the_tagged_literals():
    c = combo(pos=[HasDatatype(ns.RDF_LANGSTRING)])
    card, witnesses = gamma_with_witnesses(c, 3)
    assert card.is_infinite and len(witnesses) == 3
    for w in witnesses:
        assert w.language and term_satisfies_combination(c, w)
    c = combo(pos=[HasDatatype(ns.RDF_LANGSTRING), MaxLength(1)], neg=[HasLanguage("x-t0")])
    card, witnesses = gamma_with_witnesses(c, 2)
    assert card.is_infinite and [w.language for w in witnesses] == ["x-t1", "x-t2"]
    assert gamma(combo(pos=[HasDatatype(ns.RDF_LANGSTRING), MinValue(integer(0), False)])) == Cardinality(0)


def test_language_family_respects_an_excluded_lang_string_datatype():
    c = combo(pos=[HasLanguage("en")], neg=[HasDatatype(ns.RDF_LANGSTRING)])
    assert gamma_with_witnesses(c, 3) == (Cardinality(0), [])
    c = combo(pos=[HasLanguage("en")], neg=[HasDatatype(ns.XSD_STRING)])
    assert gamma(c).is_infinite


_HUGE = "1" * 5000


def test_dense_values_past_the_float_range_are_written_exactly():
    point = literal(_HUGE + ".5", ns.XSD_DECIMAL)
    c = combo(pos=[HasDatatype(ns.XSD_DECIMAL), MinValue(point, False), MaxValue(point, False)])
    assert gamma_with_witnesses(c, 2) == (Cardinality(1), [point])
    c = combo(pos=[HasDatatype(ns.XSD_DECIMAL), MinValue(literal(_HUGE, ns.XSD_INTEGER), True)])
    card, witnesses = gamma_with_witnesses(c, 2)
    assert card.is_infinite
    assert [w.lexical for w in witnesses] == [_HUGE[:-1] + "2", _HUGE[:-1] + "3"]


def test_past_the_float_range_a_double_is_inf():
    huge = literal(_HUGE, ns.XSD_INTEGER)
    c = combo(pos=[HasDatatype(ns.XSD_DOUBLE), MinValue(huge, True)])
    assert gamma_with_witnesses(c, 2) == (Cardinality(1), [literal("INF", ns.XSD_DOUBLE)])
    c = combo(pos=[HasDatatype(ns.XSD_FLOAT), MaxValue(literal("-" + _HUGE, ns.XSD_INTEGER), False)])
    assert gamma_with_witnesses(c, 2) == (Cardinality(1), [literal("-INF", ns.XSD_FLOAT)])
    c = combo(pos=[HasDatatype(ns.XSD_DOUBLE), MinValue(huge, False), MaxValue(huge, False)])
    assert gamma(c) == Cardinality(0)
    # an INF bound: INF meets it inclusively, and no decimal meets it
    inf = literal("INF", ns.XSD_DOUBLE)
    c = combo(pos=[MinValue(inf, False)])
    assert gamma_with_witnesses(c, 3) == (Cardinality(2), [inf, literal("INF", ns.XSD_FLOAT)])
    assert gamma(combo(pos=[HasDatatype(ns.XSD_DOUBLE), MinValue(inf, True)])) == Cardinality(0)
    assert gamma(combo(pos=[HasDatatype(ns.XSD_DECIMAL), MinValue(inf, False)])) == Cardinality(0)
    # a -INF lower bound leaves every decimal
    c = combo(pos=[HasDatatype(ns.XSD_DECIMAL), MinValue(literal("-INF", ns.XSD_DOUBLE), False)])
    card, witnesses = gamma_with_witnesses(c, 2)
    assert card.is_infinite and len(witnesses) == 2


def test_integer_length_count_matches_enumeration():
    rng = random.Random(5)
    for _ in range(2000):
        lo = rng.randint(-12_000, 12_000)
        hi = lo + rng.randint(0, 2_000)
        len_lo = rng.randint(0, 7)
        len_hi = rng.choice([None, rng.randint(0, 7)])
        expected = sum(
            1
            for v in range(lo, hi + 1)
            if len_lo <= len(str(v)) and (len_hi is None or len(str(v)) <= len_hi)
        )
        assert _integer_length_count(lo, hi, len_lo, len_hi) == expected, (lo, hi, len_lo, len_hi)
    # a length bound far past the range's widest form builds no power of it
    assert _integer_length_count(-5, 20, 2, 10**12) == 16  # -5 … -1 and 10 … 20


def _strings_one_character_at_a_time(len_lo, len_hi, n):
    """The bounded string draw as it was first written: each sample built
    one character at a time, least significant base-36 digit first."""
    if len_lo > len_hi:
        return []
    if len_hi == 0:
        return [""]
    out = []
    for i in range(min(n, 36 ** min(len_hi, 8))):
        chars, value = [], i
        for _ in range(len_hi):
            chars.append(_SAMPLE_ALPHABET[value % 36])
            value //= 36
        out.append("".join(chars))
    return out


def test_string_draw_equals_the_per_character_draw():
    # counts past 36 and 36**2 reach indices of two and three digits, and
    # 36**3 + 2 one of four digits in a length of 9, past the 8 that
    # bound the sample count
    for len_lo in (0, 1, 8, 9):
        for len_hi in (0, 1, 2, 8, 9):
            for n in (0, 1, 36, 37, 36**2 + 1):
                expected = _strings_one_character_at_a_time(len_lo, len_hi, n)
                assert _strings_within(len_lo, len_hi, n) == expected, (len_lo, len_hi, n)
    assert _strings_within(0, 9, 36**3 + 2) == _strings_one_character_at_a_time(0, 9, 36**3 + 2)
    assert _strings_within(0, 9, 36**3 + 2)[-1] == "baabaaaaa"

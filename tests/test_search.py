import hashlib
import itertools
from itertools import product

import pytest

from shaclsat import namespaces as ns
from shaclsat.filters import (
    COMBINATION_CAP,
    CapExceeded,
    FilterCombination,
    axiomatize,
    canonical_key,
    gamma_with_witnesses,
)
from shaclsat.gadgets import INFINITY_KINDS, gadget_infinity
from shaclsat.scl import (
    And,
    AtConst,
    AtMostGlobal,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    Filter,
    HasDatatype,
    HasLanguage,
    HasShape,
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
    SAnd,
    Seq,
    ShapeDef,
    Star,
    Top,
    TopSentence,
    conj,
    node_constants,
    sentence_conj,
)
from shaclsat.search import (
    CANONICAL,
    UNINTERPRETED,
    _check_deadline,
    _Cnf,
    _Grounder,
    _order_witnesses,
    bounded_sat,
)
from shaclsat.scl_text import print_scl
from shaclsat.terms import integer, iri, literal, n3, string

EX = "http://e/"
C = iri(EX + "c")
R = iri(EX + "R")
Q = iri(EX + "Q")


def test_top_sat_with_one_element():
    v = bounded_sat(TopSentence(), max_domain=3)
    assert v.is_sat and len(v.model.domain) == 1 and not v.model.graph.triples


def test_propositional_contradiction_unsat_everywhere():
    phi = AtConst(C, And(EqConst(C), Not(EqConst(C))))
    for k in (1, 2, 3, 4):
        v = bounded_sat(phi, max_domain=k)
        assert v.outcome == "UnsatUpTo" and v.bound == k


def test_fig2_sentence_sat_and_model_validates_fig1_document():
    from corpus import doc_ttl
    from shaclsat.direct_validation import validate_direct
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    doc = parse_document(
        doc_ttl(
            ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
            ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
            "sh:disjoint :hasFaculty ."
        )
    )
    sentence = translate(doc)
    v = bounded_sat(sentence, max_domain=3)
    assert v.is_sat
    graph = v.model.to_graph()
    assert validate_direct(graph, doc).conforms


def test_returned_model_is_canonically_least_and_deterministic():
    phi = AtConst(C, CountExists(1, Rel(R), Top()))
    results = [bounded_sat(phi, max_domain=3) for _ in range(3)]
    assert all(v.is_sat for v in results)
    jsons = [v.model.to_json() for v in results]
    assert jsons[0] == jsons[1] == jsons[2]
    # least model: the self-loop at the constant, no fresh elements
    assert jsons[0] == {
        "domain": ["<http://e/c>"],
        "relations": {EX + "R": [["<http://e/c>", "<http://e/c>"]]},
    }


def test_unsat_monotone_over_bounds():
    # trivially unsat: having an R successor contradicts having none
    phi = AtConst(C, And(CountExists(1, Rel(R), Top()),
                         Not(CountExists(1, Rel(R), Top()))))
    for k in (1, 2, 3):
        assert bounded_sat(phi, max_domain=k).outcome == "UnsatUpTo"


def test_min_domain_respects_distinct_constants_in_canonical_mode():
    c2 = iri(EX + "c2")
    phi = SAnd(AtConst(C, Top()), AtConst(c2, Top()))
    v = bounded_sat(phi, max_domain=4)
    assert v.is_sat and len(v.model.domain) == 2
    assert bounded_sat(phi, max_domain=1).outcome == "UnsatUpTo"


def test_constants_may_merge_in_uninterpreted_mode():
    c2 = iri(EX + "c2")
    phi = SAnd(AtConst(C, Top()), AtConst(c2, Top()))
    v = bounded_sat(phi, max_domain=4, mode=UNINTERPRETED)
    assert v.is_sat and len(v.model.domain) == 1


def test_has_shape_is_computed_not_enumerated():
    # unreferenced definition cannot be abused to satisfy anything
    s1 = iri(EX + "s1")
    phi = sentence_conj(
        [
            ShapeDef(s1, Not(Top())),
            AtConst(C, HasShape(s1)),
        ]
    )
    assert bounded_sat(phi, max_domain=3).outcome == "UnsatUpTo"
    phi = sentence_conj(
        [
            ShapeDef(s1, EqConst(C)),
            AtConst(C, HasShape(s1)),
        ]
    )
    v = bounded_sat(phi, max_domain=3)
    assert v.is_sat and (C, s1) in v.model.has_shape


def test_counting_with_thresholds_beyond_domain():
    phi = AtConst(C, CountExists(3, Rel(R), Top()))
    assert bounded_sat(phi, max_domain=2).outcome == "UnsatUpTo"
    v = bounded_sat(phi, max_domain=3)
    assert v.is_sat and len(v.model.domain) == 3


def test_equals_and_disjoint_search():
    phi = AtConst(C, And(Equals(Seq(Rel(R), Rel(R)), Q), CountExists(1, Rel(Q), Top())))
    v = bounded_sat(phi, max_domain=3)
    assert v.is_sat
    phi = AtConst(
        C,
        And(
            CountExists(1, Rel(R), Top()),
            And(Equals(Rel(R), Q), Disjoint(Rel(R), Q)),
        ),
    )
    assert bounded_sat(phi, max_domain=3).outcome == "UnsatUpTo"


def test_star_infinite_chain_demand_unsat():
    # every element reaches c through R-star but has no R edge to anything equal to c
    phi = AtConst(
        C,
        And(
            CountExists(1, Rel(R), Top()),
            Not(CountExists(1, Star(Rel(R)), EqConst(C))),
        ),
    )
    assert bounded_sat(phi, max_domain=3).outcome == "UnsatUpTo"


FILTERS8_TTL = (
    ":s a sh:NodeShape ; sh:targetNode :alice ;\n"
    "  sh:property [ sh:path :name ; sh:minCount 1 ; sh:datatype xsd:string ;\n"
    '                sh:minLength 2 ; sh:maxLength 5 ; sh:pattern "^a" ] ;\n'
    "  sh:property [ sh:path :age ; sh:minCount 1 ; sh:datatype xsd:integer ;\n"
    "                sh:minInclusive 18 ; sh:maxInclusive 99 ] ;\n"
    "  sh:property [ sh:path :friend ; sh:minCount 2 ; sh:nodeKind sh:IRI ] .\n"
)
FILTERS7_TTL = FILTERS8_TTL.replace(' ; sh:pattern "^a"', "")


def _sentences(*bodies):
    from corpus import corpus_documents, doc_ttl
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    texts = [text for _, text in corpus_documents()] + [doc_ttl(body) for body in bodies]
    return [translate(parse_document(text)) for text in texts]


def _sizes(sentence, mode):
    """Sizes up to 5, from the least that holds the constants in canonical mode."""
    return range(max(1, len(node_constants(sentence))) if mode == CANONICAL else 1, 6)


def test_budget_abort():
    from corpus import doc_ttl
    from shaclsat.gadgets import gadget_infinity
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    verdict = bounded_sat(gadget_infinity("O"), max_domain=6, budget=0.02, mode=UNINTERPRETED)
    assert verdict.outcome == "Aborted"
    # grounding (the filter catalog) is the cost here, and each solve stays
    # under the 4,096 propagations between the solver's own clock checks
    filters8 = parse_document(doc_ttl(FILTERS8_TTL))
    verdict = bounded_sat(translate(filters8), max_domain=5, budget=1e-3)
    assert verdict.outcome == "Aborted"


def _expire_after_pre_grounding_check(monkeypatch):
    """Replace the search's clock: `_least_model` reads it once to set the
    deadline and once before grounding the first size; every later reading
    is past the deadline."""
    from types import SimpleNamespace

    import shaclsat.search as search

    clock = itertools.chain([0.0, 0.0], itertools.repeat(1e9))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(clock)))


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_catalog_checks_the_budget_per_filter_combination(monkeypatch):
    """The clock stands still through size 1, whose one slot holds the
    constant, and until three combinations of size 2's catalog are drawn;
    from then on it is past the deadline, so no fourth may be drawn."""
    from types import SimpleNamespace

    from corpus import doc_ttl
    import shaclsat.search as search
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    sentence = translate(parse_document(doc_ttl(FILTERS8_TTL)))
    combos = _count_calls(monkeypatch, search, "gamma_with_witnesses")
    clock = lambda: 1e9 if len(combos) >= 3 else 0.0
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=clock))
    verdict = bounded_sat(sentence, max_domain=5, budget=0.3)
    assert verdict.to_json() == {"outcome": "Aborted", "reason": "budget exhausted at k=2"}
    assert [want for _, want, _ in combos] == [1, 1, 1]


def test_grounding_checks_the_budget_per_conjunct(monkeypatch):
    from shaclsat.gadgets import gadget_infinity

    parts = _count_calls(monkeypatch, _Grounder, "sentence_lit")
    _expire_after_pre_grounding_check(monkeypatch)
    verdict = bounded_sat(gadget_infinity("O"), max_domain=6, budget=0.3, mode=UNINTERPRETED)
    assert verdict.outcome == "Aborted"
    assert parts == []


def _expire_once_grounded(monkeypatch) -> list:
    """Replace the search's clock: it stands still while the first size's
    grounder is built and is past the deadline from then on.  Returns the
    list of grounders built."""
    from types import SimpleNamespace

    import shaclsat.search as search

    built = []
    real_init = _Grounder.__init__

    def init(self, *args):
        real_init(self, *args)
        built.append(self)

    monkeypatch.setattr(_Grounder, "__init__", init)
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: 1e9 if built else 0.0))
    return built


def test_gate_pass_checks_the_budget_before_any_solver_run(monkeypatch):
    """Once the first size is grounded the clock is past the deadline: the
    one-sided pass over the gates, the next step, answers Aborted before
    any solver runs."""
    import shaclsat.search as search
    from shaclsat.gadgets import gadget_infinity

    built = _expire_once_grounded(monkeypatch)
    passes = _count_calls(monkeypatch, _Cnf, "one_sided")
    runs = _count_calls(monkeypatch, search._Solver, "solve")
    verdict = bounded_sat(gadget_infinity("O"), max_domain=6, budget=0.3, mode=UNINTERPRETED)
    assert verdict.to_json() == {"outcome": "Aborted", "reason": "budget exhausted at k=1"}
    assert len(built) == len(passes) == 1 and runs == []


def test_containment_checks_the_budget_per_refuted_part(monkeypatch):
    """The clock stands still while the first size's grounder is built and
    is past the deadline from then on, so no refuted part of the second
    document may be grounded."""
    from corpus import doc_ttl
    from shaclsat.containment import check_containment
    from shaclsat.shapes import parse_document

    built = _expire_once_grounded(monkeypatch)
    real_lit = _Grounder.sentence_lit
    late = []

    def sentence_lit(self, part):
        if built:
            late.append(part)
        return real_lit(self, part)

    monkeypatch.setattr(_Grounder, "sentence_lit", sentence_lit)
    doc1 = parse_document(doc_ttl(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 1 ."))
    doc2 = parse_document(doc_ttl(
        ":t a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 2 .\n"
        ":u a sh:NodeShape ; sh:targetNode :b ; sh:class :B ."
    ))
    verdict = check_containment(doc1, doc2, max_domain=3, budget=0.3)
    assert verdict.outcome == "Aborted"
    assert len(built) == 1 and late == []


def test_verdict_json_shapes():
    v = bounded_sat(TopSentence(), max_domain=2)
    data = v.to_json()
    assert data["outcome"] == "Sat" and "model" in data
    v = bounded_sat(AtConst(C, Not(Top())), max_domain=2)
    assert v.to_json() == {"outcome": "UnsatUpTo", "bound": 2}


def test_axiomatized_search_respects_filter_cardinalities():
    boolish = Filter(HasDatatype(ns.XSD_BOOLEAN))
    phi = AtConst(C, CountExists(3, Rel(R), boolish))
    assert bounded_sat(phi, max_domain=4).outcome == "UnsatUpTo"
    assert bounded_sat(phi, max_domain=4, mode=UNINTERPRETED).is_sat
    assert bounded_sat(axiomatize(phi), max_domain=4, mode=UNINTERPRETED).outcome == "UnsatUpTo"


def test_at_most_global_constraints_are_enforced():
    phi = sentence_conj(
        [
            AtConst(C, CountExists(2, Rel(R), Filter(IsIri()))),
            AtMostGlobal(1, Filter(IsIri())),
        ]
    )
    assert bounded_sat(phi, max_domain=4, mode=UNINTERPRETED).outcome == "UnsatUpTo"


def test_equal_subformulas_share_one_literal():
    s1 = iri(EX + "s1")

    def built():
        return And(CountExists(1, Seq(Rel(R), Rel(Q)), Top()), Not(HasShape(s1)))

    sentence = SAnd(AtConst(C, built()), ShapeDef(s1, Top()))
    grounder = _Grounder(sentence, 3, UNINTERPRETED)
    for i in range(3):
        assert grounder.formula_lit(built(), i) == grounder.formula_lit(built(), i)


@pytest.mark.parametrize("q_value, outcome", [(3, "UnsatUpTo"), (5, "UnsatUpTo"), (7, "Sat")])
def test_order_atom_between_two_constants(q_value, outcome):
    from corpus import doc_ttl
    from shaclsat.direct_validation import validate_direct
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    doc = parse_document(doc_ttl(
        ":s a sh:NodeShape ; sh:targetNode :alice ;\n"
        "    sh:property [ sh:path :p ; sh:hasValue 5 ] ;\n"
        f"    sh:property [ sh:path :q ; sh:hasValue {q_value} ] ;\n"
        "    sh:property [ sh:path :p ; sh:lessThan :q ] ."
    ))
    v = bounded_sat(translate(doc), max_domain=4)
    assert v.outcome == outcome
    if v.is_sat:
        # :alice, 5 and 7 are constants, so the order atom compares two fixed slots
        assert len(v.model.domain) == 3
        assert validate_direct(v.model.to_graph(), doc).conforms


def _parent_build_catalog(
    constants: list,
    filters: list,
    fresh_count: int,
    order_needed: bool,
    deadline=None,
) -> list:
    """The catalog builder as it was before the term table: every size
    solves every combination again and tests every term from scratch."""
    taken = {canonical_key(c) for c in constants}
    catalog: list = []

    def push(term) -> None:
        key = canonical_key(term)
        if key not in taken:
            taken.add(key)
            catalog.append(term)

    for i in range(fresh_count):
        push(iri(f"{ns.GEN_NS}elem:{i}"))
    if filters:
        if 2 ** len(filters) > COMBINATION_CAP:
            raise CapExceeded(f"filter alphabet too large for catalog ({len(filters)} filters)")
        for signs in product((True, False), repeat=len(filters)):
            _check_deadline(deadline)
            combo = FilterCombination(
                positive_filters=frozenset(f for f, s in zip(filters, signs) if s),
                negative_filters=frozenset(f for f, s in zip(filters, signs) if not s),
                negative_eq=frozenset(constants),
            )
            _, witnesses = gamma_with_witnesses(combo, fresh_count)
            for term in witnesses:
                push(term)
    if order_needed:
        for term in _order_witnesses(fresh_count):
            push(term)
    return catalog


# sha1 of the 254 catalogs below, measured before the term table (b5d388d)
CATALOG_DIGEST = "b732fe8555499a96b4adbf24972ea7542bb1e26b"


def test_catalog_from_one_term_table_matches_the_rebuilt_catalog():
    """Sizes 1 to 5 share one search plan, and so one term table and one
    walk over the filter combinations, as in a search; each size's catalog
    is the one rebuilt from scratch, in the same order, and the one built
    before the table."""
    digest = hashlib.sha1()
    for sentence in _sentences(FILTERS8_TTL, FILTERS7_TTL):
        plan = None
        for k in _sizes(sentence, CANONICAL):
            grounder = _Grounder(sentence, k, CANONICAL, plan)
            plan = grounder.plan
            fresh = k - len(grounder.constants)
            expected = _parent_build_catalog(
                grounder.constants, grounder.filters, fresh, grounder.plan.order_needed
            )
            expected += [iri(f"{ns.GEN_NS}extra:{i}") for i in range(fresh - len(expected))]
            assert grounder.catalog == expected, (k, sentence)
            digest.update(repr([n3(t) for t in grounder.catalog]).encode())
    assert digest.hexdigest() == CATALOG_DIGEST


def test_search_tests_each_filter_at_each_term_once(monkeypatch):
    """Within the search (catalog and grounding; the re-evaluation of the
    model afterwards is an independent check), no (filter, term) pair is
    tested twice.  Every test of a filter at a term runs a predicate that
    `term_test` built, `term_satisfies` included, so each one is counted."""
    import shaclsat
    import shaclsat.filter_semantics as semantics
    import shaclsat.search as search

    [sentence] = _sentences(FILTERS8_TTL)[-1:]
    calls = []
    searching = []
    real = semantics.term_test

    def counted(name):
        test = real(name)

        def run(term):
            if searching:
                calls.append((name, term))
            return test(term)

        return run

    for module in [m for m in vars(shaclsat).values() if getattr(m, "term_test", None) is real]:
        monkeypatch.setattr(module, "term_test", counted)
    real_least = search._least_model

    def least_model(*args, **kwargs):
        searching.append(True)
        try:
            return real_least(*args, **kwargs)
        finally:
            searching.pop()

    monkeypatch.setattr(search, "_least_model", least_model)
    assert bounded_sat(sentence, max_domain=5).is_sat
    assert calls and len(calls) == len(set(calls))


def test_search_draws_each_dense_sample_once(monkeypatch):
    """One canonical search draws each decimal, double and float sample
    once per (bounds, datatype, n), however many combinations and sizes
    read it."""
    import shaclsat.filters as filters

    [sentence] = _sentences(FILTERS8_TTL)[-1:]
    draws = []
    real = filters._dense_sample

    def counted(bounds, datatype, n):
        draws.append((bounds.lo, bounds.hi, datatype, n))
        return real(bounds, datatype, n)

    monkeypatch.setattr(filters, "_dense_sample", counted)
    assert bounded_sat(sentence, max_domain=5).is_sat
    assert draws and len(draws) == len(set(draws))


def test_no_term_table_outlives_its_search(monkeypatch):
    """With the cycle collector off, every term table a search builds is
    freed by the time `bounded_sat` returns: no family refers back to its
    table."""
    import gc
    import weakref

    import shaclsat.search as search

    tables = []
    real = search.TermTable

    def tracked(filters):
        table = real(filters)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(search, "TermTable", tracked)
    [sentence] = _sentences(FILTERS8_TTL)[-1:]
    gc.collect()
    gc.disable()
    try:
        verdict = bounded_sat(sentence, max_domain=5)
        assert verdict.is_sat and tables
        assert all(ref() is None for ref in tables)
    finally:
        gc.enable()


# what a search prepares once: the scans of its signature, and in canonical
# mode its term table and its walk over the filter combinations
_SCANS = ("relation_names", "node_constants", "shape_definitions")
_CANONICAL_PREPARATION = ("TermTable", "incompatible_pairs", "compatible_combinations")
_PREPARATION = _SCANS + _CANONICAL_PREPARATION


def test_each_search_is_prepared_once_for_all_its_sizes(monkeypatch):
    """However many sizes a search grounds, it scans its signature once; a
    canonical search with a free slot builds one term table and walks the
    filter combinations once, and an uninterpreted one does neither.
    Scanning again for each size took one scan per size, and one more
    `node_constants` for the least size."""
    import shaclsat.search as search
    from corpus import CONTAINMENT_PAIRS, doc_ttl
    from shaclsat.containment import check_containment
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    sentence = translate(parse_document(doc_ttl(FILTERS8_TTL)))
    [(first, second)] = [(a, b) for name, a, b, _ in CONTAINMENT_PAIRS if name == "dropped_range"]
    first, second = parse_document(first), parse_document(second)
    gadget = gadget_infinity("O")
    searches = [
        # `sh:pattern "^a"` leaves the catalog short of witnesses up to 3 elements
        (lambda: bounded_sat(sentence, max_domain=3), "Aborted", True),
        (lambda: bounded_sat(sentence, max_domain=5), "Sat", True),
        (lambda: bounded_sat(gadget, max_domain=6, mode=UNINTERPRETED), "UnsatUpTo", False),
        (lambda: check_containment(first, second, max_domain=4), "NotContained", True),
    ]
    for run, outcome, canonical in searches:
        sizes = _count_calls(monkeypatch, _Grounder, "__init__")
        calls = {name: _count_calls(monkeypatch, search, name) for name in _PREPARATION}
        assert run().outcome == outcome
        assert len(sizes) >= 2
        once = dict.fromkeys(_SCANS, 1) | dict.fromkeys(_CANONICAL_PREPARATION, int(canonical))
        assert {name: len(made) for name, made in calls.items()} == once, outcome
        monkeypatch.undo()


def test_filter_combinations_are_walked_only_for_a_free_slot(monkeypatch):
    """13 pairwise compatible `sh:minLength` filters have more combinations
    than the cap.  At one element the one slot holds `:a`, so no
    combination is walked and the answer is a refutation; at two the free
    slot walks them, and the search stops at the cap."""
    import shaclsat.search as search
    from corpus import doc_ttl
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    lengths = " ; ".join(
        f"sh:property [ sh:path :p{n} ; sh:minCount 1 ; sh:minLength {n} ]" for n in range(100, 113)
    )
    body = f":s a sh:NodeShape ; sh:targetNode :a ; {lengths} ."
    sentence = translate(parse_document(doc_ttl(body)))
    pairs = _count_calls(monkeypatch, search, "incompatible_pairs")
    walks = _count_calls(monkeypatch, search, "compatible_combinations")
    assert bounded_sat(sentence, max_domain=1).to_json() == {"outcome": "UnsatUpTo", "bound": 1}
    assert pairs == walks == []
    reason = "filter catalog cap reached: more than 4096 filter combinations"
    assert bounded_sat(sentence, max_domain=2).to_json() == {"outcome": "Aborted", "reason": reason}
    assert len(pairs) == len(walks) == 1


def _signed_terms(monkeypatch, run) -> tuple[int, int]:
    """(terms, integer-typed terms) a term table signs while `run()` runs."""
    import shaclsat.filters as filters

    signed = []
    real = filters.TermTable.entry

    def entry(table, term):
        if term not in table._terms:
            signed.append(term)
        return real(table, term)

    monkeypatch.setattr(filters.TermTable, "entry", entry)
    run()
    monkeypatch.undo()
    integers = [t for t in signed if t.is_literal and t.datatype in ns.XSD_INTEGER_RANGES]
    return len(signed), len(integers)


def test_an_integer_range_signs_only_the_witnesses_drawn_from_it(monkeypatch):
    """A canonical search over the 8-filter document signs the same number
    of integer literals however wide the age range: an enumerated range is
    read off its decimal forms, and only the witnesses handed to the
    catalog are signed.  Signing every literal of the range took 1,614,
    9,714 and 36,714 of them.  The axiomatization counts without a draw,
    so it signs no integer literal."""
    counts = []
    for top in (99, 999, 3999):
        text = FILTERS8_TTL.replace("sh:maxInclusive 99", f"sh:maxInclusive {top}")
        [sentence] = _sentences(text)[-1:]
        counts.append(_signed_terms(monkeypatch, lambda: bounded_sat(sentence, max_domain=5)))
    assert counts == [(689, 287), (686, 284), (686, 284)]
    [sentence] = _sentences(FILTERS8_TTL)[-1:]
    assert _signed_terms(monkeypatch, lambda: axiomatize(sentence)) == (1, 0)


def test_the_axioms_count_an_excluded_non_canonical_integer_once():
    """Six distinct `:p` values in [0, 4] do not exist.  "+3" is the
    integer 3, so the axioms allow four integers of [0, 4] other than it;
    allowing five let the axiomatized uninterpreted search find a model
    with seven elements."""
    body = (
        ":s a sh:NodeShape ; sh:targetNode :a ;\n"
        "  sh:property [ sh:path :p ; sh:minCount 6 ; sh:datatype xsd:integer ;\n"
        "                sh:minInclusive 0 ; sh:maxInclusive 4 ] ;\n"
        '  sh:property [ sh:path :q ; sh:hasValue "+3"^^xsd:integer ] .\n'
    )
    [sentence] = _sentences(body)[-1:]
    verdict = bounded_sat(axiomatize(sentence), max_domain=7, mode=UNINTERPRETED)
    assert verdict.outcome == "UnsatUpTo" and verdict.bound == 7


# sha1 of the 529 CNFs below.  Re-pinned when the uninterpreted lex-leader
# constraints moved from adjacent swaps with a seven-clause chain step to
# every slot transposition with a three-clause step (only the leader's
# auxiliaries and clauses changed), and again when `_Cnf.aux_and` stopped
# repeating an operand in its clauses and answered false for l and not l,
# and again when the leader's last compared position of each transposition
# stopped making a chain variable that no clause after it reads.  Re-pinned
# once more when the digest moved from every grounded clause to the clauses
# the solver reads, with each gate's definition cut to the polarities it is
# used in (`_Cnf.one_sided`).  Re-pinned when each free canonical slot took
# one order ladder in place of the pairwise at-most-one and ascent clauses
# (`_Cnf.ascending_choices`): the canonical CNFs gained the ladders' rungs
# and clauses; the uninterpreted CNFs did not move
CNF_DIGEST = "c0ac2436c21acc27c817f5f47130ba67743f98bf"


def test_cnf_of_corpus_and_filter_documents_is_pinned():
    digest = hashlib.sha1()
    for sentence in _sentences(FILTERS8_TTL, FILTERS7_TTL):
        for mode in (CANONICAL, UNINTERPRETED):
            for k in _sizes(sentence, mode):
                g = _Grounder(sentence, k, mode)
                clauses = g.cnf.one_sided(None)
                state = (k, mode, g.cnf.n_vars, clauses, g.decision_vars, sorted(g.preferred.items()))
                digest.update(repr(state).encode())
    assert digest.hexdigest() == CNF_DIGEST


# the filters and constants the random sentences of AXIOM_DIGEST draw from
_AXIOM_FILTERS = [
    IsIri(), IsLiteral(), IsBlank(), HasDatatype(ns.XSD_INTEGER), HasDatatype(ns.XSD_STRING),
    HasDatatype(ns.XSD_BOOLEAN), HasLanguage("en"), MinValue(integer(0), False),
    MaxValue(integer(10), True), MinValue(string("b"), True), MinLength(2), MaxLength(3),
    Matches("^a"),
]
_AXIOM_CONSTANTS = [C, iri(EX + "d"), string("ab"), integer(3), literal("x", language="en")]


def _random_filter_sentences(seed: int, count: int) -> list:
    """A constant meets, or has successors that meet, a random signed
    conjunction of filters and constant equalities."""
    import random

    rng = random.Random(seed)
    sentences = []
    for _ in range(count):
        atoms = [Filter(f) for f in rng.sample(_AXIOM_FILTERS, rng.randint(0, 5))]
        atoms += [EqConst(c) for c in rng.sample(_AXIOM_CONSTANTS, rng.randint(0, 2))]
        body = conj([a if rng.random() < 0.6 else Not(a) for a in atoms])
        if rng.random() < 0.5:
            body = CountExists(rng.randint(1, 2), Rel(R), body)
        sentences.append(AtConst(rng.choice(_AXIOM_CONSTANTS), body))
    return sentences


def test_short_catalog_reason_names_the_negative_filters():
    # the combination the catalog falls short of for FILTERS7_TTL is empty
    # only because of its negated sh:maxLength 5 (length 6 or more)
    from corpus import doc_ttl
    from shaclsat.containment import check_containment
    from shaclsat.shapes import parse_document

    doc = parse_document(doc_ttl(FILTERS7_TTL))
    verdict = check_containment(doc, doc, max_domain=3, budget=60)
    assert verdict.outcome == "Aborted"
    assert "(not (filter max-length 5))" in verdict.reason
    assert "(eq " not in verdict.reason  # the excluded constants are left out


def test_short_catalog_reason_of_an_all_negative_combination_is_not_top():
    # random sentence 14 falls short of a combination with no positive filter
    verdict = bounded_sat(_random_filter_sentences(5, 120)[14], max_domain=3, budget=60)
    assert verdict.outcome == "Aborted"
    assert "(top)" not in verdict.reason
    assert "(not (filter min-length 2))" in verdict.reason


# sha1 of the axiomatizations below (a `CapExceeded` contributes its
# message), measured before a literal family became a count and a draw
AXIOM_DIGEST = "7af9b6fb56ca4e6b73a6559f53af907861e57eb7"


def test_axiomatizations_are_pinned():
    digest = hashlib.sha1()
    sentences = _sentences(FILTERS8_TTL, FILTERS7_TTL) + _random_filter_sentences(5, 120)
    # 13 filters that hold together: more combinations than the cap
    sentences.append(AtConst(C, conj([Filter(MinLength(n)) for n in range(1, 14)])))
    for sentence in sentences:
        try:
            text = print_scl(axiomatize(sentence))
        except CapExceeded as exc:
            text = str(exc)
        digest.update(text.encode())
    assert digest.hexdigest() == AXIOM_DIGEST


# sha1 of the verdicts below, models and counterexamples included
MODEL_DIGEST = "252aba1ee0c25174293db0abc0c3026c337035ad"


def test_models_and_counterexamples_are_pinned():
    import json

    from corpus import CONTAINMENT_PAIRS
    from shaclsat.containment import check_containment
    from shaclsat.gadgets import TilingSystem, gadget_domino
    from shaclsat.shapes import parse_document

    verdicts = [
        bounded_sat(sentence, max_domain=3, budget=60, mode=mode)
        for sentence in _sentences()
        for mode in (CANONICAL, UNINTERPRETED)
    ]
    verdicts += [
        check_containment(parse_document(first), parse_document(second), max_domain=3, budget=60)
        for _, first, second, _ in CONTAINMENT_PAIRS
    ]
    single = TilingSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
    verdicts += [
        bounded_sat(gadget_domino(variant, single), max_domain=k, budget=60, mode=UNINTERPRETED)
        for variant, k in (("SO", 1), ("SAC", 1), ("SEC", 1), ("SEOprime", 1), ("SZAE", 2))
    ]
    digest = hashlib.sha1()
    for v in verdicts:
        digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == MODEL_DIGEST


# sha1 of the verdicts below, models and counterexamples included, measured
# before the canonical slots took one order ladder each
FILTER_MODEL_DIGEST = "2ea482195cdf3739a49d774cf5d07f2fe285e4bf"


def test_filter_models_and_counterexamples_are_pinned():
    """The canonical search where its slot encoding costs most: the filter
    documents at 5 elements and the containment questions at 4."""
    import json

    from corpus import CONTAINMENT_PAIRS, doc_ttl
    from shaclsat.containment import check_containment
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    verdicts = [
        bounded_sat(translate(parse_document(doc_ttl(body))), max_domain=5, budget=60)
        for body in (FILTERS8_TTL, FILTERS7_TTL)
    ]
    verdicts += [
        check_containment(parse_document(first), parse_document(second), max_domain=4, budget=60)
        for _, first, second, _ in CONTAINMENT_PAIRS
    ]
    digest = hashlib.sha1()
    for v in verdicts:
        digest.update(json.dumps(v.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == FILTER_MODEL_DIGEST


def test_at_least_more_than_there_are_is_false_without_new_clauses():
    cnf = _Cnf()
    lits = [cnf.new_var() for _ in range(3)]
    clauses = list(cnf.clauses)
    assert cnf.at_least(lits, 4) == cnf.false_lit
    assert cnf.at_least(lits, 10**5000) == cnf.false_lit
    assert cnf.clauses == clauses


def test_conjunction_of_repeated_or_clashing_operands():
    cnf = _Cnf()
    a, b = cnf.new_var(), cnf.new_var()
    clauses = list(cnf.clauses)
    assert cnf.aux_and([a, a, cnf.true_lit]) == a
    assert cnf.aux_and([a, b, -a]) == cnf.false_lit
    assert cnf.aux_or([b, -b]) == cnf.true_lit
    assert cnf.clauses == clauses
    v = cnf.aux_and([a, b, a])
    assert cnf.clauses[len(clauses):] == [[-v, a], [-v, b], [v, -a, -b]]


def test_no_gadget_clause_repeats_a_literal():
    """Squaring a star matrix puts each entry twice into a disjunction; the
    grounded clauses still name each literal once."""
    for kind in INFINITY_KINDS:
        for k in range(1, 7):
            clauses = _Grounder(gadget_infinity(kind), k, UNINTERPRETED).cnf.clauses
            assert all(len(set(clause)) == len(clause) for clause in clauses), (kind, k)


def _propagate_every_assignment(n_vars: int, clauses, decisions: list[int]):
    """Unit propagation from every assignment of `decisions` at once.  Bit
    i of a mask stands for the assignment that makes decisions[j] true
    exactly when bit j of i is set.  Returns the mask of the assignments
    whose propagation meets a conflict, and per variable the masks of the
    assignments that fix it true and false."""
    width = 1 << len(decisions)
    every = (1 << width) - 1
    true, false = [0] * (n_vars + 1), [0] * (n_vars + 1)
    for j, v in enumerate(decisions):
        half = 1 << j  # bit j of i is set on the upper half of each 2 * half run
        true[v] = (((1 << half) - 1) << half) * (every // ((1 << 2 * half) - 1))
        false[v] = every ^ true[v]

    def holds(lit: int) -> list[int]:
        """The masks, by variable, on which `lit`'s variable gives it true."""
        return true if lit > 0 else false

    def fails(lit: int) -> int:
        return (false if lit > 0 else true)[abs(lit)]

    refuted, changed = 0, True
    while changed:
        changed = False
        for clause in clauses:
            all_false = every
            for lit in clause:
                all_false &= fails(lit)
            refuted |= all_false
            for lit in clause:
                others_false = every
                for other in clause:
                    if other != lit:
                        others_false &= fails(other)
                forced = others_false & ~holds(lit)[abs(lit)]
                if forced:
                    holds(lit)[abs(lit)] |= forced
                    changed = True
    for v in range(1, n_vars + 1):
        refuted |= true[v] & false[v]
    return refuted, true, false


def test_slot_ladders_admit_exactly_one_ascending_choice_per_slot():
    """For every assignment of the choice literals of 1 to 3 free slots over
    a catalog of 1 to 6 terms, the slot clauses admit it exactly when each
    slot picks one term and the picked indices strictly ascend; unit
    propagation from an admitted assignment fixes every ladder variable,
    and a refused one meets a conflict."""
    for n in range(1, 7):
        for slots in range(1, 4):
            cnf = _Cnf()
            rows = [[cnf.new_var() for _ in range(n)] for _ in range(slots)]
            cnf.ascending_choices(rows)
            assert len(cnf.clauses) - 1 <= 4 * n * slots
            decisions = [v for row in rows for v in row]
            refuted, true, false = _propagate_every_assignment(cnf.n_vars, cnf.clauses, decisions)
            admitted = ((1 << (1 << len(decisions))) - 1) & ~refuted
            expected = 0
            for columns in itertools.combinations(range(n), slots):
                expected |= 1 << sum(1 << (s * n + t) for s, t in enumerate(columns))
            assert admitted == expected, (n, slots)
            for v in range(1, cnf.n_vars + 1):
                assert (true[v] | false[v]) & admitted == admitted, (n, slots, v)


def test_canonical_clauses_grow_linearly_in_catalog_and_free_slots():
    """`FILTERS8_TTL`'s clauses per catalog term and free slot do not grow
    with the size, as they did while every slot paired its choices."""
    from corpus import doc_ttl
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    sentence = translate(parse_document(doc_ttl(FILTERS8_TTL)))
    counts, ratios = [], []
    for k in range(2, 6):
        grounder = _Grounder(sentence, k, CANONICAL)
        counts.append(len(grounder.cnf.one_sided(None)))
        ratios.append(counts[-1] / (len(grounder.catalog) * (k - len(grounder.constants))))
    assert counts[-1] < 5000, counts
    assert ratios == sorted(ratios, reverse=True), ratios


# Eight typed properties of one focus node, 13 filters: 8,192 sign vectors,
# of which the incompatible pairs (datatypes, node kinds, tags) leave 260
FILTERS13_TTL = (
    ":s a sh:NodeShape ; sh:targetNode :a ;\n"
    "  sh:property [ sh:path :p1 ; sh:minCount 1 ; sh:datatype xsd:string ; sh:maxLength 8 ] ;\n"
    "  sh:property [ sh:path :p2 ; sh:minCount 1 ; sh:datatype xsd:integer ;\n"
    "                sh:minInclusive 0 ; sh:maxInclusive 150 ] ;\n"
    "  sh:property [ sh:path :p3 ; sh:minCount 1 ; sh:datatype xsd:date ] ;\n"
    "  sh:property [ sh:path :p4 ; sh:minCount 1 ; sh:nodeKind sh:IRI ] ;\n"
    "  sh:property [ sh:path :p5 ; sh:minCount 1 ; sh:datatype xsd:string ; sh:minLength 2 ] ;\n"
    "  sh:property [ sh:path :p6 ; sh:minCount 1 ; sh:datatype xsd:boolean ] ;\n"
    '  sh:property [ sh:path :p7 ; sh:minCount 1 ; sh:languageIn ( "en" "de" ) ] ;\n'
    "  sh:property [ sh:path :p8 ; sh:minCount 1 ; sh:datatype xsd:decimal ; sh:minExclusive 0 ] .\n"
)


def test_thirteen_filter_shape_answers_sat_at_seven_elements():
    """13 filters have 8,192 sign vectors, past the cap of 4,096, but only
    260 compatible ones, and the catalog walks only those: the document is
    answered.  Its least model has seven elements, and k = 7 grounds in
    under 20,000 clauses."""
    from corpus import doc_ttl
    from shaclsat.direct_validation import validate_direct
    from shaclsat.filters import incompatible_pairs
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    doc = parse_document(doc_ttl(FILTERS13_TTL))
    sentence = translate(doc)
    grounder = _Grounder(sentence, 7, CANONICAL)
    assert len(grounder.filters) == 13
    pairs = set(incompatible_pairs(grounder.filters, []))
    compatible = [
        signs for signs in product((True, False), repeat=13)
        if not any(pair in pairs for pair in itertools.combinations(
            [f for f, sign in zip(grounder.filters, signs) if sign], 2))
    ]
    assert len(compatible) == 260
    assert len(grounder.cnf.clauses) < 20_000
    verdict = bounded_sat(sentence, max_domain=7, budget=60)
    assert verdict.is_sat and len(verdict.model.domain) == 7
    assert validate_direct(verdict.model.graph, doc).conforms

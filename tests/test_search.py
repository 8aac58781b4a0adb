import itertools

import pytest

from shaclsat import namespaces as ns
from shaclsat.filters import axiomatize
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
    HasShape,
    IsIri,
    Not,
    Rel,
    SAnd,
    Seq,
    ShapeDef,
    Star,
    Top,
    TopSentence,
    sentence_conj,
)
from shaclsat.search import UNINTERPRETED, _Grounder, bounded_sat
from shaclsat.terms import iri

EX = "http://e/"
C = iri(EX + "c")
R = iri(EX + "R")
Q = iri(EX + "Q")


def test_top_sat_with_one_element():
    v = bounded_sat(TopSentence(), max_domain=3)
    assert v.is_sat and len(v.model.domain) == 1 and not v.model.relations


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
    assert jsons[0]["domain"] == ["<http://e/c>"]
    assert jsons[0]["relations"] == {EX + "R": [["<http://e/c>", "<http://e/c>"]]}


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

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_catalog_checks_the_budget_per_filter_combination(monkeypatch):
    from corpus import doc_ttl
    import shaclsat.search as search
    from shaclsat.shapes import parse_document
    from shaclsat.translate import translate

    sentence = translate(parse_document(doc_ttl(FILTERS8_TTL)))
    combos = _count_calls(monkeypatch, search, "gamma_with_witnesses")
    _expire_after_pre_grounding_check(monkeypatch)
    verdict = bounded_sat(sentence, max_domain=5, budget=0.3)
    assert verdict.outcome == "Aborted"
    assert combos == []


def test_grounding_checks_the_budget_per_conjunct(monkeypatch):
    from shaclsat.gadgets import gadget_infinity

    parts = _count_calls(monkeypatch, _Grounder, "sentence_lit")
    _expire_after_pre_grounding_check(monkeypatch)
    verdict = bounded_sat(gadget_infinity("O"), max_domain=6, budget=0.3, mode=UNINTERPRETED)
    assert verdict.outcome == "Aborted"
    assert parts == []


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

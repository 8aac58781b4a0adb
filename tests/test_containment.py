from corpus import corpus_documents, doc_ttl
from shaclsat.containment import (
    check_containment,
    reduce_constraint_containment,
    reduce_constraint_sat,
)
from shaclsat.direct_validation import validate_direct
from shaclsat.search import bounded_sat
from shaclsat.shapes import NOT, Constraint, parse_document
from shaclsat.terms import iri
from shaclsat.translate import translate

EX = "http://corpus.example/"


def _doc(body: str):
    return parse_document(doc_ttl(body))


def test_every_document_contains_itself():
    for name, text in list(corpus_documents())[:12]:
        doc = parse_document(text)
        verdict = check_containment(doc, doc, max_domain=2, budget=20)
        assert verdict.outcome == "NoCounterexampleUpTo", name


def test_min_count_strengthening_is_contained():
    d1 = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 2 .")
    d2 = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 1 .")
    verdict = check_containment(d1, d2, max_domain=4, budget=30)
    assert verdict.outcome == "NoCounterexampleUpTo" and verdict.bound == 4


def test_min_count_weakening_has_witness():
    d1 = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 1 .")
    d2 = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 2 .")
    verdict = check_containment(d1, d2, max_domain=4, budget=30)
    assert verdict.outcome == "NotContained"
    graph = verdict.counterexample
    assert len({x for s, _, o in graph.triples for x in (s, o)}) <= 3
    assert validate_direct(graph, d1).conforms
    assert not validate_direct(graph, d2).conforms


def test_shape_name_clashes_are_renamed():
    d1 = _doc(":s a sh:NodeShape ; sh:targetClass :A ; sh:nodeKind sh:IRI .")
    d2 = _doc(":s a sh:NodeShape ; sh:targetClass :A ; sh:nodeKind sh:BlankNode .")
    verdict = check_containment(d1, d2, max_domain=3, budget=20)
    assert verdict.outcome == "NotContained"
    graph = verdict.counterexample
    assert validate_direct(graph, d1).conforms and not validate_direct(graph, d2).conforms


def test_closed_world_vocabulary_spans_both_documents():
    # d2 forbids :q edges through closedness; a graph using :q validates d1 only
    d1 = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :q ; sh:minCount 1 .")
    d2 = _doc(
        ":s a sh:NodeShape ; sh:targetClass :A ; sh:property :ps .\n"
        ":ps a sh:PropertyShape ; sh:path :probe ; sh:closed true ; "
        "sh:ignoredProperties (<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>) ."
    )
    verdict = check_containment(d1, d2, max_domain=3, budget=30)
    assert verdict.outcome == "NotContained"


def test_targetless_second_document_is_always_implied():
    d1 = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 1 .")
    d2 = _doc(":s a sh:NodeShape ; sh:hasValue :impossible .")
    verdict = check_containment(d1, d2, max_domain=3, budget=20)
    assert verdict.outcome == "NoCounterexampleUpTo"


# ---- constraint-level reductions ------------------------------------------------


def test_reduce_constraint_sat_candidate_counts():
    doc = _doc(":s a sh:NodeShape ; sh:hasValue :alice .")
    docs = reduce_constraint_sat(doc, iri(EX + "s"))
    assert len(docs) == 2  # the mentioned constant and a fresh one
    doc = _doc(":s a sh:NodeShape ; sh:nodeKind sh:IRI .")
    assert len(reduce_constraint_sat(doc, iri(EX + "s"))) == 1
    doc = _doc(":s a sh:NodeShape ; sh:in (:alice :bob) .")
    assert len(reduce_constraint_sat(doc, iri(EX + "s"))) == 3


def test_reduce_constraint_sat_follows_a_long_node_chain():
    # :s0 -> :s1 -> ... -> :s1500 by sh:node; every 50th shape names a constant
    body = [
        f":s{i} a sh:NodeShape ; sh:node :s{i + 1}"
        + (f" ; sh:hasValue :c{i}" if i % 50 == 0 else "")
        + " ."
        for i in range(1500)
    ]
    doc = _doc("\n".join(body) + "\n:s1500 a sh:NodeShape ; sh:class :C .")
    docs = reduce_constraint_sat(doc, iri(EX + "s0"))
    assert len(docs) == 30 + 2  # 30 sh:hasValue constants, :C, a fresh node
    assert docs[0].shape(iri(EX + "s0")).targets[0].node == iri(EX + "C")


def test_reduce_constraint_sat_decides_satisfiability():
    # satisfiable constraint: some candidate is satisfiable
    doc = _doc(":s a sh:NodeShape ; sh:hasValue :alice .")
    candidates = reduce_constraint_sat(doc, iri(EX + "s"))
    assert any(bounded_sat(translate(d), max_domain=2).is_sat for d in candidates)
    # unsatisfiable constraint: x = alice and not x = alice
    doc = _doc(
        ":s a sh:NodeShape ; sh:hasValue :alice ; sh:not :t .\n"
        ":t a sh:NodeShape ; sh:hasValue :alice ."
    )
    candidates = reduce_constraint_sat(doc, iri(EX + "s"))
    assert all(
        bounded_sat(translate(d), max_domain=3).outcome == "UnsatUpTo" for d in candidates
    )


def test_reduce_constraint_containment():
    d1 = _doc(":s a sh:PropertyShape ; sh:path :r ; sh:minCount 1 .")
    d2 = _doc(":s a sh:PropertyShape ; sh:path :r ; sh:minCount 2 .")
    # minCount 1 is not contained in minCount 2: some candidate is satisfiable
    candidates = reduce_constraint_containment(d1, iri(EX + "s"), d2, iri(EX + "s"))
    assert any(bounded_sat(translate(d), max_domain=3).is_sat for d in candidates)
    # the converse is contained: every candidate unsatisfiable
    candidates = reduce_constraint_containment(d2, iri(EX + "s"), d1, iri(EX + "s"))
    assert all(
        bounded_sat(translate(d), max_domain=3).outcome == "UnsatUpTo" for d in candidates
    )


def test_reduce_constraint_containment_in_subsets():
    d1 = _doc(":s a sh:NodeShape ; sh:in (:alice) .")
    d2 = _doc(":s a sh:NodeShape ; sh:in (:alice :bob) .")
    candidates = reduce_constraint_containment(d1, iri(EX + "s"), d2, iri(EX + "s"))
    assert all(
        bounded_sat(translate(d), max_domain=3).outcome == "UnsatUpTo" for d in candidates
    )
    candidates = reduce_constraint_containment(d2, iri(EX + "s"), d1, iri(EX + "s"))
    assert any(bounded_sat(translate(d), max_domain=3).is_sat for d in candidates)


def test_reduce_constraint_containment_reads_the_renamed_shape():
    # doc1 already holds the first fresh name for doc2's clashing :s
    d1 = _doc(":s a sh:NodeShape ; sh:class :A .\n:s--m2 a sh:NodeShape ; sh:class :Z .")
    d2 = _doc(":s a sh:NodeShape ; sh:class :B .")
    candidates = reduce_constraint_containment(d1, iri(EX + "s"), d2, iri(EX + "s"))
    probe = candidates[0].shape(iri("urn:shaclsat:probe:shape"))
    assert probe.constraints[1] == Constraint(NOT, (iri(EX + "s--m2x"),))
    renamed = candidates[0].shape(iri(EX + "s--m2x"))
    assert renamed.constraints == d2.shape(iri(EX + "s")).constraints
    # :A is contained in :A, which the probe sees only through doc2's shape
    d2 = _doc(":s a sh:NodeShape ; sh:class :A .")
    candidates = reduce_constraint_containment(d1, iri(EX + "s"), d2, iri(EX + "s"))
    assert all(
        bounded_sat(translate(d), max_domain=3).outcome == "UnsatUpTo" for d in candidates
    )


def test_containment_with_order_constraints():
    # lessThan strengthens lessThanOrEquals; the converse has a witness
    strict = _doc(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:lessThan :q .")
    loose = _doc(
        ":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:lessThanOrEquals :q ."
    )
    verdict = check_containment(strict, loose, max_domain=3, budget=60)
    assert verdict.outcome == "NoCounterexampleUpTo"
    verdict = check_containment(loose, strict, max_domain=3, budget=60)
    assert verdict.outcome == "NotContained"
    graph = verdict.counterexample
    assert validate_direct(graph, loose).conforms
    assert not validate_direct(graph, strict).conforms

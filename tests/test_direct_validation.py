import random

from corpus import doc_ttl, graphs_for
from shaclsat.direct_validation import validate_direct
from shaclsat.shapes import parse_document
from shaclsat.terms import Triple, TripleGraph, iri
from shaclsat.turtle import parse_turtle

EX = "http://corpus.example/"

FIG1_DOC = doc_ttl(
    ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
    ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
    "sh:disjoint :hasFaculty ."
)

FIG1_GRAPH = """
@prefix : <http://corpus.example/> .
:Alex a :Student ;
  :hasFaculty :CS ;
  :hasSupervisor :Jane .
:Jane :hasFaculty :CS .
"""


def test_fig1_conforms():
    doc = parse_document(FIG1_DOC)
    graph = parse_turtle(FIG1_GRAPH)
    report = validate_direct(graph, doc)
    assert report.conforms and report.violations == ()


def test_fig1_mutated_violates_at_alex():
    doc = parse_document(FIG1_DOC)
    graph = parse_turtle(FIG1_GRAPH.replace(":Jane :hasFaculty :CS", ":Jane :hasFaculty :Physics"))
    report = validate_direct(graph, doc)
    assert not report.conforms
    assert report.violations == ((iri(EX + "Alex"), iri(EX + "studentShape")),)


def test_empty_graph_conforms_vacuously():
    doc = parse_document(FIG1_DOC)
    assert validate_direct(parse_turtle(""), doc).conforms


def test_empty_target_never_checked_and_empty_constraints_always_pass():
    doc = parse_document(doc_ttl(":s a sh:NodeShape ; sh:hasValue :impossible ."))
    graph = parse_turtle("@prefix : <http://corpus.example/> .\n:a :r :b .")
    assert validate_direct(graph, doc).conforms  # no target, never checked
    doc2 = parse_document(doc_ttl(":s a sh:NodeShape ; sh:targetClass :P ."))
    graph2 = parse_turtle("@prefix : <http://corpus.example/> .\n:a a :P .")
    assert validate_direct(graph2, doc2).conforms  # empty constraints always hold


def _check(doc_body: str, graph_body: str, expect: bool) -> None:
    doc = parse_document(doc_ttl(doc_body))
    graph = parse_turtle("@prefix : <http://corpus.example/> .\n"
                         "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n" + graph_body)
    assert validate_direct(graph, doc).conforms is expect, (doc_body, graph_body)


def test_component_semantics():
    # hasValue on a property shape: some value equals the constant
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:hasValue :bob ."
    _check(body, ":a a :P ; :r :bob , :carol .", True)
    _check(body, ":a a :P ; :r :carol .", False)
    # in restricts every value
    body = ':s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:in (:bob) .'
    _check(body, ":a a :P ; :r :bob .", True)
    _check(body, ":a a :P ; :r :bob , :carol .", False)
    # class checks direct typing of every value
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:class :Q ."
    _check(body, ":a a :P ; :r :b . :b a :Q .", True)
    _check(body, ":a a :P ; :r :b .", False)
    # datatype is exact and checks well-formedness
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:datatype xsd:integer ."
    _check(body, ':a a :P ; :r "5"^^xsd:integer .', True)
    _check(body, ':a a :P ; :r "5"^^xsd:byte .', False)
    _check(body, ':a a :P ; :r "five"^^xsd:integer .', False)
    # counting
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:minCount 2 ."
    _check(body, ":a a :P ; :r :b , :c .", True)
    _check(body, ":a a :P ; :r :b .", False)
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:maxCount 1 ."
    _check(body, ":a a :P ; :r :b .", True)
    _check(body, ":a a :P ; :r :b , :c .", False)
    # property pair components
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:equals :q ."
    _check(body, ":a a :P ; :r :b ; :q :b .", True)
    _check(body, ":a a :P ; :r :b ; :q :c .", False)
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:disjoint :q ."
    _check(body, ":a a :P ; :r :b ; :q :c .", True)
    _check(body, ":a a :P ; :r :b ; :q :b .", False)
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:lessThan :q ."
    _check(body, ':a a :P ; :r "1"^^xsd:integer ; :q "2"^^xsd:integer .', True)
    _check(body, ':a a :P ; :r "2"^^xsd:integer ; :q "2"^^xsd:integer .', False)
    _check(body, ':a a :P ; :r :b ; :q "2"^^xsd:integer .', False)  # incomparable
    body = ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:lessThanOrEquals :q ."
    _check(body, ':a a :P ; :r "2"^^xsd:integer ; :q "2"^^xsd:integer .', True)
    # uniqueLang against the document's language set
    body = (
        ':s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:uniqueLang true .\n'
        ':t a sh:NodeShape ; sh:languageIn ("en") .'
    )
    _check(body, ':a a :P ; :r "x"@en , "y"@en .', False)
    _check(body, ':a a :P ; :r "x"@en , "y"@fr , "z"@fr .', True)  # fr outside the set
    # qualified counting
    body = (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; "
        "sh:qualifiedValueShape :t ; sh:qualifiedMinCount 2 .\n"
        ":t a sh:NodeShape ; sh:class :Q ."
    )
    _check(body, ":a a :P ; :r :b , :c . :b a :Q . :c a :Q .", True)
    _check(body, ":a a :P ; :r :b , :c . :b a :Q .", False)


def test_closed_uses_document_relation_names():
    body = (
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:property :ps .\n"
        ":ps a sh:PropertyShape ; sh:path :probe ; sh:closed true ; "
        "sh:ignoredProperties (:q rdf:type) ; sh:property :decl .\n"
        ":decl a sh:PropertyShape ; sh:path :probe .\n"
        ":other a sh:PropertyShape ; sh:targetClass :Z9 ; sh:path :r ; sh:minCount 0 ."
    )
    # r is in the document vocabulary and neither declared at :ps nor ignored
    _check(body, ":a a :P ; :r :b .", False)
    _check(body, ":a a :P ; :q :b ; :probe :c .", True)
    # predicates outside the document vocabulary are not constrained
    _check(body, ":a a :P ; :undeclared :b .", True)


def test_xone_exactly_one():
    body = (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:xone (:t :u) .\n"
        ":t a sh:NodeShape ; sh:class :Q .\n:u a sh:NodeShape ; sh:class :R2 ."
    )
    _check(body, ":a a :P . :a a :Q .", True)
    _check(body, ":a a :P .", False)
    _check(body, ":a a :P . :a a :Q . :a a :R2 .", False)


def test_monotone_targets_under_triple_addition():
    doc = parse_document(
        doc_ttl(":s a sh:NodeShape ; sh:targetClass :P ; sh:nodeKind sh:IRI .")
    )
    rng = random.Random(5)
    for graph in graphs_for(seed=3, count=20):
        from shaclsat.direct_validation import _Graph, target_extension

        base = target_extension(_Graph(graph), doc.shapes[0].targets[0])
        extra = Triple(iri(EX + "new"), iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                       iri(EX + "P"))
        bigger = TripleGraph(frozenset(set(graph.triples) | {extra}))
        grown = target_extension(_Graph(bigger), doc.shapes[0].targets[0])
        assert base <= grown


def test_both_routes_agree_on_violation_sets():
    from corpus import corpus_documents
    from shaclsat.shapes import parse_document
    from shaclsat.validation import validate

    docs = [(n, parse_document(t)) for n, t in corpus_documents()]
    graphs = graphs_for(seed=808, count=12, max_size=10)
    for name, doc in docs:
        for graph in graphs:
            direct = validate_direct(graph, doc)
            logical = validate(graph, doc)
            assert direct.violations == logical.violations, name

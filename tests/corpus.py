"""Shared test corpus: shape documents covering every translation rule,
plus seeded random graph and formula generators."""

from __future__ import annotations

import random

from shaclsat.namespaces import RDF_FIRST, RDF_NIL, RDF_REST, XSD_BOOLEAN, XSD_DECIMAL
from shaclsat.scl import (
    Alt,
    And,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    Filter,
    IsIri,
    MinValue,
    Not,
    Opt,
    OrderCmp,
    Rel,
    SclFormula,
    Seq,
    Star,
    Top,
)
from shaclsat.structures import FiniteStructure
from shaclsat.terms import Term, Triple, TripleGraph, blank, integer, iri, literal

PREFIXES = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://corpus.example/> .
"""


def doc_ttl(body: str) -> str:
    return PREFIXES + body


# One document per translation rule family; names label what they exercise.
DOCUMENTS: dict[str, str] = {
    "node_has_value": ":s a sh:NodeShape ; sh:targetNode :alice ; sh:hasValue :alice .",
    "node_in": ':s a sh:NodeShape ; sh:targetNode :alice ; sh:in (:alice :bob "x") .',
    "node_class": ":s a sh:NodeShape ; sh:targetClass :P ; sh:class :Q .",
    "node_datatype": ':s a sh:NodeShape ; sh:targetSubjectsOf :r ; sh:datatype xsd:integer .',
    "node_kind_iri": ":s a sh:NodeShape ; sh:targetSubjectsOf :r ; sh:nodeKind sh:IRI .",
    "node_kind_literal": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:nodeKind sh:Literal .",
    "node_kind_blank": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:nodeKind sh:BlankNode .",
    "node_kind_blank_or_iri": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:nodeKind sh:BlankNodeOrIRI .",
    "node_kind_blank_or_literal": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:nodeKind sh:BlankNodeOrLiteral .",
    "node_kind_iri_or_literal": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:nodeKind sh:IRIOrLiteral .",
    "node_min_exclusive": ':s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:minExclusive "0"^^xsd:integer .',
    "node_min_inclusive": ':s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:minInclusive "1"^^xsd:integer .',
    "node_max_exclusive": ':s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:maxExclusive "5"^^xsd:integer .',
    "node_max_inclusive": ':s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:maxInclusive "4"^^xsd:integer .',
    "node_min_length": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:minLength 2 .",
    "node_max_length": ":s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:maxLength 3 .",
    "node_pattern": ':s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:pattern "^a" .',
    "node_language_in": ':s a sh:NodeShape ; sh:targetObjectsOf :r ; sh:languageIn ("en" "fr") .',
    "node_not": ":s a sh:NodeShape ; sh:targetClass :P ; sh:not :t .\n:t a sh:NodeShape ; sh:hasValue :bad .",
    "node_and": (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:and (:t :u) .\n"
        ":t a sh:NodeShape ; sh:nodeKind sh:IRI .\n:u a sh:NodeShape ; sh:not :v .\n"
        ":v a sh:NodeShape ; sh:hasValue :bad ."
    ),
    "node_or": (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:or (:t :u) .\n"
        ":t a sh:NodeShape ; sh:hasValue :alice .\n:u a sh:NodeShape ; sh:hasValue :bob ."
    ),
    "node_xone": (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:xone (:t :u) .\n"
        ":t a sh:NodeShape ; sh:class :Q .\n:u a sh:NodeShape ; sh:class :R2 ."
    ),
    "node_node_ref": (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:node :t .\n"
        ":t a sh:NodeShape ; sh:nodeKind sh:IRI ."
    ),
    "node_property_ref": (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:property :t .\n"
        ":t a sh:PropertyShape ; sh:path :r ; sh:minCount 1 ."
    ),
    "node_undefined_ref": ":s a sh:NodeShape ; sh:targetClass :P ; sh:not :undefinedShape .",
    "prop_has_value": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:hasValue :bob .",
    "prop_forall_class": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:class :Q .",
    "prop_forall_datatype": (
        ':s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:datatype xsd:boolean .'
    ),
    "prop_forall_in": ':s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:in (:bob "y") .',
    "prop_forall_not": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:not :t .\n"
        ":t a sh:NodeShape ; sh:hasValue :bad ."
    ),
    "prop_language_in": (
        ':s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:languageIn ("en") .'
    ),
    "prop_unique_lang": (
        ':s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:uniqueLang true .\n'
        ':t a sh:NodeShape ; sh:targetNode :alice ; sh:languageIn ("en" "de") .'
    ),
    "prop_min_count": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:minCount 2 .",
    "prop_max_count": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:maxCount 1 .",
    "prop_equals": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:equals :q .",
    "prop_disjoint": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path (:r :q) ; sh:disjoint :q .",
    "prop_less_than": ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:lessThan :q .",
    "prop_less_than_or_equals": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; sh:lessThanOrEquals :q ."
    ),
    "prop_qualified_min": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; "
        "sh:qualifiedValueShape :t ; sh:qualifiedMinCount 1 .\n"
        ":t a sh:NodeShape ; sh:class :Q ."
    ),
    "prop_qualified_max": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path :r ; "
        "sh:qualifiedValueShape :t ; sh:qualifiedMaxCount 1 .\n"
        ":t a sh:NodeShape ; sh:class :Q ."
    ),
    "prop_qualified_disjoint": (
        ":parent a sh:NodeShape ; sh:targetClass :P ; sh:property :s ; sh:property :s2 .\n"
        ":s a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :t ; "
        "sh:qualifiedMinCount 1 ; sh:qualifiedValueShapesDisjoint true .\n"
        ":s2 a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :u ; "
        "sh:qualifiedMinCount 1 .\n"
        ":t a sh:NodeShape ; sh:class :Q .\n:u a sh:NodeShape ; sh:class :R2 ."
    ),
    "prop_closed": (
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:property :ps .\n"
        ":ps a sh:PropertyShape ; sh:path :probe ; sh:closed true ; "
        "sh:ignoredProperties (:q rdf:type) ; sh:property :decl .\n"
        ":decl a sh:PropertyShape ; sh:path :probe .\n"
        ":other a sh:PropertyShape ; sh:targetClass :Z9 ; sh:path :r ; sh:minCount 0 ."
    ),
    "path_inverse": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path [ sh:inversePath :r ] ; sh:minCount 1 ."
    ),
    "path_sequence": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; sh:path (:r :q) ; sh:minCount 1 ."
    ),
    "path_alternative": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; "
        "sh:path [ sh:alternativePath (:r :q) ] ; sh:minCount 1 ."
    ),
    "path_zero_or_more": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; "
        "sh:path [ sh:zeroOrMorePath :r ] ; sh:maxCount 2 ."
    ),
    "path_one_or_more": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; "
        "sh:path [ sh:oneOrMorePath :r ] ; sh:minCount 1 ."
    ),
    "path_zero_or_one": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; "
        "sh:path [ sh:zeroOrOnePath :r ] ; sh:maxCount 1 ."
    ),
    "path_inverse_of_sequence": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; "
        "sh:path [ sh:inversePath (:r :q) ] ; sh:minCount 1 ."
    ),
    "path_inverse_of_alternative": (
        ":s a sh:PropertyShape ; sh:targetClass :P ; "
        "sh:path [ sh:inversePath [ sh:alternativePath (:r :q) ] ] ; sh:minCount 1 ."
    ),
    "unknown_component": ":s a sh:NodeShape ; sh:targetClass :P ; :mystery :value .",
    "multi_target": (
        ":s a sh:NodeShape ; sh:targetClass :P ; sh:targetNode :alice ; sh:nodeKind sh:IRI ."
    ),
    "fig1": (
        ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
        ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
        "sh:disjoint :hasFaculty ."
    ),
}


def corpus_documents() -> list[tuple[str, str]]:
    return [(name, doc_ttl(body)) for name, body in sorted(DOCUMENTS.items())]


# Property shapes whose path nests itself at the blank node _:x, which
# extraction writes _:b0: the inverse of itself, a sequence list whose one
# member is its own head, and the repetition of an alternative of itself
CYCLIC_PATHS = tuple(
    ":s a sh:PropertyShape ; sh:targetNode :alice ; sh:path _:x .\n" + nesting
    for nesting in (
        "_:x sh:inversePath _:x .",
        f"_:x <{RDF_FIRST}> _:x ; <{RDF_REST}> <{RDF_NIL}> .",
        "_:x sh:zeroOrMorePath [ sh:alternativePath ( :q _:x ) ] .",
    )
)


def _property_document(shape: str, path: str, facets: str) -> str:
    return doc_ttl(
        f":{shape} a sh:NodeShape ; sh:targetNode :alice ;\n"
        f"    sh:property [ sh:path {path} ; {facets} ] .\n"
    )


# The benchmark's containment questions: (name, first document, second
# document, whether the first is contained in the second up to 4 elements)
CONTAINMENT_PAIRS = tuple(
    (name, _property_document("First", *first), _property_document("Second", *second), contained)
    for name, first, second, contained in (
        ("weaker_min_count", (":knows", "sh:minCount 1"), (":knows", "sh:minCount 2"), False),
        ("weaker_max_count", (":knows", "sh:maxCount 2"), (":knows", "sh:maxCount 1"), False),
        ("dropped_range", (":age", "sh:datatype xsd:integer"), (":age", "sh:minInclusive 18"), False),
        ("stronger_min_count", (":knows", "sh:minCount 2"), (":knows", "sh:minCount 1"), True),
        ("star_max_count", ("[ sh:zeroOrMorePath :knows ]", "sh:maxCount 1"),
         (":knows", "sh:maxCount 1"), True),
    )
)


# --------------------------------------------------------------------------
# Random graphs over a document's vocabulary
# --------------------------------------------------------------------------

_NS = "http://corpus.example/"

_NODE_POOL = [iri(_NS + n) for n in ("alice", "bob", "carol", "P", "Q", "R2", "bad", "n1", "n2")]
_LITERAL_POOL = [
    integer(0),
    integer(1),
    integer(3),
    integer(5),
    literal("true", XSD_BOOLEAN),
    literal("false", XSD_BOOLEAN),
    literal("2.5", XSD_DECIMAL),
    literal("a"),
    literal("abcd"),
    literal("hi", language="en"),
    literal("ho", language="en"),
    literal("oui", language="fr"),
    literal("zz", language="de"),
]
_PRED_POOL = [iri(_NS + n) for n in ("r", "q", "probe", "hasSupervisor", "hasFaculty")]


def random_graph(rng: random.Random, size: int) -> TripleGraph:
    triples = set()
    blanks = [blank(f"rb{i}") for i in range(2)]
    nodes = _NODE_POOL + blanks
    for _ in range(size):
        choice = rng.random()
        subject = rng.choice(nodes)
        if choice < 0.25:
            triples.add(
                Triple(subject, iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                       rng.choice([iri(_NS + "P"), iri(_NS + "Q"), iri(_NS + "R2"),
                                   iri(_NS + "Student")]))
            )
        else:
            obj = rng.choice(nodes + _LITERAL_POOL)
            triples.add(Triple(subject, rng.choice(_PRED_POOL), obj))
    return TripleGraph(frozenset(triples))


def graphs_for(seed: int, count: int, max_size: int = 8) -> list[TripleGraph]:
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(0, max_size)) for _ in range(count)]


# --------------------------------------------------------------------------
# Random formulas, paths and structures for the rewrite laws
# --------------------------------------------------------------------------

_RELS = [iri(_NS + n) for n in ("r", "q", "p2")]


def random_path(rng: random.Random, depth: int) -> object:
    if depth <= 0 or rng.random() < 0.4:
        return Rel(rng.choice(_RELS), rng.random() < 0.3)
    kind = rng.choice(("seq", "alt", "opt", "star"))
    if kind == "seq":
        return Seq(random_path(rng, depth - 1), random_path(rng, depth - 1))
    if kind == "alt":
        return Alt(random_path(rng, depth - 1), random_path(rng, depth - 1))
    if kind == "opt":
        return Opt(random_path(rng, depth - 1))
    return Star(random_path(rng, depth - 1))


def random_formula(rng: random.Random, depth: int) -> SclFormula:
    if depth <= 0:
        return rng.choice(
            [
                Top(),
                EqConst(rng.choice(_NODE_POOL[:3])),
                Filter(IsIri()),
                Filter(MinValue(integer(2), strict=False)),
            ]
        )
    kind = rng.choice(("not", "and", "exists", "count", "disjoint", "equals", "order", "leaf"))
    if kind == "leaf":
        return random_formula(rng, 0)
    if kind == "not":
        return Not(random_formula(rng, depth - 1))
    if kind == "and":
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == "exists":
        return CountExists(1, random_path(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == "count":
        return CountExists(rng.randint(2, 3), random_path(rng, depth - 1),
                           random_formula(rng, depth - 1))
    if kind == "disjoint":
        return Disjoint(random_path(rng, depth - 1), rng.choice(_RELS))
    if kind == "equals":
        return Equals(random_path(rng, depth - 1), rng.choice(_RELS))
    return OrderCmp(random_path(rng, depth - 1), rng.choice(_RELS),
                    strict=rng.random() < 0.5, inverted=rng.random() < 0.5)


def edge_graph(relations: dict) -> TripleGraph:
    """The graph with an edge for each (subject, object) pair of each relation."""
    return TripleGraph(
        frozenset(Triple(s, name, o) for name, pairs in relations.items() for s, o in pairs)
    )


def random_structure(rng: random.Random, max_size: int = 4) -> FiniteStructure:
    size = rng.randint(1, max_size)
    domain = []
    for i in range(size):
        domain.append(
            rng.choice(
                [
                    _NODE_POOL[i % len(_NODE_POOL)],
                    integer(i),
                    integer(i + 2),
                    literal(f"s{i}"),
                ]
            )
        )
    domain = sorted(set(domain), key=Term.sort_key)
    edges = [
        Triple(a, r, b) for r in _RELS for a in domain for b in domain if rng.random() < 0.3
    ]
    return FiniteStructure(domain=tuple(domain), graph=TripleGraph(frozenset(edges)))

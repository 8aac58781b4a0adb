"""Seeded differential test: random documents whose shapes reference one
another as a DAG, over small random graphs, get the same violations from
the direct validator and from the logic route.

Each document has 2 to 6 shapes, and a shape names only later ones, so a
reference chain is up to five shapes deep and mixes shapes the direct
validator decides by a call with shapes it decides in frames.
"""

import random

from corpus import doc_ttl
from shaclsat.direct_validation import validate_direct
from shaclsat.shapes import parse_document
from shaclsat.terms import BLANK, IRI, LITERAL, Triple, TripleGraph, blank, integer, iri, literal
from shaclsat.validation import validate

EX = "http://corpus.example/"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

_PREDICATES = ("p", "q", "r")
_CLASS = iri(EX + "c")
_NODES = [iri(EX + "a"), iri(EX + "b"), blank("x"), blank("y")]
_LITERALS = [
    integer(1),
    integer(3),
    literal("2.5", XSD + "decimal"),
    literal("ab"),
    literal("hi", language="en"),
    literal("Ho", language="EN"),
    literal("oui", language="fr"),
]

_VALUE_TYPES = (
    "sh:class :c",
    "sh:datatype xsd:integer",
    "sh:datatype xsd:string",
    "sh:nodeKind sh:IRI",
    "sh:nodeKind sh:BlankNodeOrLiteral",
    "sh:hasValue :a",
    'sh:in ( :b "ab" 3 )',
    "sh:minInclusive 2",
    "sh:minExclusive 1",
    'sh:maxInclusive "2.5"^^xsd:decimal',
    "sh:maxExclusive 3",
    "sh:minLength 2",
    "sh:maxLength 2",
    'sh:pattern "^[ao]"',
    'sh:pattern "i"',
    'sh:languageIn ( "en" )',
    'sh:languageIn ( "fr" "de" )',
)
_VALUE_SETS = (
    "sh:minCount 1",
    "sh:minCount 2",
    "sh:maxCount 0",
    "sh:maxCount 1",
    "sh:equals :p",
    "sh:disjoint :q",
    "sh:lessThan :r",
    "sh:lessThanOrEquals :p",
    "sh:uniqueLang true",
    "sh:closed true",
    "sh:closed true ; sh:ignoredProperties ( :q )",
)
_TARGETS = ("sh:targetNode :a", "sh:targetNode :x", "sh:targetClass :c",
            "sh:targetSubjectsOf :p", "sh:targetObjectsOf :q")


def _random_path(rng: random.Random, depth: int) -> str:
    form = rng.randrange(7) if depth else 0
    if form == 0:
        return ":" + rng.choice(_PREDICATES)
    inner = _random_path(rng, depth - 1)
    if form == 1:
        return f"[ sh:inversePath {inner} ]"
    if form in (2, 3):
        second = _random_path(rng, depth - 1)
        return f"( {inner} {second} )" if form == 2 else f"[ sh:alternativePath ( {inner} {second} ) ]"
    return f"[ sh:{('zeroOrOnePath', 'zeroOrMorePath', 'oneOrMorePath')[form - 4]} {inner} ]"


def _references(rng: random.Random, i: int, later: list[int], properties: set[int]) -> list[str]:
    """One or two components of shape i that name later shapes."""
    out = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(("node", "not", "and", "or", "xone", "property", "qualified"))
        if kind in ("node", "not"):
            out.append(f"sh:{kind} :s{rng.choice(later)}")
        elif kind in ("and", "or", "xone"):
            names = " ".join(f":s{j}" for j in rng.sample(later, rng.randint(1, min(3, len(later)))))
            out.append(f"sh:{kind} ( {names} )")
        elif kind == "property":
            named = [j for j in later if j in properties]
            if named:
                out.append(f"sh:property :s{rng.choice(named)}")
        elif i in properties and not any("qualified" in c for c in out):
            bounds = rng.choice(("sh:qualifiedMinCount 1", "sh:qualifiedMaxCount 1",
                                 "sh:qualifiedMinCount 1 ; sh:qualifiedMaxCount 2"))
            out.append(f"sh:qualifiedValueShape :s{rng.choice(later)} ; {bounds}")
    return out


def random_document(rng: random.Random) -> str:
    count = rng.randint(2, 6)
    properties = {i for i in range(count) if rng.random() < 0.6}
    lines = []
    for i in range(count):
        parts = [f":s{i} a sh:{'PropertyShape' if i in properties else 'NodeShape'}"]
        if i in properties:
            parts.append("sh:path " + _random_path(rng, 2))
        if i == 0 or rng.random() < 0.4:
            parts.append(rng.choice(_TARGETS))
        components = list(rng.sample(_VALUE_TYPES, rng.randint(0, 1)))
        if i in properties:
            components += rng.sample(_VALUE_SETS, rng.randint(0, 1))
        later = list(range(i + 1, count))
        if later and rng.random() < 0.8:
            components += _references(rng, i, later, properties)
        parts += components
        lines.append(" ; ".join(parts) + " .")
    return doc_ttl("\n".join(lines))


def random_graph(rng: random.Random) -> TripleGraph:
    """At most 6 nodes: the class :c, some of the other IRIs and blank
    nodes, and literals as objects only."""
    nodes = [_CLASS, *rng.sample(_NODES, rng.randint(1, 3))]
    terms = nodes + rng.sample(_LITERALS, rng.randint(0, 6 - len(nodes)))
    triples = set()
    for _ in range(rng.randint(2, 12)):
        subject = rng.choice(nodes)
        if rng.random() < 0.15:
            triples.add(Triple(subject, iri(RDF + "type"), _CLASS))
        else:
            triples.add(Triple(subject, iri(EX + rng.choice(_PREDICATES)), rng.choice(terms)))
    return TripleGraph(frozenset(triples))


def test_random_graph_keeps_to_six_nodes_of_every_kind():
    kinds = set()
    for seed in range(50):
        rng = random.Random(seed)
        for _ in range(4):
            graph = random_graph(rng)
            nodes = {t.subject for t in graph.triples} | {t.object for t in graph.triples}
            assert len(nodes) <= 6
            kinds |= {(n.kind, n.language is not None) for n in nodes}
    assert kinds == {(IRI, False), (BLANK, False), (LITERAL, False), (LITERAL, True)}


def test_both_routes_agree_on_random_reference_dags():
    reports = violating = 0
    for seed in range(200):
        rng = random.Random(seed)
        text = random_document(rng)
        doc = parse_document(text)
        for _ in range(4):
            graph = random_graph(rng)
            direct = validate_direct(graph, doc)
            assert direct.violations == validate(graph, doc).violations, (seed, text)
            reports += 1
            violating += not direct.conforms
    # both verdicts are common, so agreement is no accident of one answer
    assert reports // 5 < violating < reports - reports // 5

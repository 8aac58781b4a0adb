import ast
import random
import sys
from pathlib import Path

from corpus import doc_ttl, graphs_for
from shaclsat.direct_validation import validate_direct
from shaclsat.shapes import parse_document
from shaclsat.terms import Triple, TripleGraph, iri
from shaclsat.turtle import parse_turtle

EX = "http://corpus.example/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

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
        from shaclsat.direct_validation import target_extension

        base = target_extension(graph, doc.shapes[0].targets[0])
        extra = Triple(iri(EX + "new"), iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                       iri(EX + "P"))
        bigger = TripleGraph(frozenset(set(graph.triples) | {extra}))
        grown = target_extension(bigger, doc.shapes[0].targets[0])
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


# ---- malformed parameter values --------------------------------------------------

_SWEEP_GRAPH = parse_turtle(doc_ttl(':a :p :b , "abc" .\n:b :p :c .\n:c a :C .'))

# what a parameter needs beside it to be read at all
_COMPANIONS = {
    "qualifiedMinCount": "sh:qualifiedValueShape [ sh:class :C ] ; ",
    "qualifiedMaxCount": "sh:qualifiedValueShape [ sh:class :C ] ; ",
    "qualifiedValueShapesDisjoint": "sh:qualifiedValueShape [ sh:class :C ] ; ",
    "ignoredProperties": "sh:closed true ; ",
}


def _swept_documents():
    """Each parameter extraction reads, with each of a few ill-typed, empty,
    negative or unknown values, on a node shape and on two property shapes;
    the focus nodes include a literal."""
    from shaclsat import namespaces as ns
    from shaclsat.shapes import _CONSTRAINT_PARAMS, _TARGET_PARAMS

    params = [*_TARGET_PARAMS, *_CONSTRAINT_PARAMS, ns.SH_QUALIFIED_MIN_COUNT,
              ns.SH_QUALIFIED_MAX_COUNT, ns.SH_IGNORED_PROPERTIES, ns.SH_QUALIFIED_DISJOINT]
    values = ['"x"', '"abc"', "_:b", "-1", "0", '( "x" )', "( )", ":v", ":p"]
    placements = ["sh:NodeShape ; ", "sh:PropertyShape ; sh:path :p ; ",
                  "sh:PropertyShape ; sh:path [ sh:zeroOrMorePath :p ] ; "]
    for param in params:
        short = param.removeprefix(ns.SH_NS)
        for value in values:
            for placement in placements:
                yield doc_ttl(
                    f':s a {placement}sh:targetNode :a , :b , "abc" ; '
                    f"{_COMPANIONS.get(short, '')}sh:{short} {value} ."
                )


def test_malformed_parameters_are_rejected_or_both_routes_agree():
    """Extraction rejects a parameter value SHACL's syntax rules forbid;
    any document it accepts gets the same report from both routes."""
    from shaclsat.shapes import ShaclModelError
    from shaclsat.validation import validate

    accepted = 0
    for text in _swept_documents():
        try:
            doc = parse_document(text)
        except ShaclModelError:
            continue
        accepted += 1
        assert validate_direct(_SWEEP_GRAPH, doc) == validate(_SWEEP_GRAPH, doc), text
    assert accepted >= 500


def test_unknown_node_kind_matches_nothing_on_both_routes():
    # extraction rejects a kind outside the six; an AST built directly may hold one
    from shaclsat.shapes import NODE_KIND, Constraint, NodeTarget, ShaclDocument, Shape
    from shaclsat.validation import validate

    a = iri(EX + "a")
    shape = Shape(iri(EX + "s"), targets=(NodeTarget(a),),
                  constraints=(Constraint(NODE_KIND, (iri("http://e/v"),)),))
    doc = ShaclDocument((shape,))
    graph = TripleGraph(frozenset({Triple(a, iri(EX + "p"), iri(EX + "b"))}))
    report = validate_direct(graph, doc)
    assert report.violations == ((a, shape.name),)
    assert validate(graph, doc) == report


# ---- repeated paths on cyclic graphs ---------------------------------------------

TURTLE_PREFIXES = "@prefix : <http://corpus.example/> .\n"


def _cyclic_turtle(seed: int, n: int = 300) -> str:
    """n nodes: :p rings of 1 to 12 nodes (a ring of one is a self-loop),
    tails running into the rings or into earlier tails, :q chords, a few
    literal :p values, and untouched typed nodes that nothing reaches."""
    rng = random.Random(seed)
    ids = [f":n{i}" for i in range(n)]
    rng.shuffle(ids)
    isolated, ring_nodes, tails = ids[: n // 10], ids[n // 10 : n // 2], ids[n // 2 :]
    triples = []
    i = 0
    while i < len(ring_nodes):
        ring = ring_nodes[i : i + rng.randint(1, 12)]
        triples += [(a, ":p", b) for a, b in zip(ring, ring[1:] + ring[:1])]
        i += len(ring)
    for k, tail in enumerate(tails):
        triples.append((tail, ":p", rng.choice(ring_nodes + tails[:k])))
    triples += [(rng.choice(ids), ":q", rng.choice(ids)) for _ in range(n // 3)]
    triples += [(tail, ":p", f'"v{tail[2:]}"') for tail in rng.sample(tails, n // 30)]
    triples += [(x, "a", ":A") for x in rng.sample(ids, n // 3)]
    triples += [(x, "a", ":B") for x in rng.sample(ids, n // 10) + isolated]
    return TURTLE_PREFIXES + "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


# (path, minCount, maxCount): each repetition over a predicate, a star, a
# sequence, an alternative and a general inverse
_CYCLIC_PATHS = [
    ("[ sh:zeroOrMorePath :p ]", 2, 15),
    ("[ sh:oneOrMorePath :p ]", 2, 15),
    ("[ sh:zeroOrOnePath [ sh:zeroOrMorePath :p ] ]", 2, 15),
    ("[ sh:zeroOrMorePath ( :p :q ) ]", 1, 2),
    ("[ sh:oneOrMorePath ( :q :p ) ]", 1, 12),
    ("[ sh:zeroOrMorePath [ sh:alternativePath ( :p :q ) ] ]", 3, 30),
    ("[ sh:oneOrMorePath [ sh:alternativePath ( :q [ sh:inversePath :p ] ) ] ]", 1, 8),
    ("[ sh:inversePath [ sh:zeroOrMorePath :p ] ]", 2, 10),
    ("[ sh:zeroOrOnePath [ sh:inversePath [ sh:oneOrMorePath :p ] ] ]", 2, 10),
    ("[ sh:oneOrMorePath [ sh:inversePath [ sh:zeroOrMorePath :q ] ] ]", 1, 3),
    ("( :q [ sh:zeroOrMorePath :p ] )", 1, 15),
]
_CYCLIC_TARGETS = [
    "sh:targetClass :A",
    "sh:targetClass :B ; sh:targetSubjectsOf :q",
    "sh:targetObjectsOf :q ; sh:targetNode :n0 , :absent",
]


def _cyclic_shapes() -> str:
    lines = []
    for i, (path, least, most) in enumerate(_CYCLIC_PATHS):
        for j, targets in enumerate(_CYCLIC_TARGETS):
            lines.append(
                f":s{i}_{j} a sh:PropertyShape ; {targets} ; sh:path {path} ; "
                f"sh:nodeKind sh:IRI ; sh:minCount {least} ; sh:maxCount {most} ."
            )
    return doc_ttl("\n".join(lines))


def test_both_routes_agree_on_repeated_paths_over_cyclic_graphs():
    from shaclsat.validation import validate

    from shaclsat.direct_validation import target_extension

    doc = parse_document(_cyclic_shapes())
    for seed in (1, 2, 3):
        graph = parse_turtle(_cyclic_turtle(seed))
        direct = validate_direct(graph, doc)
        assert direct.violations == validate(graph, doc).violations, seed
        # every shape has focus nodes that conform and focus nodes that do not
        for shape in doc.shapes:
            focus = set().union(*(target_extension(graph, t) for t in shape.targets))
            violating = {node for node, name in direct.violations if name == shape.name}
            assert 0 < len(violating) < len(focus), (seed, shape.name)


def test_general_inverse_paths_agree_with_logic_route():
    from shaclsat.validation import validate

    doc = parse_document(doc_ttl(
        ":star a sh:PropertyShape ; sh:targetNode :a , :d , :z ; "
        "sh:path [ sh:inversePath [ sh:zeroOrMorePath :p ] ] ; sh:minCount 2 .\n"
        ":seq a sh:PropertyShape ; sh:targetNode :d , :e ; "
        "sh:path [ sh:inversePath ( :p :q ) ] ; sh:minCount 1 .\n"
        ":alt a sh:PropertyShape ; sh:targetNode :b , :e ; "
        "sh:path [ sh:inversePath [ sh:alternativePath ( :p :q ) ] ] ; sh:maxCount 1 .\n"
        ":opt a sh:PropertyShape ; sh:targetNode :z ; "
        "sh:path [ sh:inversePath [ sh:zeroOrOnePath :p ] ] ; sh:hasValue :z ."
    ))
    # :a and :b form a :p cycle that :c runs into; :d :q :e; :z is not in the graph
    graph = parse_turtle(TURTLE_PREFIXES + ":a :p :b . :b :p :a . :c :p :a ; :q :d . :b :q :e . :d :q :e .")
    direct = validate_direct(graph, doc)
    assert direct.violations == validate(graph, doc).violations
    # ^(p*) from :d is {:d} and from :z {:z}; p/q leads only from :a to :e;
    # :e has two (p|q)-predecessors
    assert [(n.lexical[len(EX):], s.lexical[len(EX):]) for n, s in direct.violations] == [
        ("d", "seq"), ("d", "star"), ("e", "alt"), ("z", "star"),
    ]


# :R and :S hold no shape reference, so every shape that names only them is
# plain; :wrapR is :R and :wrapS is :S, each through :anchor, which names
# the empty :top, so a shape that names them is not.  Each plain shape
# below (suffix p) reaches :R by a call; its twin (suffix f) reaches it
# through frames, and decides the same.
_TWIN_TARGETS = "sh:targetClass :A ; sh:targetSubjectsOf :q"
_TWIN_SHAPES = {
    "property": ("sh:property :R", "sh:node :wrapR"),
    "not": ("sh:not :R", "sh:not :wrapR"),
    "or": ("sh:or ( :S :R )", "sh:or ( :wrapS :R )"),
    "xone": ("sh:xone ( :R :S )", "sh:xone ( :R :wrapS )"),
    "qualified": (
        "sh:path :q ; sh:qualifiedValueShape :R ; sh:qualifiedMinCount 1",
        "sh:path :q ; sh:qualifiedValueShape :wrapR ; sh:qualifiedMinCount 1",
    ),
    "star": ("sh:path [ sh:zeroOrMorePath :q ] ; sh:node :R",
             "sh:path [ sh:zeroOrMorePath :q ] ; sh:node :wrapR"),
}


def _twin_shapes() -> str:
    lines = [
        ":R a sh:PropertyShape ; sh:path [ sh:zeroOrMorePath :p ] ; "
        "sh:nodeKind sh:IRI ; sh:minCount 2 ; sh:maxCount 15 .",
        ":top a sh:NodeShape .",
        ":anchor a sh:NodeShape ; sh:node :top .",
        ":S a sh:NodeShape ; sh:class :B .",
        ":wrapR a sh:NodeShape ; sh:property :R ; sh:node :anchor .",
        ":wrapS a sh:NodeShape ; sh:node :S ; sh:node :anchor .",
    ]
    for name, pair in _TWIN_SHAPES.items():
        for suffix, body in zip("pf", pair):
            kind = "sh:PropertyShape" if "sh:path" in body else "sh:NodeShape"
            lines.append(f":{name}{suffix} a {kind} ; {_TWIN_TARGETS} ; {body} .")
    return doc_ttl("\n".join(lines))


def test_plain_calls_and_frames_agree_on_a_reference_free_shape():
    from shaclsat.direct_validation import _Validator
    from shaclsat.validation import validate

    doc = parse_document(_twin_shapes())
    validator = _Validator(TripleGraph(frozenset()), doc)
    for name in _TWIN_SHAPES:
        plain, framed = (validator.plan(doc.shape(iri(f"{EX}{name}{s}"))) for s in "pf")
        assert plain.plain and not framed.plain, name
    for seed in (1, 2, 3):
        graph = parse_turtle(_cyclic_turtle(seed))
        direct = validate_direct(graph, doc)
        assert direct.violations == validate(graph, doc).violations, seed
        violating = {}
        for node, shape in direct.violations:
            violating.setdefault(shape.lexical[len(EX):], set()).add(node)
        for name in _TWIN_SHAPES:
            plain, framed = violating.get(name + "p", set()), violating.get(name + "f", set())
            assert plain == framed, (seed, name)
            # each shape has violations; by :propertyp and :notp, :R fails
            # at some focus nodes and holds at others
            assert plain, (seed, name)


def _person_turtle(n: int) -> str:
    """n persons on :knows rings of about 1.25*sqrt(n) persons, and one in
    ten a tail pointing into a ring."""
    rng = random.Random(n)
    people = list(range(n))
    rng.shuffle(people)
    tails, ringed = people[: n // 10], people[n // 10 :]
    length = round(1.25 * len(people) ** 0.5)
    lines = []
    for start in range(0, len(ringed), length):
        ring = ringed[start : start + length]
        lines += [f":p{a} :knows :p{b} ." for a, b in zip(ring, ring[1:] + ring[:1])]
    lines += [f":p{t} :knows :p{rng.choice(ringed)} ." for t in tails]
    lines += [f":p{p} a :Person ." for p in people]
    return TURTLE_PREFIXES + "\n".join(lines)


def test_star_successors_and_value_checks_grow_linearly(monkeypatch):
    from shaclsat import direct_validation

    doc = parse_document(doc_ttl(
        ":PersonShape a sh:NodeShape ; sh:targetClass :Person ; "
        "sh:property [ sh:path [ sh:zeroOrMorePath :knows ] ; sh:nodeKind sh:IRI ] ; "
        "sh:property [ sh:path [ sh:inversePath [ sh:zeroOrMorePath :knows ] ] ; sh:nodeKind sh:IRI ] ."
    ))
    knows = iri(EX + "knows")
    succ = direct_validation._Validator.succ
    value_test = direct_validation._Compiler.value_test
    steps = checks = 0

    def counting_succ(g, predicate, node):
        nonlocal steps
        steps += predicate == knows
        return succ(g, predicate, node)

    def counting_value_test(compiler, c):
        test = value_test(compiler, c)

        def counting_test(node):
            nonlocal checks
            checks += 1
            return test(node)
        return counting_test

    monkeypatch.setattr(direct_validation._Validator, "succ", counting_succ)
    monkeypatch.setattr(direct_validation._Compiler, "value_test", counting_value_test)
    counts = []
    for n in (250, 1000):
        steps = checks = 0
        assert validate_direct(parse_turtle(_person_turtle(n)), doc).conforms
        counts.append((steps, checks))
    # each node's successors are read once, and each node is checked once
    # per direction (tails included); a BFS per focus node grows about 8x
    assert counts == [(250, 500), (1000, 2000)]


PERSON_SHAPES = doc_ttl(
    ":PersonShape a sh:NodeShape ; sh:targetClass :Person ; "
    "sh:property [ sh:path :knows ; sh:minCount 1 ] ; "
    "sh:property [ sh:path [ sh:zeroOrMorePath :knows ] ; sh:nodeKind sh:IRI ] ; "
    "sh:property [ sh:path :age ; sh:datatype xsd:integer ; sh:maxCount 1 ] ."
)


def test_plain_shapes_build_one_plan_each_and_start_no_frame(monkeypatch):
    from shaclsat import direct_validation

    validators = []
    frames = 0
    init, frame = direct_validation._Validator.__init__, direct_validation._Validator._frame

    def keeping_init(validator, graph, doc):
        init(validator, graph, doc)
        validators.append(validator)

    def counting_frame(validator, plan, node):
        nonlocal frames
        frames += 1
        return frame(validator, plan, node)

    monkeypatch.setattr(direct_validation._Validator, "__init__", keeping_init)
    monkeypatch.setattr(direct_validation._Validator, "_frame", counting_frame)
    # the person shape names three shapes that name none, so it is plain
    doc = parse_document(PERSON_SHAPES)
    for n in (250, 1000):
        validators.clear()
        frames = 0
        assert validate_direct(parse_turtle(_person_turtle(n)), doc).conforms
        (validator,) = validators
        assert len(validator.plans) == len(doc.shapes) == 4
        assert frames == 0
        assert validator.memo == {}
        assert all(plan.verdicts == {} for plan in validator.plans.values())
    # :top names :middle, which names a shape: :top is decided in frames,
    # one per focus node, and :middle by calls from them
    doc = parse_document(doc_ttl(
        ":top a sh:NodeShape ; sh:targetClass :Person ; sh:node :middle .\n"
        ":middle a sh:NodeShape ; sh:property [ sh:path :knows ; sh:minCount 1 ] ."
    ))
    for n in (250, 1000):
        validators.clear()
        frames = 0
        assert validate_direct(parse_turtle(_person_turtle(n)), doc).conforms
        (validator,) = validators
        assert frames == n
        assert {shape for shape, _ in validator.memo} == {iri(EX + "top")}


# :S and :T reach :Q and :R at :hub, which every person :knows; :hub knows
# every person and likes itself.  :S is plain and names :Q by sh:node and
# sh:qualifiedValueShape, and :R by sh:not; :T runs in frames, as :wrap
# names :anchor, which names :top, and its sh:or asks :Q first.
HUB_SHAPES = doc_ttl(
    ":S a sh:PropertyShape ; sh:targetClass :Person ; sh:path :knows ; sh:node :Q ; "
    "sh:not :R ; sh:qualifiedValueShape :Q ; sh:qualifiedMinCount 1 .\n"
    ":T a sh:PropertyShape ; sh:targetClass :Person ; sh:path :knows ; sh:or ( :Q :wrap ) .\n"
    ":Q a sh:PropertyShape ; sh:path :knows ; sh:nodeKind sh:IRI .\n"
    ":R a sh:PropertyShape ; sh:path [ sh:zeroOrMorePath :knows ] ; sh:disjoint :likes .\n"
    ":wrap a sh:NodeShape ; sh:node :anchor .\n"
    ":anchor a sh:NodeShape ; sh:node :top .\n"
    ":top a sh:NodeShape ."
)


def test_shapes_asked_at_a_shared_value_are_decided_once_per_node(monkeypatch):
    from shaclsat import direct_validation

    compiler = direct_validation._Compiler
    value_test, set_test = compiler.value_test, compiler.set_test
    checks = set_checks = 0

    def counting_value_test(comp, c):
        test = value_test(comp, c)

        def counting_test(node):
            nonlocal checks
            checks += 1
            return test(node)
        return counting_test

    def counting_set_test(comp, c):
        test = set_test(comp, c)

        def counting_test(node, values):
            nonlocal set_checks
            set_checks += 1
            return test(node, values)
        return counting_test

    monkeypatch.setattr(compiler, "value_test", counting_value_test)
    monkeypatch.setattr(compiler, "set_test", counting_set_test)
    doc = parse_document(HUB_SHAPES)
    counts = []
    for n in (50, 200):
        lines = [f":p{i} a :Person ; :knows :hub .\n:hub :knows :p{i} ." for i in range(n)]
        graph = parse_turtle(TURTLE_PREFIXES + "\n".join(lines) + "\n:hub :likes :hub .")
        checks = set_checks = 0
        assert validate_direct(graph, doc).conforms
        counts.append((checks, set_checks))
    # :Q's nodeKind test runs once per value of :hub and :R's disjointness
    # once; asking them afresh at each person's :hub would grow as n * n
    assert counts == [(50, 1), (200, 1)]


def _chain_validator(n: int, doc):
    from shaclsat.direct_validation import _Validator

    lines = [f":c{i} :r :c{i + 1} ." for i in range(n - 1)]
    items = " ".join(str(i) for i in range(n))
    lines.append(f":head :items ( {items} ) .")
    return _Validator(parse_turtle(TURTLE_PREFIXES + "\n".join(lines)), doc)


def test_long_acyclic_paths_keep_the_condensation_linear():
    n = 20_000
    doc = parse_document(doc_ttl(
        f":chain a sh:PropertyShape ; sh:targetNode :c0 ; sh:path [ sh:zeroOrMorePath :r ] ; "
        f"sh:nodeKind sh:IRI ; sh:minCount {n} .\n"
        f":list a sh:PropertyShape ; sh:targetNode :head ; "
        f"sh:path ( :items [ sh:zeroOrMorePath <{RDF}rest> ] <{RDF}first> ) ; "
        f"sh:datatype xsd:integer ; sh:minCount {n} ; sh:maxCount {n} ."
    ))
    validator = _chain_validator(n, doc)
    for name, focus in (("chain", "c0"), ("list", "head")):
        assert validator.conforms(doc.shape(iri(EX + name)), iri(EX + focus)), name
    # every node is a component of its own, stored once, with one edge to
    # the next: no node's closure is kept
    closures = validator.closures
    assert len(closures) == 2
    for closure in closures.values():
        assert sum(map(len, closure.members)) <= n + 1
        assert sum(map(len, closure.below)) <= n


def test_counts_over_a_repeated_path_stop_once_decided(monkeypatch):
    from shaclsat import direct_validation

    n = 3000
    doc = parse_document(doc_ttl(
        ":least a sh:PropertyShape ; sh:targetSubjectsOf :r ; "
        "sh:path [ sh:zeroOrMorePath :r ] ; sh:nodeKind sh:IRI ; sh:minCount 2 .\n"
        ":most a sh:PropertyShape ; sh:targetSubjectsOf :r ; "
        "sh:path [ sh:oneOrMorePath :r ] ; sh:maxCount 3 ."
    ))
    graph = parse_turtle(TURTLE_PREFIXES + "\n".join(f":c{i} :r :c{i + 1} ." for i in range(n)))
    reached = direct_validation._Closure.reached
    gathered = 0

    def counting(closure, tops):
        nonlocal gathered
        for members in reached(closure, tops):
            gathered += len(members)
            yield members

    monkeypatch.setattr(direct_validation._Closure, "reached", counting)
    report = validate_direct(graph, doc)
    # :c(i) reaches n - i nodes past itself; all but the last three reach more than 3
    assert report.violations == tuple(sorted(
        ((iri(f"{EX}c{i}"), iri(EX + "most")) for i in range(n - 3)), key=lambda v: v[0].sort_key()
    ))
    # each focus walks at most 2 and 4 members: gathering whole closures takes about n * n
    assert gathered <= (2 + 4) * n


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shaclsat"


def _imports(module: str) -> tuple[dict[str, set[str]], set[str]]:
    """The package modules a module imports from, each with the names it
    takes, and the top-level names of its other imports."""
    package: dict[str, set[str]] = {}
    other: set[str] = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import namespaces as ns
                for alias in node.names:
                    package.setdefault(alias.name, set())
            else:
                package.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            other.update(a.name.split(".")[0] for a in node.names)
    return package, other


def test_direct_route_shares_nothing_with_the_logic_pipeline():
    # the differential tests compare two routes, which means something only
    # while the direct one reaches no code of the translation into logic
    package, other = _imports("direct_validation")
    assert set(package) <= {"namespaces", "shapes", "filter_semantics", "terms"}
    assert other <= sys.stdlib_module_names
    # the AST it reads takes one pattern check from the logic side, no more
    package, other = _imports("shapes")
    assert set(package) <= {"namespaces", "scl", "terms", "turtle"}
    assert package.get("scl", set()) <= {"pattern_error"}
    assert other <= sys.stdlib_module_names

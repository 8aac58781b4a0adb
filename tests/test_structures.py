import random
from dataclasses import replace

import pytest

from corpus import doc_ttl, edge_graph, random_formula, random_path, random_structure
from shaclsat import namespaces as ns
from shaclsat.filter_semantics import term_satisfies
from shaclsat.scl import (
    Alt,
    And,
    AtMostGlobal,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    Filter,
    HasShape,
    Not,
    Opt,
    OrderCmp,
    Rel,
    Seq,
    ShapeDef,
    Star,
    Top,
    exists,
    sentence_conj,
)
from shaclsat.shapes import parse_document
from shaclsat.structures import (
    Evaluator,
    FiniteStructure,
    OrderBlock,
    canonical_structure,
    compute_shape_assignment,
    evaluate_sentence,
    with_constants,
)
from shaclsat.terms import ComparisonVerdict, compare_terms, integer, iri, literal
from shaclsat.translate import extract_definitions, translate
from shaclsat.turtle import parse_turtle

EX = "http://corpus.example/"
R = iri(EX + "r")
Q = iri(EX + "q")


def chain(*labels):
    terms = [iri(EX + x) for x in labels]
    pairs = frozenset(zip(terms, terms[1:]))
    return FiniteStructure(domain=tuple(terms), graph=edge_graph({R: pairs}))


def test_canonical_structure_of_fig1():
    g = parse_turtle(
        "@prefix : <http://corpus.example/> .\n"
        ":Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane .\n"
        ":Jane :hasFaculty :CS ."
    )
    s = canonical_structure(g)
    assert set(s.domain) == {iri(EX + n) for n in ("Alex", "Student", "CS", "Jane")}
    # the structure's relations are the graph's own edges, not a copy
    assert s.graph is g and s.to_graph() is g
    assert _relation_pairs(s, iri(ns.RDF_TYPE)) == {(iri(EX + "Alex"), iri(EX + "Student"))}
    assert _relation_pairs(s, iri(EX + "hasFaculty")) == {
        (iri(EX + "Alex"), iri(EX + "CS")), (iri(EX + "Jane"), iri(EX + "CS"))
    }


def test_canonical_structure_of_empty_graph_has_inert_element():
    s = canonical_structure(parse_turtle(""))
    assert len(s.domain) == 1
    assert not s.graph.triples


def test_structures_reject_stray_relation_terms():
    a, ghost = iri(EX + "a"), iri(EX + "ghost")
    for stray in ((a, ghost), (ghost, a)):
        with pytest.raises(ValueError, match="mentions terms outside the domain"):
            FiniteStructure(domain=(a,), graph=edge_graph({R: {stray}}))
    FiniteStructure(domain=(a,), graph=edge_graph({R: {(a, a)}}))


def _pairs(successors):
    return {(i, j) for i, js in successors.items() for j in js}


def test_star_matches_independent_closure_oracle():
    # every path constructor against the pair-set reference semantics
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        structure = random_structure(rng, max_size=5)
        ev = Evaluator(structure)
        index = {t: i for i, t in enumerate(structure.domain)}
        path = random_path(rng, 3)
        seen.add((type(path).__name__, getattr(path, "inverted", False)))
        expected = {(index[a], index[b]) for a, b in _reference_pairs(structure, path)}
        assert _pairs(ev.successors(path)) == expected, (path, structure)
    assert {kind for kind, _ in seen} == {"Rel", "Seq", "Alt", "Opt", "Star"}
    assert ("Rel", True) in seen

    rng = random.Random(17)
    for _ in range(100):
        size = rng.randint(1, 6)
        terms = tuple(iri(EX + f"n{i}") for i in range(size))
        pairs = {
            (a, b) for a in terms for b in terms if rng.random() < 0.3
        }
        structure = FiniteStructure(domain=terms, graph=edge_graph({R: pairs}))
        ev = Evaluator(structure)
        star = _pairs(ev.successors(Star(Rel(R))))
        # oracle: boolean matrix closure by iterated squaring
        index = {t: i for i, t in enumerate(terms)}
        mat = [[i == j for j in range(size)] for i in range(size)]
        for a, b in pairs:
            mat[index[a]][index[b]] = True
        for _ in range(size.bit_length() + 1):
            mat = [
                [any(mat[i][k] and mat[k][j] for k in range(size)) or mat[i][j]
                 for j in range(size)]
                for i in range(size)
            ]
        expected = {(i, j) for i in range(size) for j in range(size) if mat[i][j]}
        assert star == expected


def test_preimage_matches_reference_pairs():
    # sequences nested on either side, against the pair-set reference semantics
    rng = random.Random(31)
    for _ in range(300):
        structure = random_structure(rng, max_size=5)
        index = {t: i for i, t in enumerate(structure.domain)}
        path = random_path(rng, 2)
        for _ in range(rng.randint(1, 3)):
            step = random_path(rng, 2)
            path = Seq(path, step) if rng.random() < 0.5 else Seq(step, path)
        targets = frozenset(i for i in range(len(structure.domain)) if rng.random() < 0.5)
        expected = {index[a] for a, b in _reference_pairs(structure, path) if index[b] in targets}
        assert Evaluator(structure).preimage(path, targets) == expected, (path, structure)


def _relation_pairs(structure, name):
    """A relation's (subject, object) pairs, read off the graph's triples."""
    return {(s, o) for s, p, o in structure.graph.triples if p == name}


def _reference_pairs(structure, path):
    """Path semantics over plain pair sets of terms, star by iterating to a fixpoint."""
    if isinstance(path, Rel):
        pairs = _relation_pairs(structure, path.name)
        return {(b, a) for a, b in pairs} if path.inverted else pairs
    if isinstance(path, Seq):
        left = _reference_pairs(structure, path.left)
        right = _reference_pairs(structure, path.right)
        return {(a, d) for a, b in left for c, d in right if b == c}
    if isinstance(path, Alt):
        return _reference_pairs(structure, path.left) | _reference_pairs(structure, path.right)
    identity = {(t, t) for t in structure.domain}
    if isinstance(path, Opt):
        return identity | _reference_pairs(structure, path.inner)
    step = _reference_pairs(structure, path.inner)
    closure = identity
    while True:
        grown = closure | {(a, d) for a, b in closure for c, d in step if b == c}
        if grown == closure:
            return closure
        closure = grown


def _reference_holds(structure, f, x):
    """Per-element truth of a formula at term x, counting witnesses one by one."""
    if isinstance(f, Top):
        return True
    if isinstance(f, EqConst):
        return x == structure.denote(f.constant)
    if isinstance(f, Filter):
        return term_satisfies(f.name, x)
    if isinstance(f, HasShape):
        return (x, f.shape) in structure.has_shape
    if isinstance(f, Not):
        return not _reference_holds(structure, f.body, x)
    if isinstance(f, And):
        return _reference_holds(structure, f.left, x) and _reference_holds(structure, f.right, x)
    path_succ = {b for a, b in _reference_pairs(structure, f.path) if a == x}
    if isinstance(f, CountExists):
        witnesses = [y for y in path_succ if _reference_holds(structure, f.body, y)]
        return len(witnesses) >= f.threshold
    rel_succ = {b for a, b in _relation_pairs(structure, f.relation) if a == x}
    if isinstance(f, Disjoint):
        return not path_succ & rel_succ
    if isinstance(f, Equals):
        return path_succ == rel_succ
    allowed = {ComparisonVerdict.LT} if f.strict else {ComparisonVerdict.LT, ComparisonVerdict.EQ}
    return all(
        compare_terms(*((z, y) if f.inverted else (y, z))) in allowed
        for y in path_succ
        for z in rel_succ
    )


def test_counting_agrees_with_witness_enumeration():
    # every path constructor and atom under counting, against the per-element reference
    rng = random.Random(23)
    for _ in range(300):
        structure = random_structure(rng, max_size=5)
        ev = Evaluator(structure)
        formulas = [
            random_formula(rng, 3),
            CountExists(rng.randint(1, 3), random_path(rng, 2), random_formula(rng, 1)),
        ]
        for formula in formulas:
            for x, term in enumerate(structure.domain):
                assert ev.formula(formula, x) == _reference_holds(structure, formula, term), (
                    formula, term, structure
                )


def test_reachability_with_star_formula():
    s = chain("a", "b", "c")
    ev = Evaluator(s)
    f = exists(Star(Rel(R)), EqConst(iri(EX + "c")))
    assert ev.formula(f, 0)
    assert ev.formula(f, 2)  # zero steps
    backwards = exists(Star(Rel(R, inverted=True)), EqConst(iri(EX + "a")))
    assert Evaluator(s).formula(backwards, 2)


def test_shape_assignment_fig1():
    g = parse_turtle(
        "@prefix : <http://corpus.example/> .\n"
        ":Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane .\n"
        ":Jane :hasFaculty :CS ."
    )
    doc = parse_document(
        doc_ttl(
            ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
            ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
            "sh:disjoint :hasFaculty ."
        )
    )
    sentence = translate(doc)
    structure = compute_shape_assignment(canonical_structure(g), extract_definitions(sentence))
    name = iri(EX + "disjFacultyShape")
    assert (iri(EX + "Jane"), name) in structure.has_shape
    assert (iri(EX + "Alex"), name) not in structure.has_shape
    assert Evaluator(structure).sentence(sentence)


def test_assignment_empty_definitions_is_identity():
    s = chain("a", "b")
    from shaclsat.scl import TopSentence

    assert compute_shape_assignment(s, TopSentence()).has_shape == frozenset()


def test_assignment_order_independent():
    s = chain("a", "b", "c")
    d1 = ShapeDef(iri(EX + "s1"), exists(Rel(R), Top()))
    d2 = ShapeDef(iri(EX + "s2"), EqConst(iri(EX + "b")))
    one = compute_shape_assignment(s, sentence_conj([d1, d2]))
    two = compute_shape_assignment(s, sentence_conj([d2, d1]))
    assert one.has_shape == two.has_shape


def test_assignment_respects_dependencies_in_any_order():
    s = chain("a", "b")
    inner = ShapeDef(iri(EX + "inner"), EqConst(iri(EX + "b")))
    outer = ShapeDef(iri(EX + "outer"), Not(HasShape(iri(EX + "inner"))))
    for order in ([inner, outer], [outer, inner]):
        result = compute_shape_assignment(s, sentence_conj(order))
        assert (iri(EX + "a"), iri(EX + "outer")) in result.has_shape
        assert (iri(EX + "b"), iri(EX + "outer")) not in result.has_shape


def test_recursive_definitions_rejected():
    s = chain("a")
    d = ShapeDef(iri(EX + "s1"), HasShape(iri(EX + "s1")))
    with pytest.raises(ValueError):
        compute_shape_assignment(s, d)


def test_shape_evaluator_names_ill_formed_definitions():
    from shaclsat.scl import IllFormedSentence
    from shaclsat.structures import shape_evaluator

    s1, s2, given = iri(EX + "s1"), iri(EX + "s2"), iri(EX + "given")
    cases = {
        "duplicate shape definition": sentence_conj([ShapeDef(s1, Top()), ShapeDef(s1, Top())]),
        "recursive shape definition": sentence_conj(
            [ShapeDef(s1, HasShape(s2)), ShapeDef(s2, Not(HasShape(s1)))]
        ),
    }
    for named, definitions in cases.items():
        with pytest.raises(IllFormedSentence, match=named):
            shape_evaluator(chain("a"), definitions)
    # a shape without a definition keeps the structure's hasShape members
    s = replace(chain("a", "b"), has_shape=frozenset({(iri(EX + "b"), given)}))
    ev = shape_evaluator(s, ShapeDef(s1, exists(Rel(R), HasShape(given))))
    assert ev.extension(HasShape(s1)) == frozenset({0})


def test_explicit_order_blocks():
    a, b, c = integer(1), literal("x"), iri(EX + "n")
    structure = FiniteStructure(
        domain=(a, b, c),
        graph=edge_graph({R: {(c, a), (c, b)}}),
        order_blocks=(OrderBlock("block0", (a, b)),),
    )
    ev = Evaluator(structure)
    # a < b in the explicit block even though canonically incomparable
    assert ev.formula(OrderCmp(Rel(R), R, strict=False, inverted=False), 2) is False
    structure2 = FiniteStructure(
        domain=(a, b, c),
        graph=edge_graph({R: {(c, a)}, Q: {(c, b)}}),
        order_blocks=(OrderBlock("block0", (a, b)),),
    )
    assert Evaluator(structure2).formula(
        OrderCmp(Rel(R), Q, strict=True, inverted=False), 2
    )


def test_canonical_order_uses_term_values():
    one, two = integer(1), integer(2)
    structure = FiniteStructure(
        domain=(one, two, iri(EX + "n")),
        graph=edge_graph({R: {(iri(EX + "n"), one)}, Q: {(iri(EX + "n"), two)}}),
    )
    ev = Evaluator(structure)
    assert ev.formula(OrderCmp(Rel(R), Q, strict=True, inverted=False), 2)
    assert not ev.formula(OrderCmp(Rel(Q), R, strict=True, inverted=False), 2)


def test_uninterpreted_filters_consult_the_interpretation():
    from shaclsat.scl import Filter, IsIri

    a = iri(EX + "a")
    structure = FiniteStructure(
        domain=(a,),
        filter_interp={IsIri(): frozenset()},
    )
    assert not Evaluator(structure).formula(Filter(IsIri()), 0)
    structure2 = FiniteStructure(
        domain=(a,),
        filter_interp={IsIri(): frozenset({a})},
    )
    assert Evaluator(structure2).formula(Filter(IsIri()), 0)


def test_at_most_global_evaluation():
    s = chain("a", "b", "c")
    sentence = AtMostGlobal(2, Top())
    assert not evaluate_sentence(s, sentence)
    assert evaluate_sentence(s, AtMostGlobal(3, Top()))


def test_with_constants_extends_domain():
    s = chain("a")
    extended = with_constants(s, {iri(EX + "ghost")})
    assert iri(EX + "ghost") in extended.domain
    assert with_constants(extended, {iri(EX + "ghost")}) == extended


def test_public_evaluate_convenience():
    from shaclsat.structures import evaluate

    s = chain("a", "b")
    assert evaluate(s, exists(Rel(R), Top()), at=iri(EX + "a"))
    assert not evaluate(s, exists(Rel(R), Top()), at=iri(EX + "b"))
    sentence = sentence_conj(
        [ShapeDef(iri(EX + "s1"), EqConst(iri(EX + "a")))]
    )
    assert evaluate(s, sentence)
    with pytest.raises(ValueError):
        evaluate(s, Top())
    with pytest.raises(ValueError):
        evaluate(s, Top(), at=iri(EX + "ghost"))


def test_logic_route_builds_one_evaluator(monkeypatch):
    # the evaluator that assigns the shapes also answers the question
    from shaclsat.search import bounded_sat
    from shaclsat.validation import validate

    built = []
    init = Evaluator.__init__

    def counting_init(self, structure):
        built.append(structure)
        init(self, structure)

    monkeypatch.setattr(Evaluator, "__init__", counting_init)
    g = parse_turtle(
        "@prefix : <http://corpus.example/> .\n"
        ":Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane .\n"
        ":Jane :hasFaculty :Physics ."
    )
    doc = parse_document(
        doc_ttl(
            ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
            ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
            "sh:disjoint :hasFaculty ."
        )
    )
    sentence = translate(doc)

    assert not validate(g, doc).conforms
    assert len(built) == 1
    built.clear()
    assert not evaluate_sentence(canonical_structure(g), sentence)
    assert len(built) == 1
    built.clear()
    verdict = bounded_sat(sentence, max_domain=3)
    assert verdict.is_sat and len(built) == 1
    bare = replace(verdict.model, has_shape=frozenset())
    assert verdict.model.has_shape
    assert verdict.model == compute_shape_assignment(bare, extract_definitions(sentence))

import copy
import dataclasses
import pickle
import random

import pytest

from corpus import corpus_documents, random_formula, random_path
from shaclsat.scl import (
    Alt,
    And,
    AtConst,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    ForClass,
    ForSubjectsOf,
    HasShape,
    MissingDefinition,
    Not,
    Opt,
    OrderCmp,
    PathExpr,
    RecursiveDefinition,
    Rel,
    SAnd,
    SclFormula,
    SclSentence,
    Seq,
    ShapeDef,
    Star,
    Top,
    TopSentence,
    ast_size,
    check_well_formed,
    children,
    conjuncts,
    disj,
    exists,
    features_of,
    nodes,
    sentence_conj,
)
from shaclsat.scl_text import parse_scl, print_scl
from shaclsat.shapes import parse_document
from shaclsat.terms import iri
from shaclsat.translate import translate

R = iri("http://e/R")
Q = iri("http://e/Q")
S1 = iri("http://e/s1")
C = iri("http://e/c")


def test_every_grammar_production_is_representable():
    # paths: atom (+inverse), sequence, zero-or-one, alternative, closure
    path = Seq(Opt(Alt(Rel(R), Rel(Q, inverted=True))), Star(Rel(R)))
    # formulas: top, equality, filter, shape reference, negation, conjunction,
    # plain and counting quantification, disjointness, equality, both orders
    from shaclsat.scl import Filter, IsIri

    formula = And(
        Top(),
        And(
            EqConst(C),
            And(
                Filter(IsIri()),
                And(
                    Not(HasShape(S1)),
                    And(
                        exists(path, Top()),
                        And(
                            CountExists(2, Rel(R), Top()),
                            And(
                                Disjoint(Rel(R), Q),
                                And(
                                    Equals(Rel(R), Q),
                                    And(
                                        OrderCmp(Rel(R), Q, strict=True, inverted=False),
                                        OrderCmp(Rel(R), Q, strict=False, inverted=True),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    # sentences: empty, targeted forms, conjunction, shape definition
    sentence = sentence_conj(
        [
            TopSentence(),
            AtConst(C, formula),
            ForClass(C, Top()),
            ForSubjectsOf(R, False, Top()),
            ForSubjectsOf(R, True, Top()),
            ShapeDef(S1, Top()),
        ]
    )
    assert features_of(sentence) == frozenset("SZATDEOC") | {"O"}


def test_counting_threshold_must_be_positive():
    with pytest.raises(ValueError):
        CountExists(0, Rel(R), Top())


def test_features_of_examples():
    fig2 = SAnd(
        ForClass(C, Not(HasShape(S1))),
        ShapeDef(S1, Disjoint(Seq(Rel(R), Rel(Q)), Q)),
    )
    assert features_of(fig2) == frozenset({"S", "D"})
    assert features_of(TopSentence()) == frozenset()
    counting = AtConst(C, And(exists(Rel(R), Top()), Not(CountExists(2, Rel(R), Top()))))
    assert features_of(counting) == frozenset({"C"})


def test_oprime_promotes_to_o_with_any_inversion():
    fwd = AtConst(C, OrderCmp(Rel(R), Q, strict=False, inverted=False))
    assert features_of(fwd) == frozenset({"Oprime"})
    both = AtConst(C, And(
        OrderCmp(Rel(R), Q, strict=False, inverted=False),
        OrderCmp(Rel(R), Q, strict=False, inverted=True),
    ))
    assert features_of(both) == frozenset({"O"})


def test_features_monotone_under_subtree_insertion():
    # monotone up to the one designed promotion: an inserted inverted order
    # atom upgrades Oprime to O
    rng = random.Random(42)
    for _ in range(200):
        inner = random_formula(rng, 2)
        outer = features_of(AtConst(C, And(inner, random_formula(rng, 2))))
        for flag in features_of(inner):
            assert flag in outer or (flag == "Oprime" and "O" in outer)


def test_well_formed_fig2():
    fig2 = SAnd(
        ForClass(C, Not(HasShape(S1))),
        ShapeDef(S1, Disjoint(Seq(Rel(R), Rel(Q)), Q)),
    )
    assert check_well_formed(fig2) == []


def test_missing_definition_detected():
    sentence = AtConst(C, HasShape(S1))
    assert check_well_formed(sentence) == [MissingDefinition(S1)]


def test_recursive_definition_detected():
    sentence = ShapeDef(S1, HasShape(S1))
    assert check_well_formed(sentence) == [RecursiveDefinition(S1)]
    s2 = iri("http://e/s2")
    mutual = sentence_conj([ShapeDef(S1, HasShape(s2)), ShapeDef(s2, HasShape(S1))])
    defects = check_well_formed(mutual)
    assert any(isinstance(d, RecursiveDefinition) for d in defects)


def test_sentence_conj_flattens_and_drops_top():
    parts = [AtConst(C, Top()), TopSentence(), ForClass(C, Top())]
    folded = sentence_conj(parts)
    assert list(conjuncts(folded)) == [parts[0], parts[2]]
    assert sentence_conj([]) == TopSentence()


def test_disj_of_empty_is_false():
    assert disj([]) == Not(Top())


def test_ast_size_counts_nodes():
    assert ast_size(Top()) == 1
    assert ast_size(And(Top(), Top())) == 3
    assert ast_size(exists(Seq(Rel(R), Rel(Q)), Top())) == 5


# --------------------------------------------------------------------------
# Interning: structurally equal nodes are one object
# --------------------------------------------------------------------------


def _node_classes():
    pending = [PathExpr, SclFormula, SclSentence]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        yield cls


def _corpus_sentences():
    return [translate(parse_document(text)) for _, text in corpus_documents()]


def test_every_node_class_is_interned_with_identity_equality():
    metaclass = type(SclFormula)
    for cls in _node_classes():
        assert type(cls) is metaclass, cls
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__hash__ is object.__hash__, cls


def test_equal_nodes_are_one_object():
    assert Rel(R) is Rel(R, False) is Rel(name=R, inverted=False)
    assert exists(Seq(Rel(R), Rel(Q))) is CountExists(1, Seq(Rel(R), Rel(Q)), Top())
    assert ForClass(C, Top()) is ForClass(C, body=Top())
    for sentence in _corpus_sentences():
        assert parse_scl(print_scl(sentence)) is sentence
        assert copy.deepcopy(sentence) is sentence
        assert pickle.loads(pickle.dumps(sentence)) is sentence
        for node in nodes(sentence):
            assert dataclasses.replace(node) is node


def test_hashing_a_deep_chain_does_not_recurse():
    deep = Top()
    for _ in range(5000):
        deep = Not(deep)
    assert hash(deep) == hash(deep)
    assert {deep: 1}[deep] == 1


# --------------------------------------------------------------------------
# Traversal: one walk over the interned nodes, no recursion
# --------------------------------------------------------------------------


def _reference_walk(node, out):
    """Every node under `node`, by plain recursion over the dataclass fields."""
    out.add(node)
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, (PathExpr, SclFormula, SclSentence)):
            _reference_walk(value, out)
    return out


def test_nodes_yields_each_node_once_children_first():
    rng = random.Random(31)
    roots = _corpus_sentences()
    roots += [random_formula(rng, 4) for _ in range(150)]
    roots += [random_path(rng, 4) for _ in range(150)]
    for root in roots:
        order = list(nodes(root))
        assert len(order) == len(set(order)), root
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            for child in children(node):
                assert position[child] < position[node], (child, node)
        assert set(order) == _reference_walk(root, set())
        assert order[-1] is root


def test_nodes_does_not_enter_skipped_subtrees():
    inner = Not(EqConst(C))
    f = And(inner, Not(inner))
    assert list(nodes(f)) == [EqConst(C), inner, Not(inner), f]
    assert list(nodes(f, skip={inner})) == [Not(inner), f]


def test_deep_not_chain_prints_classifies_and_evaluates():
    from shaclsat.classify import classify
    from shaclsat.structures import FiniteStructure, evaluate

    depth = 10_000
    deep = EqConst(C)
    for _ in range(depth):
        deep = Not(deep)
    assert print_scl(deep) == "(not " * depth + "(eq <http://e/c>)" + ")" * depth
    sentence = sentence_conj([AtConst(C, deep), ShapeDef(S1, deep)])
    assert ast_size(sentence) == 2 * (depth + 2)
    assert classify(sentence).raw_features == frozenset()
    structure = FiniteStructure(domain=(C, Q))
    assert evaluate(structure, deep, at=C) and not evaluate(structure, deep, at=Q)
    assert evaluate(structure, sentence)

import random

from corpus import random_formula, random_structure
from shaclsat.rewrite import (
    eliminate_alternative,
    eliminate_sequence,
    eliminate_zero_or_one,
    name_subformulas,
    normalize_fragment,
    rewrite_sentence,
)
from shaclsat.scl import (
    Alt,
    And,
    AtConst,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    HasShape,
    Not,
    Opt,
    OrderCmp,
    Rel,
    SclFormula,
    Seq,
    ShapeDef,
    Top,
    ast_size,
    conjuncts,
    disj,
    exists,
    features_of,
    nodes,
)
from shaclsat.scl_text import print_scl
from shaclsat.structures import Evaluator
from shaclsat.terms import iri

EX = "http://corpus.example/"
P = iri(EX + "p2")
R = iri(EX + "r")
Q = iri(EX + "q")
C = iri(EX + "alice")


def _agree(before: SclFormula, after: SclFormula, cases: int = 40, seed: int = 0) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        structure = random_structure(rng)
        ev = Evaluator(structure)
        for x in range(len(structure.domain)):
            assert ev.formula(before, x) == ev.formula(after, x), (before, after, structure)


# ---- [S] ------------------------------------------------------------------


def test_sequence_elimination_displayed_equivalence():
    before = exists(Seq(Rel(P), Rel(Q)), EqConst(C))
    after = eliminate_sequence(before).formula
    assert after == exists(Rel(P), exists(Rel(Q), EqConst(C)))
    _agree(before, after)


def test_sequence_elimination_identity_without_sequences():
    f = exists(Rel(P), Not(EqConst(C)))
    assert eliminate_sequence(f).formula == f


def test_nested_sequences_become_nested_quantifiers():
    before = exists(Seq(Seq(Rel(P), Rel(Q)), Rel(R)), Top())
    after = eliminate_sequence(before).formula
    assert after == exists(Rel(P), exists(Rel(Q), exists(Rel(R), Top())))
    _agree(before, after, cases=200, seed=3)


def test_sequence_under_disjoint_left_intact():
    f = Disjoint(Seq(Rel(P), Rel(Q)), R)
    assert eliminate_sequence(f).formula == f


# ---- [Z] ------------------------------------------------------------------


def test_zero_or_one_displayed_equivalence():
    before = exists(Opt(Rel(R)), EqConst(C))
    after = eliminate_zero_or_one(before).formula
    assert after == disj([EqConst(C), exists(Rel(R), EqConst(C))])
    _agree(before, after)


def test_zero_or_one_identity_when_absent():
    f = exists(Rel(R), Top())
    assert eliminate_zero_or_one(f).formula == f


def test_zero_or_one_refused_under_counting():
    f = CountExists(2, Opt(Rel(R)), Top())
    result = eliminate_zero_or_one(f)
    assert result.formula == f
    assert result.defects and result.defects[0].rule == "Z"


def test_defect_under_an_eliminated_zero_or_one_is_reported_once():
    inner = CountExists(2, Opt(Rel(Q)), Top())
    result = rewrite_sentence(AtConst(C, exists(Opt(Rel(P)), inner)), "Z")
    assert result.sentence == AtConst(C, disj([inner, exists(Rel(P), inner)]))
    assert [d.at for d in result.defects] == [print_scl(inner)]


# ---- [A] ------------------------------------------------------------------


def test_alternative_displayed_equivalences():
    before = exists(Alt(Rel(P), Rel(Q)), EqConst(C))
    after = eliminate_alternative(before).formula
    assert after == disj([exists(Rel(P), EqConst(C)), exists(Rel(Q), EqConst(C))])
    _agree(before, after)

    before = Disjoint(Alt(Rel(P), Rel(Q)), R)
    after = eliminate_alternative(before).formula
    assert after == And(Disjoint(Rel(P), R), Disjoint(Rel(Q), R))
    _agree(before, after)

    before = OrderCmp(Alt(Rel(P), Rel(Q)), R, strict=False, inverted=False)
    after = eliminate_alternative(before).formula
    assert after == And(
        OrderCmp(Rel(P), R, strict=False, inverted=False),
        OrderCmp(Rel(Q), R, strict=False, inverted=False),
    )
    _agree(before, after)


def test_alternative_refused_under_equality_and_counting():
    f = Equals(Alt(Rel(P), Rel(Q)), R)
    result = eliminate_alternative(f)
    assert result.formula == f and result.defects
    f = CountExists(2, Alt(Rel(P), Rel(Q)), Top())
    result = eliminate_alternative(f)
    assert result.formula == f and result.defects


def test_defect_under_an_eliminated_alternative_is_reported_once():
    inner = CountExists(2, Alt(Rel(P), Rel(Q)), Top())
    result = rewrite_sentence(AtConst(C, exists(Alt(Rel(P), Rel(Q)), inner)), "A")
    assert result.sentence == AtConst(
        C, disj([exists(Rel(P), inner), exists(Rel(Q), inner)])
    )
    assert [d.at for d in result.defects] == [print_scl(inner)]


# ---- random-pair semantic preservation (the heavy check lives in acceptance)


def test_eliminations_preserve_semantics_on_random_pairs():
    rng = random.Random(99)
    rewriters = [eliminate_sequence, eliminate_zero_or_one, eliminate_alternative]
    for _ in range(150):
        formula = random_formula(rng, 3)
        structure = random_structure(rng)
        ev = Evaluator(structure)
        for rewriter in rewriters:
            after = rewriter(formula).formula
            ev2 = Evaluator(structure)
            for x in range(len(structure.domain)):
                assert ev.formula(formula, x) == ev2.formula(after, x)


def test_eliminations_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        formula = random_formula(rng, 3)
        for rewriter in (eliminate_sequence, eliminate_zero_or_one, eliminate_alternative):
            once = rewriter(formula).formula
            assert rewriter(once).formula == once


# ---- subformula naming -----------------------------------------------------


def test_name_subformulas_bodies_become_atoms():
    body = exists(Rel(R), And(Not(EqConst(C)), EqConst(C)))
    sentence = AtConst(C, body)
    named = name_subformulas(sentence)
    parts = list(conjuncts(named))
    assert len(parts) == 2
    at, definition = parts
    assert isinstance(definition, ShapeDef)
    assert at.body == exists(Rel(R), HasShape(definition.name))
    for part in parts:
        for f in nodes(part.body):
            if isinstance(f, CountExists):
                assert isinstance(f.body, (HasShape, Top))


def test_name_subformulas_keeps_plain_bodies():
    sentence = AtConst(C, exists(Rel(R), Top()))
    assert name_subformulas(sentence) == sentence


def test_name_subformulas_inner_first():
    inner = exists(Rel(Q), Not(EqConst(C)))
    sentence = AtConst(C, exists(Rel(R), And(inner, EqConst(C))))
    named = name_subformulas(sentence)
    defs = [p for p in conjuncts(named) if isinstance(p, ShapeDef)]
    assert len(defs) == 2
    # the first created definition names the innermost body
    assert defs[0].body == Not(EqConst(C))


def test_name_subformulas_linear_blowup():
    rng = random.Random(13)
    for _ in range(100):
        sentence = AtConst(C, random_formula(rng, 4))
        named = name_subformulas(sentence)
        assert ast_size(named) <= 3 * ast_size(sentence) + 3


def test_combined_pipeline_removes_s_z_a():
    body = exists(Seq(Opt(Rel(P)), Alt(Rel(Q), Rel(R))), Not(EqConst(C)))
    sentence = AtConst(C, body)
    result = rewrite_sentence(sentence, "SZA")
    flags = features_of(result.sentence)
    assert not ({"S", "Z", "A"} & flags)


# ---- fragment normalization -------------------------------------------------


def test_normalize_fragment_table():
    assert normalize_fragment(frozenset("SZA")) == frozenset()
    assert normalize_fragment(frozenset({"S"})) == frozenset()
    assert normalize_fragment(frozenset({"A", "D"})) == frozenset({"D"})
    assert normalize_fragment(frozenset({"A", "O"})) == frozenset({"O"})
    assert normalize_fragment(frozenset({"A", "D", "O"})) == frozenset({"D", "O"})
    assert normalize_fragment(frozenset({"S", "E"})) == frozenset({"S", "E"})
    assert normalize_fragment(frozenset({"S", "A", "D"})) == frozenset({"S", "A", "D"})

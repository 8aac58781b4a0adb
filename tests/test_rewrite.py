import hashlib
import random
from collections import Counter

from corpus import corpus_documents, random_formula, random_structure
from shaclsat import rewrite
from shaclsat.gadgets import (
    DOMINO_VARIANTS,
    INFINITY_KINDS,
    TilingSystem,
    gadget_domino,
    gadget_infinity,
)
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
    ForClass,
    ForSubjectsOf,
    HasShape,
    IllFormedSentence,
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
    sentence_conj,
)
from shaclsat.scl_text import print_scl
from shaclsat.shapes import extract_document
from shaclsat.structures import Evaluator
from shaclsat.terms import iri
from shaclsat.translate import NotShaclExpressible, back_translate_graph, translate
from shaclsat.turtle import parse_turtle, serialize_turtle

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


# ---- shared subformulas and pinned outputs ----------------------------------


def test_repeated_defect_in_one_body_is_reported_once():
    refused = CountExists(2, Opt(Rel(R)), Top())
    result = rewrite_sentence(AtConst(C, And(refused, Not(refused))), "Z")
    assert [d.at for d in result.defects] == [print_scl(refused)]


def test_doubly_shared_formula_takes_one_step_per_distinct_node(monkeypatch):
    f = EqConst(C)
    for _ in range(40):  # 2**40 occurrences, 121 distinct formulas
        f = And(exists(Opt(Rel(R)), f), f)
    steps: Counter = Counter()
    real_fold = rewrite.fold

    def counting_fold(root, step, done):
        def counted(node, done):
            steps[node] += 1
            return step(node, done)

        return real_fold(root, counted, done)

    monkeypatch.setattr(rewrite, "fold", counting_fold)
    formulas = [n for n in nodes(f) if isinstance(n, SclFormula)]
    for rewriter in (eliminate_sequence, eliminate_zero_or_one, eliminate_alternative):
        steps.clear()
        out = rewriter(f).formula
        assert set(steps) == set(formulas) and max(steps.values()) == 1
        assert len(list(nodes(out))) < 10 * len(formulas)


def _pinned_sentences() -> list:
    sentences = [
        translate(extract_document(parse_turtle(text))) for _, text in corpus_documents()
    ]
    sentences += [gadget_infinity(kind) for kind in INFINITY_KINDS]
    one = TilingSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
    two = TilingSystem(
        ("a", "b"), frozenset({("a", "b"), ("b", "a")}), frozenset({("a", "b"), ("b", "a")})
    )
    sentences += [gadget_domino(v, system) for system in (one, two) for v in DOMINO_VARIANTS]
    rng = random.Random(2020)
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 3)):
            body = random_formula(rng, rng.randint(1, 6))
            wrap = rng.choice((AtConst, ForClass, ForSubjectsOf))
            if wrap is ForSubjectsOf:
                parts.append(ForSubjectsOf(R, rng.random() < 0.5, body))
            else:
                parts.append(wrap(C, body))
        sentences.append(sentence_conj(parts))
    return sentences


# sha1 of the outputs below for the 367 sentences above (53 corpus translations, 4
# infinity and 10 domino gadgets, 300 random), measured before the passes were folds
REWRITE_DIGEST = "40c9887664faed7778404bba3337c57ad4a7411d"


def test_rewrites_naming_and_back_translation_are_pinned():
    digest = hashlib.sha1()
    for sentence in _pinned_sentences():
        for passes in ("S", "Z", "A", "SZA"):
            result = rewrite_sentence(sentence, passes)
            digest.update(print_scl(result.sentence).encode())
            digest.update(repr(result.defects).encode())
        digest.update(print_scl(name_subformulas(sentence)).encode())
        try:
            text = serialize_turtle(back_translate_graph(sentence))
        except (NotShaclExpressible, IllFormedSentence) as err:
            text = f"{type(err).__name__}: {err}"
        digest.update(text.encode())
    assert digest.hexdigest() == REWRITE_DIGEST

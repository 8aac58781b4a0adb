import itertools
import json

import pytest

from corpus import edge_graph
from shaclsat.gadgets import (
    DOMINO_VARIANTS,
    INFINITY_KINDS,
    TilingSystem,
    gadget_domino,
    gadget_infinity,
)
from shaclsat.scl import check_well_formed, features_of, node_constants, relation_names
from shaclsat.search import UNINTERPRETED, bounded_sat
from shaclsat.structures import Evaluator, FiniteStructure, OrderBlock
from shaclsat.terms import iri


def test_infinity_gadget_feature_sets():
    expected = {
        "C": {"C"},
        "STD": {"S", "T", "D"},
        "O": {"O"},
        "EOprime": {"E", "Oprime"},
    }
    for kind in INFINITY_KINDS:
        assert set(features_of(gadget_infinity(kind))) == expected[kind]
        assert check_well_formed(gadget_infinity(kind)) == []


def test_unknown_kinds_rejected():
    with pytest.raises(ValueError):
        gadget_infinity("XYZ")
    with pytest.raises(ValueError):
        gadget_domino("XYZ", TilingSystem(("t",), frozenset(), frozenset()))


def test_infinity_gadgets_unsat_at_small_sizes():
    for kind in INFINITY_KINDS:
        verdict = bounded_sat(gadget_infinity(kind), max_domain=3, budget=60, mode=UNINTERPRETED)
        assert verdict.outcome == "UnsatUpTo", kind


def test_tiling_system_json_round_trip():
    text = json.dumps(
        {"tiles": ["a", "b"], "horizontal": [["a", "b"], ["b", "a"]], "vertical": [["a", "a"]]}
    )
    system = TilingSystem.from_json(text)
    assert system.tiles == ("a", "b")
    assert ("a", "b") in system.horizontal and ("a", "a") in system.vertical
    with pytest.raises(ValueError):
        TilingSystem((), frozenset(), frozenset())
    with pytest.raises(ValueError):
        TilingSystem(("a",), frozenset({("a", "ghost")}), frozenset())


def test_domino_feature_sets_match_their_fragments():
    single = TilingSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
    expected = {
        "SO": {"S", "O"},
        "SAC": {"S", "A", "C"},
        "SEC": {"S", "E", "C"},
        "SEOprime": {"S", "E", "Oprime"},
        "SZAE": {"S", "Z", "A", "E"},
    }
    for variant in DOMINO_VARIANTS:
        sentence = gadget_domino(variant, single)
        assert set(features_of(sentence)) == expected[variant], variant
        assert check_well_formed(sentence) == []


def test_single_tile_satisfiable_at_size_one_except_szae():
    single = TilingSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
    for variant in ("SO", "SAC", "SEC", "SEOprime"):
        verdict = bounded_sat(gadget_domino(variant, single), max_domain=1, budget=60,
                              mode=UNINTERPRETED)
        assert verdict.is_sat, variant
    # the alternation core of the SZAE reduction rules out self-adjacent
    # diagonals, so one element cannot close the square; two can
    verdict = bounded_sat(gadget_domino("SZAE", single), max_domain=1, budget=60,
                          mode=UNINTERPRETED)
    assert verdict.outcome == "UnsatUpTo"
    verdict = bounded_sat(gadget_domino("SZAE", single), max_domain=2, budget=120,
                          mode=UNINTERPRETED)
    assert verdict.is_sat and len(verdict.model.domain) == 2


def _one_element_structures(sentence):
    """Every one-element structure over the sentence's relations and
    constants: each relation empty or the self-loop, every constant
    denoting the element, and orders canonical, empty or one block."""
    element = iri("http://corpus.example/e0")
    relations = sorted(relation_names(sentence), key=lambda t: t.sort_key())
    constants = {c: element for c in node_constants(sentence)}
    order_options = (None, (), (OrderBlock("block0", (element,)),))
    for loops in itertools.product((False, True), repeat=len(relations)):
        graph = edge_graph(
            {name: {(element, element)} for name, loop in zip(relations, loops) if loop}
        )
        for blocks in order_options:
            yield FiniteStructure(
                domain=(element,),
                graph=graph,
                constants=constants,
                order_blocks=blocks,
            )


def test_single_tile_one_element_models_by_evaluation():
    # solver-independent check of the size-one verdicts above: SZAE has no
    # one-element model because any diagonal self-loop in D0 (or D1) forces
    # one in D1 (or D0), and the alternation core forbids both at once
    single = TilingSystem(("t",), frozenset({("t", "t")}), frozenset({("t", "t")}))
    for variant in DOMINO_VARIANTS:
        sentence = gadget_domino(variant, single)
        models = sum(
            Evaluator(structure).sentence(sentence)
            for structure in _one_element_structures(sentence)
        )
        if variant == "SZAE":
            assert models == 0
        else:
            assert models >= 1, variant


def test_empty_horizontal_relation_unsat():
    empty_h = TilingSystem(("t",), frozenset(), frozenset({("t", "t")}))
    for variant in DOMINO_VARIANTS:
        verdict = bounded_sat(gadget_domino(variant, empty_h), max_domain=3, budget=60,
                              mode=UNINTERPRETED)
        assert verdict.outcome == "UnsatUpTo", variant


def test_incompatible_two_tile_system_unsat_when_colors_clash():
    # two tiles that may never sit next to themselves or each other
    system = TilingSystem(("a", "b"), frozenset(), frozenset({("a", "b"), ("b", "a")}))
    verdict = bounded_sat(gadget_domino("SAC", system), max_domain=2, budget=60,
                          mode=UNINTERPRETED)
    assert verdict.outcome == "UnsatUpTo"

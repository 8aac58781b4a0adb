"""Validation through the logic pipeline: translate, assign shapes, evaluate.

The induced structure of the data graph is extended with the sentence's
constants, the shape assignment is computed from the definition conjuncts,
and each targeted conjunct is checked, reporting one violation per failing
focus node.
"""

from __future__ import annotations

from . import shapes as sh
from .direct_validation import ValidationReport
from .scl import ShapeDef, node_constants, sentence_conj
from .structures import canonical_structure, shape_evaluator, with_constants
from .terms import Term, TripleGraph
from .translate import extract_definitions, translate_tagged


def validate(graph: TripleGraph, doc: sh.ShaclDocument) -> ValidationReport:
    tagged = translate_tagged(doc)
    sentence = sentence_conj([part for _, part in tagged])
    structure = with_constants(canonical_structure(graph), node_constants(sentence))
    ev = shape_evaluator(structure, extract_definitions(sentence))

    violations: list[tuple[Term, Term]] = []
    for shape_name, part in tagged:
        if isinstance(part, ShapeDef):
            continue
        for x in ev.counterexamples(part):
            violations.append((structure.domain[x], shape_name))
    unique = sorted(set(violations), key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return ValidationReport(not unique, tuple(unique))

"""Containment between documents via bounded counterexample search, and
the reductions of the per-constraint decision problems to document
satisfiability."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import shapes as sh
from .direct_validation import validate_direct
from .scl import ShapeDef, conjuncts, sentence_conj
from .search import CANONICAL, ModelConfirmationError, SearchAborted, _least_model
from .terms import Term, TripleGraph, iri
from .translate import extract_definitions, translate


@dataclass
class ContainmentVerdict:
    outcome: str  # "NotContained" | "NoCounterexampleUpTo" | "Aborted"
    counterexample: Optional[TripleGraph] = None
    bound: Optional[int] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.counterexample is not None:
            from .turtle import serialize_turtle

            out["counterexampleTurtle"] = serialize_turtle(self.counterexample)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _rename_clashing_shapes(
    doc: sh.ShaclDocument, taken: set[Term]
) -> tuple[sh.ShaclDocument, dict[Term, Term]]:
    """`doc` with every shape name in `taken` renamed, and the renaming."""
    clashes = {s.name for s in doc.shapes} & taken
    if not clashes:
        return doc, {}
    mapping: dict[Term, Term] = {}
    for name in clashes:
        fresh = Term(name.kind, name.lexical + "--m2")
        while fresh in taken:
            fresh = Term(fresh.kind, fresh.lexical + "x")
        mapping[name] = fresh
    shapes = tuple(
        replace(
            s,
            name=mapping.get(s.name, s.name),
            constraints=tuple(c.renamed(mapping) for c in s.constraints),
        )
        for s in doc.shapes
    )
    return sh.ShaclDocument(shapes, doc.vocabulary_context), mapping


def check_containment(
    doc1: sh.ShaclDocument,
    doc2: sh.ShaclDocument,
    max_domain: int = 4,
    budget: float = 10.0,
) -> ContainmentVerdict:
    """Search for a graph validating doc1 but not doc2.

    The search runs over canonical structures satisfying the translation of
    doc1 together with doc2's shape definitions, requiring some targeted
    conjunct of doc2's translation to fail; a found structure is stripped
    to a graph and confirmed against both documents directly.
    """
    doc2, _ = _rename_clashing_shapes(doc2, {s.name for s in doc1.shapes})
    # closed-world relation sets must span both documents when comparing them
    vocab = doc1.relation_names() | doc2.relation_names()
    doc1 = sh.ShaclDocument(doc1.shapes, frozenset(vocab))
    doc2 = sh.ShaclDocument(doc2.shapes, frozenset(vocab))

    phi1 = translate(doc1)
    phi2 = translate(doc2)
    defs2 = extract_definitions(phi2)
    targeted2 = tuple(part for part in conjuncts(phi2) if not isinstance(part, ShapeDef))
    if not targeted2:
        return ContainmentVerdict("NoCounterexampleUpTo", bound=max_domain)

    base = sentence_conj([phi1, defs2])
    full = sentence_conj([base, phi2])  # scanned for signature symbols only
    try:
        structure = _least_model(
            base, max_domain, budget, CANONICAL, scan=full, refuted=targeted2
        )
    except SearchAborted as err:
        return ContainmentVerdict("Aborted", reason=str(err))
    if structure is None:
        return ContainmentVerdict("NoCounterexampleUpTo", bound=max_domain)
    graph = structure.graph
    r1 = validate_direct(graph, doc1)
    r2 = validate_direct(graph, doc2)
    if not r1.conforms or r2.conforms:
        raise ModelConfirmationError("counterexample candidate failed direct confirmation")
    return ContainmentVerdict("NotContained", counterexample=graph)


# --------------------------------------------------------------------------
# Constraint-level reductions
# --------------------------------------------------------------------------


def _constraint_constants(doc: sh.ShaclDocument, name: Term) -> set[Term]:
    """Constants mentioned by a shape's constraints, following references
    from an explicit stack (the caller sorts the result)."""
    out: set[Term] = set()
    seen = {name}
    pending = [name]
    while pending:
        try:
            shape = doc.shape(pending.pop())
        except KeyError:
            continue
        for c in shape.constraints:
            if c.kind in (sh.HAS_VALUE, sh.CLASS, sh.MIN_EXCLUSIVE, sh.MIN_INCLUSIVE,
                          sh.MAX_EXCLUSIVE, sh.MAX_INCLUSIVE):
                out.add(c.args[0])
            elif c.kind == sh.IN:
                out.update(c.args)
            for ref in c.shape_refs():
                if ref not in seen:
                    seen.add(ref)
                    pending.append(ref)
    return out


def _strip_targets(doc: sh.ShaclDocument) -> list[sh.Shape]:
    return [replace(s, targets=()) for s in doc.shapes]


def reduce_constraint_sat(doc: sh.ShaclDocument, shape_name: Term) -> list[sh.ShaclDocument]:
    """Candidate documents whose satisfiability decides satisfiability of
    one shape's constraint: one per constant the constraint mentions, plus
    one fresh."""
    shape = doc.shape(shape_name)
    constants = sorted(_constraint_constants(doc, shape_name), key=Term.sort_key)
    fresh = iri("urn:shaclsat:probe:node")
    bump = 0
    while any(fresh == c for c in constants):
        bump += 1
        fresh = iri(f"urn:shaclsat:probe:node{bump}")
    out = []
    for c in constants + [fresh]:
        shapes = []
        for s in _strip_targets(doc):
            if s.name == shape_name:
                s = replace(s, targets=(sh.NodeTarget(c),))
            shapes.append(s)
        out.append(sh.ShaclDocument(tuple(shapes), doc.vocabulary_context))
    return out


def reduce_constraint_containment(
    doc1: sh.ShaclDocument, name1: Term, doc2: sh.ShaclDocument, name2: Term
) -> list[sh.ShaclDocument]:
    """Candidate documents that are satisfiable exactly when the first
    constraint is not contained in the second."""
    doc2, renaming = _rename_clashing_shapes(doc2, {s.name for s in doc1.shapes})
    renamed2 = renaming.get(name2, name2)
    constants = sorted(
        _constraint_constants(doc1, name1) | _constraint_constants(doc2, renamed2),
        key=Term.sort_key,
    )
    fresh = iri("urn:shaclsat:probe:node")
    probe_name = iri("urn:shaclsat:probe:shape")
    out = []
    for c in constants + [fresh]:
        shapes = list(_strip_targets(doc1)) + list(_strip_targets(doc2))
        probe = sh.Shape(
            name=probe_name,
            targets=(sh.NodeTarget(c),),
            constraints=(
                sh.Constraint(sh.NODE, (name1,)),
                sh.Constraint(sh.NOT, (renamed2,)),
            ),
        )
        out.append(
            sh.ShaclDocument(
                tuple(shapes) + (probe,),
                frozenset(doc1.vocabulary_context | doc2.vocabulary_context),
            )
        )
    return out

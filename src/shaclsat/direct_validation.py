"""Direct recursive conformance checking over the SHACL AST.

This evaluator works straight on shapes, targets and paths with a
reachability fixpoint for repeated paths.  It shares nothing with the
logic translation pipeline, so the two can be checked against each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import namespaces as ns
from . import shapes as sh
from .filter_semantics import string_representation, term_matches_node_kind
from .terms import ComparisonVerdict, Term, TripleGraph, compare_terms, iri
from .terms import effective_datatype, malformed_literal


@dataclass(frozen=True)
class ValidationReport:
    conforms: bool
    violations: tuple[tuple[Term, Term], ...]  # (focus node, shape name)

    def to_json(self) -> dict:
        from .terms import n3

        return {
            "conforms": self.conforms,
            "violations": [
                {"focusNode": n3(node), "shape": n3(shape)} for node, shape in self.violations
            ],
        }


class _Graph:
    def __init__(self, graph: TripleGraph):
        self.forward: dict[Term, dict[Term, set[Term]]] = {}
        self.backward: dict[Term, dict[Term, set[Term]]] = {}
        self.nodes: set[Term] = set()
        for t in graph.triples:
            self.forward.setdefault(t.predicate, {}).setdefault(t.subject, set()).add(t.object)
            self.backward.setdefault(t.predicate, {}).setdefault(t.object, set()).add(t.subject)
            self.nodes.add(t.subject)
            self.nodes.add(t.object)

    def succ(self, predicate: Term, node: Term) -> set[Term]:
        return self.forward.get(predicate, {}).get(node, set())

    def pred(self, predicate: Term, node: Term) -> set[Term]:
        return self.backward.get(predicate, {}).get(node, set())


def _path_values(g: _Graph, path: sh.ShaclPath, start: set[Term]) -> set[Term]:
    if isinstance(path, sh.PredicatePath):
        out: set[Term] = set()
        for node in start:
            out |= g.succ(path.predicate, node)
        return out
    if isinstance(path, sh.InversePath):
        if isinstance(path.inner, sh.PredicatePath):
            out = set()
            for node in start:
                out |= g.pred(path.inner.predicate, node)
            return out
        # general inverse: evaluate the inner path backwards
        return {
            x
            for x in g.nodes | start
            if start & _path_values(g, path.inner, {x})
        }
    if isinstance(path, sh.SequencePath):
        current = start
        for part in path.parts:
            current = _path_values(g, part, current)
        return current
    if isinstance(path, sh.AlternativePath):
        out = set()
        for part in path.parts:
            out |= _path_values(g, part, start)
        return out
    if isinstance(path, sh.ZeroOrOnePath):
        return start | _path_values(g, path.inner, start)
    if isinstance(path, sh.ZeroOrMorePath):
        reached = set(start)
        frontier = set(start)
        while frontier:
            step = _path_values(g, path.inner, frontier)
            frontier = step - reached
            reached |= step
        return reached
    if isinstance(path, sh.OneOrMorePath):
        first = _path_values(g, path.inner, start)
        return _path_values(g, sh.ZeroOrMorePath(path.inner), first)
    raise TypeError(f"unknown path {path!r}")


class _Validator:
    def __init__(self, graph: TripleGraph, doc: sh.ShaclDocument):
        self.g = _Graph(graph)
        self.doc = doc
        self.language_set = doc.language_set()
        self.memo: dict[tuple[Term, Term], bool] = {}

    # shape conformance ------------------------------------------------

    def conforms(self, shape: sh.Shape, node: Term) -> bool:
        key = (shape.name, node)
        if key in self.memo:
            return self.memo[key]
        values = (
            _path_values(self.g, shape.path, {node}) if shape.is_property_shape else None
        )
        result = all(self._constraint(shape, c, node, values) for c in shape.constraints)
        self.memo[key] = result
        return result

    def _ref(self, name: Term) -> sh.Shape:
        try:
            return self.doc.shape(name)
        except KeyError:
            return sh.Shape(name=name)

    def _constraint(self, shape, c: sh.Constraint, node: Term, values) -> bool:
        if shape.is_property_shape:
            return self._property_constraint(shape, c, node, values)
        return self._node_constraint(c, node)

    # node shape components ---------------------------------------------

    def _node_constraint(self, c: sh.Constraint, node: Term) -> bool:
        kind = c.kind
        if kind == sh.HAS_VALUE:
            return node == c.args[0]
        if kind == sh.IN:
            return node in c.args
        if kind == sh.CLASS:
            return c.args[0] in self.g.succ(iri(ns.RDF_TYPE), node)
        if kind == sh.DATATYPE:
            return (
                node.is_literal
                and effective_datatype(node) == c.args[0].lexical
                and not malformed_literal(node)
            )
        if kind == sh.NODE_KIND:
            return term_matches_node_kind(node, c.args[0].lexical)
        if kind == sh.MIN_EXCLUSIVE:
            return compare_terms(node, c.args[0]) is ComparisonVerdict.GT
        if kind == sh.MIN_INCLUSIVE:
            return compare_terms(node, c.args[0]) in (ComparisonVerdict.GT, ComparisonVerdict.EQ)
        if kind == sh.MAX_EXCLUSIVE:
            return compare_terms(node, c.args[0]) is ComparisonVerdict.LT
        if kind == sh.MAX_INCLUSIVE:
            return compare_terms(node, c.args[0]) in (ComparisonVerdict.LT, ComparisonVerdict.EQ)
        if kind == sh.MIN_LENGTH:
            rep = string_representation(node)
            return rep is not None and len(rep) >= c.args[0]
        if kind == sh.MAX_LENGTH:
            rep = string_representation(node)
            return rep is not None and len(rep) <= c.args[0]
        if kind == sh.PATTERN:
            rep = string_representation(node)
            return rep is not None and re.search(c.args[0], rep) is not None
        if kind == sh.LANGUAGE_IN:
            return node.is_literal and node.language is not None and any(
                node.language.lower() == tag.lower() for tag in c.args
            )
        if kind == sh.NOT:
            return not self.conforms(self._ref(c.args[0]), node)
        if kind == sh.AND:
            return all(self.conforms(self._ref(s), node) for s in c.args)
        if kind == sh.OR:
            return any(self.conforms(self._ref(s), node) for s in c.args)
        if kind == sh.XONE:
            return sum(1 for s in c.args if self.conforms(self._ref(s), node)) == 1
        if kind in (sh.NODE, sh.PROPERTY):
            return self.conforms(self._ref(c.args[0]), node)
        # components without a node-shape reading never constrain
        return True

    # property shape components -----------------------------------------

    def _property_constraint(self, shape, c: sh.Constraint, node: Term, values: set[Term]) -> bool:
        kind = c.kind
        if kind == sh.HAS_VALUE:
            return c.args[0] in values
        if kind == sh.UNIQUE_LANG:
            for tag in self.language_set:
                tagged = [
                    v for v in values if v.is_literal and v.language and v.language.lower() == tag.lower()
                ]
                if len(tagged) >= 2:
                    return False
            return True
        if kind == sh.MIN_COUNT:
            return len(values) >= c.args[0]
        if kind == sh.MAX_COUNT:
            return len(values) <= c.args[0]
        if kind == sh.EQUALS:
            return values == self.g.succ(c.args[0], node)
        if kind == sh.DISJOINT:
            return not (values & self.g.succ(c.args[0], node))
        if kind in (sh.LESS_THAN, sh.LESS_THAN_OR_EQUALS):
            allowed = (
                (ComparisonVerdict.LT,)
                if kind == sh.LESS_THAN
                else (ComparisonVerdict.LT, ComparisonVerdict.EQ)
            )
            for v in values:
                for w in self.g.succ(c.args[0], node):
                    if compare_terms(v, w) not in allowed:
                        return False
            return True
        if kind == sh.QUALIFIED:
            ref, min_count, max_count, siblings = c.args
            matching = [
                v
                for v in values
                if self.conforms(self._ref(ref), v)
                and not any(self.conforms(self._ref(s), v) for s in siblings)
            ]
            if min_count is not None and len(matching) < min_count:
                return False
            if max_count is not None and len(matching) > max_count:
                return False
            return True
        if kind == sh.CLOSED:
            for relation in self.doc.closed_theta(shape):
                if self.g.succ(relation, node):
                    return False
            return True
        # value-type components apply to every value node
        return all(self._node_constraint(c, v) for v in values)


def target_extension(g: _Graph, target: sh.Target) -> set[Term]:
    if isinstance(target, sh.NodeTarget):
        return {target.node}
    if isinstance(target, sh.ClassTarget):
        return set(g.pred(iri(ns.RDF_TYPE), target.cls))
    if isinstance(target, sh.SubjectsOfTarget):
        return set(g.forward.get(target.relation, {}))
    if isinstance(target, sh.ObjectsOfTarget):
        return set(g.backward.get(target.relation, {}))
    raise TypeError(f"unknown target {target!r}")


def validate_direct(graph: TripleGraph, doc: sh.ShaclDocument) -> ValidationReport:
    """Conformance of a data graph against a document, straight off the AST."""
    validator = _Validator(graph, doc)
    violations: list[tuple[Term, Term]] = []
    for shape in doc.shapes:
        for target in shape.targets:
            for focus in sorted(target_extension(validator.g, target), key=Term.sort_key):
                if not validator.conforms(shape, focus):
                    violations.append((focus, shape.name))
    unique = sorted(set(violations), key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return ValidationReport(not unique, tuple(unique))

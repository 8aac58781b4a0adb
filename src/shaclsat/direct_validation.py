"""Direct conformance checking over the SHACL AST.

This evaluator works straight on shapes, targets and paths.  A repeated
path is condensed once per validation: the strongly connected components
of its inner path's successor relation are found in one Tarjan pass, and a
value-type component over the repeated path is decided once per strongly
connected component; when counts are the only components that read the
value set, a count walks the condensation only until its bound is
decided.  It shares only the graph's index, no semantics, with the logic
translation pipeline, so the two can be checked against each other.
"""

from __future__ import annotations

import re
from collections.abc import Set
from dataclasses import dataclass
from typing import Optional

from . import namespaces as ns
from . import shapes as sh
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


class _Closure:
    """The strongly connected components of one path's successor relation,
    over the nodes met so far, as the condensation DAG.

    An iterative Tarjan pass (SIAM J. Comput. 1972) runs from each start
    node not met before and evaluates each node's successors once.  A
    component finishes after every component it steps into, so ids are a
    reverse topological order.  Only the DAG is stored, which is linear in
    the relation: a node's reflexive-transitive closure is the members of
    the components reachable from its own, gathered when it is asked for.
    """

    def __init__(self):
        self.component: dict[Term, int] = {}
        self.members: list[tuple[Term, ...]] = []
        self.below: list[tuple[int, ...]] = []  # the components one step leads into
        # per value-type constraint: whether every node a component reaches meets it
        self.verdicts: dict[sh.Constraint, dict[int, bool]] = {}

    def reached(self, tops: list[int]):
        """The member tuples of the components reachable from tops, each
        once."""
        seen = set(tops)
        todo = list(seen)
        while todo:
            cid = todo.pop()
            yield self.members[cid]
            for below in self.below[cid]:
                if below not in seen:
                    seen.add(below)
                    todo.append(below)

    def values(self, tops: list[int]) -> set[Term]:
        """The members of the components reachable from tops."""
        out: set[Term] = set()
        for members in self.reached(tops):
            out.update(members)
        return out

    def count(self, tops: list[int], limit: int) -> int:
        """How many members the components reachable from tops have, or
        limit if that is fewer; the walk stops once it reaches limit."""
        n = 0
        for members in self.reached(tops):
            n += len(members)
            if n >= limit:
                return limit
        return n

    def visit(self, root: Term, step) -> None:
        """Tarjan's pass from root over the nodes no earlier pass met."""
        # the nodes this pass meets are numbered in discovery order, so the
        # bookkeeping is lists indexed by number rather than dicts of terms
        component = self.component
        number = {root: 0}
        nodes = [root]
        successors = [step(root)]
        low = [0]
        stack = [0]
        work = [(0, iter(successors[0]))]
        while work:
            i, pending = work[-1]
            for nxt in pending:
                if nxt in component:
                    continue
                j = number.get(nxt)
                if j is None:  # a tree edge: descend
                    j = number[nxt] = len(nodes)
                    nodes.append(nxt)
                    successors.append(step(nxt))
                    low.append(j)
                    stack.append(j)
                    work.append((j, iter(successors[j])))
                    break
                if j < low[i]:  # nxt is on the stack
                    low[i] = j
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[i] < low[parent]:
                        low[parent] = low[i]
                if low[i] != i:
                    continue
                cid = len(self.members)
                members = []
                j = -1
                while j != i:
                    j = stack.pop()
                    members.append(j)
                    component[nodes[j]] = cid
                below = {component[nxt] for j in members for nxt in successors[j]}
                below.discard(cid)
                self.members.append(tuple(nodes[j] for j in members))
                self.below.append(tuple(below))
                for j in members:
                    successors[j] = None


def _path_values(
    validator: _Validator, path: sh.ShaclPath, start: Set[Term], backward: bool
) -> Set[Term]:
    """The values of path from start or, when backward, the nodes from
    which path reaches start; callers never mutate the result."""
    if isinstance(path, sh.PredicatePath):
        step = validator.pred if backward else validator.succ
        out: set[Term] = set()
        for node in start:
            out |= step(path.predicate, node)
        return out
    if isinstance(path, sh.InversePath):
        return _path_values(validator, path.inner, start, not backward)
    if isinstance(path, sh.SequencePath):
        current = start
        for part in reversed(path.parts) if backward else path.parts:
            current = _path_values(validator, part, current, backward)
        return current
    if isinstance(path, sh.AlternativePath):
        out = set()
        for part in path.parts:
            out |= _path_values(validator, part, start, backward)
        return out
    if isinstance(path, sh.ZeroOrOnePath):
        return start | _path_values(validator, path.inner, start, backward)
    if isinstance(path, sh.ZeroOrMorePath):
        closure, tops = validator.closure(path.inner, backward, start)
        return closure.values(tops)
    if isinstance(path, sh.OneOrMorePath):
        steps = _path_values(validator, path.inner, start, backward)
        closure, tops = validator.closure(path.inner, backward, steps)
        return closure.values(tops)
    raise TypeError(f"unknown path {path!r}")


def string_representation(term: Term) -> Optional[str]:
    """SPARQL str() of a term; None for blank nodes."""
    if term.is_blank:
        return None
    return term.lexical


def term_matches_node_kind(term: Term, node_kind_iri: str) -> bool:
    if node_kind_iri == ns.SH_NK_IRI:
        return term.is_iri
    if node_kind_iri == ns.SH_NK_LITERAL:
        return term.is_literal
    if node_kind_iri == ns.SH_NK_BLANK:
        return term.is_blank
    if node_kind_iri == ns.SH_NK_BLANK_OR_IRI:
        return term.is_blank or term.is_iri
    if node_kind_iri == ns.SH_NK_BLANK_OR_LITERAL:
        return term.is_blank or term.is_literal
    if node_kind_iri == ns.SH_NK_IRI_OR_LITERAL:
        return term.is_iri or term.is_literal
    return False


# components whose reading at a node is conformance to other shapes
_REFERENCE_KINDS = frozenset((sh.NOT, sh.AND, sh.OR, sh.XONE, sh.NODE, sh.PROPERTY))
# property shape components that read the value set as a whole
_VALUE_SET_KINDS = frozenset((
    sh.HAS_VALUE, sh.UNIQUE_LANG, sh.MIN_COUNT, sh.MAX_COUNT, sh.EQUALS, sh.DISJOINT,
    sh.LESS_THAN, sh.LESS_THAN_OR_EQUALS, sh.CLOSED,
))
_COUNT_KINDS = frozenset((sh.MIN_COUNT, sh.MAX_COUNT))


class _Validator:
    """Conformance of (shape, node) pairs, each decided once.

    A shape reference is never a Python call: `conforms` keeps an explicit
    stack of frames, one generator per pair being decided, which yields the
    (shape name, node) pairs it needs and returns its verdict, so a chain
    of `sh:node` references is as deep as the stack list, not the
    interpreter's.
    """

    def __init__(self, graph: TripleGraph, doc: sh.ShaclDocument):
        self.graph = graph
        self.doc = doc
        self.language_set = doc.language_set()
        self.memo: dict[tuple[Term, Term], bool] = {}
        # per inner path of a repeated path and direction, filled on first use
        self.closures: dict[tuple[sh.ShaclPath, bool], _Closure] = {}

    def succ(self, predicate: Term, node: Term) -> set[Term]:
        return self.graph.forward.get(predicate, {}).get(node, set())

    def pred(self, predicate: Term, node: Term) -> set[Term]:
        return self.graph.backward.get(predicate, {}).get(node, set())

    def closure(
        self, inner: sh.ShaclPath, backward: bool, start: Set[Term]
    ) -> tuple[_Closure, list[int]]:
        """The condensation of inner's successor relation, or of its
        inverse when backward, kept for the validation, and the component
        of each start node."""
        closure = self.closures.get((inner, backward))
        if closure is None:
            closure = self.closures[inner, backward] = _Closure()
        component = closure.component
        if any(node not in component for node in start):
            # the step is not stored, so a closure holds no reference back
            # to the validator
            if isinstance(inner, sh.PredicatePath):
                predicate, index = inner.predicate, self.pred if backward else self.succ
                step = lambda node: index(predicate, node)
            else:
                step = lambda node: _path_values(self, inner, {node}, backward)
            for node in start:
                if node not in component:
                    closure.visit(node, step)
        return closure, [component[node] for node in start]

    def conforms(self, shape: sh.Shape, node: Term) -> bool:
        key = (shape.name, node)
        memo = self.memo
        if key in memo:
            return memo[key]
        frames = [(key, self._frame(shape, node))]
        answer = None
        while frames:
            key, frame = frames[-1]
            try:
                need = frame.send(answer)
            except StopIteration as done:
                frames.pop()
                answer = memo[key] = done.value
                continue
            answer = memo.get(need)
            if answer is None:
                frames.append((need, self._frame(self._ref(need[0]), need[1])))
        return answer

    def _ref(self, name: Term) -> sh.Shape:
        try:
            return self.doc.shape(name)
        except KeyError:
            return sh.Shape(name=name)

    def _frame(self, shape: sh.Shape, node: Term):
        """Whether node conforms to shape, as a frame of `conforms`."""
        if not shape.is_property_shape:
            for c in shape.constraints:
                if c.kind in _REFERENCE_KINDS:
                    ok = yield from self._reference(c, node)
                else:
                    ok = self._node_constraint(c, node)
                if not ok:
                    return False
            return True
        # the top-level inverses are a direction, so ^(p*) is the repeated path p* read backward
        path, backward = shape.path, False
        while isinstance(path, sh.InversePath):
            path, backward = path.inner, not backward
        closure = None
        if isinstance(path, (sh.ZeroOrMorePath, sh.OneOrMorePath)):
            roots = {node}
            if isinstance(path, sh.OneOrMorePath):
                roots = _path_values(self, path.inner, roots, backward)
            closure, tops = self.closure(path.inner, backward, roots)
            # when only counts read the value set, a count walks the
            # condensation until its bound is decided
            only_counts = all(
                c.kind in _COUNT_KINDS
                for c in shape.constraints
                if c.kind in _VALUE_SET_KINDS or c.kind == sh.QUALIFIED
            )
        values = None  # gathered only when a constraint reads the value set
        for c in shape.constraints:
            if closure is not None and c.kind not in _VALUE_SET_KINDS and c.kind != sh.QUALIFIED:
                ok = yield from self._every_reached_value(c, closure, tops)
            elif closure is not None and only_counts:
                bound = c.args[0]
                if c.kind == sh.MIN_COUNT:
                    ok = closure.count(tops, bound) >= bound
                else:
                    ok = closure.count(tops, bound + 1) <= bound
            else:
                if values is None:
                    values = _path_values(self, path, {node}, backward)
                if c.kind in _VALUE_SET_KINDS:
                    ok = self._property_constraint(shape, c, node, values)
                elif c.kind == sh.QUALIFIED:
                    ok = yield from self._qualified(c, values)
                else:  # value-type components apply to every value node
                    ok = yield from self._every_value(c, values)
            if not ok:
                return False
        return True

    # shape references ---------------------------------------------------

    def _reference(self, c: sh.Constraint, node: Term):
        kind = c.kind
        if kind == sh.NOT:
            return not (yield (c.args[0], node))
        if kind == sh.AND:
            for s in c.args:
                if not (yield (s, node)):
                    return False
            return True
        if kind == sh.OR:
            for s in c.args:
                if (yield (s, node)):
                    return True
            return False
        if kind == sh.XONE:
            met = 0
            for s in c.args:
                met += (yield (s, node))
            return met == 1
        return (yield (c.args[0], node))  # sh:node, sh:property

    def _qualified(self, c: sh.Constraint, values: Set[Term]):
        ref, min_count, max_count, siblings = c.args
        matching = 0
        for v in values:
            if (yield (ref, v)):
                for s in siblings:
                    if (yield (s, v)):
                        break
                else:
                    matching += 1
        if min_count is not None and matching < min_count:
            return False
        if max_count is not None and matching > max_count:
            return False
        return True

    def _every_value(self, c: sh.Constraint, values: Set[Term]):
        if c.kind in _REFERENCE_KINDS:
            for v in values:
                if not (yield from self._reference(c, v)):
                    return False
            return True
        return all(self._node_constraint(c, v) for v in values)

    def _every_reached_value(self, c: sh.Constraint, closure: _Closure, tops: list[int]):
        """Whether every member of the components reachable from tops meets
        the value-type component c, decided once per component: its
        verdict is its members' and its successors'."""
        known = closure.verdicts.setdefault(c, {})
        for top in tops:
            todo = [top]
            while todo:
                cid = todo[-1]
                if cid in known:
                    todo.pop()
                    continue
                later = [below for below in closure.below[cid] if below not in known]
                if later:
                    todo += later
                    continue
                todo.pop()
                ok = all(known[below] for below in closure.below[cid])
                if ok:
                    ok = yield from self._every_value(c, closure.members[cid])
                known[cid] = ok
            if not known[top]:
                return False
        return True

    # node shape components ---------------------------------------------

    def _node_constraint(self, c: sh.Constraint, node: Term) -> bool:
        kind = c.kind
        if kind == sh.HAS_VALUE:
            return node == c.args[0]
        if kind == sh.IN:
            return node in c.args
        if kind == sh.CLASS:
            return c.args[0] in self.succ(iri(ns.RDF_TYPE), node)
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
        # components without a node-shape reading never constrain
        return True

    # property shape components -----------------------------------------

    def _property_constraint(self, shape, c: sh.Constraint, node: Term, values: Set[Term]) -> bool:
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
            return values == self.succ(c.args[0], node)
        if kind == sh.DISJOINT:
            return not (values & self.succ(c.args[0], node))
        if kind in (sh.LESS_THAN, sh.LESS_THAN_OR_EQUALS):
            allowed = (
                (ComparisonVerdict.LT,)
                if kind == sh.LESS_THAN
                else (ComparisonVerdict.LT, ComparisonVerdict.EQ)
            )
            for v in values:
                for w in self.succ(c.args[0], node):
                    if compare_terms(v, w) not in allowed:
                        return False
            return True
        # sh:closed
        for relation in self.doc.closed_theta(shape):
            if self.succ(relation, node):
                return False
        return True


def target_extension(graph: TripleGraph, target: sh.Target) -> set[Term]:
    if isinstance(target, sh.NodeTarget):
        return {target.node}
    if isinstance(target, sh.ClassTarget):
        return set(graph.backward.get(iri(ns.RDF_TYPE), {}).get(target.cls, ()))
    if isinstance(target, sh.SubjectsOfTarget):
        return set(graph.forward.get(target.relation, {}))
    if isinstance(target, sh.ObjectsOfTarget):
        return set(graph.backward.get(target.relation, {}))
    raise TypeError(f"unknown target {target!r}")


def validate_direct(graph: TripleGraph, doc: sh.ShaclDocument) -> ValidationReport:
    """Conformance of a data graph against a document, straight off the AST."""
    validator = _Validator(graph, doc)
    violations: list[tuple[Term, Term]] = []
    for shape in doc.shapes:
        for target in shape.targets:
            for focus in sorted(target_extension(graph, target), key=Term.sort_key):
                if not validator.conforms(shape, focus):
                    violations.append((focus, shape.name))
    unique = sorted(set(violations), key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return ValidationReport(not unique, tuple(unique))

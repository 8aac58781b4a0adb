"""Direct conformance checking over the SHACL AST.

This evaluator works straight on shapes, targets and paths.  Each shape is
decided through a plan, built on the shape's first use in a validation: a
property shape's path is read once (its direction and, for a predicate,
the index of that predicate's edges in that direction), and each
component is compiled once, by the compiler for its kind, into a test of
one value or a test of the value set.

A shape is plain when it holds no shape reference, or when every shape it
references holds none.  A plain shape is decided by a direct call, which
calls the plans of the shapes it references.  Any other shape is decided
in a frame of an explicit stack, once per (shape, node) pair, kept in the
memo; a frame calls plain shapes directly.  So a Python call chain spans
at most one frame's shape and two plain ones, however long a chain of
references is.  A plain shape that a reference asks keeps its verdict
per node, as the values of many nodes can share one node; only a node
shape's `sh:node` or `sh:property` calls it afresh, as that asks at the
node shape's own node, once per decision of the node shape.

A repeated path is condensed once per validation: the strongly connected
components of its inner path's successor relation are found in one Tarjan
pass, and a value test over the repeated path is decided once per strongly
connected component; when counts are the only components that read the
value set, a count walks the condensation only until its bound is
decided.  It shares only the graph's index, no semantics, with the logic
translation pipeline, so the two can be checked against each other.
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Callable, Collection, Set
from dataclasses import dataclass
from typing import Union

from . import namespaces as ns
from . import shapes as sh
from .terms import BLANK, IRI, LITERAL, ComparisonVerdict, Term, TripleGraph, compare_terms, iri
from .terms import effective_datatype, malformed_literal

_EMPTY: frozenset = frozenset()

ValueTest = Callable[[Term], bool]
SetTest = Callable[[Term, Set[Term]], bool]  # (focus node, value set)


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

    def undecided(self, tops: list[int], known: dict[int, bool]):
        """The components reachable from tops that have no verdict in known
        and whose successors all pass, each after every component it leads
        into, for the caller to record its verdict in known before taking
        the next: a component's verdict is its members' and its
        successors'.  A component with a failing successor fails here, and
        the walk ends at the first top that fails."""
        below = self.below
        for top in tops:
            if top not in known:
                seen = {top}
                todo = [top]
                while todo:
                    for b in below[todo.pop()]:
                        if b not in seen and b not in known:
                            seen.add(b)
                            todo.append(b)
                # in id order, each comes after every component it leads into
                for cid in sorted(seen):
                    if all(known[b] for b in below[cid]):
                        yield cid
                    else:
                        known[cid] = False
            if not known[top]:
                return

    def every(self, tops: list[int], known: dict[int, bool], test: ValueTest) -> bool:
        """Whether every member of the components reachable from tops passes
        test, decided once per component."""
        members = self.members
        for cid in self.undecided(tops, known):
            known[cid] = all(map(test, members[cid]))
        for top in tops:
            if not known[top]:
                return False
        return True

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


# --------------------------------------------------------------------------
# Component compilers: one per kind, each run once per plan
# --------------------------------------------------------------------------

# the term kinds each node kind admits; an unknown node kind admits none
_NODE_KINDS = {
    ns.SH_NK_IRI: frozenset((IRI,)),
    ns.SH_NK_LITERAL: frozenset((LITERAL,)),
    ns.SH_NK_BLANK: frozenset((BLANK,)),
    ns.SH_NK_BLANK_OR_IRI: frozenset((BLANK, IRI)),
    ns.SH_NK_BLANK_OR_LITERAL: frozenset((BLANK, LITERAL)),
    ns.SH_NK_IRI_OR_LITERAL: frozenset((IRI, LITERAL)),
}


class _Compiler:
    """The compilers of one shape's components, one method per kind, each
    taking the component's arguments: a value-type component compiles into
    a test of one value, a component that reads the value set into a test
    of the focus node and its value set."""

    def __init__(self, graph: TripleGraph, doc: sh.ShaclDocument, shape: sh.Shape):
        self.graph, self.doc, self.shape = graph, doc, shape

    def value_test(self, c: sh.Constraint) -> ValueTest:
        return _VALUE_COMPILERS[c.kind](self, *c.args)

    def set_test(self, c: sh.Constraint) -> SetTest:
        return _SET_COMPILERS[c.kind](self, *c.args)

    # value-type components -----------------------------------------------

    def has_value(self, value: Term) -> ValueTest:
        return lambda v: v == value

    def in_(self, *values: Term) -> ValueTest:
        return frozenset(values).__contains__

    def cls(self, cls: Term) -> ValueTest:
        types = self.graph.forward.get(iri(ns.RDF_TYPE), {})
        return lambda v: cls in types.get(v, _EMPTY)

    def datatype(self, datatype: Term) -> ValueTest:
        name = datatype.lexical
        return lambda v: (
            v.kind == LITERAL and effective_datatype(v) == name and not malformed_literal(v)
        )

    def node_kind(self, node_kind: Term) -> ValueTest:
        kinds = _NODE_KINDS.get(node_kind.lexical, _EMPTY)
        return lambda v: v.kind in kinds

    def min_exclusive(self, bound: Term) -> ValueTest:
        return _compares_to(bound, (ComparisonVerdict.GT,))

    def min_inclusive(self, bound: Term) -> ValueTest:
        return _compares_to(bound, (ComparisonVerdict.GT, ComparisonVerdict.EQ))

    def max_exclusive(self, bound: Term) -> ValueTest:
        return _compares_to(bound, (ComparisonVerdict.LT,))

    def max_inclusive(self, bound: Term) -> ValueTest:
        return _compares_to(bound, (ComparisonVerdict.LT, ComparisonVerdict.EQ))

    # lengths and patterns read SPARQL str(), which a blank node lacks
    def min_length(self, least: int) -> ValueTest:
        return lambda v: v.kind != BLANK and len(v.lexical) >= least

    def max_length(self, most: int) -> ValueTest:
        return lambda v: v.kind != BLANK and len(v.lexical) <= most

    def pattern(self, regex: str) -> ValueTest:
        search = re.compile(regex).search
        return lambda v: v.kind != BLANK and search(v.lexical) is not None

    def language_in(self, *tags: str) -> ValueTest:
        lowered = frozenset(tag.lower() for tag in tags)
        return lambda v: (
            v.kind == LITERAL and v.language is not None and v.language.lower() in lowered
        )

    # components that read the value set ----------------------------------

    def contains_value(self, value: Term) -> SetTest:
        return lambda node, values: value in values

    def unique_lang(self) -> SetTest:
        tags = frozenset(tag.lower() for tag in self.doc.language_set())
        return lambda node, values: _no_tag_twice(values, tags)

    def min_count(self, least: int) -> SetTest:
        return lambda node, values: len(values) >= least

    def max_count(self, most: int) -> SetTest:
        return lambda node, values: len(values) <= most

    def equals(self, relation: Term) -> SetTest:
        edges = self.graph.forward.get(relation, {})
        return lambda node, values: values == edges.get(node, _EMPTY)

    def disjoint(self, relation: Term) -> SetTest:
        edges = self.graph.forward.get(relation, {})
        return lambda node, values: values.isdisjoint(edges.get(node, _EMPTY))

    def less_than(self, relation: Term) -> SetTest:
        return self._each_pair(relation, (ComparisonVerdict.LT,))

    def less_than_or_equals(self, relation: Term) -> SetTest:
        return self._each_pair(relation, (ComparisonVerdict.LT, ComparisonVerdict.EQ))

    def _each_pair(self, relation: Term, allowed: tuple[ComparisonVerdict, ...]) -> SetTest:
        """Each value compares to each value of relation as one of allowed."""
        edges = self.graph.forward.get(relation, {})
        return lambda node, values: all(
            compare_terms(v, w) in allowed for v in values for w in edges.get(node, _EMPTY)
        )

    def closed(self, *ignored: Term) -> SetTest:
        forward = self.graph.forward
        forbidden = [forward[r] for r in self.doc.closed_theta(self.shape, ignored) if r in forward]
        return lambda node, values: not any(node in edges for edges in forbidden)


def _compares_to(bound: Term, allowed: tuple[ComparisonVerdict, ...]) -> ValueTest:
    return lambda v: compare_terms(v, bound) in allowed


def _no_tag_twice(values: Set[Term], tags: frozenset[str]) -> bool:
    """Whether no two values carry the same one of tags, compared in lower case."""
    seen = set()
    for v in values:
        if v.kind == LITERAL and v.language:
            tag = v.language.lower()
            if tag in tags:
                if tag in seen:
                    return False
                seen.add(tag)
    return True


# value-type components: a test of each value node (of a node shape: of the node)
_VALUE_COMPILERS = {
    sh.HAS_VALUE: _Compiler.has_value,
    sh.IN: _Compiler.in_,
    sh.CLASS: _Compiler.cls,
    sh.DATATYPE: _Compiler.datatype,
    sh.NODE_KIND: _Compiler.node_kind,
    sh.MIN_EXCLUSIVE: _Compiler.min_exclusive,
    sh.MIN_INCLUSIVE: _Compiler.min_inclusive,
    sh.MAX_EXCLUSIVE: _Compiler.max_exclusive,
    sh.MAX_INCLUSIVE: _Compiler.max_inclusive,
    sh.MIN_LENGTH: _Compiler.min_length,
    sh.MAX_LENGTH: _Compiler.max_length,
    sh.PATTERN: _Compiler.pattern,
    sh.LANGUAGE_IN: _Compiler.language_in,
}
# components of a property shape that read the value set as a whole
_SET_COMPILERS = {
    sh.HAS_VALUE: _Compiler.contains_value,
    sh.UNIQUE_LANG: _Compiler.unique_lang,
    sh.MIN_COUNT: _Compiler.min_count,
    sh.MAX_COUNT: _Compiler.max_count,
    sh.EQUALS: _Compiler.equals,
    sh.DISJOINT: _Compiler.disjoint,
    sh.LESS_THAN: _Compiler.less_than,
    sh.LESS_THAN_OR_EQUALS: _Compiler.less_than_or_equals,
    sh.CLOSED: _Compiler.closed,
}
_COUNT_KINDS = frozenset((sh.MIN_COUNT, sh.MAX_COUNT))
# components whose reading at a node is conformance to other shapes
_REFERENCE_KINDS = frozenset((sh.NOT, sh.AND, sh.OR, sh.XONE, sh.NODE, sh.PROPERTY))


# --------------------------------------------------------------------------
# Shape references
# --------------------------------------------------------------------------

# A reference component's shapes are each a plan, when the shape is plain,
# or a name.  These generators decide the component: they call a plan and
# yield (name, node) for a name, to `_Validator.conforms`, which sends the
# verdict back.  When every shape is a plan they yield nothing, and `_run`
# reads their verdict.


def _run(decision) -> bool:
    """The verdict of a decision whose shapes are all plans."""
    try:
        next(decision)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a decision over plain shapes asked for a frame")


def _ask(ref, node: Term):
    """Whether node conforms to ref: a plain shape's plan is called, any
    other shape is asked of `conforms`."""
    if isinstance(ref, _Plan):
        return ref.decide_once(node)
    return (yield (ref, node))


def _reference(kind: str, refs: tuple, node: Term):
    if kind == sh.NOT:
        return not (yield from _ask(refs[0], node))
    if kind == sh.AND:
        for ref in refs:
            if not (yield from _ask(ref, node)):
                return False
        return True
    if kind == sh.OR:
        for ref in refs:
            if (yield from _ask(ref, node)):
                return True
        return False
    if kind == sh.XONE:
        met = 0
        for ref in refs:
            met += (yield from _ask(ref, node))
        return met == 1
    return (yield from _ask(refs[0], node))  # sh:node, sh:property


def _qualified(c: sh.Constraint, refs: tuple, values: Set[Term]):
    _, min_count, max_count, _ = c.args
    qualifies, *siblings = refs
    matching = 0
    for v in values:
        if (yield from _ask(qualifies, v)):
            for sibling in siblings:
                if (yield from _ask(sibling, v)):
                    break
            else:
                matching += 1
    if min_count is not None and matching < min_count:
        return False
    if max_count is not None and matching > max_count:
        return False
    return True


def _every(kind: str, refs: tuple, values: Collection[Term]):
    for v in values:
        if not (yield from _reference(kind, refs, v)):
            return False
    return True


# --------------------------------------------------------------------------
# Plans
# --------------------------------------------------------------------------


class _Plan:
    """How a shape is decided in one validation, built on the shape's first
    use; this class decides a node shape, whose only value is the node.

    A decision reads what `reach` gives at the node (here the node itself)
    and runs `check` over it.  `tests` are the compiled value tests, by
    constraint, and `set_tests` the value-set tests; a reference component
    whose shapes are all plain is one of them.  `framed` holds the reference
    components that name a shape that is not plain, with each named shape's
    plan when it is plain and its name when not: only a frame of
    `_Validator.conforms` reads them.
    """

    def __init__(self, validator: _Validator, shape: sh.Shape):
        self.name = shape.name
        self.plain = validator.is_plain(shape)
        self.tests: dict[sh.Constraint, ValueTest] = {}
        self.set_tests: list[SetTest] = []
        self.framed: list[tuple[sh.Constraint, tuple[Union[_Plan, Term], ...]]] = []
        # the verdicts of decide_once, by node
        self.verdicts: dict[Term, bool] = {}
        compiler = _Compiler(validator.graph, validator.doc, shape)
        for c in shape.constraints:
            kind = c.kind
            if kind in _REFERENCE_KINDS or kind == sh.QUALIFIED and shape.is_property_shape:
                refs = validator.refs(c.shape_refs())
                if not all(isinstance(ref, _Plan) for ref in refs):
                    self.framed.append((c, refs))
                elif kind == sh.QUALIFIED:
                    self.set_tests.append(
                        lambda node, values, c=c, refs=refs: _run(_qualified(c, refs, values))
                    )
                elif kind in (sh.NODE, sh.PROPERTY):
                    # a node shape asks at its own node, once per decision
                    # of its own, so only a property shape's values keep
                    # their verdicts
                    (ref,) = refs
                    self.tests[c] = ref.decide_once if shape.is_property_shape else ref.decide
                else:
                    self.tests[c] = lambda v, kind=kind, refs=refs: _run(_reference(kind, refs, v))
            elif not shape.is_property_shape:
                # a component that reads a value set has no reading at a node shape
                if kind in _VALUE_COMPILERS:
                    self.tests[c] = compiler.value_test(c)
            elif kind in _SET_COMPILERS:
                self.set_tests.append(compiler.set_test(c))
            else:
                self.tests[c] = compiler.value_test(c)

    def reach(self, node: Term) -> Collection[Term]:
        return (node,)

    def value_set(self, reached) -> Collection[Term]:
        """The value set of what reach gave."""
        return reached

    def check(self, node: Term, values: Collection[Term]) -> bool:
        """Whether node, with what reach gave at it, passes every compiled
        test."""
        for test in self.set_tests:
            if not test(node, values):
                return False
        for test in self.tests.values():
            for v in values:
                if not test(v):
                    return False
        return True

    def decide(self, node: Term) -> bool:
        """Whether node passes every compiled test, which is check at the
        node's one value in one loop: the shape's verdict when it is
        plain."""
        for test in self.tests.values():
            if not test(node):
                return False
        return True

    def decide_once(self, node: Term) -> bool:
        """decide, kept per node: a reference asks this at the values of a
        path, which the values of many nodes can share."""
        verdict = self.verdicts.get(node)
        if verdict is None:
            verdict = self.verdicts[node] = self.decide(node)
        return verdict


class _PathPlan(_Plan):
    """How a property shape over a path with no top-level repetition is
    decided: a predicate path reads its edges' index, any other path is
    evaluated from the focus node."""

    def __init__(self, validator: _Validator, shape: sh.Shape, path: sh.ShaclPath, backward: bool):
        super().__init__(validator, shape)
        self.edges = None
        if isinstance(path, sh.PredicatePath):
            index = validator.graph.backward if backward else validator.graph.forward
            self.edges = index.get(path.predicate, {})
        else:
            # the validator holds its plans, so a plan holds it weakly: a
            # cycle would keep the validation's memory until a full collection
            self.validator, self.path, self.backward = weakref.proxy(validator), path, backward

    def reach(self, node: Term) -> Set[Term]:
        if self.edges is not None:
            return self.edges.get(node, _EMPTY)
        return _path_values(self.validator, self.path, {node}, self.backward)

    def decide(self, node: Term) -> bool:
        if not (self.tests or self.set_tests):  # a shape with no component walks no path
            return True
        return self.check(node, self.reach(node))


class _RepeatedPlan(_Plan):
    """How a property shape over a repeated path is decided: off the
    condensation of the inner path, a value test once per component."""

    def __init__(self, validator: _Validator, shape: sh.Shape, path: sh.ShaclPath, backward: bool):
        super().__init__(validator, shape)
        self.validator, self.inner, self.backward = weakref.proxy(validator), path.inner, backward
        self.one_or_more = isinstance(path, sh.OneOrMorePath)
        closure = validator.closures.setdefault((path.inner, backward), _Closure())
        # each value test with its verdicts by component
        self.component_tests = [
            (test, closure.verdicts.setdefault(c, {})) for c, test in self.tests.items()
        ]
        # when only counts read the value set, a count walks the
        # condensation until its bound is decided
        reads_set = [
            c for c in shape.constraints if c.kind in _SET_COMPILERS or c.kind == sh.QUALIFIED
        ]
        self.counts = None
        if all(c.kind in _COUNT_KINDS for c in reads_set):
            self.counts = [(c.kind == sh.MIN_COUNT, c.args[0]) for c in reads_set]

    def reach(self, node: Term) -> tuple[_Closure, list[int]]:
        """The condensation and the components the path's values start from."""
        roots = {node}
        if self.one_or_more:
            roots = _path_values(self.validator, self.inner, roots, self.backward)
        return self.validator.closure(self.inner, self.backward, roots)

    decide = _PathPlan.decide  # check over what reach gives

    def value_set(self, reached: tuple[_Closure, list[int]]) -> Set[Term]:
        closure, tops = reached
        return closure.values(tops)

    def check(self, node: Term, reached: tuple[_Closure, list[int]]) -> bool:
        closure, tops = reached
        for test, known in self.component_tests:
            if not closure.every(tops, known, test):
                return False
        if self.counts is not None:
            for at_least, bound in self.counts:
                if at_least and closure.count(tops, bound) < bound:
                    return False
                if not at_least and closure.count(tops, bound + 1) > bound:
                    return False
        elif self.set_tests:
            values = closure.values(tops)
            for test in self.set_tests:
                if not test(node, values):
                    return False
        return True


# --------------------------------------------------------------------------
# The validator
# --------------------------------------------------------------------------


class _Validator:
    """Conformance of (shape, node) pairs, through one plan per shape.

    `conforms` decides a plain shape by its plan's direct call, which
    leaves no memo entry.  Any other shape is decided in an explicit stack
    of frames, one generator per (shape, node) pair being decided: the
    frame runs its plan's compiled tests, then its `framed` components,
    which yield the pairs they need of shapes that are not plain, and it
    returns its verdict; each such pair is decided once and kept in
    `memo`.  A chain of `sh:node` references is thus as deep as the stack
    list, not the interpreter's.
    """

    def __init__(self, graph: TripleGraph, doc: sh.ShaclDocument):
        self.graph = graph
        self.doc = doc
        self.plans: dict[Term, _Plan] = {}
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

    def _ref(self, name: Term) -> sh.Shape:
        try:
            return self.doc.shape(name)
        except KeyError:
            return sh.Shape(name=name)

    def is_plain(self, shape: sh.Shape) -> bool:
        """Whether no shape that shape references holds a reference."""
        return not any(
            d.shape_refs()
            for c in shape.constraints
            for name in c.shape_refs()
            for d in self._ref(name).constraints
        )

    def plan(self, shape: sh.Shape) -> _Plan:
        plan = self.plans.get(shape.name)
        if plan is None:
            if not shape.is_property_shape:
                plan = _Plan(self, shape)
            else:
                # the top-level inverses are a direction, so ^(p*) is the
                # repeated path p* read backward
                path, backward = shape.path, False
                while isinstance(path, sh.InversePath):
                    path, backward = path.inner, not backward
                repeated = isinstance(path, (sh.ZeroOrMorePath, sh.OneOrMorePath))
                plan = (_RepeatedPlan if repeated else _PathPlan)(self, shape, path, backward)
            self.plans[shape.name] = plan
        return plan

    def refs(self, names) -> tuple[Union[_Plan, Term], ...]:
        """Each named shape's plan when it is plain, else its name."""
        out = []
        for name in names:
            shape = self._ref(name)
            out.append(self.plan(shape) if self.is_plain(shape) else name)
        return tuple(out)

    def conforms(self, shape: sh.Shape, node: Term) -> bool:
        plan = self.plan(shape)
        if plan.plain:
            return plan.decide(node)
        key = (plan.name, node)
        memo = self.memo
        if key in memo:
            return memo[key]
        frames = [(key, self._frame(plan, node))]
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
                frames.append((need, self._frame(self.plan(self._ref(need[0])), need[1])))
        return answer

    def _frame(self, plan: _Plan, node: Term):
        """Whether node conforms to the shape of plan, which is not plain,
        as a frame of `conforms`."""
        reached = plan.reach(node)
        if not plan.check(node, reached):
            return False
        values = None
        for c, refs in plan.framed:
            if isinstance(plan, _RepeatedPlan) and c.kind != sh.QUALIFIED:
                closure, tops = reached
                known = closure.verdicts.setdefault(c, {})
                for cid in closure.undecided(tops, known):
                    known[cid] = yield from _every(c.kind, refs, closure.members[cid])
                ok = all(known[top] for top in tops)
            else:
                if values is None:
                    values = plan.value_set(reached)
                if c.kind == sh.QUALIFIED:
                    ok = yield from _qualified(c, refs, values)
                else:
                    ok = yield from _every(c.kind, refs, values)
            if not ok:
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

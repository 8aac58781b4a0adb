"""Finite first-order structures and the sentence evaluator.

A structure interprets binary relations over a finite domain of terms as
the edges of one `TripleGraph`, carries a computed hasShape relation, and
interprets filters and orders either canonically (from the terms
themselves) or explicitly (from enumerated extensions and order blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

from . import namespaces as ns
from .filter_semantics import TermTest, term_test
from .scl import (
    And,
    AtConst,
    AtMostGlobal,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    Filter,
    ForClass,
    ForSubjectsOf,
    HasShape,
    Not,
    Opt,
    OrderCmp,
    PathExpr,
    Rel,
    SclFormula,
    SclSentence,
    Seq,
    ShapeDef,
    Star,
    Top,
    TopSentence,
    Alt,
    IllFormedSentence,
    MissingDefinition,
    FormulaValues,
    conjuncts,
    definition_order,
    fold,
    operands,
)
from .terms import (
    ComparisonVerdict,
    Term,
    TripleGraph,
    compare_terms,
    iri,
    n3,
)

@dataclass(frozen=True)
class OrderBlock:
    comparison_type: str
    members: tuple[Term, ...]  # ascending


@dataclass
class FiniteStructure:
    """Treat instances as immutable; derived structures are new objects."""

    domain: tuple[Term, ...]
    graph: TripleGraph = TripleGraph(frozenset())  # the relations, as edges
    has_shape: frozenset[tuple[Term, Term]] = frozenset()
    filter_interp: Optional[dict] = None  # None = canonical
    order_blocks: Optional[tuple[OrderBlock, ...]] = None  # None = canonical
    constants: dict[Term, Term] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("structures have a non-empty domain")
        members = set(self.domain)
        for name, by_subject in self.graph.forward.items():
            for s, objects in by_subject.items():
                if s not in members or not members.issuperset(objects):
                    raise ValueError(f"relation {n3(name)} mentions terms outside the domain")

    def denote(self, constant: Term) -> Term:
        return self.constants.get(constant, constant)

    def to_json(self) -> dict:
        forward = sorted(self.graph.forward.items(), key=lambda kv: kv[0].sort_key())
        return {
            "domain": [n3(t) for t in self.domain],
            "relations": {
                name.lexical: sorted([n3(s), n3(o)] for s, objs in by_subject.items() for o in objs)
                for name, by_subject in forward
            },
        }

    def to_graph(self) -> TripleGraph:
        """The relations without hasShape: the structure's own graph."""
        return self.graph


def canonical_structure(graph: TripleGraph) -> FiniteStructure:
    """The structure a graph induces: its terms, the graph itself as its
    relations, canonical filters and orders, and no shape assignment yet."""
    terms: set[Term] = set()
    for by_subject in graph.forward.values():
        terms.update(by_subject, chain.from_iterable(by_subject.values()))
    domain = sorted(terms, key=Term.sort_key) or [iri(ns.GEN_NS + "inert:0")]
    return FiniteStructure(domain=tuple(domain), graph=graph)


def with_constants(structure: FiniteStructure, constants: set[Term]) -> FiniteStructure:
    """Extend the domain with constants it is missing (as inert elements)."""
    missing = sorted(set(constants) - set(structure.domain), key=Term.sort_key)
    if not missing:
        return structure
    return replace(structure, domain=structure.domain + tuple(missing))


class Evaluator:
    """Set-at-a-time model checking over one structure.

    A subformula's extension is the set of domain indices where it holds.
    Boolean connectives are set operations over ``range(n)``.  Threshold-1
    existentials are preimages of their body's extension through the path;
    a star is a backward fixpoint and never builds its closure.  Counting
    thresholds above 1 and the disjoint/equals/order atoms read per-node
    successor sets.  Extensions and successor sets are `fold` values, so
    each is computed once per (interned) AST node, children first, and
    equal subformulas share one entry.  A shape atom inside a formula takes
    the assignment current when the fold reaches it (see `assign`).  A
    canonical filter is compiled by `term_test` once per evaluator.
    """

    def __init__(self, structure: FiniteStructure):
        self.s = structure
        self.index = {term: i for i, term in enumerate(structure.domain)}
        self.n = len(structure.domain)
        self.everything = frozenset(range(self.n))
        members: dict[Term, set[int]] = {}
        for t, name in structure.has_shape:
            if t in self.index:
                members.setdefault(name, set()).add(self.index[t])
        self._shapes: dict[Term, frozenset[int]] = {
            name: frozenset(xs) for name, xs in members.items()
        }
        self._successors: dict[PathExpr, dict[int, frozenset[int]]] = {}
        self._extensions: dict[SclFormula, frozenset[int]] = FormulaValues()
        self._filter_tests: dict[object, TermTest] = {}  # canonical filters, each built once
        self._order_position: Optional[dict[Term, tuple[int, int]]] = None
        if structure.order_blocks is not None:
            self._order_position = {}
            for b, block in enumerate(structure.order_blocks):
                for pos, term in enumerate(block.members):
                    self._order_position[term] = (b, pos)

    # paths ---------------------------------------------------------------

    def successors(self, path: PathExpr) -> dict[int, frozenset[int]]:
        """Path successors per node; nodes without successors are absent.
        Uncached subpaths are folded children first."""
        return fold(path, self._compute_successors, self._successors)

    def _compute_successors(self, path: PathExpr, done: dict) -> dict[int, frozenset[int]]:
        """The successors of `path` from its subpaths' successors in `done`,
        or, for a relation, from the graph's index in its direction."""
        grouped: dict[int, set[int]] = {}
        if isinstance(path, Rel):
            edges = self.s.graph.backward if path.inverted else self.s.graph.forward
            for a, bs in edges.get(path.name, {}).items():
                grouped[self.index[a]] = {self.index[b] for b in bs}
        elif isinstance(path, Seq):
            right = done[path.right]
            for i, mids in done[path.left].items():
                reached = set().union(*(right.get(m, ()) for m in mids))
                if reached:
                    grouped[i] = reached
        elif isinstance(path, Alt):
            left, right = done[path.left], done[path.right]
            grouped = {i: {*left.get(i, ()), *right.get(i, ())} for i in left.keys() | right.keys()}
        elif isinstance(path, Opt):
            inner = done[path.inner]
            grouped = {i: {i, *inner.get(i, ())} for i in range(self.n)}
        elif isinstance(path, Star):
            # forward BFS from each node: each node enters a frontier once
            inner = done[path.inner]
            for start in range(self.n):
                reached, frontier = {start}, {start}
                while frontier:
                    frontier = {j for x in frontier for j in inner.get(x, ())} - reached
                    reached |= frontier
                grouped[start] = reached
        else:  # pragma: no cover
            raise TypeError(f"unknown path {path!r}")
        return {i: frozenset(js) for i, js in grouped.items()}

    def preimage(self, path: PathExpr, targets: frozenset[int]) -> frozenset[int]:
        """Nodes with at least one path successor in `targets`.

        A sequence is unfolded from an explicit stack, rightmost step
        first, and an alternative's members are looped over, so a long
        `sh:path` list or `sh:alternativePath` costs no recursion.
        """
        steps = [path]
        while steps:
            step = steps.pop()
            if isinstance(step, Seq):
                steps += (step.left, step.right)
            elif isinstance(step, Rel):
                pred = self.successors(Rel(step.name, not step.inverted))
                out: set[int] = set()
                for j in targets:
                    out.update(pred.get(j, ()))
                targets = frozenset(out)
            elif isinstance(step, Alt):
                targets = frozenset().union(
                    *(self.preimage(member, targets) for member in operands(step, Alt))
                )
            elif isinstance(step, Opt):
                targets = targets | self.preimage(step.inner, targets)
            elif isinstance(step, Star):
                # backward BFS: each node enters the frontier once
                reached = set(targets)
                frontier = targets
                while frontier:
                    frontier = self.preimage(step.inner, frontier) - reached
                    reached |= frontier
                targets = frozenset(reached)
            else:  # pragma: no cover
                raise TypeError(f"unknown path {step!r}")
        return targets

    # interpreted atoms ----------------------------------------------------

    def filter_truth(self, name, element: int) -> bool:
        if self.s.filter_interp is None:
            test = self._filter_tests.get(name)
            if test is None:
                test = self._filter_tests[name] = term_test(name)
            return test(self.s.domain[element])
        return self.s.domain[element] in self.s.filter_interp.get(name, ())

    def order_verdict(self, a: int, b: int) -> ComparisonVerdict:
        if self._order_position is None:
            return compare_terms(self.s.domain[a], self.s.domain[b])
        pa = self._order_position.get(self.s.domain[a])
        pb = self._order_position.get(self.s.domain[b])
        if pa is None or pb is None or pa[0] != pb[0]:
            return ComparisonVerdict.INCOMPARABLE
        if pa[1] == pb[1]:
            return ComparisonVerdict.EQ
        return ComparisonVerdict.LT if pa[1] < pb[1] else ComparisonVerdict.GT

    def _sigma(self, a: int, b: int, strict: bool) -> bool:
        verdict = self.order_verdict(a, b)
        if strict:
            return verdict is ComparisonVerdict.LT
        return verdict in (ComparisonVerdict.LT, ComparisonVerdict.EQ)

    # formulas --------------------------------------------------------------

    def assign(self, shape: Term, members: frozenset[int]) -> None:
        """Add elements to a shape's hasShape set.

        Call it before any extension that mentions the shape is computed:
        extensions are cached and do not see later assignments.
        """
        self._shapes[shape] = self._shapes.get(shape, frozenset()) | members

    def assigned_structure(self) -> FiniteStructure:
        """The structure with the assigned shape members added to hasShape."""
        assigned = {(self.s.domain[x], name) for name, xs in self._shapes.items() for x in xs}
        return replace(self.s, has_shape=self.s.has_shape | assigned)

    def formula(self, f: SclFormula, element: int) -> bool:
        return element in self.extension(f)

    def extension(self, f: SclFormula) -> frozenset[int]:
        """Domain indices where `f` holds.

        Uncached subformulas are folded children first; a shape atom reads
        the current assignment.
        """
        if isinstance(f, HasShape):
            return self._shapes.get(f.shape, frozenset())
        return fold(f, self._compute, self._extensions)

    def _compute(self, f: SclFormula, done: dict) -> frozenset[int]:
        """The extension of `f` from its subformulas' extensions in `done`."""
        if isinstance(f, Not):
            return self.everything - done[f.body]
        if isinstance(f, And):
            return done[f.left] & done[f.right]
        if isinstance(f, Top):
            return self.everything
        if isinstance(f, HasShape):
            return self._shapes.get(f.shape, frozenset())
        if isinstance(f, EqConst):
            target = self.index.get(self.s.denote(f.constant))
            return frozenset() if target is None else frozenset((target,))
        if isinstance(f, Filter):
            return frozenset(x for x in range(self.n) if self.filter_truth(f.name, x))
        if isinstance(f, CountExists):
            body = done[f.body]
            if f.threshold == 1:
                return self.preimage(f.path, body)
            return frozenset(
                x for x, ys in self.successors(f.path).items()
                if len(ys & body) >= f.threshold
            )
        if isinstance(f, (Disjoint, Equals, OrderCmp)):
            path_succ = self.successors(f.path)
            rel_succ = self.successors(Rel(f.relation))
            none = frozenset()
            return frozenset(
                x for x in range(self.n)
                if self._pair_atom(f, path_succ.get(x, none), rel_succ.get(x, none))
            )
        raise TypeError(f"unknown formula {f!r}")

    def _pair_atom(
        self, f: SclFormula, path_succ: frozenset[int], rel_succ: frozenset[int]
    ) -> bool:
        """A disjoint, equals or order atom at a node with these successors."""
        if isinstance(f, Disjoint):
            return path_succ.isdisjoint(rel_succ)
        if isinstance(f, Equals):
            return path_succ == rel_succ
        for y in path_succ:
            for z in rel_succ:
                a, b = (z, y) if f.inverted else (y, z)
                if not self._sigma(a, b, f.strict):
                    return False
        return True

    # sentences ---------------------------------------------------------------

    def sentence(self, s: SclSentence) -> bool:
        return not any(self.counterexamples(part) for part in conjuncts(s))

    def counterexamples(self, part: SclSentence) -> list[int]:
        """Domain elements witnessing the failure of one sentence conjunct."""
        if isinstance(part, TopSentence):
            return []
        if isinstance(part, AtConst):
            target = self.s.denote(part.constant)
            if target not in self.index:
                raise ValueError(f"constant {part.constant} does not denote a domain element")
            x = self.index[target]
            return [] if self.formula(part.body, x) else [x]
        if isinstance(part, ForClass):
            cls = self.s.denote(part.cls)
            if cls not in self.index:
                return []
            members = self.successors(Rel(iri(ns.RDF_TYPE), True)).get(self.index[cls])
            return sorted((members or frozenset()) - self.extension(part.body))
        if isinstance(part, ForSubjectsOf):
            subjects = self.successors(Rel(part.relation, part.inverted))
            return sorted(subjects.keys() - self.extension(part.body))
        if isinstance(part, ShapeDef):
            # definitions hold by construction once the assignment is computed
            mismatch = self.extension(HasShape(part.name)) ^ self.extension(part.body)
            return sorted(mismatch)
        if isinstance(part, AtMostGlobal):
            hits = sorted(self.extension(part.body))
            return hits if len(hits) > part.bound else []
        raise TypeError(f"unknown sentence {part!r}")


def shape_evaluator(structure: FiniteStructure, definitions: SclSentence) -> Evaluator:
    """An evaluator over `structure` whose hasShape is populated by
    evaluating each definition in dependency order.

    A shape without a definition keeps the structure's hasShape members.
    Raises IllFormedSentence for a duplicate or recursive definition.
    """
    order, defects = definition_order(definitions)
    defects = [d for d in defects if not isinstance(d, MissingDefinition)]
    if defects:
        raise IllFormedSentence(defects)
    ev = Evaluator(structure)
    for d in order:
        ev.assign(d.name, ev.extension(d.body))
    return ev


def compute_shape_assignment(
    structure: FiniteStructure, definitions: SclSentence
) -> FiniteStructure:
    """Populate hasShape by evaluating each definition in dependency order."""
    return shape_evaluator(structure, definitions).assigned_structure()


def evaluate_sentence(structure: FiniteStructure, sentence: SclSentence) -> bool:
    """Truth of a sentence after computing the shape assignment it needs."""
    from .translate import extract_definitions

    return shape_evaluator(structure, extract_definitions(sentence)).sentence(sentence)


def evaluate(structure: FiniteStructure, node, at: Optional[Term] = None) -> bool:
    """Truth of a sentence, or of a formula at a domain term.

    Sentences get their shape assignment computed first; formulas are
    evaluated against the structure as given.
    """
    if isinstance(node, SclSentence):
        return evaluate_sentence(structure, node)
    if at is None:
        raise ValueError("formula evaluation needs a domain term")
    ev = Evaluator(structure)
    if at not in ev.index:
        raise ValueError(f"{at} is not a domain element")
    return ev.formula(node, ev.index[at])

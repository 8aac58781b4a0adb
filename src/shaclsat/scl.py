"""Typed AST for the one-variable constraint logic used throughout.

Sentences are conjunctions of targeted constraint formulas and shape-name
definitions; formulas have exactly one free variable by construction.
Plain existential quantification is normalized to a counting quantifier
with threshold 1, so the C feature is triggered only by thresholds != 1.

Path, formula and sentence nodes are interned (hash-consed): structurally
equal nodes are one object, so ``==`` is identity and hashing is O(1).
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Callable, Container, Iterator, Optional, Union

from .namespaces import RDF_TYPE
from .terms import Term, iri, n3


# --------------------------------------------------------------------------
# Filters (monadic interpreted relations over terms)
# --------------------------------------------------------------------------


class FilterName:
    """Base class for monadic filter names; subclasses are frozen dataclasses."""

    def sort_key(self) -> tuple:
        return (type(self).__name__,) + tuple(
            t.sort_key() if isinstance(t, Term) else t for t in self._args()
        )

    def _args(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__dataclass_fields__)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class IsIri(FilterName):
    pass


@dataclass(frozen=True)
class IsLiteral(FilterName):
    pass


@dataclass(frozen=True)
class IsBlank(FilterName):
    pass


@dataclass(frozen=True)
class HasDatatype(FilterName):
    datatype: str


@dataclass(frozen=True)
class HasLanguage(FilterName):
    tag: str


@dataclass(frozen=True)
class MinLength(FilterName):
    bound: int


@dataclass(frozen=True)
class MaxLength(FilterName):
    bound: int


@dataclass(frozen=True)
class Matches(FilterName):
    pattern: str


def pattern_error(pattern: str) -> Optional[str]:
    """Why `pattern` does not compile as a regular expression, or None."""
    try:
        re.compile(pattern)
    except re.error as err:
        return err.msg
    return None


@dataclass(frozen=True)
class MinValue(FilterName):
    bound: Term
    strict: bool


@dataclass(frozen=True)
class MaxValue(FilterName):
    bound: Term
    strict: bool


# --------------------------------------------------------------------------
# Interning
# --------------------------------------------------------------------------


class _Interned(type):
    """Metaclass of the AST node bases: a call returns the canonical node.

    The node is built first, so the dataclass defaults and checks apply,
    then looked up by its class and field values (a node's instance dict
    holds exactly its fields, in declaration order).  Child nodes in that
    key are canonical already and hash by identity, so neither building nor
    hashing a node recurses.  Node classes are declared
    ``@dataclass(frozen=True, eq=False)``.  The call is positional-only
    because ``ForClass`` has a field named ``cls``.
    """

    _canonical: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __call__(cls, /, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        return _Interned._canonical.setdefault((cls, *node.__dict__.values()), node)


class _Node(metaclass=_Interned):
    """Base of the node bases: a copied or unpickled node is rebuilt through
    the hook, so it is the canonical one."""

    def __reduce__(self):
        return type(self), tuple(self.__dict__.values())


# --------------------------------------------------------------------------
# Path expressions
# --------------------------------------------------------------------------


class PathExpr(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Rel(PathExpr):
    name: Term
    inverted: bool = False


@dataclass(frozen=True, eq=False)
class Seq(PathExpr):
    left: PathExpr
    right: PathExpr


@dataclass(frozen=True, eq=False)
class Opt(PathExpr):
    inner: PathExpr


@dataclass(frozen=True, eq=False)
class Alt(PathExpr):
    left: PathExpr
    right: PathExpr


@dataclass(frozen=True, eq=False)
class Star(PathExpr):
    inner: PathExpr


# --------------------------------------------------------------------------
# One-variable formulas
# --------------------------------------------------------------------------


class SclFormula(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Top(SclFormula):
    pass


@dataclass(frozen=True, eq=False)
class EqConst(SclFormula):
    constant: Term


@dataclass(frozen=True, eq=False)
class Filter(SclFormula):
    name: FilterName


@dataclass(frozen=True, eq=False)
class HasShape(SclFormula):
    shape: Term


@dataclass(frozen=True, eq=False)
class Not(SclFormula):
    body: SclFormula


@dataclass(frozen=True, eq=False)
class And(SclFormula):
    left: SclFormula
    right: SclFormula


@dataclass(frozen=True, eq=False)
class CountExists(SclFormula):
    """At least `threshold` path successors satisfying the body."""

    threshold: int
    path: PathExpr
    body: SclFormula

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("counting threshold must be >= 1; use Top for 0")


@dataclass(frozen=True, eq=False)
class Disjoint(SclFormula):
    path: PathExpr
    relation: Term


@dataclass(frozen=True, eq=False)
class Equals(SclFormula):
    path: PathExpr
    relation: Term


@dataclass(frozen=True, eq=False)
class OrderCmp(SclFormula):
    """Every path successor is <= (or <) every relation successor.

    `inverted` flips the comparison to >= (or >).
    """

    path: PathExpr
    relation: Term
    strict: bool
    inverted: bool


# --------------------------------------------------------------------------
# Sentences
# --------------------------------------------------------------------------


class SclSentence(_Node):
    pass


@dataclass(frozen=True, eq=False)
class TopSentence(SclSentence):
    pass


@dataclass(frozen=True, eq=False)
class AtConst(SclSentence):
    constant: Term
    body: SclFormula


@dataclass(frozen=True, eq=False)
class ForClass(SclSentence):
    cls: Term
    body: SclFormula


@dataclass(frozen=True, eq=False)
class ForSubjectsOf(SclSentence):
    relation: Term
    inverted: bool
    body: SclFormula


@dataclass(frozen=True, eq=False)
class SAnd(SclSentence):
    left: SclSentence
    right: SclSentence


@dataclass(frozen=True, eq=False)
class ShapeDef(SclSentence):
    name: Term
    body: SclFormula


@dataclass(frozen=True, eq=False)
class AtMostGlobal(SclSentence):
    """Extended form: at most `bound` domain elements satisfy the body.

    Not part of the core grammar; produced by the filter axiomatizer and
    understood by the evaluator and the bounded model search.
    """

    bound: int
    body: SclFormula

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("bound must be >= 0")


# --------------------------------------------------------------------------
# Constructors and sugar
# --------------------------------------------------------------------------


def exists(path: PathExpr, body: SclFormula = Top()) -> SclFormula:
    return CountExists(1, path, body)


def conj(parts: list[SclFormula]) -> SclFormula:
    """Right-fold conjunction; empty list is Top."""
    parts = [p for p in parts if not isinstance(p, Top)]
    if not parts:
        return Top()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts: list[SclFormula]) -> SclFormula:
    """Disjunction via the not-and shortcut; empty list is the false formula."""
    if not parts:
        return Not(Top())
    if len(parts) == 1:
        return parts[0]
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Not(And(Not(p), Not(out)))
    return out


def forall_path(path: PathExpr, body: SclFormula) -> SclFormula:
    """All path successors satisfy body (bounded-universal shortcut)."""
    return Not(CountExists(1, path, Not(body)))


def sentence_conj(parts: list[SclSentence]) -> SclSentence:
    parts = [p for p in parts if not isinstance(p, TopSentence)]
    if not parts:
        return TopSentence()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = SAnd(p, out)
    return out


def operands(node: _Node, kind: type) -> list[_Node]:
    """The maximal subtrees of `node` that are not a `kind` (`SAnd`, `Seq`
    or `Alt`), left to right; `[node]` when `node` is not one.  The tree is
    unrolled on an explicit stack, so a long spine costs no recursion."""
    out: list[_Node] = []
    stack = [node]
    while stack:
        part = stack.pop()
        if isinstance(part, kind):
            stack += (part.right, part.left)
        else:
            out.append(part)
    return out


def conjuncts(sentence: SclSentence) -> list[SclSentence]:
    """Flatten a sentence conjunction, left to right."""
    return [p for p in operands(sentence, SAnd) if not isinstance(p, TopSentence)]


# --------------------------------------------------------------------------
# Traversal
# --------------------------------------------------------------------------


def children(node: _Node) -> tuple[_Node, ...]:
    """The sub-nodes of a node, in field order (a node's instance dict holds
    exactly its fields)."""
    return tuple([v for v in node.__dict__.values() if isinstance(v, _Node)])


def nodes(root: _Node, skip: Container[_Node] = ()) -> Iterator[_Node]:
    """Every distinct node reachable from `root`, each yielded once, children
    before parents and left before right.  Nodes in `skip` are neither
    yielded nor descended into.  The walk keeps an explicit stack, so depth
    costs no recursion."""
    seen = {root}
    stack = [(root, iter(children(root)))]
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in seen and child not in skip:
                seen.add(child)
                stack.append((child, iter(children(child))))
                break
        else:
            stack.pop()
            yield node


def fold(root: _Node, step: Callable[[_Node, dict], object], done: dict):
    """The value of `root` in a children-first pass: `step(node, done)` is
    stored in `done` for each node under `root` not in `done` yet, in `nodes`
    order, so a step reads its children's values from `done`.  A distinct
    node takes one step however often it occurs; depth costs no recursion."""
    if root not in done:
        for node in nodes(root, done):
            done[node] = step(node, done)
    return done[root]


class FormulaValues(dict):
    """A `fold` memo for formula passes: every path counts as done, so the
    walk never enters one."""

    def __contains__(self, node: object) -> bool:
        return isinstance(node, PathExpr) or dict.__contains__(self, node)


# --------------------------------------------------------------------------
# Feature detection
# --------------------------------------------------------------------------

S, Z, A, T, D, E, O, OPRIME, C = "S", "Z", "A", "T", "D", "E", "O", "Oprime", "C"

ALL_FEATURES = (S, Z, A, T, D, E, O, OPRIME, C)

FeatureSet = frozenset


def features_of(node: Union[SclSentence, SclFormula]) -> FeatureSet:
    """The prominent-feature flags used by a sentence or formula."""
    flags: set[str] = set()
    order_atoms = []
    for n in nodes(node):
        if isinstance(n, CountExists) and n.threshold != 1:
            flags.add(C)
        elif isinstance(n, Disjoint):
            flags.add(D)
        elif isinstance(n, Equals):
            flags.add(E)
        elif isinstance(n, OrderCmp):
            order_atoms.append(n)
        elif isinstance(n, Seq):
            flags.add(S)
        elif isinstance(n, Opt):
            flags.add(Z)
        elif isinstance(n, Alt):
            flags.add(A)
        elif isinstance(n, Star):
            flags.add(T)
    if order_atoms:
        if any(atom.inverted for atom in order_atoms):
            flags.add(O)
        else:
            flags.add(OPRIME)
    return frozenset(flags)


# --------------------------------------------------------------------------
# Well-formedness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MissingDefinition:
    shape: Term
    kind = "missing"


@dataclass(frozen=True)
class DuplicateDefinition:
    shape: Term
    kind = "duplicate"


@dataclass(frozen=True)
class RecursiveDefinition:
    shape: Term
    kind = "recursive"


Defect = Union[MissingDefinition, DuplicateDefinition, RecursiveDefinition]


class IllFormedSentence(ValueError):
    """A sentence with missing, duplicate or recursive shape definitions."""

    def __init__(self, defects: list[Defect]):
        self.defects = tuple(defects)
        named = "; ".join(f"{d.kind} shape definition {n3(d.shape)}" for d in defects)
        super().__init__(f"sentence is not well formed: {named}")


def shape_definitions(sentence: SclSentence) -> list[ShapeDef]:
    return [part for part in conjuncts(sentence) if isinstance(part, ShapeDef)]


def referenced_shapes(node: _Node) -> set[Term]:
    """The shape names of the hasShape atoms under `node`."""
    return {n.shape for n in nodes(node) if isinstance(n, HasShape)}


def definition_order(sentence: SclSentence) -> tuple[list[ShapeDef], list[Defect]]:
    """The first definition of each shape name, each one after the
    definitions its body references, and the sentence's defects: duplicate
    definitions in sentence order, then missing ones, then recursive ones.

    The dependency graph is searched depth first from each name in sort
    order, dependencies in sort order.  A definition with an edge to one
    still open is recursive, and is reported when it closes.
    """
    defects: list[Defect] = []
    defs: dict[Term, ShapeDef] = {}
    for d in shape_definitions(sentence):
        if d.name in defs:
            defects.append(DuplicateDefinition(d.name))
        else:
            defs[d.name] = d
    for name in sorted(referenced_shapes(sentence) - defs.keys(), key=Term.sort_key):
        defects.append(MissingDefinition(name))

    def deps(name: Term) -> Iterator[Term]:
        return iter(sorted(referenced_shapes(defs[name].body) & defs.keys(), key=Term.sort_key))

    order: list[ShapeDef] = []
    closed: dict[Term, bool] = {}  # False while the name is open
    recursive: set[Term] = set()
    for root in sorted(defs, key=Term.sort_key):
        if root in closed:
            continue
        closed[root] = False
        stack = [(root, deps(root))]
        while stack:
            name, pending = stack[-1]
            for dep in pending:
                if dep not in closed:
                    closed[dep] = False
                    stack.append((dep, deps(dep)))
                    break
                if not closed[dep]:
                    recursive.add(name)
            else:
                stack.pop()
                closed[name] = True
                order.append(defs[name])
                if name in recursive:
                    defects.append(RecursiveDefinition(name))
    return order, defects


def check_well_formed(sentence: SclSentence) -> list[Defect]:
    """Every referenced shape name has exactly one definition and the
    definition dependency graph is acyclic; the defects otherwise."""
    return definition_order(sentence)[1]


# --------------------------------------------------------------------------
# Misc helpers
# --------------------------------------------------------------------------


def ast_size(node: _Node) -> int:
    """Number of AST nodes (sentences, formulas and paths), a shared subtree
    counted at each occurrence; a sentence counts its conjuncts, not the
    conjunctions joining them."""
    def size(n: _Node, done: dict) -> int:
        own = 0 if isinstance(n, (SAnd, TopSentence)) else 1
        return own + sum(done[c] for c in children(n))

    return max(fold(node, size, {}), 1)


def node_constants(node: Union[SclSentence, SclFormula]) -> set[Term]:
    """Node constants occurring in a sentence or formula (not shape names)."""
    out: set[Term] = set()
    for n in nodes(node):
        if isinstance(n, (AtConst, EqConst)):
            out.add(n.constant)
        elif isinstance(n, ForClass):
            out.add(n.cls)
    return out


def relation_names(node: Union[SclSentence, SclFormula]) -> set[Term]:
    """Binary relation names used anywhere in the sentence or formula."""
    out: set[Term] = set()
    for n in nodes(node):
        if isinstance(n, (Disjoint, Equals, OrderCmp, ForSubjectsOf)):
            out.add(n.relation)
        elif isinstance(n, Rel):
            out.add(n.name)
        elif isinstance(n, ForClass):
            out.add(iri(RDF_TYPE))
    return out


def formula_filters(node: Union[SclSentence, SclFormula]) -> set[FilterName]:
    return {n.name for n in nodes(node) if isinstance(n, Filter)}

"""Typed AST for the one-variable constraint logic used throughout.

Sentences are conjunctions of targeted constraint formulas and shape-name
definitions; formulas have exactly one free variable by construction.
Plain existential quantification is normalized to a counting quantifier
with threshold 1, so the C feature is triggered only by thresholds != 1.

Path, formula and sentence nodes are interned (hash-consed): structurally
equal nodes are one object, so ``==`` is identity and hashing is O(1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Union

from .terms import Term, n3


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


def conjuncts(sentence: SclSentence) -> Iterator[SclSentence]:
    """Flatten a sentence conjunction, left to right."""
    if isinstance(sentence, SAnd):
        yield from conjuncts(sentence.left)
        yield from conjuncts(sentence.right)
    elif not isinstance(sentence, TopSentence):
        yield sentence


# --------------------------------------------------------------------------
# Feature detection
# --------------------------------------------------------------------------

S, Z, A, T, D, E, O, OPRIME, C = "S", "Z", "A", "T", "D", "E", "O", "Oprime", "C"

ALL_FEATURES = (S, Z, A, T, D, E, O, OPRIME, C)

FeatureSet = frozenset


def _walk_paths(path: PathExpr) -> Iterator[PathExpr]:
    yield path
    if isinstance(path, (Seq, Alt)):
        yield from _walk_paths(path.left)
        yield from _walk_paths(path.right)
    elif isinstance(path, (Opt, Star)):
        yield from _walk_paths(path.inner)


def walk_formulas(formula: SclFormula) -> Iterator[SclFormula]:
    yield formula
    if isinstance(formula, Not):
        yield from walk_formulas(formula.body)
    elif isinstance(formula, And):
        yield from walk_formulas(formula.left)
        yield from walk_formulas(formula.right)
    elif isinstance(formula, CountExists):
        yield from walk_formulas(formula.body)


def formula_paths(formula: SclFormula) -> Iterator[PathExpr]:
    for f in walk_formulas(formula):
        if isinstance(f, CountExists):
            yield from _walk_paths(f.path)
        elif isinstance(f, (Disjoint, Equals, OrderCmp)):
            yield from _walk_paths(f.path)


def sentence_formulas(sentence: SclSentence) -> Iterator[SclFormula]:
    for part in conjuncts(sentence):
        if isinstance(part, (AtConst, ForClass, ForSubjectsOf, ShapeDef, AtMostGlobal)):
            yield part.body


def features_of(node: Union[SclSentence, SclFormula]) -> FeatureSet:
    """The prominent-feature flags used by a sentence or formula."""
    flags: set[str] = set()
    order_atoms = []
    formulas = (
        list(sentence_formulas(node)) if isinstance(node, SclSentence) else [node]
    )
    for root in formulas:
        for f in walk_formulas(root):
            if isinstance(f, CountExists) and f.threshold != 1:
                flags.add(C)
            elif isinstance(f, Disjoint):
                flags.add(D)
            elif isinstance(f, Equals):
                flags.add(E)
            elif isinstance(f, OrderCmp):
                order_atoms.append(f)
        for path in formula_paths(root):
            if isinstance(path, Seq):
                flags.add(S)
            elif isinstance(path, Opt):
                flags.add(Z)
            elif isinstance(path, Alt):
                flags.add(A)
            elif isinstance(path, Star):
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


def referenced_shapes(formula: SclFormula) -> set[Term]:
    return {f.shape for f in walk_formulas(formula) if isinstance(f, HasShape)}


def check_well_formed(sentence: SclSentence) -> list[Defect]:
    """Every referenced shape name has exactly one definition and the
    definition dependency graph is acyclic."""
    defects: list[Defect] = []
    defs: dict[Term, SclFormula] = {}
    for d in shape_definitions(sentence):
        if d.name in defs:
            defects.append(DuplicateDefinition(d.name))
        else:
            defs[d.name] = d.body

    used: set[Term] = set()
    for body in sentence_formulas(sentence):
        used |= referenced_shapes(body)
    for name in sorted(used - set(defs), key=Term.sort_key):
        defects.append(MissingDefinition(name))

    # cycle detection over the definition dependency graph
    color: dict[Term, int] = {}

    def visit(name: Term) -> bool:
        if color.get(name) == 2:
            return False
        if color.get(name) == 1:
            return True
        color[name] = 1
        cyclic = False
        for dep in sorted(referenced_shapes(defs[name]) & set(defs), key=Term.sort_key):
            if visit(dep):
                cyclic = True
        color[name] = 2
        if cyclic:
            defects.append(RecursiveDefinition(name))
        return False

    for name in sorted(defs, key=Term.sort_key):
        visit(name)
    return defects


# --------------------------------------------------------------------------
# Misc helpers
# --------------------------------------------------------------------------


def ast_size(node) -> int:
    """Number of AST nodes (sentences, formulas and paths)."""
    if isinstance(node, SclSentence):
        total = 0
        for part in conjuncts(node):
            total += 1 + (ast_size(part.body) if hasattr(part, "body") else 0)
        return max(total, 1)
    if isinstance(node, (Not,)):
        return 1 + ast_size(node.body)
    if isinstance(node, And):
        return 1 + ast_size(node.left) + ast_size(node.right)
    if isinstance(node, CountExists):
        return 1 + ast_size(node.path) + ast_size(node.body)
    if isinstance(node, (Disjoint, Equals, OrderCmp)):
        return 1 + ast_size(node.path)
    if isinstance(node, (Seq, Alt)):
        return 1 + ast_size(node.left) + ast_size(node.right)
    if isinstance(node, (Opt, Star)):
        return 1 + ast_size(node.inner)
    return 1


def node_constants(node: Union[SclSentence, SclFormula]) -> set[Term]:
    """Node constants occurring in a sentence or formula (not shape names)."""
    out: set[Term] = set()
    if isinstance(node, SclSentence):
        for part in conjuncts(node):
            if isinstance(part, AtConst):
                out.add(part.constant)
            elif isinstance(part, ForClass):
                out.add(part.cls)
            out |= node_constants(part.body) if hasattr(part, "body") else set()
        return out
    for f in walk_formulas(node):
        if isinstance(f, EqConst):
            out.add(f.constant)
    return out


def relation_names(node: Union[SclSentence, SclFormula]) -> set[Term]:
    """Binary relation names used anywhere in the sentence or formula."""
    out: set[Term] = set()

    def from_formula(formula: SclFormula) -> None:
        for f in walk_formulas(formula):
            if isinstance(f, (Disjoint, Equals, OrderCmp)):
                out.add(f.relation)
        for p in formula_paths(formula):
            if isinstance(p, Rel):
                out.add(p.name)

    if isinstance(node, SclSentence):
        from .namespaces import RDF_TYPE
        from .terms import iri

        for part in conjuncts(node):
            if isinstance(part, ForClass):
                out.add(iri(RDF_TYPE))
            elif isinstance(part, ForSubjectsOf):
                out.add(part.relation)
            if hasattr(part, "body"):
                from_formula(part.body)
    else:
        from_formula(node)
    return out


def formula_filters(node: Union[SclSentence, SclFormula]) -> set[FilterName]:
    out: set[FilterName] = set()
    formulas = (
        list(sentence_formulas(node)) if isinstance(node, SclSentence) else [node]
    )
    for root in formulas:
        for f in walk_formulas(root):
            if isinstance(f, Filter):
                out.add(f.name)
    return out

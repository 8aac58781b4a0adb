"""SHACL document AST: shapes, targets, property paths and constraints,
extracted from RDF graphs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Optional

from . import namespaces as ns
from .scl import pattern_error
from .terms import Term, TripleGraph, iri, n3, parse_integer_lexical
from .turtle import parse_turtle


class ShaclModelError(ValueError):
    pass


class RecursiveShapeError(ShaclModelError):
    pass


# --------------------------------------------------------------------------
# Property paths
# --------------------------------------------------------------------------


class ShaclPath:
    pass


@dataclass(frozen=True)
class PredicatePath(ShaclPath):
    predicate: Term


@dataclass(frozen=True)
class InversePath(ShaclPath):
    inner: ShaclPath


@dataclass(frozen=True)
class SequencePath(ShaclPath):
    parts: tuple[ShaclPath, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ShaclModelError("sequence paths need at least two parts")


@dataclass(frozen=True)
class AlternativePath(ShaclPath):
    parts: tuple[ShaclPath, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ShaclModelError("alternative paths need at least two parts")


@dataclass(frozen=True)
class ZeroOrMorePath(ShaclPath):
    inner: ShaclPath


@dataclass(frozen=True)
class OneOrMorePath(ShaclPath):
    inner: ShaclPath


@dataclass(frozen=True)
class ZeroOrOnePath(ShaclPath):
    inner: ShaclPath


def path_predicates(path: ShaclPath) -> set[Term]:
    if isinstance(path, PredicatePath):
        return {path.predicate}
    if isinstance(path, (InversePath, ZeroOrMorePath, OneOrMorePath, ZeroOrOnePath)):
        return path_predicates(path.inner)
    if isinstance(path, (SequencePath, AlternativePath)):
        out: set[Term] = set()
        for p in path.parts:
            out |= path_predicates(p)
        return out
    raise TypeError(f"unknown path {path!r}")


# --------------------------------------------------------------------------
# Targets
# --------------------------------------------------------------------------


class Target:
    pass


@dataclass(frozen=True)
class NodeTarget(Target):
    node: Term


@dataclass(frozen=True)
class ClassTarget(Target):
    cls: Term


@dataclass(frozen=True)
class SubjectsOfTarget(Target):
    relation: Term


@dataclass(frozen=True)
class ObjectsOfTarget(Target):
    relation: Term


def _target_key(t: Target) -> tuple:
    order = {NodeTarget: 0, ClassTarget: 1, SubjectsOfTarget: 2, ObjectsOfTarget: 3}
    inner = next(iter(t.__dict__.values()))
    return (order[type(t)], inner.sort_key())


# --------------------------------------------------------------------------
# Constraints
# --------------------------------------------------------------------------

# Constraint kinds and their argument layout (args tuple):
#   has_value (term,)            in (terms...)          cls (term,)
#   datatype (iri,)              node_kind (iri,)
#   min_exclusive / min_inclusive / max_exclusive / max_inclusive (term,)
#   min_length / max_length (int,)          pattern (str,)
#   language_in (tags...)        unique_lang ()
#   not_ / node / property (shape name,)    and_ / or_ / xone (shape names...)
#   min_count / max_count (int,)
#   equals / disjoint / less_than / less_than_or_equals (iri,)
#   qualified (shape name, min: int|None, max: int|None, siblings: tuple[Term,...])
#   closed (ignored relation iris...)

HAS_VALUE = "has_value"
IN = "in"
CLASS = "cls"
DATATYPE = "datatype"
NODE_KIND = "node_kind"
MIN_EXCLUSIVE = "min_exclusive"
MIN_INCLUSIVE = "min_inclusive"
MAX_EXCLUSIVE = "max_exclusive"
MAX_INCLUSIVE = "max_inclusive"
MIN_LENGTH = "min_length"
MAX_LENGTH = "max_length"
PATTERN = "pattern"
LANGUAGE_IN = "language_in"
UNIQUE_LANG = "unique_lang"
NOT = "not_"
AND = "and_"
OR = "or_"
XONE = "xone"
NODE = "node"
PROPERTY = "property"
MIN_COUNT = "min_count"
MAX_COUNT = "max_count"
EQUALS = "equals"
DISJOINT = "disjoint"
LESS_THAN = "less_than"
LESS_THAN_OR_EQUALS = "less_than_or_equals"
QUALIFIED = "qualified"
CLOSED = "closed"

_SHAPE_REF_KINDS = (NOT, NODE, PROPERTY)
_SHAPE_LIST_KINDS = (AND, OR, XONE)


@dataclass(frozen=True)
class Constraint:
    kind: str
    args: tuple = ()

    def shape_refs(self) -> tuple[Term, ...]:
        if self.kind in _SHAPE_REF_KINDS:
            return (self.args[0],)
        if self.kind in _SHAPE_LIST_KINDS:
            return tuple(self.args)
        if self.kind == QUALIFIED:
            return (self.args[0],) + tuple(self.args[3])
        return ()

    def renamed(self, mapping: dict[Term, Term]) -> Constraint:
        """This constraint with each shape reference renamed by `mapping`."""
        def rename(name: Term) -> Term:
            return mapping.get(name, name)

        if self.kind in _SHAPE_REF_KINDS:
            return Constraint(self.kind, (rename(self.args[0]),))
        if self.kind in _SHAPE_LIST_KINDS:
            return Constraint(self.kind, tuple(rename(n) for n in self.args))
        if self.kind == QUALIFIED:
            ref, lo, hi, siblings = self.args
            return Constraint(self.kind, (rename(ref), lo, hi, tuple(rename(n) for n in siblings)))
        return self


# --------------------------------------------------------------------------
# Shapes and documents
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    name: Term
    is_property_shape: bool = False
    path: Optional[ShaclPath] = None
    targets: tuple[Target, ...] = ()
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if self.is_property_shape and self.path is None:
            raise ShaclModelError(f"property shape {n3(self.name)} has no path")
        if not self.is_property_shape and self.path is not None:
            raise ShaclModelError(f"node shape {n3(self.name)} carries a path")


@dataclass(frozen=True)
class ShaclDocument:
    shapes: tuple[Shape, ...] = ()
    vocabulary_context: frozenset[Term] = frozenset()

    def __post_init__(self) -> None:
        by_name = {s.name: s for s in self.shapes}
        if len(by_name) != len(self.shapes):
            raise ShaclModelError("duplicate shape names in document")
        cycle = _find_reference_cycle(self.shapes)
        if cycle:
            raise RecursiveShapeError(f"recursive shape reference: {' -> '.join(map(n3, cycle))}")
        # not a field: stays out of __eq__, __hash__ and __repr__
        object.__setattr__(self, "_by_name", by_name)

    def shape(self, name: Term) -> Shape:
        return self._by_name[name]

    def language_set(self) -> tuple[str, ...]:
        """All language tags mentioned in language_in constraints, sorted."""
        tags: set[str] = set()
        for s in self.shapes:
            for c in s.constraints:
                if c.kind == LANGUAGE_IN:
                    tags |= set(c.args)
        return tuple(sorted(tags))

    def relation_names(self) -> set[Term]:
        """Relation names used by shapes, plus rdf:type and the context."""
        out: set[Term] = {iri(ns.RDF_TYPE)}
        for s in self.shapes:
            if s.path is not None:
                out |= path_predicates(s.path)
            for t in s.targets:
                if isinstance(t, (SubjectsOfTarget, ObjectsOfTarget)):
                    out.add(t.relation)
            for c in s.constraints:
                if c.kind in (EQUALS, DISJOINT, LESS_THAN, LESS_THAN_OR_EQUALS):
                    out.add(c.args[0])
        return out | set(self.vocabulary_context)

    def closed_theta(self, shape: Shape, ignored: tuple[Term, ...]) -> tuple[Term, ...]:
        """Forbidden relations for a closed constraint at `shape` that
        ignores the relations `ignored`."""
        declared: set[Term] = set()
        for c in shape.constraints:
            if c.kind == PROPERTY:
                try:
                    ref = self.shape(c.args[0])
                except KeyError:
                    continue
                if isinstance(ref.path, PredicatePath):
                    declared.add(ref.path.predicate)
        theta = self.relation_names() - declared - set(ignored)
        return tuple(sorted(theta, key=Term.sort_key))


def referenced_shape_names(shapes) -> set[Term]:
    out: set[Term] = set()
    for s in shapes:
        for c in s.constraints:
            out |= set(c.shape_refs())
    return out


def _find_reference_cycle(shapes) -> Optional[list[Term]]:
    """The first reference cycle a depth-first search meets, visiting names
    and their references in sort order, as [n0, ..., n0]; else None."""
    graph = {s.name: referenced_shape_names([s]) for s in shapes}
    # each name's place in sort order, so a name is keyed once however
    # many shapes refer to it
    rank = {name: i for i, name in enumerate(sorted(graph, key=Term.sort_key))}
    deps = {
        name: sorted((d for d in refs if d in rank), key=rank.__getitem__)
        for name, refs in graph.items()
    }
    done: set[Term] = set()
    for root in rank:
        if root in done:
            continue
        path = [root]  # the names being visited, outermost first
        on_path = {root}
        pending = [iter(deps[root])]
        while pending:
            dep = next(pending[-1], None)
            if dep is None:
                pending.pop()
                on_path.remove(path[-1])
                done.add(path.pop())
            elif dep in on_path:
                return path[path.index(dep) :] + [dep]
            elif dep not in done:
                path.append(dep)
                on_path.add(dep)
                pending.append(iter(deps[dep]))
    return None


# --------------------------------------------------------------------------
# Extraction from RDF
# --------------------------------------------------------------------------

_TARGET_PARAMS = {
    ns.SH_TARGET_NODE: NodeTarget,
    ns.SH_TARGET_CLASS: ClassTarget,
    ns.SH_TARGET_SUBJECTS_OF: SubjectsOfTarget,
    ns.SH_TARGET_OBJECTS_OF: ObjectsOfTarget,
}

# in IRI order, the order a shape's constraints are read in
_CONSTRAINT_PARAMS = dict(sorted({
    ns.SH_HAS_VALUE: HAS_VALUE,
    ns.SH_IN: IN,
    ns.SH_CLASS: CLASS,
    ns.SH_DATATYPE: DATATYPE,
    ns.SH_NODE_KIND: NODE_KIND,
    ns.SH_MIN_EXCLUSIVE: MIN_EXCLUSIVE,
    ns.SH_MIN_INCLUSIVE: MIN_INCLUSIVE,
    ns.SH_MAX_EXCLUSIVE: MAX_EXCLUSIVE,
    ns.SH_MAX_INCLUSIVE: MAX_INCLUSIVE,
    ns.SH_MIN_LENGTH: MIN_LENGTH,
    ns.SH_MAX_LENGTH: MAX_LENGTH,
    ns.SH_PATTERN: PATTERN,
    ns.SH_LANGUAGE_IN: LANGUAGE_IN,
    ns.SH_UNIQUE_LANG: UNIQUE_LANG,
    ns.SH_NOT: NOT,
    ns.SH_AND: AND,
    ns.SH_OR: OR,
    ns.SH_XONE: XONE,
    ns.SH_NODE: NODE,
    ns.SH_PROPERTY: PROPERTY,
    ns.SH_MIN_COUNT: MIN_COUNT,
    ns.SH_MAX_COUNT: MAX_COUNT,
    ns.SH_EQUALS: EQUALS,
    ns.SH_DISJOINT: DISJOINT,
    ns.SH_LESS_THAN: LESS_THAN,
    ns.SH_LESS_THAN_OR_EQUALS: LESS_THAN_OR_EQUALS,
    ns.SH_QUALIFIED_VALUE_SHAPE: QUALIFIED,
    ns.SH_CLOSED: CLOSED,
}.items()))

# parameters whose values SHACL's syntax rules make IRIs, each with the
# IRIs it allows (None: any IRI)
_IRI_PARAMS = {
    ns.SH_TARGET_SUBJECTS_OF: None,
    ns.SH_TARGET_OBJECTS_OF: None,
    ns.SH_EQUALS: None,
    ns.SH_DISJOINT: None,
    ns.SH_LESS_THAN: None,
    ns.SH_LESS_THAN_OR_EQUALS: None,
    ns.SH_NODE_KIND: ns.SH_NODE_KINDS,
}

_REF_OBJECT_PARAMS = (ns.SH_NOT, ns.SH_NODE, ns.SH_PROPERTY, ns.SH_QUALIFIED_VALUE_SHAPE)
_REF_LIST_PARAMS = (ns.SH_AND, ns.SH_OR, ns.SH_XONE)

# each vocabulary term built once and kept alive, as extraction looks up
# every parameter of every shape
_vocabulary = cache(iri)


class _GraphIndex:
    """Extraction's reads of the graph's index: sorted values, RDF
    collections, and each parent's qualified value shapes."""

    def __init__(self, graph: TripleGraph):
        self.graph = graph
        # per parent shape, filled by qualified_below
        self.qualified: dict[Term, tuple[tuple[Term, set[Term]], ...]] = {}

    def qualified_below(self, parent: Term) -> tuple[tuple[Term, set[Term]], ...]:
        """The qualified value shapes of parent's property shapes, sorted,
        each with the property shapes that declare it; built once per parent."""
        found = self.qualified.get(parent)
        if found is None:
            owners: dict[Term, set[Term]] = {}
            for shape in self.objects(parent, ns.SH_PROPERTY):
                for value in self.objects(shape, ns.SH_QUALIFIED_VALUE_SHAPE):
                    owners.setdefault(value, set()).add(shape)
            found = tuple(sorted(owners.items(), key=lambda kv: kv[0].sort_key()))
            self.qualified[parent] = found
        return found

    def objects(self, subject: Term, predicate: str) -> list[Term]:
        values = self.graph.forward.get(_vocabulary(predicate), {}).get(subject, ())
        return sorted(values, key=Term.sort_key)

    def one(self, subject: Term, predicate: str) -> Optional[Term]:
        values = self.objects(subject, predicate)
        return values[0] if values else None

    def collection(self, head: Term) -> list[Term]:
        out = []
        seen = set()
        node = head
        while node != iri(ns.RDF_NIL):
            if node in seen:
                raise ShaclModelError("cyclic RDF collection")
            seen.add(node)
            first = self.one(node, ns.RDF_FIRST)
            if first is None:
                raise ShaclModelError(f"malformed RDF collection at {n3(node)}")
            out.append(first)
            node = self.one(node, ns.RDF_REST) or iri(ns.RDF_NIL)
        return out


def _parse_path(index: _GraphIndex, node: Term, descent: frozenset = frozenset()) -> ShaclPath:
    """The path at node; descent holds the path nodes it is nested in."""
    if node in descent:
        raise ShaclModelError(f"cyclic property path at {n3(node)}")
    descent = descent | {node}
    if node.is_iri and node.lexical != ns.RDF_NIL and index.one(node, ns.RDF_FIRST) is None:
        return PredicatePath(node)
    if index.one(node, ns.RDF_FIRST) is not None:
        parts = [_parse_path(index, p, descent) for p in index.collection(node)]
        if len(parts) == 1:
            return parts[0]
        return SequencePath(tuple(parts))
    for pred, ctor in (
        (ns.SH_INVERSE_PATH, InversePath),
        (ns.SH_ZERO_OR_MORE_PATH, ZeroOrMorePath),
        (ns.SH_ONE_OR_MORE_PATH, OneOrMorePath),
        (ns.SH_ZERO_OR_ONE_PATH, ZeroOrOnePath),
    ):
        inner = index.one(node, pred)
        if inner is not None:
            return ctor(_parse_path(index, inner, descent))
    alt = index.one(node, ns.SH_ALTERNATIVE_PATH)
    if alt is not None:
        parts = [_parse_path(index, p, descent) for p in index.collection(alt)]
        if len(parts) == 1:
            return parts[0]
        return AlternativePath(tuple(parts))
    raise ShaclModelError(f"cannot interpret property path node {n3(node)}")


def _as_int(term: Term, what: str) -> int:
    """The integer a count or length literal writes in ASCII digits, as
    the integer datatypes are read everywhere else."""
    value = parse_integer_lexical(term.lexical, ns.XSD_INTEGER)
    if value is None:
        raise ShaclModelError(f"{what} expects an integer, got {n3(term)}")
    return value


def _is_true(term: Term) -> bool:
    return term.is_literal and term.lexical in ("true", "1")


def extract_document(graph: TripleGraph) -> ShaclDocument:
    """Read every shape definition out of an RDF graph.

    Unknown parameters are ignored; referenced but undefined shapes become
    empty shape definitions.
    """
    index = _GraphIndex(graph)
    forward, backward = graph.forward, graph.backward
    typed = backward.get(_vocabulary(ns.RDF_TYPE), {})
    candidates: set[Term] = set()
    for shape_type in (ns.SH_NODE_SHAPE, ns.SH_PROPERTY_SHAPE):
        candidates.update(typed.get(_vocabulary(shape_type), ()))
    for param in (*_TARGET_PARAMS, *_CONSTRAINT_PARAMS, ns.SH_PATH):
        candidates.update(forward.get(_vocabulary(param), ()))
    for param in _REF_OBJECT_PARAMS:
        candidates.update(backward.get(_vocabulary(param), ()))
    for param in _REF_LIST_PARAMS:
        for head in sorted(backward.get(_vocabulary(param), ()), key=Term.sort_key):
            candidates.update(index.collection(head))

    shapes = []
    for name in sorted(candidates, key=Term.sort_key):
        shapes.append(_extract_shape(index, name))
    return ShaclDocument(tuple(shapes))


def _extract_shape(index: _GraphIndex, name: Term) -> Shape:
    path_values = index.objects(name, ns.SH_PATH)
    if len(path_values) > 1:
        raise ShaclModelError(f"shape {n3(name)} has {len(path_values)} sh:path values")
    declared_property = iri(ns.SH_PROPERTY_SHAPE) in index.objects(name, ns.RDF_TYPE)
    if declared_property and not path_values:
        raise ShaclModelError(f"property shape {n3(name)} has no sh:path value")
    path = _parse_path(index, path_values[0]) if path_values else None
    for param, allowed in _IRI_PARAMS.items():
        for value in index.objects(name, param):
            if not value.is_iri or allowed is not None and value.lexical not in allowed:
                what = "sh:" + param.removeprefix(ns.SH_NS)
                raise ShaclModelError(f"shape {n3(name)} has an ill-formed {what} value {n3(value)}")

    targets = sorted(
        (ctor(node) for param, ctor in _TARGET_PARAMS.items() for node in index.objects(name, param)),
        key=_target_key,
    )

    qualified_min = index.one(name, ns.SH_QUALIFIED_MIN_COUNT)
    qualified_max = index.one(name, ns.SH_QUALIFIED_MAX_COUNT)
    qualified_disjoint = index.one(name, ns.SH_QUALIFIED_DISJOINT)
    ignored = index.one(name, ns.SH_IGNORED_PROPERTIES)

    constraints: list[Constraint] = []
    params = [
        (kind, obj) for param, kind in _CONSTRAINT_PARAMS.items() for obj in index.objects(name, param)
    ]
    for kind, obj in params:
        if kind == IN:
            constraints.append(Constraint(IN, tuple(index.collection(obj))))
        elif kind == LANGUAGE_IN:
            tags = tuple(v.lexical for v in index.collection(obj))
            constraints.append(Constraint(LANGUAGE_IN, tags))
        elif kind in (MIN_LENGTH, MAX_LENGTH, MIN_COUNT, MAX_COUNT):
            constraints.append(Constraint(kind, (_as_int(obj, kind),)))
        elif kind == PATTERN:
            error = pattern_error(obj.lexical)
            if error is not None:
                raise ShaclModelError(f"shape {n3(name)} has invalid sh:pattern {obj.lexical!r}: {error}")
            constraints.append(Constraint(PATTERN, (obj.lexical,)))
        elif kind == UNIQUE_LANG:
            if _is_true(obj):
                constraints.append(Constraint(UNIQUE_LANG))
        elif kind in _SHAPE_LIST_KINDS:
            constraints.append(Constraint(kind, tuple(index.collection(obj))))
        elif kind == QUALIFIED:
            siblings: tuple[Term, ...] = ()
            if qualified_disjoint is not None and _is_true(qualified_disjoint):
                siblings = _sibling_shapes(index, name, obj)
            constraints.append(
                Constraint(
                    QUALIFIED,
                    (
                        obj,
                        _as_int(qualified_min, "qualifiedMinCount") if qualified_min else None,
                        _as_int(qualified_max, "qualifiedMaxCount") if qualified_max else None,
                        siblings,
                    ),
                )
            )
        elif kind == CLOSED:
            if _is_true(obj):
                ignored_list = tuple(index.collection(ignored)) if ignored is not None else ()
                constraints.append(Constraint(CLOSED, ignored_list))
        else:  # the object itself is the one argument
            constraints.append(Constraint(kind, (obj,)))
    return Shape(
        name=name,
        is_property_shape=path is not None,
        path=path,
        targets=tuple(targets),
        constraints=tuple(constraints),
    )


def _sibling_shapes(index: _GraphIndex, shape_name: Term, qvs: Term) -> tuple[Term, ...]:
    """Qualified value shapes declared by sibling property shapes, other
    than qvs: each parent's sorted list without what only this shape
    declares."""
    # the shapes naming this one in sh:property; with several, the union is sorted
    parents = index.graph.backward.get(_vocabulary(ns.SH_PROPERTY), {}).get(shape_name, ())
    siblings = [
        value
        for parent in parents
        for value, owners in index.qualified_below(parent)
        if value != qvs and owners != {shape_name}
    ]
    if len(parents) > 1:
        siblings = sorted(set(siblings), key=Term.sort_key)
    return tuple(siblings)


def parse_document(text: str) -> ShaclDocument:
    return extract_document(parse_turtle(text))


# --------------------------------------------------------------------------
# Target splitting
# --------------------------------------------------------------------------


def _fresh_name(base: Term, index: int, taken: set[Term]) -> Term:
    candidate = Term(base.kind, f"{base.lexical}--t{index}")
    bump = 0
    while candidate in taken:
        bump += 1
        candidate = Term(base.kind, f"{base.lexical}--t{index}-{bump}")
    return candidate


def split_targets_with_origin(
    doc: ShaclDocument,
) -> tuple[ShaclDocument, dict[Term, Term]]:
    """split_targets plus the map from copy names back to original names."""
    referenced = referenced_shape_names(doc.shapes)
    taken = {s.name for s in doc.shapes}
    origin: dict[Term, Term] = {}
    out: list[Shape] = []
    for shape in doc.shapes:
        # a referenced shape keeps no target, any other keeps its first
        keep = 0 if shape.name in referenced else 1
        origin[shape.name] = shape.name
        out.append(replace(shape, targets=shape.targets[:keep]))
        for i, target in enumerate(shape.targets[keep:], start=keep):
            name = _fresh_name(shape.name, i, taken)
            taken.add(name)
            origin[name] = shape.name
            out.append(replace(shape, name=name, targets=(target,)))
    return ShaclDocument(tuple(out), doc.vocabulary_context), origin


def split_targets(doc: ShaclDocument) -> ShaclDocument:
    """Copy shapes so that each carries at most one target declaration and
    every referenced shape carries none.  Validation semantics preserved."""
    return split_targets_with_origin(doc)[0]

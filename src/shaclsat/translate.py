"""Bidirectional translation between SHACL documents and logic sentences.

`translate` maps a document to an equisatisfiable sentence: one targeted
conjunct per shape plus a shape-name definition for every referenced
shape.  `back_translate` is the inverse direction, producing an RDF shape
graph whose extracted document validates exactly the same graphs.
`extract_definitions` projects a sentence onto its shape definitions.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Optional

from . import namespaces as ns
from . import shapes as sh
from .scl import (
    Alt,
    And,
    AtConst,
    AtMostGlobal,
    CountExists,
    Disjoint,
    EqConst,
    Equals,
    Filter,
    ForClass,
    FormulaValues,
    ForSubjectsOf,
    HasDatatype,
    HasLanguage,
    HasShape,
    IllFormedSentence,
    IsBlank,
    IsIri,
    IsLiteral,
    Matches,
    MaxLength,
    MaxValue,
    MinLength,
    MinValue,
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
    check_well_formed,
    conj,
    conjuncts,
    disj,
    exists,
    fold,
    forall_path,
    sentence_conj,
)
from .scl_text import _pieces
from .terms import Term, Triple, TripleGraph, blank, integer, iri, string


class NotShaclExpressible(ValueError):
    """Raised when a sentence uses a construct with no shape counterpart."""


# --------------------------------------------------------------------------
# SHACL -> logic (tau)
# --------------------------------------------------------------------------


def translate_path(path: sh.ShaclPath) -> PathExpr:
    """Property path to path expression, pushing inverses to the leaves."""
    return _path(path, inverted=False)


def _path(path: sh.ShaclPath, inverted: bool) -> PathExpr:
    if isinstance(path, sh.PredicatePath):
        return Rel(path.predicate, inverted)
    if isinstance(path, sh.InversePath):
        return _path(path.inner, not inverted)
    if isinstance(path, sh.SequencePath):
        parts = [_path(p, inverted) for p in path.parts]
        if inverted:
            parts.reverse()
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Seq(p, out)
        return out
    if isinstance(path, sh.AlternativePath):
        parts = [_path(p, inverted) for p in path.parts]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Alt(p, out)
        return out
    if isinstance(path, sh.ZeroOrMorePath):
        return Star(_path(path.inner, inverted))
    if isinstance(path, sh.OneOrMorePath):
        inner = _path(path.inner, inverted)
        return Seq(inner, Star(inner))
    if isinstance(path, sh.ZeroOrOnePath):
        return Opt(_path(path.inner, inverted))
    raise TypeError(f"unknown path {path!r}")


_NODE_KIND_FILTERS = {
    ns.SH_NK_IRI: (IsIri,),
    ns.SH_NK_LITERAL: (IsLiteral,),
    ns.SH_NK_BLANK: (IsBlank,),
    ns.SH_NK_BLANK_OR_IRI: (IsBlank, IsIri),
    ns.SH_NK_BLANK_OR_LITERAL: (IsBlank, IsLiteral),
    ns.SH_NK_IRI_OR_LITERAL: (IsIri, IsLiteral),
}


def _node_kind_formula(kind_iri: str) -> SclFormula:
    """The disjunction of a node kind's filters; an unknown kind has none,
    so no term matches it, as in the direct validator's
    `direct_validation._NODE_KINDS`."""
    return disj([Filter(name()) for name in _NODE_KIND_FILTERS.get(kind_iri, ())])


def translate_node_constraint(atom: sh.Constraint) -> SclFormula:
    """Constraint of a node shape to a one-variable formula."""
    kind = atom.kind
    if kind == sh.HAS_VALUE:
        return EqConst(atom.args[0])
    if kind == sh.IN:
        return disj([EqConst(c) for c in atom.args])
    if kind == sh.CLASS:
        return exists(Rel(iri(ns.RDF_TYPE)), EqConst(atom.args[0]))
    if kind == sh.DATATYPE:
        return Filter(HasDatatype(atom.args[0].lexical))
    if kind == sh.NODE_KIND:
        return _node_kind_formula(atom.args[0].lexical)
    if kind == sh.MIN_EXCLUSIVE:
        return Filter(MinValue(atom.args[0], strict=True))
    if kind == sh.MIN_INCLUSIVE:
        return Filter(MinValue(atom.args[0], strict=False))
    if kind == sh.MAX_EXCLUSIVE:
        return Filter(MaxValue(atom.args[0], strict=True))
    if kind == sh.MAX_INCLUSIVE:
        return Filter(MaxValue(atom.args[0], strict=False))
    if kind == sh.MIN_LENGTH:
        return Filter(MinLength(atom.args[0]))
    if kind == sh.MAX_LENGTH:
        return Filter(MaxLength(atom.args[0]))
    if kind == sh.PATTERN:
        return Filter(Matches(atom.args[0]))
    if kind == sh.LANGUAGE_IN:
        return disj([Filter(HasLanguage(tag)) for tag in atom.args])
    if kind == sh.NOT:
        return Not(HasShape(atom.args[0]))
    if kind == sh.AND:
        return conj([HasShape(s) for s in atom.args])
    if kind == sh.OR:
        return disj([HasShape(s) for s in atom.args])
    if kind == sh.XONE:
        options = []
        for chosen in atom.args:
            rest = [HasShape(s) for s in atom.args if s != chosen]
            options.append(conj([HasShape(chosen)] + [Not(r) for r in rest]))
        return disj(options)
    if kind in (sh.NODE, sh.PROPERTY):
        return HasShape(atom.args[0])
    # anything else does not alter the conjunction
    return Top()


_VALUE_TYPE_KINDS = (
    sh.IN,
    sh.CLASS,
    sh.DATATYPE,
    sh.NODE_KIND,
    sh.MIN_EXCLUSIVE,
    sh.MIN_INCLUSIVE,
    sh.MAX_EXCLUSIVE,
    sh.MAX_INCLUSIVE,
    sh.MIN_LENGTH,
    sh.MAX_LENGTH,
    sh.PATTERN,
    sh.LANGUAGE_IN,
    sh.NOT,
    sh.AND,
    sh.OR,
    sh.XONE,
    sh.NODE,
    sh.PROPERTY,
)


def _at_least(count: int, pi: PathExpr, body: SclFormula) -> SclFormula:
    """At least `count` values along `pi` satisfy `body`; a count of 0 or
    less always holds."""
    return CountExists(count, pi, body) if count >= 1 else Top()


def _at_most(count: int, pi: PathExpr, body: SclFormula) -> SclFormula:
    """At most `count` values along `pi` satisfy `body`; a negative count
    never holds."""
    return Not(CountExists(count + 1, pi, body)) if count >= 0 else Not(Top())


def translate_property_constraint(
    atom: sh.Constraint,
    path: sh.ShaclPath,
    doc: sh.ShaclDocument,
    shape: Optional[sh.Shape] = None,
) -> SclFormula:
    """Constraint of a property shape to a one-variable formula."""
    pi = translate_path(path)
    kind = atom.kind
    if kind == sh.HAS_VALUE:
        return exists(pi, EqConst(atom.args[0]))
    if kind in _VALUE_TYPE_KINDS:
        return forall_path(pi, translate_node_constraint(atom))
    if kind == sh.UNIQUE_LANG:
        parts: list[SclFormula] = [
            Not(CountExists(2, pi, Filter(HasLanguage(tag))))
            for tag in doc.language_set()
        ]
        return conj(parts)
    if kind == sh.MIN_COUNT:
        return _at_least(atom.args[0], pi, Top())
    if kind == sh.MAX_COUNT:
        return _at_most(atom.args[0], pi, Top())
    if kind == sh.EQUALS:
        return Equals(pi, atom.args[0])
    if kind == sh.DISJOINT:
        return Disjoint(pi, atom.args[0])
    if kind == sh.LESS_THAN:
        return OrderCmp(pi, atom.args[0], strict=True, inverted=False)
    if kind == sh.LESS_THAN_OR_EQUALS:
        return OrderCmp(pi, atom.args[0], strict=False, inverted=False)
    if kind == sh.QUALIFIED:
        ref, min_count, max_count, siblings = atom.args
        nu = conj([HasShape(ref)] + [Not(HasShape(s)) for s in siblings])
        alpha = _at_least(min_count, pi, nu) if min_count is not None else Top()
        beta = _at_most(max_count, pi, nu) if max_count is not None else Top()
        return conj([alpha, beta])
    if kind == sh.CLOSED:
        theta = doc.closed_theta(shape, atom.args) if shape is not None else ()
        return conj([Not(exists(Rel(r), Top())) for r in theta])
    return Top()


def _shape_body(shape: sh.Shape, doc: sh.ShaclDocument) -> SclFormula:
    if shape.is_property_shape:
        parts = [
            translate_property_constraint(c, shape.path, doc, shape) for c in shape.constraints
        ]
    else:
        parts = [translate_node_constraint(c) for c in shape.constraints]
    return conj(parts)


def translate_tagged(doc: sh.ShaclDocument) -> list[tuple[Term, SclSentence]]:
    """Per-shape conjuncts of the translation, tagged with the name the
    conjunct answers for (target copies report their original shape)."""
    split, origin = sh.split_targets_with_origin(doc)
    ordered = [s for s in split.shapes if s.targets] + [s for s in split.shapes if not s.targets]
    out: list[tuple[Term, SclSentence]] = []
    for shape in ordered:
        body = _shape_body(shape, split)
        tag = origin.get(shape.name, shape.name)
        if shape.targets:
            target = shape.targets[0]
            if isinstance(target, sh.NodeTarget):
                out.append((tag, AtConst(target.node, body)))
            elif isinstance(target, sh.ClassTarget):
                out.append((tag, ForClass(target.cls, body)))
            elif isinstance(target, sh.SubjectsOfTarget):
                out.append((tag, ForSubjectsOf(target.relation, False, body)))
            elif isinstance(target, sh.ObjectsOfTarget):
                out.append((tag, ForSubjectsOf(target.relation, True, body)))
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown target {target!r}")
        else:
            out.append((tag, ShapeDef(shape.name, body)))
    return out


def translate(doc: sh.ShaclDocument) -> SclSentence:
    """Translation of a document: the conjunction over its shapes."""
    return sentence_conj([part for _, part in translate_tagged(doc)])


def extract_definitions(sentence: SclSentence) -> SclSentence:
    """The shape-name definition conjuncts of a sentence, order preserved."""
    return sentence_conj([p for p in conjuncts(sentence) if isinstance(p, ShapeDef)])


# --------------------------------------------------------------------------
# logic -> SHACL (mu)
# --------------------------------------------------------------------------


def _hash_name(prefix: str, text: str) -> Term:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return iri(f"{ns.GEN_NS}{prefix}:{digest}")


class _MuState:
    def __init__(self) -> None:
        self.triples: set[Triple] = set()
        self.texts: dict = {}  # node -> canonical print

    def add(self, subject: Term, predicate: str, obj: Term) -> None:
        self.triples.add(Triple(subject, iri(predicate), obj))

    def text(self, node) -> str:
        """The canonical print of `node`, each distinct node printed once
        from its children's prints."""
        return fold(node, _print_step, self.texts)

    def blank_node(self, context: str) -> Term:
        digest = hashlib.sha256(context.encode("utf-8")).hexdigest()[:16]
        return blank(f"g{digest}")

    def collection(self, items: list[Term], context: str) -> Term:
        head = iri(ns.RDF_NIL)
        for position in range(len(items) - 1, -1, -1):
            cell = self.blank_node(f"list|{context}|{position}")
            self.add(cell, ns.RDF_FIRST, items[position])
            self.add(cell, ns.RDF_REST, head)
            head = cell
        return head


def _print_step(node, texts: dict) -> str:
    return "".join(p if isinstance(p, str) else texts[p] for p in _pieces(node))


def _mu_path(state: _MuState, path: PathExpr) -> Term:
    if isinstance(path, Rel) and not path.inverted:
        return path.name
    key = state.text(exists(path))
    node = state.blank_node(f"path|{key}")
    if isinstance(path, Rel):
        state.add(node, ns.SH_INVERSE_PATH, path.name)
    elif isinstance(path, (Seq, Alt)):
        # one list along the right spine; a left operand of the same kind nests
        members = []
        cursor: PathExpr = path
        while isinstance(cursor, type(path)):
            members.append(cursor.left)
            cursor = cursor.right
        members.append(cursor)
        head = state.collection([_mu_path(state, p) for p in members], key)
        if isinstance(path, Seq):
            return head
        state.add(node, ns.SH_ALTERNATIVE_PATH, head)
    elif isinstance(path, Star):
        state.add(node, ns.SH_ZERO_OR_MORE_PATH, _mu_path(state, path.inner))
    elif isinstance(path, Opt):
        state.add(node, ns.SH_ZERO_OR_ONE_PATH, _mu_path(state, path.inner))
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown path {path!r}")
    return node


def _mu_filter(state: _MuState, name, subject: Term) -> None:
    if isinstance(name, IsIri):
        state.add(subject, ns.SH_NODE_KIND, iri(ns.SH_NK_IRI))
    elif isinstance(name, IsLiteral):
        state.add(subject, ns.SH_NODE_KIND, iri(ns.SH_NK_LITERAL))
    elif isinstance(name, IsBlank):
        state.add(subject, ns.SH_NODE_KIND, iri(ns.SH_NK_BLANK))
    elif isinstance(name, HasDatatype):
        state.add(subject, ns.SH_DATATYPE, iri(name.datatype))
    elif isinstance(name, HasLanguage):
        head = state.collection([string(name.tag)], f"lang|{name.tag}|{subject.lexical}")
        state.add(subject, ns.SH_LANGUAGE_IN, head)
    elif isinstance(name, MinLength):
        state.add(subject, ns.SH_MIN_LENGTH, integer(name.bound))
    elif isinstance(name, MaxLength):
        state.add(subject, ns.SH_MAX_LENGTH, integer(name.bound))
    elif isinstance(name, Matches):
        state.add(subject, ns.SH_PATTERN, string(name.pattern))
    elif isinstance(name, MinValue):
        pred = ns.SH_MIN_EXCLUSIVE if name.strict else ns.SH_MIN_INCLUSIVE
        state.add(subject, pred, name.bound)
    elif isinstance(name, MaxValue):
        pred = ns.SH_MAX_EXCLUSIVE if name.strict else ns.SH_MAX_INCLUSIVE
        state.add(subject, pred, name.bound)
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown filter {name!r}")


def _mu_step(state: _MuState, formula: SclFormula, names: dict) -> Term:
    """The node shape of `formula`, its child formulas' shapes read from
    `names`; a `fold` step, so each distinct subformula is emitted once."""
    key = state.text(formula)
    name = _hash_name("shape", key)
    state.add(name, ns.RDF_TYPE, iri(ns.SH_NODE_SHAPE))
    if isinstance(formula, Top):
        pass
    elif isinstance(formula, EqConst):
        state.add(name, ns.SH_HAS_VALUE, formula.constant)
    elif isinstance(formula, Filter):
        _mu_filter(state, formula.name, name)
    elif isinstance(formula, HasShape):
        state.add(name, ns.SH_NODE, formula.shape)
    elif isinstance(formula, Not):
        state.add(name, ns.SH_NOT, names[formula.body])
    elif isinstance(formula, And):
        members = [names[formula.left], names[formula.right]]
        state.add(name, ns.SH_AND, state.collection(members, key))
    elif isinstance(formula, (CountExists, Equals, Disjoint, OrderCmp)):
        if isinstance(formula, OrderCmp) and formula.inverted:
            raise NotShaclExpressible("inverted order comparisons have no shape form")
        # a property shape carrying the path
        prop = _hash_name("pshape", key)
        state.add(prop, ns.RDF_TYPE, iri(ns.SH_PROPERTY_SHAPE))
        state.add(prop, ns.SH_PATH, _mu_path(state, formula.path))
        state.add(name, ns.SH_PROPERTY, prop)
        if isinstance(formula, CountExists):
            state.add(prop, ns.SH_QUALIFIED_VALUE_SHAPE, names[formula.body])
            state.add(prop, ns.SH_QUALIFIED_MIN_COUNT, integer(formula.threshold))
        elif isinstance(formula, Equals):
            state.add(prop, ns.SH_EQUALS, formula.relation)
        elif isinstance(formula, Disjoint):
            state.add(prop, ns.SH_DISJOINT, formula.relation)
        else:
            pred = ns.SH_LESS_THAN if formula.strict else ns.SH_LESS_THAN_OR_EQUALS
            state.add(prop, pred, formula.relation)
    else:
        raise NotShaclExpressible(f"no shape form for {type(formula).__name__}")
    return name


def _target(part: SclSentence) -> tuple[str, Term]:
    """The target predicate and object of a targeted conjunct."""
    if isinstance(part, AtConst):
        return ns.SH_TARGET_NODE, part.constant
    if isinstance(part, ForClass):
        return ns.SH_TARGET_CLASS, part.cls
    if isinstance(part, ForSubjectsOf):
        pred = ns.SH_TARGET_OBJECTS_OF if part.inverted else ns.SH_TARGET_SUBJECTS_OF
        return pred, part.relation
    raise TypeError(f"unknown sentence {part!r}")  # pragma: no cover - exhaustive


def back_translate_graph(sentence: SclSentence) -> TripleGraph:
    """The shape graph of the inverse translation.  Raises
    IllFormedSentence when a shape definition is missing, duplicated or
    recursive."""
    defects = check_well_formed(sentence)
    if defects:
        raise IllFormedSentence(defects)
    state = _MuState()
    parts = conjuncts(sentence)
    if not parts:
        state.add(_hash_name("shape", "(top)"), ns.RDF_TYPE, iri(ns.SH_NODE_SHAPE))
    step, names = partial(_mu_step, state), FormulaValues()  # formula -> its node shape
    for part in parts:
        if isinstance(part, AtMostGlobal):
            raise NotShaclExpressible("global counting bounds have no shape form")
        inner = fold(part.body, step, names)
        if isinstance(part, ShapeDef):
            holder = part.name
        else:
            holder = _hash_name("target", state.text(part))
            state.add(holder, *_target(part))
        state.add(holder, ns.RDF_TYPE, iri(ns.SH_NODE_SHAPE))
        state.add(holder, ns.SH_NODE, inner)
    return TripleGraph(frozenset(state.triples))


def back_translate(sentence: SclSentence) -> sh.ShaclDocument:
    return sh.extract_document(back_translate_graph(sentence))

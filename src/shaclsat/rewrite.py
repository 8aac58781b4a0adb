"""Semantics-preserving rewrites: sequence flattening, zero-or-one and
alternative elimination, fragment normalization, and the linear
subformula-naming transform that protects the eliminations from
exponential blow-up."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from . import namespaces as ns
from .scl import (
    Alt,
    And,
    CountExists,
    Disjoint,
    Equals,
    HasShape,
    Not,
    Opt,
    OrderCmp,
    PathExpr,
    SclFormula,
    SclSentence,
    Seq,
    ShapeDef,
    Top,
    conjuncts,
    disj,
    sentence_conj,
    A,
    D,
    O,
    S,
    Z,
    FeatureSet,
)
from .terms import Term, iri


@dataclass(frozen=True)
class RewriteDefect:
    rule: str
    reason: str
    at: str  # canonical print of the untouched subformula


@dataclass(frozen=True)
class RewriteResult:
    formula: SclFormula
    defects: tuple[RewriteDefect, ...] = ()


def _map_formula(f: SclFormula, fn: Callable[[SclFormula], SclFormula]) -> SclFormula:
    """Rebuild one level, applying fn to child formulas."""
    if isinstance(f, Not):
        return Not(fn(f.body))
    if isinstance(f, And):
        return And(fn(f.left), fn(f.right))
    if isinstance(f, CountExists):
        return CountExists(f.threshold, f.path, fn(f.body))
    return f


def _defect(rule: str, reason: str, node: SclFormula) -> RewriteDefect:
    from .scl_text import print_scl

    return RewriteDefect(rule, reason, print_scl(node))


# --------------------------------------------------------------------------
# [S] sequence elimination
# --------------------------------------------------------------------------


def eliminate_sequence(formula: SclFormula) -> RewriteResult:
    """Split sequence paths under plain existentials into nested
    quantifications.  Sequences under counting, disjointness, equality and
    order atoms stay put; no equivalence covers them."""

    def go(f: SclFormula) -> SclFormula:
        if isinstance(f, CountExists) and f.threshold == 1:
            body = go(f.body)
            return _split(f.path, body)
        return _map_formula(f, go)

    def _split(path: PathExpr, body: SclFormula) -> SclFormula:
        if isinstance(path, Seq):
            return _split(path.left, _split(path.right, body))
        return CountExists(1, path, body)

    return RewriteResult(go(formula))


# --------------------------------------------------------------------------
# [Z] zero-or-one elimination
# --------------------------------------------------------------------------


def eliminate_zero_or_one(formula: SclFormula) -> RewriteResult:
    defects: list[RewriteDefect] = []

    def exists(path: PathExpr, body: SclFormula) -> SclFormula:
        """(count>= 1 path body) over a body that is already rewritten."""
        if isinstance(path, Opt):
            return disj([body, exists(path.inner, body)])
        return CountExists(1, path, body)

    def go(f: SclFormula) -> SclFormula:
        if isinstance(f, CountExists):
            body = go(f.body)
            if f.threshold == 1:
                return exists(f.path, body)
            if isinstance(f.path, Opt):
                defects.append(
                    _defect("Z", "zero-or-one under a counting quantifier is not eliminable", f)
                )
            return CountExists(f.threshold, f.path, body)
        if isinstance(f, (Disjoint, Equals, OrderCmp)) and isinstance(f.path, Opt):
            defects.append(
                _defect("Z", "zero-or-one under this construct is not eliminable", f)
            )
            return f
        return _map_formula(f, go)

    return RewriteResult(go(formula), tuple(defects))


# --------------------------------------------------------------------------
# [A] alternative elimination
# --------------------------------------------------------------------------


def eliminate_alternative(formula: SclFormula) -> RewriteResult:
    defects: list[RewriteDefect] = []

    def exists(path: PathExpr, body: SclFormula) -> SclFormula:
        """(count>= 1 path body) over a body that is already rewritten."""
        if isinstance(path, Alt):
            return disj([exists(path.left, body), exists(path.right, body)])
        return CountExists(1, path, body)

    def go(f: SclFormula) -> SclFormula:
        if isinstance(f, CountExists):
            body = go(f.body)
            if f.threshold == 1:
                return exists(f.path, body)
            if isinstance(f.path, Alt):
                defects.append(
                    _defect("A", "alternative under a counting quantifier is not eliminable", f)
                )
            return CountExists(f.threshold, f.path, body)
        if isinstance(f, Disjoint) and isinstance(f.path, Alt):
            return And(
                go(Disjoint(f.path.left, f.relation)), go(Disjoint(f.path.right, f.relation))
            )
        if isinstance(f, OrderCmp) and isinstance(f.path, Alt):
            return And(
                go(replace(f, path=f.path.left)),
                go(replace(f, path=f.path.right)),
            )
        if isinstance(f, Equals) and isinstance(f.path, Alt):
            defects.append(_defect("A", "alternative under equality is not eliminable", f))
            return f
        return _map_formula(f, go)

    return RewriteResult(go(formula), tuple(defects))


# --------------------------------------------------------------------------
# Sentence-level driving
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SentenceRewrite:
    sentence: SclSentence
    defects: tuple[RewriteDefect, ...] = ()


_FORMULA_PASSES = {
    "S": eliminate_sequence,
    "Z": eliminate_zero_or_one,
    "A": eliminate_alternative,
}


def rewrite_sentence(sentence: SclSentence, passes: str) -> SentenceRewrite:
    """Apply elimination passes (letters of `passes`, e.g. "SZA") to every
    formula of the sentence.  The combined "SZA" pipeline names subformulas
    first so the duplicating rules stay linear."""
    defects: list[RewriteDefect] = []
    if set(passes) - set("SZA"):
        raise ValueError(f"unknown passes {passes!r}")
    if len(passes) > 1:
        sentence = name_subformulas(sentence)

    for letter in passes:
        rewriter = _FORMULA_PASSES[letter]
        out = []
        for part in conjuncts(sentence):
            result = rewriter(part.body)
            defects.extend(result.defects)
            out.append(replace(part, body=result.formula))
        sentence = sentence_conj(out)
    return SentenceRewrite(sentence, tuple(defects))


# --------------------------------------------------------------------------
# Subformula naming (the linear-size star transform)
# --------------------------------------------------------------------------


def name_subformulas(sentence: SclSentence) -> SclSentence:
    """Replace every quantification body with a fresh named shape, inner
    bodies first, so each quantification scopes over a plain atom."""
    new_defs: list[ShapeDef] = []
    names: dict[SclFormula, Term] = {}

    def name_for(body: SclFormula) -> Term:
        if body not in names:
            fresh = iri(f"{ns.GEN_NS}def:n{len(names)}")
            names[body] = fresh
            new_defs.append(ShapeDef(fresh, body))
        return names[body]

    def go(f: SclFormula) -> SclFormula:
        if isinstance(f, CountExists):
            body = go(f.body)
            if isinstance(body, (HasShape, Top)):
                return CountExists(f.threshold, f.path, body)
            return CountExists(f.threshold, f.path, HasShape(name_for(body)))
        return _map_formula(f, go)

    out = []
    for part in conjuncts(sentence):
        out.append(replace(part, body=go(part.body)))
    return sentence_conj(out + list(new_defs))


# --------------------------------------------------------------------------
# Fragment normalization
# --------------------------------------------------------------------------


def normalize_fragment(features: FeatureSet) -> FeatureSet:
    """Collapse feature sets along the proved fragment equivalences:
    subsets of {S,Z,A} reduce to the base language, and A is absorbed by
    D, O and D+O."""
    fs = frozenset(features)
    if fs <= {S, Z, A}:
        return frozenset()
    if A in fs and fs - {A} in ({D}, {O}, {D, O}):
        return frozenset(fs - {A})
    return fs

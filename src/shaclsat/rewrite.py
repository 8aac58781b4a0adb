"""Semantics-preserving rewrites: sequence flattening, zero-or-one and
alternative elimination, fragment normalization, and the linear
subformula-naming transform that protects the eliminations from
exponential blow-up."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import namespaces as ns
from .scl import (
    Alt,
    And,
    CountExists,
    Disjoint,
    FormulaValues,
    HasShape,
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
    fold,
    operands,
    sentence_conj,
    A,
    D,
    O,
    S,
    Z,
    FeatureSet,
)
from .scl_text import print_scl
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


def _rebuild(f: SclFormula, done: dict) -> SclFormula:
    """`f` with each child formula replaced by its value in `done`; `f`
    itself when no child changes."""
    fields = tuple(f.__dict__.values())
    mapped = tuple([done[v] if isinstance(v, SclFormula) else v for v in fields])
    return f if mapped == fields else type(f)(*mapped)


def _over_alternatives(path: PathExpr, leaf, join) -> SclFormula:
    """`leaf` of each member of the alternative tree at `path`, joined
    pairwise in the tree's own shape.  The tree is read in postfix order
    from an explicit stack (None marks a join), so its size costs no
    recursion."""
    values: list[SclFormula] = []
    stack: list = [path]
    while stack:
        p = stack.pop()
        if p is None:
            right = values.pop()
            values.append(join(values.pop(), right))
        elif isinstance(p, Alt):
            stack += (None, p.right, p.left)
        else:
            values.append(leaf(p))
    return values.pop()


# --------------------------------------------------------------------------
# The passes.  Each is a `fold` step: it sees a formula once its child
# formulas are rewritten (read from `done`), so a subformula shared in one
# body is rewritten, and reports its defect, once.
# --------------------------------------------------------------------------


def eliminate_sequence(formula: SclFormula) -> RewriteResult:
    """Split sequence paths under plain existentials into nested
    quantifications.  Sequences under counting, disjointness, equality and
    order atoms stay put; no equivalence covers them."""

    def step(f: SclFormula, done: dict) -> SclFormula:
        if isinstance(f, CountExists) and f.threshold == 1 and isinstance(f.path, Seq):
            body = done[f.body]
            for part in reversed(operands(f.path, Seq)):
                body = CountExists(1, part, body)
            return body
        return _rebuild(f, done)

    return RewriteResult(fold(formula, step, FormulaValues()))


def eliminate_zero_or_one(formula: SclFormula) -> RewriteResult:
    defects: list[RewriteDefect] = []

    def step(f: SclFormula, done: dict) -> SclFormula:
        if not isinstance(getattr(f, "path", None), Opt):
            return _rebuild(f, done)
        if isinstance(f, CountExists) and f.threshold == 1:
            # (count>= 1 (opt p) b) is b or (count>= 1 p b)
            body, path, options = done[f.body], f.path, 0
            while isinstance(path, Opt):
                path, options = path.inner, options + 1
            out = CountExists(1, path, body)
            for _ in range(options):
                out = disj([body, out])
            return out
        if isinstance(f, CountExists):
            reason = "zero-or-one under a counting quantifier is not eliminable"
        else:
            reason = "zero-or-one under this construct is not eliminable"
        defects.append(RewriteDefect("Z", reason, print_scl(f)))
        return _rebuild(f, done)

    return RewriteResult(fold(formula, step, FormulaValues()), tuple(defects))


def eliminate_alternative(formula: SclFormula) -> RewriteResult:
    defects: list[RewriteDefect] = []

    def step(f: SclFormula, done: dict) -> SclFormula:
        if not isinstance(getattr(f, "path", None), Alt):
            return _rebuild(f, done)
        if isinstance(f, CountExists) and f.threshold == 1:
            body = done[f.body]
            return _over_alternatives(
                f.path, lambda p: CountExists(1, p, body), lambda a, b: disj([a, b])
            )
        if isinstance(f, (Disjoint, OrderCmp)):
            return _over_alternatives(f.path, lambda p: replace(f, path=p), And)
        if isinstance(f, CountExists):
            reason = "alternative under a counting quantifier is not eliminable"
        else:
            reason = "alternative under equality is not eliminable"
        defects.append(RewriteDefect("A", reason, print_scl(f)))
        return _rebuild(f, done)

    return RewriteResult(fold(formula, step, FormulaValues()), tuple(defects))


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

    def step(f: SclFormula, done: dict) -> SclFormula:
        if not isinstance(f, CountExists) or isinstance(done[f.body], (HasShape, Top)):
            return _rebuild(f, done)
        body = done[f.body]
        if body not in names:
            names[body] = iri(f"{ns.GEN_NS}def:n{len(names)}")
            new_defs.append(ShapeDef(names[body], body))
        return CountExists(f.threshold, f.path, HasShape(names[body]))

    done = FormulaValues()
    out = [replace(part, body=fold(part.body, step, done)) for part in conjuncts(sentence)]
    return sentence_conj(out + new_defs)


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

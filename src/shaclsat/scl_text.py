"""Concrete s-expression syntax for the constraint logic.

`print_scl` emits the single canonical rendering; `parse_scl` accepts any
whitespace variation of it.  Round trips are exact: parse(print(ast)) == ast
and print(parse(text)) == text for canonical text.
"""

from __future__ import annotations

import re
from typing import Union

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
    FilterName,
    ForClass,
    ForSubjectsOf,
    HasDatatype,
    HasLanguage,
    HasShape,
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
    SAnd,
    SclFormula,
    SclSentence,
    Seq,
    ShapeDef,
    Star,
    Top,
    TopSentence,
    pattern_error,
)
from .terms import blank, decimal_form, iri, literal, n3, string


class SclSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------


def _filter(name: FilterName) -> str:
    if isinstance(name, IsIri):
        return "is-iri"
    if isinstance(name, IsLiteral):
        return "is-literal"
    if isinstance(name, IsBlank):
        return "is-blank"
    if isinstance(name, HasDatatype):
        return f"datatype <{name.datatype}>"
    if isinstance(name, HasLanguage):
        return f"lang {n3(string(name.tag))}"
    if isinstance(name, MinLength):
        return f"min-length {decimal_form(name.bound)}"
    if isinstance(name, MaxLength):
        return f"max-length {decimal_form(name.bound)}"
    if isinstance(name, Matches):
        return f"pattern {n3(string(name.pattern))}"
    if isinstance(name, MinValue):
        return f"min-value {n3(name.bound)} {'strict' if name.strict else 'incl'}"
    if isinstance(name, MaxValue):
        return f"max-value {n3(name.bound)} {'strict' if name.strict else 'incl'}"
    raise TypeError(f"unknown filter {name!r}")


def _pieces(node: Union[SclSentence, SclFormula, PathExpr]) -> list:
    """A node's rendering as literal strings and child nodes, in print order."""
    if isinstance(node, (Top, TopSentence)):
        return ["(top)"]
    if isinstance(node, (And, SAnd)):
        return ["(and ", node.left, " ", node.right, ")"]
    if isinstance(node, Rel):
        return [f"(inv {n3(node.name)})" if node.inverted else f"(rel {n3(node.name)})"]
    if isinstance(node, Seq):
        return ["(seq ", node.left, " ", node.right, ")"]
    if isinstance(node, Opt):
        return ["(opt ", node.inner, ")"]
    if isinstance(node, Alt):
        return ["(alt ", node.left, " ", node.right, ")"]
    if isinstance(node, Star):
        return ["(star ", node.inner, ")"]
    if isinstance(node, EqConst):
        return [f"(eq {n3(node.constant)})"]
    if isinstance(node, Filter):
        return [f"(filter {_filter(node.name)})"]
    if isinstance(node, HasShape):
        return [f"(hasshape {n3(node.shape)})"]
    if isinstance(node, Not):
        return ["(not ", node.body, ")"]
    if isinstance(node, CountExists):
        return [f"(count>= {decimal_form(node.threshold)} ", node.path, " ", node.body, ")"]
    if isinstance(node, Disjoint):
        return ["(disjoint ", node.path, f" {n3(node.relation)})"]
    if isinstance(node, Equals):
        return ["(equals ", node.path, f" {n3(node.relation)})"]
    if isinstance(node, OrderCmp):
        op = "lt" if node.strict else "le"
        direction = "inv" if node.inverted else "fwd"
        return ["(order ", node.path, f" {n3(node.relation)} {op} {direction})"]
    if isinstance(node, AtConst):
        return [f"(at {n3(node.constant)} ", node.body, ")"]
    if isinstance(node, ForClass):
        return [f"(for-class {n3(node.cls)} ", node.body, ")"]
    if isinstance(node, ForSubjectsOf):
        head = "for-objects" if node.inverted else "for-subjects"
        return [f"({head} {n3(node.relation)} ", node.body, ")"]
    if isinstance(node, ShapeDef):
        return [f"(def-shape {n3(node.name)} ", node.body, ")"]
    if isinstance(node, AtMostGlobal):
        return [f"(at-most {decimal_form(node.bound)} ", node.body, ")"]
    raise TypeError(f"unknown node {node!r}")


def print_scl(node: Union[SclSentence, SclFormula]) -> str:
    """The canonical text of a sentence or formula.

    Pieces are expanded from an explicit stack and joined once, so the work
    is linear in the output and depth costs no recursion.
    """
    out: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(item)))
    return "".join(out)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}

# One alternative per token kind.  `\w` is exactly `str.isalnum()` or "_";
# integers are ASCII digits.  A character no other alternative starts with
# is matched by `bad`, which `_tokenize` reports.
_TOKEN = re.compile(
    r"""[ \t\r\n]+|;[^\n]*
    |(?P<lparen>\()|(?P<rparen>\))
    |<(?P<iri>[^>]*)>
    |_:(?P<blank>[\w-]*)
    |(?P<literal>"(?P<lexical>(?:[^"\\]|\\["\\nrt])*)"
        (?:\^\^<(?P<datatype>[^>]*)>|@(?P<language>(?:[^\W_]|-)*))?)
    |(?P<int>[0-9]+)
    |(?P<symbol>[\w\->=]+)
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)
_STRING_BODY = re.compile(r'"(?:[^"\\]|\\["\\nrt])*')
_ESCAPE = re.compile(r"\\(.)")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, offset) triples, ending with an "eof" token.  The whole
    text is read before parsing, so a lexical error anywhere is reported
    ahead of a grammar error."""
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # whitespace or comment
            continue
        pos = m.start()
        if kind == "symbol":
            toks.append((kind, m["symbol"], pos))
        elif kind == "iri":
            toks.append(("term", iri(m["iri"]), pos))
        elif kind in ("lparen", "rparen"):
            toks.append((kind, None, pos))
        elif kind == "int":
            try:
                toks.append((kind, int(m["int"]), pos))
            except ValueError:  # more digits than int() reads from a string
                raise SclSyntaxError("integer too long", pos) from None
        elif kind == "blank":
            if not m["blank"]:
                raise SclSyntaxError("empty blank label", pos)
            toks.append(("term", blank(m["blank"]), pos))
        elif kind == "literal":
            if m["datatype"] is m["language"] is None and text.startswith("^^<", m.end()):
                raise SclSyntaxError("unterminated datatype IRI", m.end())
            lexical = _ESCAPE.sub(lambda e: _UNESCAPES[e[1]], m["lexical"])
            toks.append(("term", literal(lexical, m["datatype"], m["language"]), pos))
        elif m["bad"] == "<":
            raise SclSyntaxError("unterminated IRI", pos)
        elif m["bad"] == '"':
            end = _STRING_BODY.match(text, pos).end()
            if end == len(text):
                raise SclSyntaxError("unterminated string", pos)
            raise SclSyntaxError("invalid escape", end)
        else:
            raise SclSyntaxError(f"unexpected character {m['bad']!r}", pos)
    toks.append(("eof", None, len(text)))
    return toks


# Every form, keyed by (category, head), and every filter, keyed by name:
# its constructor and the kinds of its arguments.  An argument kind is a
# category (a parenthesised form), "filter", "term", "iri" (a term that
# names a relation), "int", or a tuple of the symbols allowed there.
_CATEGORIES = ("sentence", "formula", "path")
_FORMS = {
    ("sentence", "top"): (TopSentence, ()),
    ("sentence", "and"): (SAnd, ("sentence", "sentence")),
    ("sentence", "at"): (AtConst, ("term", "formula")),
    ("sentence", "for-class"): (ForClass, ("term", "formula")),
    ("sentence", "for-subjects"): (
        lambda rel, body: ForSubjectsOf(rel, False, body),
        ("iri", "formula"),
    ),
    ("sentence", "for-objects"): (
        lambda rel, body: ForSubjectsOf(rel, True, body),
        ("iri", "formula"),
    ),
    ("sentence", "def-shape"): (ShapeDef, ("term", "formula")),
    ("sentence", "at-most"): (AtMostGlobal, ("int", "formula")),
    ("formula", "top"): (Top, ()),
    ("formula", "eq"): (EqConst, ("term",)),
    ("formula", "filter"): (Filter, ("filter",)),
    ("formula", "hasshape"): (HasShape, ("term",)),
    ("formula", "not"): (Not, ("formula",)),
    ("formula", "and"): (And, ("formula", "formula")),
    ("formula", "count>="): (
        lambda n, path, body: CountExists(n, path, body) if n else Top(),
        ("int", "path", "formula"),
    ),
    ("formula", "disjoint"): (Disjoint, ("path", "iri")),
    ("formula", "equals"): (Equals, ("path", "iri")),
    ("formula", "order"): (
        lambda path, rel, op, direction: OrderCmp(path, rel, op == "lt", direction == "inv"),
        ("path", "iri", ("lt", "le"), ("fwd", "inv")),
    ),
    ("path", "rel"): (Rel, ("iri",)),
    ("path", "inv"): (lambda name: Rel(name, True), ("iri",)),
    ("path", "seq"): (Seq, ("path", "path")),
    ("path", "opt"): (Opt, ("path",)),
    ("path", "alt"): (Alt, ("path", "path")),
    ("path", "star"): (Star, ("path",)),
}
_FILTERS = {
    "is-iri": (IsIri, ()),
    "is-literal": (IsLiteral, ()),
    "is-blank": (IsBlank, ()),
    "datatype": (lambda t: HasDatatype(t.lexical), ("term",)),
    "lang": (lambda t: HasLanguage(t.lexical), ("term",)),
    "min-length": (MinLength, ("int",)),
    "max-length": (MaxLength, ("int",)),
    "pattern": (lambda t: Matches(t.lexical), ("term",)),
    "min-value": (lambda bound, s: MinValue(bound, s == "strict"), ("term", ("strict", "incl"))),
    "max-value": (lambda bound, s: MaxValue(bound, s == "strict"), ("term", ("strict", "incl"))),
}


def _parse(text: str, category: str):
    """Read one `category` value spanning all of `text`.

    Each open form is a frame (constructor, argument kinds, arguments read,
    whether a ")" ends it) on an explicit stack, so depth costs no
    recursion.  A filter's arguments follow its name inside "(filter ...)",
    so its frame takes no ")" of its own.
    """
    toks = _tokenize(text)
    i = 0
    stack: list[tuple] = []
    build, kinds, args, closes = None, (category,), [], False
    while True:
        if len(args) == len(kinds):
            if build is None:
                break
            if closes:
                kind, _, pos = toks[i]
                i += 1
                if kind != "rparen":
                    raise SclSyntaxError(f"expected rparen, got {kind}", pos)
            node = build(*args)
            if isinstance(node, Matches) and (error := pattern_error(node.pattern)) is not None:
                # a pattern that does not compile is a syntax error
                raise SclSyntaxError(f"invalid pattern {node.pattern!r}: {error}", toks[i - 1][2])
            build, kinds, args, closes = stack.pop()
            args.append(node)
            continue
        want = kinds[len(args)]
        kind, value, pos = toks[i]
        i += 1
        if want in _CATEGORIES:
            if kind != "lparen":
                raise SclSyntaxError(f"expected lparen, got {kind}", pos)
            kind, value, head_pos = toks[i]
            i += 1
            if kind != "symbol":
                raise SclSyntaxError(f"expected symbol, got {kind}", head_pos)
            form = _FORMS.get((want, value))
            if form is None:
                raise SclSyntaxError(f"unknown {want} form {value!r}", pos)
            stack.append((build, kinds, args, closes))
            (build, kinds), args, closes = form, [], True
        elif want == "filter":
            if kind != "symbol":
                raise SclSyntaxError(f"expected symbol, got {kind}", pos)
            form = _FILTERS.get(value)
            if form is None:
                raise SclSyntaxError(f"unknown filter {value!r}", pos)
            stack.append((build, kinds, args, closes))
            (build, kinds), args, closes = form, [], False
        elif isinstance(want, tuple):
            if kind != "symbol":
                raise SclSyntaxError(f"expected symbol, got {kind}", pos)
            if value not in want:
                raise SclSyntaxError(f"expected one of {want}, got {value!r}", pos)
            args.append(value)
        elif want == "iri":
            if kind != "term" or not value.is_iri:
                got = n3(value) if kind == "term" else kind
                raise SclSyntaxError(f"expected iri, got {got}", pos)
            args.append(value)
        elif kind == want:
            args.append(value)
        else:
            raise SclSyntaxError(f"expected {want}, got {kind}", pos)
    kind, _, pos = toks[i]
    if kind != "eof":
        raise SclSyntaxError(f"trailing input after {category}", pos)
    return args[0]


def parse_scl(text: str) -> SclSentence:
    return _parse(text, "sentence")


def parse_scl_formula(text: str) -> SclFormula:
    return _parse(text, "formula")

"""Concrete s-expression syntax for the constraint logic.

`print_scl` emits the single canonical rendering; `parse_scl` accepts any
whitespace variation of it.  Round trips are exact: parse(print(ast)) == ast
and print(parse(text)) == text for canonical text.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .terms import Term, blank, iri, literal


class SclSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _quote(text: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(ch, ch) for ch in text) + '"'


def _term(term: Term) -> str:
    if term.is_iri:
        return f"<{term.lexical}>"
    if term.is_blank:
        return f"_:{term.lexical}"
    body = _quote(term.lexical)
    if term.language:
        return f"{body}@{term.language}"
    if term.datatype:
        return f"{body}^^<{term.datatype}>"
    return body


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
        return f"lang {_quote(name.tag)}"
    if isinstance(name, MinLength):
        return f"min-length {name.bound}"
    if isinstance(name, MaxLength):
        return f"max-length {name.bound}"
    if isinstance(name, Matches):
        return f"pattern {_quote(name.pattern)}"
    if isinstance(name, MinValue):
        return f"min-value {_term(name.bound)} {'strict' if name.strict else 'incl'}"
    if isinstance(name, MaxValue):
        return f"max-value {_term(name.bound)} {'strict' if name.strict else 'incl'}"
    raise TypeError(f"unknown filter {name!r}")


def _pieces(node: Union[SclSentence, SclFormula, PathExpr]) -> list:
    """A node's rendering as literal strings and child nodes, in print order."""
    if isinstance(node, (Top, TopSentence)):
        return ["(top)"]
    if isinstance(node, (And, SAnd)):
        return ["(and ", node.left, " ", node.right, ")"]
    if isinstance(node, Rel):
        return [f"(inv {_term(node.name)})" if node.inverted else f"(rel {_term(node.name)})"]
    if isinstance(node, Seq):
        return ["(seq ", node.left, " ", node.right, ")"]
    if isinstance(node, Opt):
        return ["(opt ", node.inner, ")"]
    if isinstance(node, Alt):
        return ["(alt ", node.left, " ", node.right, ")"]
    if isinstance(node, Star):
        return ["(star ", node.inner, ")"]
    if isinstance(node, EqConst):
        return [f"(eq {_term(node.constant)})"]
    if isinstance(node, Filter):
        return [f"(filter {_filter(node.name)})"]
    if isinstance(node, HasShape):
        return [f"(hasshape {_term(node.shape)})"]
    if isinstance(node, Not):
        return ["(not ", node.body, ")"]
    if isinstance(node, CountExists):
        return [f"(count>= {node.threshold} ", node.path, " ", node.body, ")"]
    if isinstance(node, Disjoint):
        return ["(disjoint ", node.path, f" {_term(node.relation)})"]
    if isinstance(node, Equals):
        return ["(equals ", node.path, f" {_term(node.relation)})"]
    if isinstance(node, OrderCmp):
        op = "lt" if node.strict else "le"
        direction = "inv" if node.inverted else "fwd"
        return ["(order ", node.path, f" {_term(node.relation)} {op} {direction})"]
    if isinstance(node, AtConst):
        return [f"(at {_term(node.constant)} ", node.body, ")"]
    if isinstance(node, ForClass):
        return [f"(for-class {_term(node.cls)} ", node.body, ")"]
    if isinstance(node, ForSubjectsOf):
        head = "for-objects" if node.inverted else "for-subjects"
        return [f"({head} {_term(node.relation)} ", node.body, ")"]
    if isinstance(node, ShapeDef):
        return [f"(def-shape {_term(node.name)} ", node.body, ")"]
    if isinstance(node, AtMostGlobal):
        return [f"(at-most {node.bound} ", node.body, ")"]
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


@dataclass
class _Tok:
    kind: str  # lparen rparen term int symbol string eof
    value: object
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "(":
            toks.append(_Tok("lparen", "(", i))
            i += 1
            continue
        if ch == ")":
            toks.append(_Tok("rparen", ")", i))
            i += 1
            continue
        if ch == "<":
            end = text.find(">", i)
            if end < 0:
                raise SclSyntaxError("unterminated IRI", i)
            toks.append(_Tok("term", iri(text[i + 1 : end]), i))
            i = end + 1
            continue
        if ch == "_" and i + 1 < n and text[i + 1] == ":":
            j = i + 2
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            if j == i + 2:
                raise SclSyntaxError("empty blank label", i)
            toks.append(_Tok("term", blank(text[i + 2 : j]), i))
            i = j
            continue
        if ch == '"':
            start = i
            i += 1
            out = []
            while True:
                if i >= n:
                    raise SclSyntaxError("unterminated string", start)
                c = text[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in _UNESCAPES:
                        raise SclSyntaxError("invalid escape", i)
                    out.append(_UNESCAPES[text[i + 1]])
                    i += 2
                else:
                    out.append(c)
                    i += 1
            lex = "".join(out)
            if text.startswith("^^<", i):
                end = text.find(">", i + 3)
                if end < 0:
                    raise SclSyntaxError("unterminated datatype IRI", i)
                toks.append(_Tok("term", literal(lex, text[i + 3 : end]), start))
                i = end + 1
            elif i < n and text[i] == "@":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "-"):
                    j += 1
                toks.append(_Tok("term", literal(lex, language=text[i + 1 : j]), start))
                i = j
            else:
                toks.append(_Tok("term", literal(lex), start))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
            continue
        j = i
        while j < n and (text[j].isalnum() or text[j] in "->=_"):
            j += 1
        if j == i:
            raise SclSyntaxError(f"unexpected character {ch!r}", i)
        toks.append(_Tok("symbol", text[i:j], i))
        i = j
    toks.append(_Tok("eof", None, n))
    return toks


class _SclParser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Tok:
        return self.toks[self.i]

    def _next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str) -> _Tok:
        tok = self._next()
        if tok.kind != kind:
            raise SclSyntaxError(f"expected {kind}, got {tok.kind}", tok.pos)
        return tok

    def _head(self) -> str:
        self._expect("lparen")
        tok = self._expect("symbol")
        return str(tok.value)

    def _term(self) -> Term:
        tok = self._expect("term")
        return tok.value  # type: ignore[return-value]

    def _int(self) -> int:
        tok = self._expect("int")
        return int(tok.value)  # type: ignore[arg-type]

    def _close(self) -> None:
        self._expect("rparen")

    # grammar ---------------------------------------------------------

    def sentence(self) -> SclSentence:
        pos = self._peek().pos
        head = self._head()
        if head == "top":
            self._close()
            return TopSentence()
        if head == "and":
            left = self.sentence()
            right = self.sentence()
            self._close()
            return SAnd(left, right)
        if head == "at":
            constant = self._term()
            body = self.formula()
            self._close()
            return AtConst(constant, body)
        if head == "for-class":
            cls = self._term()
            body = self.formula()
            self._close()
            return ForClass(cls, body)
        if head in ("for-subjects", "for-objects"):
            rel = self._term()
            body = self.formula()
            self._close()
            return ForSubjectsOf(rel, head == "for-objects", body)
        if head == "def-shape":
            name = self._term()
            body = self.formula()
            self._close()
            return ShapeDef(name, body)
        if head == "at-most":
            bound = self._int()
            body = self.formula()
            self._close()
            return AtMostGlobal(bound, body)
        raise SclSyntaxError(f"unknown sentence form {head!r}", pos)

    def formula(self) -> SclFormula:
        pos = self._peek().pos
        head = self._head()
        if head == "top":
            self._close()
            return Top()
        if head == "eq":
            constant = self._term()
            self._close()
            return EqConst(constant)
        if head == "filter":
            name = self._filter()
            self._close()
            return Filter(name)
        if head == "hasshape":
            shape = self._term()
            self._close()
            return HasShape(shape)
        if head == "not":
            body = self.formula()
            self._close()
            return Not(body)
        if head == "and":
            left = self.formula()
            right = self.formula()
            self._close()
            return And(left, right)
        if head == "count>=":
            n = self._int()
            path = self.path()
            body = self.formula()
            self._close()
            if n == 0:
                return Top()
            return CountExists(n, path, body)
        if head == "disjoint":
            path = self.path()
            rel = self._term()
            self._close()
            return Disjoint(path, rel)
        if head == "equals":
            path = self.path()
            rel = self._term()
            self._close()
            return Equals(path, rel)
        if head == "order":
            path = self.path()
            rel = self._term()
            op = self._symbol(("lt", "le"))
            direction = self._symbol(("fwd", "inv"))
            self._close()
            return OrderCmp(path, rel, op == "lt", direction == "inv")
        raise SclSyntaxError(f"unknown formula form {head!r}", pos)

    def _symbol(self, allowed: tuple[str, ...]) -> str:
        tok = self._expect("symbol")
        if tok.value not in allowed:
            raise SclSyntaxError(f"expected one of {allowed}, got {tok.value!r}", tok.pos)
        return str(tok.value)

    def _filter(self) -> FilterName:
        tok = self._expect("symbol")
        name = str(tok.value)
        if name == "is-iri":
            return IsIri()
        if name == "is-literal":
            return IsLiteral()
        if name == "is-blank":
            return IsBlank()
        if name == "datatype":
            return HasDatatype(self._term().lexical)
        if name == "lang":
            return HasLanguage(self._term().lexical)
        if name == "min-length":
            return MinLength(self._int())
        if name == "max-length":
            return MaxLength(self._int())
        if name == "pattern":
            return Matches(self._term().lexical)
        if name in ("min-value", "max-value"):
            bound = self._term()
            strict = self._symbol(("strict", "incl")) == "strict"
            return MinValue(bound, strict) if name == "min-value" else MaxValue(bound, strict)
        raise SclSyntaxError(f"unknown filter {name!r}", tok.pos)

    def path(self) -> PathExpr:
        pos = self._peek().pos
        head = self._head()
        if head == "rel":
            name = self._term()
            self._close()
            return Rel(name, False)
        if head == "inv":
            name = self._term()
            self._close()
            return Rel(name, True)
        if head == "seq":
            left = self.path()
            right = self.path()
            self._close()
            return Seq(left, right)
        if head == "opt":
            inner = self.path()
            self._close()
            return Opt(inner)
        if head == "alt":
            left = self.path()
            right = self.path()
            self._close()
            return Alt(left, right)
        if head == "star":
            inner = self.path()
            self._close()
            return Star(inner)
        raise SclSyntaxError(f"unknown path form {head!r}", pos)


def parse_scl(text: str) -> SclSentence:
    parser = _SclParser(text)
    sentence = parser.sentence()
    tok = parser._peek()
    if tok.kind != "eof":
        raise SclSyntaxError("trailing input after sentence", tok.pos)
    return sentence


def parse_scl_formula(text: str) -> SclFormula:
    parser = _SclParser(text)
    formula = parser.formula()
    tok = parser._peek()
    if tok.kind != "eof":
        raise SclSyntaxError("trailing input after formula", tok.pos)
    return formula

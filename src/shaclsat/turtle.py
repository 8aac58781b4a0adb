"""A Turtle subset parser and a deterministic serializer.

Supported syntax: @prefix / PREFIX directives, the `a` keyword,
predicate and object lists, collections `( ... )`, blank node property
lists `[ ... ]`, and numeric / string / boolean literals with `^^` and
`@` tags.  Numerals are ASCII, as Turtle's INTEGER is `[0-9]+`.
Collections are expanded into rdf:first/rdf:rest/rdf:nil chains and
blank node labels are renamed to be graph-unique.

One compiled pattern scans the whole text into (kind, value, offset)
tokens before parsing, one match per token with the whitespace and
comments before it, so a lexical error anywhere is reported ahead of a
grammar error; a `ParseError` works out its line and column from the
offset only when it is raised.  The parser keeps each open `[ ... ]` and
`( ... )` as a frame on an explicit stack, so nesting costs no recursion.
It expands each distinct prefixed name once per parse, and once more after
each prefix declaration, which may redeclare a prefix; terms are interned,
so every occurrence of an IRI is the same object.
"""

from __future__ import annotations

import re
from typing import Optional

from .namespaces import (
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from .terms import (
    GENERALIZED,
    STRICT,
    Term,
    Triple,
    TripleGraph,
    blank,
    iri,
    literal,
    n3,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at offset `pos` of `text`; columns count characters from 1."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "'": "'", "\\": "\\", "b": "\b", "f": "\f"}

_KEYWORDS = {"a", "true", "false", "PREFIX", "BASE"}

# Whitespace and comments, then one alternative per token kind, tried in
# order, or the end of the text; the kind is the group that closes last,
# and the token starts where group 1, the skipped text, ends.  `\w` is
# exactly `str.isalnum()` or "_".  An IRI or string matches up to its first
# fault, and its closing delimiter is optional, so a body that ends the
# match is the fault's place.  A `\u` or `\U` escape takes the next four
# or eight characters, whatever they are.  A "." stays in a name or blank
# label, and an exponent's "e" in a number, only before a character that
# continues it or, for an exponent, at the end of the text; so a
# statement's closing dot is its own token, also as the last character of
# the text (a local name cannot end in ".").  Numbers are ASCII.
_TOKEN = re.compile(
    r"""((?:[ \t\r\n]+|\#[^\n]*)*)
    (?:(?P<dot>\.)|(?P<semi>;)|(?P<comma>,)|(?P<carets>\^\^)
    |(?P<lparen>\()|(?P<rparen>\))|(?P<lbracket>\[)|(?P<rbracket>\])
    |<(?P<iriref>(?:[^>\\ \t\r\n]|\\u.{4}|\\U.{8})*)>?
    |"{3}(?P<long2>(?:[^"\\]|"(?!"")|\\[tnr"'\\bf]|\\u.{4}|\\U.{8})*)(?:"{3})?
    |'{3}(?P<long1>(?:[^'\\]|'(?!'')|\\[tnr"'\\bf]|\\u.{4}|\\U.{8})*)(?:'{3})?
    |"(?P<short2>(?:[^"\\\n]|\\[tnr"'\\bf]|\\u.{4}|\\U.{8})*)"?
    |'(?P<short1>(?:[^'\\\n]|\\[tnr"'\\bf]|\\u.{4}|\\U.{8})*)'?
    |@(?P<at>(?:[^\W\d_]|-)*)
    |_:(?P<blank>(?:[\w-]|\.(?=[^\W_]))*)
    |(?P<number>(?:[0-9]|[+-](?=[0-9.]))[0-9]*
        (?P<frac>\.[0-9]+)?(?P<exp>[eE](?=[0-9+-]|\Z)[+-]?[0-9]*)?)
    |(?P<name>(?:[\w\-:%\uffff]|\.(?=[\w\-:%]))+)
    |(?P<bad>.)|\Z)""",
    re.VERBOSE | re.DOTALL,
)
_QUOTED = {"iriref": "iriref", "long2": "string", "long1": "string", "short2": "string", "short1": "string"}
_UNESCAPE = re.compile(r"\\(u.{0,4}|U.{0,8}|.)", re.DOTALL)


def _unescape(body: str, text: str, pos: int) -> str:
    """`body` with its escapes replaced; a bad `\\u` or `\\U` is a fault of
    the token at `pos`."""

    def one(m: re.Match) -> str:
        escape = m[1]
        if escape[0] not in "uU":
            return _ESCAPES[escape]
        try:
            return chr(int(escape[1:], 16))
        except ValueError:
            raise _error(text, "invalid unicode escape", pos) from None

    return _UNESCAPE.sub(one, body) if "\\" in body else body


def _quoted_error(text: str, m: re.Match, pos: int) -> ParseError:
    """The first fault of the IRI or string `m`, which starts at `pos` and
    whose body stops before a closing delimiter: a bad escape in the body,
    or what stopped it."""
    end = m.end()
    what = "IRI" if m.lastgroup == "iriref" else "string"
    ch, letter = text[end : end + 1], text[end + 1 : end + 2]
    cut_short = ch == "\\" and letter in ("u", "U")  # by the end of the text
    # a bad escape before the stop is the first fault, so it raises here
    _unescape(m[m.lastgroup] + (text[end:] if cut_short else ""), text, pos)
    if ch == "\\" and not cut_short:
        escape = "IRI" if what == "IRI" or not letter else "string"
        return _error(text, f"invalid {escape} escape \\{letter}", pos)
    if ch and ch in " \t\r\n":
        return _error(text, "whitespace inside IRI" if what == "IRI" else "newline in string", pos)
    return _error(text, f"unterminated {what}", pos)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, offset) triples, ending with an "eof" token."""
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # the end of the text
            break
        pos = m.end(1)
        value = m[kind]
        if kind == "name":
            if value in _KEYWORDS:
                kind = "keyword"
            elif ":" in value:
                kind = "pname"
            else:
                raise _error(text, f"expected prefixed name, got {value!r}", pos)
        elif kind == "number":
            value = literal(value, XSD_DOUBLE if m["exp"] else XSD_DECIMAL if m["frac"] else XSD_INTEGER)
        elif kind in _QUOTED:
            if m.end(kind) == m.end():
                raise _quoted_error(text, m, pos)
            kind, value = _QUOTED[kind], _unescape(value, text, pos)
        elif kind == "at":
            kind = "at_" + value if value in ("prefix", "base") else "langtag"
        elif kind == "blank" and not value:
            raise _error(text, "empty blank node label", pos)
        elif kind == "bad":
            raise _error(text, f"unexpected character {value!r}", pos)
        toks.append((kind, value, pos))
    toks.append(("eof", None, len(text)))
    return toks


_TYPE = iri(RDF_TYPE)
_FIRST = iri(RDF_FIRST)
_REST = iri(RDF_REST)
_NIL = iri(RDF_NIL)


class _Parser:
    def __init__(self, text: str, mode: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.mode = mode
        self.prefixes: dict[str, str] = {}
        self.names: dict[str, Term] = {}  # expanded prefixed names
        self.blank_map: dict[str, Term] = {}
        self.blank_counter = 0
        self.triples: list[Triple] = []

    # token plumbing -------------------------------------------------

    def _next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _expect(self, kind: str):
        got, value, pos = self._next()
        if got != kind:
            raise _error(self.text, f"expected {kind}, got {got}", pos)
        return value

    def _fresh_blank(self) -> Term:
        term = blank(f"b{self.blank_counter}")
        self.blank_counter += 1
        return term

    def _expand_pname(self, text: str, pos: int) -> Term:
        term = self.names.get(text)
        if term is None:
            prefix, _, local = text.partition(":")
            if prefix not in self.prefixes:
                raise _error(self.text, f"undeclared prefix {prefix!r}", pos)
            term = self.names[text] = iri(self.prefixes[prefix] + local)
        return term

    # grammar --------------------------------------------------------

    def parse(self) -> list[Triple]:
        while True:
            kind, value, pos = self.tokens[self.index]
            if kind == "eof":
                return self.triples
            if kind == "at_prefix" or (kind == "keyword" and value == "PREFIX"):
                self.index += 1
                name, value, pos = self._next()
                if name != "pname" or not value.endswith(":"):
                    raise _error(self.text, "expected prefix declaration", pos)
                self.prefixes[value[:-1]] = self._expect("iriref")
                self.names.clear()
                if kind == "at_prefix":
                    self._expect("dot")
            elif kind == "at_base" or (kind == "keyword" and value == "BASE"):
                raise _error(self.text, "base directives are not supported", pos)
            else:
                self._statement()

    def _statement(self) -> None:
        """One statement, from its subject to its dot.

        Each open predicate-object list is a frame [phase, subject,
        predicate] and each open collection a frame ["items", items, None],
        on an explicit stack whose bottom frame is the statement's own.  The
        phase names what the frame reads next: "subject" (bottom frame only),
        "pred", "obj", or what comes "after" an object.  A frame that closes
        hands its term to the frame below it.
        """
        tokens = self.tokens
        first_kind, _, first_pos = tokens[self.index]
        stack: list[list] = [["subject", None, None]]
        while True:
            frame = stack[-1]
            phase = frame[0]
            if phase == "after":
                kind = tokens[self.index][0]
                if kind == "comma":
                    self.index += 1
                    frame[0] = "obj"
                    continue
                if kind == "semi":
                    while tokens[self.index][0] == "semi":  # trailing ';' permitted
                        self.index += 1
                    if tokens[self.index][0] not in ("dot", "rbracket"):
                        frame[0] = "pred"
                        continue
                if len(stack) == 1:
                    self._expect("dot")
                    return
                self._expect("rbracket")
                stack.pop()
                term = frame[1]
            elif phase == "items":
                kind, _, pos = tokens[self.index]
                if kind == "eof":
                    raise _error(self.text, "unterminated collection", pos)
                if kind != "rparen":
                    term = self._node(stack)
                else:
                    self.index += 1
                    stack.pop()
                    term = _NIL
                    for item in reversed(frame[1]):
                        cell = self._fresh_blank()
                        self.triples.append(Triple(cell, _FIRST, item))
                        self.triples.append(Triple(cell, _REST, term))
                        term = cell
            else:
                if phase == "pred":
                    frame[0], frame[2] = "obj", self._predicate()
                term = self._node(stack)
            if term is None:  # the node opened a frame
                continue
            frame = stack[-1]
            if frame[0] == "items":
                frame[1].append(term)
            elif frame[0] == "obj":
                self.triples.append(Triple(frame[1], frame[2], term))
                frame[0] = "after"
            else:  # the statement's subject
                if self.mode == STRICT and term.is_literal:
                    raise _error(self.text, "literal subject not allowed in strict mode", first_pos)
                if first_kind == "lbracket" and tokens[self.index][0] == "dot":
                    # "[ ... ] ." with no further predicates is a complete statement
                    self.index += 1
                    return
                frame[0], frame[1] = "pred", term

    def _node(self, stack: list[list]) -> Optional[Term]:
        """The term at the next token, or None when the token opens a
        `[ ... ]` or `( ... )`, which is then pushed on `stack` as a frame."""
        kind, value, pos = self._next()
        if kind == "pname":
            return self._expand_pname(value, pos)
        if kind == "iriref":
            return iri(value)
        if kind == "number":
            return value
        if kind == "string":
            return self._literal_tail(value)
        if kind == "blank":
            if value not in self.blank_map:
                self.blank_map[value] = self._fresh_blank()
            return self.blank_map[value]
        if kind == "lbracket":
            node = self._fresh_blank()
            if self.tokens[self.index][0] != "rbracket":
                stack.append(["pred", node, None])
                return None
            self.index += 1
            return node
        if kind == "lparen":
            stack.append(["items", [], None])
            return None
        if kind == "keyword" and value in ("true", "false"):
            return literal(value, XSD_BOOLEAN)
        if kind == "keyword" and value == "a":
            raise _error(self.text, "'a' is only valid in predicate position", pos)
        raise _error(self.text, f"unexpected token {kind}", pos)

    def _literal_tail(self, lexical: str) -> Term:
        kind, value, _ = self.tokens[self.index]
        if kind == "carets":
            self.index += 1
            kind, value, pos = self._next()
            if kind == "iriref":
                return literal(lexical, value)
            if kind == "pname":
                return literal(lexical, self._expand_pname(value, pos).lexical)
            raise _error(self.text, "expected datatype IRI", pos)
        if kind == "langtag":
            self.index += 1
            return literal(lexical, language=value)
        return literal(lexical)

    def _predicate(self) -> Term:
        kind, value, pos = self._next()
        if kind == "pname":
            return self._expand_pname(value, pos)
        if kind == "keyword" and value == "a":
            return _TYPE
        if kind == "iriref":
            return iri(value)
        raise _error(self.text, "expected predicate", pos)


def parse_turtle(text: str, mode: str = GENERALIZED) -> TripleGraph:
    parser = _Parser(text, mode)
    triples = parser.parse()
    return TripleGraph(frozenset(triples), mode)


def serialize_turtle(graph: TripleGraph) -> str:
    """Deterministic N-Triples-flavoured Turtle: one triple per line, sorted,
    blank nodes renamed to stable labels."""
    rename: dict[Term, Term] = {}

    def canon(term: Term) -> Term:
        if term.is_blank:
            if term not in rename:
                rename[term] = blank(f"b{len(rename)}")
            return rename[term]
        return term

    # assign blank labels in the order blanks appear in the sorted input
    for t in graph.sorted_triples():
        canon(t.subject)
        canon(t.object)

    rendered = {Triple(canon(t.subject), t.predicate, canon(t.object)) for t in graph.triples}
    lines = []
    for t in sorted(rendered, key=Triple.sort_key):
        pred = "a" if t.predicate.lexical == RDF_TYPE else n3(t.predicate)
        lines.append(f"{n3(t.subject)} {pred} {n3(t.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")

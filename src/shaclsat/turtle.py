"""A Turtle subset parser and a deterministic serializer.

Supported syntax: @prefix / PREFIX directives, the `a` keyword,
predicate and object lists, collections `( ... )`, blank node property
lists `[ ... ]`, and numeric / string / boolean literals with `^^` and
`@` tags.  Numerals are ASCII, as Turtle's INTEGER is `[0-9]+`.
Collections are expanded into rdf:first/rdf:rest/rdf:nil chains and
blank node labels are renamed to be graph-unique.

Each statement is first offered to the statement reader, which takes a
plain statement -- IRIs and prefixed names, `a`, unsigned integers and
short strings without escapes, tags or datatypes, in `;` and `,` lists --
with one match per predicate-object pair, and adds its triples once it
reaches the statement's dot.  Its patterns are built from the scanner's
pieces, so it reads the same tokens the scanner would; where the two
could split a token differently, the reader declines.  Any statement it
declines, and every directive, goes to the token path from the
statement's first character.

The token path scans lazily, one match per token with the whitespace and
comments before it.  Turtle reports a lexical error anywhere ahead of a
grammar error, so before the token path raises a grammar error
(`undeclared prefix` included) it scans the rest of the text, and the
first lexical error there is raised instead; a `ParseError` works out its
line and column from the offset only when it is raised.  The token path
keeps each open `[ ... ]` and `( ... )` as a frame on an explicit stack,
so nesting costs no recursion.  Both paths expand each distinct prefixed
name once per parse, and once more after each prefix declaration, which
may redeclare a prefix; terms are interned, so every occurrence of an IRI
is the same object.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

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

# Pieces of the scanner's and the statement reader's patterns.  _GAP is
# whitespace and comments; a comment runs to the end of its line, so a gap
# splits into runs and comments one way only, and a failed match backtracks
# through it in linear time.  `\w` is exactly `str.isalnum()` or "_".  A
# "." stays in a name only before a character that continues it, so a
# statement's closing dot is its own token, also as the last character of
# the text (a local name cannot end in ".").  Numbers are ASCII.
_GAP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_NAME_STEP = r"[\w\-:%\uffff]|\.(?=[\w\-:%])"
_IRI_CHAR = r"[^>\\ \t\r\n]"
_STRING_CHAR = r'[^"\\\n]'
_UCHAR = r"\\u.{4}|\\U.{8}"
_ECHAR = r"""\\[tnr"'\\bf]"""
_FRACTION = r"\.[0-9]+"

# The scanner: a gap, then one alternative per token kind, tried in order,
# or the end of the text; the kind is the group that closes last, and the
# token starts where group 1, the gap, ends.  An IRI or string matches up to
# its first fault, and its closing delimiter is optional, so a body that
# ends the match is the fault's place.  A `\u` or `\U` escape takes the
# next four or eight characters, whatever they are.  An exponent's "e"
# stays in a number only before a digit, a sign or the end of the text.
_TOKEN = re.compile(
    rf"""({_GAP})
    (?:(?P<dot>\.)|(?P<semi>;)|(?P<comma>,)|(?P<carets>\^\^)
    |(?P<lparen>\()|(?P<rparen>\))|(?P<lbracket>\[)|(?P<rbracket>\])
    |<(?P<iriref>(?:{_IRI_CHAR}|{_UCHAR})*)>?
    |"{{3}}(?P<long2>(?:[^"\\]|"(?!"")|{_ECHAR}|{_UCHAR})*)(?:"{{3}})?
    |'{{3}}(?P<long1>(?:[^'\\]|'(?!'')|{_ECHAR}|{_UCHAR})*)(?:'{{3}})?
    |"(?P<short2>(?:{_STRING_CHAR}|{_ECHAR}|{_UCHAR})*)"?
    |'(?P<short1>(?:[^'\\\n]|{_ECHAR}|{_UCHAR})*)'?
    |@(?P<at>(?:[^\W\d_]|-)*)
    |_:(?P<blank>(?:[\w-]|\.(?=[^\W_]))*)
    |(?P<number>(?:[0-9]|[+-](?=[0-9.]))[0-9]*
        (?P<frac>{_FRACTION})?(?P<exp>[eE](?=[0-9+-]|\Z)[+-]?[0-9]*)?)
    |(?P<name>(?:{_NAME_STEP})+)
    |(?P<bad>.)|\Z)""",
    re.VERBOSE | re.DOTALL,
)

# The statement reader's terms, each the whole token the scanner reads at
# the same place: an IRI without escapes; a prefixed name, which starts
# with a letter or ":" (where no other alternative of the scanner starts),
# has a ":" and runs as far as the scanner's name does; `a`; an unsigned
# integer that no fraction follows; a short string without escapes.  What
# follows a term must be a gap and then ",", ";" or ".", so a number with
# an exponent, a string with a language tag or datatype, and two tokens
# the scanner would read as one never match.
_R_IRI = rf"<{_IRI_CHAR}*>"
_R_PNAME = rf"(?=[^\W\d_]|:)(?=(?:(?!:)(?:{_NAME_STEP}))*:)(?:{_NAME_STEP})+(?!{_NAME_STEP})"
_R_SUBJECT = rf"({_R_IRI}|{_R_PNAME})"
_R_PREDICATE = rf"({_R_IRI}|{_R_PNAME}|a(?!{_NAME_STEP}))"
_R_OBJECT = rf'({_R_IRI}|{_R_PNAME}|"{_STRING_CHAR}*"|[0-9]+(?!{_FRACTION}))'
_R_END = rf"{_GAP}([,;.])"
# a statement's subject and first pair; a pair after ";"; an object after
# ",", whose empty predicate group keeps the predicate before it
_HEAD = re.compile(_GAP + _R_SUBJECT + _GAP + _R_PREDICATE + _GAP + _R_OBJECT + _R_END)
_PAIR = re.compile(_GAP + _R_PREDICATE + _GAP + _R_OBJECT + _R_END)
_NEXT_OBJECT = re.compile(_GAP + "()" + _R_OBJECT + _R_END)

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


def _tokens(text: str, start: int) -> Iterator[tuple[str, object, int]]:
    """(kind, value, offset) tokens from offset `start` on, ending with an
    "eof" token; a lexical error raises when the scan reaches it."""
    for m in _TOKEN.finditer(text, start):
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
        yield (kind, value, pos)
    yield ("eof", None, len(text))


_TYPE = iri(RDF_TYPE)
_FIRST = iri(RDF_FIRST)
_REST = iri(RDF_REST)
_NIL = iri(RDF_NIL)


class _Parser:
    def __init__(self, text: str, mode: str):
        self.text = text
        self.mode = mode
        self.prefixes: dict[str, str] = {}
        # terms by their spelling: prefixed names, and the statement
        # reader's IRIs, strings, integers and `a`
        self.names: dict[str, Term] = {}
        self.blank_map: dict[str, Term] = {}
        self.blank_counter = 0
        self.triples: list[Triple] = []
        # the token path's scan and the token it looks at
        self.lexer: Iterator[tuple[str, object, int]] = iter(())
        self.look: tuple[str, object, int] = ("eof", None, 0)

    def parse(self) -> list[Triple]:
        """Each statement is read by `_read` if it can, else by the token
        path, which scans from the statement's first character on."""
        pos = 0
        while True:
            end = self._read(pos)
            if end is not None:
                pos = end
                continue
            self.lexer = _tokens(self.text, pos)
            self.look = next(self.lexer)
            kind, value, pos = self.look
            if kind == "eof":
                return self.triples
            if kind == "at_prefix" or (kind == "keyword" and value == "PREFIX"):
                self._next()
                name, value, pos = self._next()
                if name != "pname" or not value.endswith(":"):
                    raise self._fault("expected prefix declaration", pos)
                self.prefixes[value[:-1]] = self._expect("iriref")
                self.names.clear()
                if kind == "at_prefix":
                    self._expect("dot")
            elif kind == "at_base" or (kind == "keyword" and value == "BASE"):
                raise self._fault("base directives are not supported", pos)
            else:
                self._statement()
            pos = self.look[2]

    # the statement reader -------------------------------------------

    def _read(self, pos: int) -> Optional[int]:
        """The end of the plain statement at `pos`, whose triples are then
        added, or None if the statement is not plain.

        A plain statement has an IRI or prefixed name as its subject, and
        pairs of the terms `_R_PREDICATE` and `_R_OBJECT` match, separated
        by ";" and "," and ended by "."; it is read with one match per
        pair, and its triples are added only once its dot is reached.
        """
        m = _HEAD.match(self.text, pos)
        if m is None:
            return None
        names = self.names
        spelled_subject, spelled_predicate, spelled_object, sep = m.groups()
        subject = names.get(spelled_subject) or self._spelled(spelled_subject)
        found = []
        while True:
            if spelled_predicate:
                predicate = names.get(spelled_predicate) or self._spelled(spelled_predicate)
            term = names.get(spelled_object) or self._spelled(spelled_object)
            if subject is None or predicate is None or term is None:  # an undeclared prefix
                return None
            found.append(Triple(subject, predicate, term))
            if sep == ".":
                self.triples += found
                return m.end()
            m = (_PAIR if sep == ";" else _NEXT_OBJECT).match(self.text, m.end())
            if m is None:
                return None
            spelled_predicate, spelled_object, sep = m.groups()

    def _spelled(self, spelling: str) -> Optional[Term]:
        """The term a reader's term spells, or None for a prefixed name
        whose prefix is undeclared."""
        first = spelling[0]
        if first == "<":
            term = iri(spelling[1:-1])
        elif first == '"':
            term = literal(spelling[1:-1])
        elif first in "0123456789":
            term = literal(spelling, XSD_INTEGER)
        elif spelling == "a":
            term = _TYPE
        elif spelling.partition(":")[0] in self.prefixes:
            return self._expand_pname(spelling, 0)  # declared, so it raises no error
        else:
            return None
        self.names[spelling] = term
        return term

    # the token path -------------------------------------------------

    def _next(self) -> tuple[str, object, int]:
        tok = self.look
        self.look = next(self.lexer, tok)  # "eof" stays
        return tok

    def _expect(self, kind: str):
        got, value, pos = self._next()
        if got != kind:
            raise self._fault(f"expected {kind}, got {got}", pos)
        return value

    def _fault(self, message: str, pos: int) -> ParseError:
        """A grammar error at `pos`; but a lexical error anywhere comes
        first, so the rest of the text is scanned, and its first lexical
        error raises here."""
        for _ in self.lexer:
            pass
        return _error(self.text, message, pos)

    def _fresh_blank(self) -> Term:
        term = blank(f"b{self.blank_counter}")
        self.blank_counter += 1
        return term

    def _expand_pname(self, text: str, pos: int) -> Term:
        term = self.names.get(text)
        if term is None:
            prefix, _, local = text.partition(":")
            if prefix not in self.prefixes:
                raise self._fault(f"undeclared prefix {prefix!r}", pos)
            term = self.names[text] = iri(self.prefixes[prefix] + local)
        return term

    def _statement(self) -> None:
        """One statement, from its subject to its dot.

        Each open predicate-object list is a frame [phase, subject,
        predicate] and each open collection a frame ["items", items, None],
        on an explicit stack whose bottom frame is the statement's own.  The
        phase names what the frame reads next: "subject" (bottom frame only),
        "pred", "obj", or what comes "after" an object.  A frame that closes
        hands its term to the frame below it.
        """
        first_kind, _, first_pos = self.look
        stack: list[list] = [["subject", None, None]]
        while True:
            frame = stack[-1]
            phase = frame[0]
            if phase == "after":
                kind = self.look[0]
                if kind == "comma":
                    self._next()
                    frame[0] = "obj"
                    continue
                if kind == "semi":
                    while self.look[0] == "semi":  # trailing ';' permitted
                        self._next()
                    if self.look[0] not in ("dot", "rbracket"):
                        frame[0] = "pred"
                        continue
                if len(stack) == 1:
                    self._expect("dot")
                    return
                self._expect("rbracket")
                stack.pop()
                term = frame[1]
            elif phase == "items":
                kind, _, pos = self.look
                if kind == "eof":
                    raise self._fault("unterminated collection", pos)
                if kind != "rparen":
                    term = self._node(stack)
                else:
                    self._next()
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
                    raise self._fault("literal subject not allowed in strict mode", first_pos)
                if first_kind == "lbracket" and self.look[0] == "dot":
                    # "[ ... ] ." with no further predicates is a complete statement
                    self._next()
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
            if self.look[0] != "rbracket":
                stack.append(["pred", node, None])
                return None
            self._next()
            return node
        if kind == "lparen":
            stack.append(["items", [], None])
            return None
        if kind == "keyword" and value in ("true", "false"):
            return literal(value, XSD_BOOLEAN)
        if kind == "keyword" and value == "a":
            raise self._fault("'a' is only valid in predicate position", pos)
        raise self._fault(f"unexpected token {kind}", pos)

    def _literal_tail(self, lexical: str) -> Term:
        kind, value, _ = self.look
        if kind == "carets":
            self._next()
            kind, value, pos = self._next()
            if kind == "iriref":
                return literal(lexical, value)
            if kind == "pname":
                return literal(lexical, self._expand_pname(value, pos).lexical)
            raise self._fault("expected datatype IRI", pos)
        if kind == "langtag":
            self._next()
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
        raise self._fault("expected predicate", pos)


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
    for t in sorted(graph.triples, key=Triple.sort_key):
        canon(t.subject)
        canon(t.object)

    rendered = {Triple(canon(t.subject), t.predicate, canon(t.object)) for t in graph.triples}
    lines = []
    for t in sorted(rendered, key=Triple.sort_key):
        pred = "a" if t.predicate.lexical == RDF_TYPE else n3(t.predicate)
        lines.append(f"{n3(t.subject)} {pred} {n3(t.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")

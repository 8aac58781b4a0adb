"""A Turtle subset parser and a deterministic serializer.

Supported syntax: @prefix / PREFIX directives, the `a` keyword,
predicate and object lists, collections `( ... )`, blank node property
lists `[ ... ]`, and numeric / string / boolean literals with `^^` and
`@` tags.  Collections are expanded into rdf:first/rdf:rest/rdf:nil
chains and blank node labels are renamed to be graph-unique.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass
class _Token:
    kind: str
    value: object
    line: int
    column: int


_PUNCT = {".": "dot", ";": "semi", ",": "comma", "(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket"}

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "'": "'", "\\": "\\", "b": "\b", "f": "\f"}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos : self.pos + n]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return chunk

    def _skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> list[_Token]:
        out = []
        while True:
            self._skip_ws()
            if self.pos >= len(self.text):
                out.append(_Token("eof", None, self.line, self.col))
                return out
            out.append(self._token())

    def _token(self) -> _Token:
        line, col = self.line, self.col
        ch = self._peek()
        if ch in _PUNCT:
            # distinguish "." terminating a statement from a decimal point:
            # punctuation "." is only consumed when not inside a number,
            # which the number scanner below already guarantees.
            self._advance()
            return _Token(_PUNCT[ch], ch, line, col)
        if ch == "^" and self._peek(1) == "^":
            self._advance(2)
            return _Token("carets", "^^", line, col)
        if ch == "<":
            return self._iriref(line, col)
        if ch in "\"'":
            return self._string(line, col)
        if ch == "@":
            return self._at_keyword(line, col)
        if ch == "_" and self._peek(1) == ":":
            return self._blank_label(line, col)
        if ch.isdigit() or (ch in "+-" and (self._peek(1).isdigit() or self._peek(1) == ".")) or (
            ch == "." and self._peek(1).isdigit()
        ):
            return self._number(line, col)
        return self._name(line, col)

    def _iriref(self, line: int, col: int) -> _Token:
        self._advance()  # <
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ParseError("unterminated IRI", line, col)
            ch = self._advance()
            if ch == ">":
                return _Token("iriref", "".join(out), line, col)
            if ch in " \t\r\n":
                raise ParseError("whitespace inside IRI", line, col)
            if ch == "\\":
                out.append(self._unicode_escape(line, col))
            else:
                out.append(ch)

    def _unicode_escape(self, line: int, col: int) -> str:
        kind = self._advance()
        if kind == "u":
            digits = self._advance(4)
        elif kind == "U":
            digits = self._advance(8)
        else:
            raise ParseError(f"invalid IRI escape \\{kind}", line, col)
        try:
            return chr(int(digits, 16))
        except ValueError:
            raise ParseError("invalid unicode escape", line, col)

    def _string(self, line: int, col: int) -> _Token:
        quote = self._advance()
        long = False
        if self._peek() == quote and self._peek(1) == quote:
            self._advance(2)
            long = True
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ParseError("unterminated string", line, col)
            ch = self._advance()
            if ch == quote:
                if not long:
                    return _Token("string", "".join(out), line, col)
                if self._peek() == quote and self._peek(1) == quote:
                    self._advance(2)
                    return _Token("string", "".join(out), line, col)
                out.append(ch)
                continue
            if ch == "\n" and not long:
                raise ParseError("newline in string", line, col)
            if ch == "\\":
                esc = self._peek()
                if esc in _ESCAPES:
                    self._advance()
                    out.append(_ESCAPES[esc])
                elif esc in "uU":
                    out.append(self._unicode_escape(line, col))
                else:
                    raise ParseError(f"invalid string escape \\{esc}", line, col)
            else:
                out.append(ch)

    def _at_keyword(self, line: int, col: int) -> _Token:
        self._advance()  # @
        word = []
        while self._peek().isalpha() or self._peek() == "-":
            word.append(self._advance())
        text = "".join(word)
        if text == "prefix":
            return _Token("at_prefix", text, line, col)
        if text == "base":
            return _Token("at_base", text, line, col)
        return _Token("langtag", text, line, col)

    def _blank_label(self, line: int, col: int) -> _Token:
        self._advance(2)  # _:
        out = []
        while self._peek().isalnum() or self._peek() in "_-.":
            if self._peek() == "." and not self._peek(1).isalnum():
                break
            out.append(self._advance())
        if not out:
            raise ParseError("empty blank node label", line, col)
        return _Token("blank", "".join(out), line, col)

    def _number(self, line: int, col: int) -> _Token:
        out = []
        if self._peek() in "+-":
            out.append(self._advance())
        seen_dot = False
        seen_exp = False
        while True:
            ch = self._peek()
            if ch.isdigit():
                out.append(self._advance())
            elif ch == "." and not seen_dot and not seen_exp and self._peek(1).isdigit():
                seen_dot = True
                out.append(self._advance())
            elif ch in "eE" and not seen_exp and (self._peek(1).isdigit() or self._peek(1) in "+-"):
                seen_exp = True
                out.append(self._advance())
                if self._peek() in "+-":
                    out.append(self._advance())
            else:
                break
        text = "".join(out)
        if seen_exp:
            dt = XSD_DOUBLE
        elif seen_dot:
            dt = XSD_DECIMAL
        else:
            dt = XSD_INTEGER
        return _Token("number", literal(text, dt), line, col)

    def _name(self, line: int, col: int) -> _Token:
        # prefixed name, bare keyword (a, true, false, PREFIX, BASE) or
        # the prefix part of a @prefix directive.
        out = []
        while True:
            ch = self._peek()
            if ch and (ch.isalnum() or ch in "_-.:%À-￿"):
                if ch == "." and not (self._peek(1).isalnum() or self._peek(1) in "_-:%"):
                    break
                out.append(self._advance())
            else:
                break
        text = "".join(out)
        if not text:
            raise ParseError(f"unexpected character {self._peek()!r}", line, col)
        if text == "a" or text in ("true", "false") or text in ("PREFIX", "BASE"):
            return _Token("keyword", text, line, col)
        if ":" not in text:
            raise ParseError(f"expected prefixed name, got {text!r}", line, col)
        return _Token("pname", text, line, col)


class _Parser:
    def __init__(self, text: str, mode: str):
        self.tokens = _Lexer(text).tokens()
        self.index = 0
        self.mode = mode
        self.prefixes: dict[str, str] = {}
        self.blank_map: dict[str, Term] = {}
        self.blank_counter = 0
        self.triples: list[Triple] = []

    # token plumbing -------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _next(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, got {tok.kind}", tok.line, tok.column)
        return tok

    def _fresh_blank(self) -> Term:
        term = blank(f"b{self.blank_counter}")
        self.blank_counter += 1
        return term

    def _labeled_blank(self, label: str) -> Term:
        if label not in self.blank_map:
            self.blank_map[label] = self._fresh_blank()
        return self.blank_map[label]

    def _expand_pname(self, text: str, tok: _Token) -> Term:
        prefix, _, local = text.partition(":")
        if prefix not in self.prefixes:
            raise ParseError(f"undeclared prefix {prefix!r}", tok.line, tok.column)
        return iri(self.prefixes[prefix] + local)

    # grammar --------------------------------------------------------

    def parse(self) -> list[Triple]:
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return self.triples
            if tok.kind == "at_prefix":
                self._next()
                self._prefix_directive(require_dot=True)
            elif tok.kind == "keyword" and tok.value == "PREFIX":
                self._next()
                self._prefix_directive(require_dot=False)
            elif tok.kind == "at_base" or (tok.kind == "keyword" and tok.value == "BASE"):
                raise ParseError("base directives are not supported", tok.line, tok.column)
            else:
                self._statement()

    def _prefix_directive(self, require_dot: bool) -> None:
        tok = self._next()
        if tok.kind != "pname" or not str(tok.value).endswith(":"):
            raise ParseError("expected prefix declaration", tok.line, tok.column)
        prefix = str(tok.value)[:-1]
        target = self._expect("iriref")
        self.prefixes[prefix] = str(target.value)
        if require_dot:
            self._expect("dot")

    def _statement(self) -> None:
        tok = self._peek()
        subject = self._node(as_subject=True)
        if tok.kind == "lbracket" and self._peek().kind == "dot":
            # "[ ... ] ." with no further predicates is a complete statement
            self._next()
            return
        self._predicate_object_list(subject)
        self._expect("dot")

    def _check_subject(self, term: Term, tok: _Token) -> Term:
        if self.mode == STRICT and term.is_literal:
            raise ParseError("literal subject not allowed in strict mode", tok.line, tok.column)
        return term

    def _node(self, as_subject: bool = False):
        tok = self._next()
        if tok.kind == "iriref":
            term = iri(str(tok.value))
        elif tok.kind == "pname":
            term = self._expand_pname(str(tok.value), tok)
        elif tok.kind == "blank":
            term = self._labeled_blank(str(tok.value))
        elif tok.kind == "lparen":
            term = self._collection()
        elif tok.kind == "lbracket":
            term = self._blank_property_list()
        elif tok.kind == "string":
            term = self._literal_tail(str(tok.value))
        elif tok.kind == "number":
            term = tok.value
        elif tok.kind == "keyword" and tok.value in ("true", "false"):
            term = literal(str(tok.value), XSD_BOOLEAN)
        elif tok.kind == "keyword" and tok.value == "a":
            raise ParseError("'a' is only valid in predicate position", tok.line, tok.column)
        else:
            raise ParseError(f"unexpected token {tok.kind}", tok.line, tok.column)
        if as_subject:
            return self._check_subject(term, tok)
        return term

    def _literal_tail(self, lexical: str) -> Term:
        nxt = self._peek()
        if nxt.kind == "carets":
            self._next()
            dt_tok = self._next()
            if dt_tok.kind == "iriref":
                dt = str(dt_tok.value)
            elif dt_tok.kind == "pname":
                dt = self._expand_pname(str(dt_tok.value), dt_tok).lexical
            else:
                raise ParseError("expected datatype IRI", dt_tok.line, dt_tok.column)
            return literal(lexical, dt)
        if nxt.kind == "langtag":
            self._next()
            return literal(lexical, language=str(nxt.value))
        return literal(lexical)

    def _predicate(self) -> Term:
        tok = self._next()
        if tok.kind == "keyword" and tok.value == "a":
            return iri(RDF_TYPE)
        if tok.kind == "iriref":
            return iri(str(tok.value))
        if tok.kind == "pname":
            return self._expand_pname(str(tok.value), tok)
        raise ParseError("expected predicate", tok.line, tok.column)

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._predicate()
            while True:
                obj = self._node()
                self.triples.append(Triple(subject, predicate, obj))
                if self._peek().kind == "comma":
                    self._next()
                    continue
                break
            if self._peek().kind == "semi":
                while self._peek().kind == "semi":  # trailing ';' permitted
                    self._next()
                if self._peek().kind in ("dot", "rbracket"):
                    return
                continue
            return

    def _collection(self) -> Term:
        items = []
        while self._peek().kind != "rparen":
            if self._peek().kind == "eof":
                tok = self._peek()
                raise ParseError("unterminated collection", tok.line, tok.column)
            items.append(self._node())
        self._next()  # )
        head: Term = iri(RDF_NIL)
        for item in reversed(items):
            cell = self._fresh_blank()
            self.triples.append(Triple(cell, iri(RDF_FIRST), item))
            self.triples.append(Triple(cell, iri(RDF_REST), head))
            head = cell
        return head

    def _blank_property_list(self) -> Term:
        node = self._fresh_blank()
        if self._peek().kind != "rbracket":
            self._predicate_object_list(node)
        self._expect("rbracket")
        return node


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
        pred = "a" if t.predicate.lexical == RDF_TYPE else _render(t.predicate)
        lines.append(f"{_render(t.subject)} {pred} {_render(t.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")


def _render(term: Term) -> str:
    from .terms import n3

    return n3(term)

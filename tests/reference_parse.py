"""The recursive-descent formula parser that ``formula.parse`` replaced,
kept as the oracle that the package's parser must agree with.

The tokenizer builds one ``_Token`` record per token, with its line and
column; the parser recurses once per prefix operator, parenthesis,
right-nested ``=>`` and nested term, and turns a ``RecursionError`` into
the depth error.  Only its depth errors may differ from the package's:
the package reports them at the first token as soon as the bound is
certain, and refuses parentheses nested deeper than ``MAX_DEPTH`` too.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

from tabseq.formula import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    MAX_DEPTH,
    META_NAME,
    Meta,
    Not,
    Or,
    ParseError,
    SKOLEM_NAME,
    Term,
    Var,
)

V = TypeVar("V")

_TOKEN_SPEC = [
    ("IMPLIES", r"=>"),
    ("IDENT", r"[A-Za-z][A-Za-z0-9_]*"),
    ("LPAR", r"\("),
    ("RPAR", r"\)"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("NOT", r"~"),
    ("AND", r"&"),
    ("OR", r"\|"),
    ("WS", r"[ \t\r\n]+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` in one scan; a match that does not start where
    the last one ended skipped a character no token matches."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        kind = m.lastgroup
        value = m.group()
        if kind != "WS":
            tokens.append(_Token(kind, value, line, start - line_start + 1))
        elif "\n" in value:
            line += value.count("\n")
            line_start = start + value.rfind("\n") + 1
        pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(_Token("END", "", line, pos - line_start + 1))
    return tokens


# Binary connectives by token: (precedence, constructor); ``=>`` binds
# loosest and nests to the right, ``&`` and ``|`` chain to the left.
_BINARY = {"IMPLIES": (1, Implies), "OR": (2, Or), "AND": (3, And)}


class _Parser:
    """Recursive-descent parser for the formula grammar.

    Grammar (precedence ``~ > & > | > =>``, ``=>`` right-associative, a
    quantifier body extends as far right as possible)::

        formula := implies
        implies := or ("=>" implies)?
        or      := and ("|" and)*
        and     := unary ("&" unary)*
        unary   := "~" unary | "forall" ident "." implies
                 | "exists" ident "." implies | atom | "(" implies ")"
        atom    := ident ("(" term ("," term)* ")")?
        term    := ident ("(" term ("," term)* ")")?

    Identifiers match ``[A-Za-z][A-Za-z0-9_]*``; the generated families
    ``sko<digits>`` (Skolem symbols) and ``X<digits>`` (metavariables) are
    reserved and rejected unless ``allow_generated`` is set (see ``parse``).
    """

    def __init__(self, tokens: list[_Token], allow_generated: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_generated = allow_generated
        self.env: list[tuple[str, str]] = []  # (source name, unique name)
        self.binder_names: set[str] = set()
        self.taken = {t.value for t in tokens if t.kind == "IDENT"}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.value or 'end of input'!r}",
                             tok.line, tok.column)
        return self.next()

    def ident(self, what: str) -> _Token:
        tok = self.expect("IDENT", what)
        if tok.value in ("forall", "exists"):
            raise ParseError(f"expected {what}, found keyword {tok.value!r}",
                             tok.line, tok.column)
        if not self.allow_generated and (SKOLEM_NAME.match(tok.value) or META_NAME.match(tok.value)):
            raise ParseError(f"identifier {tok.value!r} is reserved for generated symbols",
                             tok.line, tok.column)
        return tok

    def fresh_binder(self, name: str) -> str:
        if name not in self.binder_names:
            unique = name
        else:
            i = 1
            while f"{name}_{i}" in self.binder_names or f"{name}_{i}" in self.taken:
                i += 1
            unique = f"{name}_{i}"
        self.binder_names.add(unique)
        self.taken.add(unique)
        return unique

    def parse_formula(self, min_precedence: int = 1) -> Formula:
        """Precedence climbing over the binary connectives: one call per
        right-nested ``=>`` or parenthesis level, a loop for ``&`` and ``|``
        chains."""
        left = self.parse_unary()
        while True:
            op = _BINARY.get(self.peek().kind)
            if op is None or op[0] < min_precedence:
                return left
            self.next()
            precedence, ctor = op
            right_assoc = ctor is Implies
            right = self.parse_formula(precedence if right_assoc else precedence + 1)
            left = ctor(left, right)

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "IDENT" and tok.value in ("forall", "exists"):
            self.next()
            name_tok = self.ident("a bound-variable name")
            unique = self.fresh_binder(name_tok.value)
            self.expect("DOT", "'.' after the bound variable")
            self.env.append((name_tok.value, unique))
            body = self.parse_formula()
            self.env.pop()
            return Forall(unique, body) if tok.value == "forall" else Exists(unique, body)
        if tok.kind == "LPAR":
            self.next()
            f = self.parse_formula()
            self.expect("RPAR", "')'")
            return f
        if tok.kind == "IDENT":
            return self.parse_atom()
        raise ParseError(f"expected a formula, found {tok.value or 'end of input'!r}",
                         tok.line, tok.column)

    def parse_atom(self) -> Formula:
        name = self.ident("a predicate name")
        args: tuple[Term, ...] = ()
        if self.peek().kind == "LPAR":
            args = self.parse_args()
        return Atom(name.value, args)

    def parse_args(self) -> tuple[Term, ...]:
        self.expect("LPAR", "'('")
        args = [self.parse_term()]
        while self.peek().kind == "COMMA":
            self.next()
            args.append(self.parse_term())
        self.expect("RPAR", "')'")
        return tuple(args)

    def parse_term(self) -> Term:
        name = self.ident("a term")
        if self.peek().kind == "LPAR":
            return App(name.value, self.parse_args())
        for source, unique in reversed(self.env):
            if source == name.value:
                return Var(unique)
        if self.allow_generated and META_NAME.match(name.value):
            return Meta(name.value)
        return App(name.value, ())


def _parse_whole(text: str, allow_generated: bool, start: Callable[[_Parser], V]) -> V:
    parser = _Parser(_tokenize(text), allow_generated)
    try:
        result = start(parser)
    except RecursionError:
        tok = parser.peek()
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels", tok.line, tok.column) from None
    end = parser.peek()
    if end.kind != "END":
        raise ParseError(f"unexpected trailing input {end.value!r}", end.line, end.column)
    if result.height > MAX_DEPTH:
        first = parser.tokens[0]
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels", first.line, first.column)
    return result


def parse(text: str, *, allow_generated: bool = False) -> Formula:
    return _parse_whole(text, allow_generated, _Parser.parse_formula)


def parse_term(text: str, *, allow_generated: bool = False) -> Term:
    return _parse_whole(text, allow_generated, _Parser.parse_term)

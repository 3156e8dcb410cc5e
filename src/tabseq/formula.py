"""First-order syntax: terms, formulas, parsing, canonical printing.

The term language has three node kinds: bound-variable occurrences, free
metavariables (placeholders introduced by gamma expansions and written
``X1, X2, ...``), and function applications (constants are zero-argument
applications, Skolem symbols are applications named ``sko1, sko2, ...``).
Both generated name families are reserved and rejected in user input, so a
formula read back from a proof file can never confuse a user constant with
a generated symbol.

Bound-variable names are made unique per formula at parse time, after which
plain structural equality is the formula equality used everywhere else.

Term and formula nodes are immutable and interned (hash-consing, Filliâtre
and Conchon 2006): a class's ``__new__`` looks up the class and field
values in one process-wide table and hands back the live node it finds, so
structurally equal nodes are one object, ``==`` is identity and ``hash`` is
``object``'s, both in C.  Children are interned before their parents, so a
lookup key hashes in C too.  The table holds its nodes weakly, so a node
nothing else uses leaves it, and a lock guards the build after a miss, so
threads that build the same formula get one object.  A pickled or copied
node comes back as the interned node.  Each node carries, set once when it
is built, its ``parts`` (its subformulas and subterms, in order) and its
height (the formula and term nodes on its longest downward path, computed
from its parts' heights), so a traversal reads a node's parts in one
attribute and depth bounds cost nothing to test.
The interning is not done by a metaclass: ``isinstance`` against a class
whose metaclass is not ``type`` leaves CPython's fast path, and the prover
and checker call it millions of times.

Every structural query and rewrite goes through one generic view of a
node: its ``parts``, ``_name`` (its symbol, predicate or bound variable)
and ``_make`` (the interned node of a class with a name and parts), which
the file tables use too.  ``walk`` lists a node's positions in document
order without recursion, and ``rebuild`` rewrites them bottom-up; since a
node rebuilt from unchanged parts is the node itself, a rewrite that
changes nothing returns its input.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, TypeVar, Union

from .tree import FormatError

SKOLEM_NAME = re.compile(r"sko[0-9]+\Z")
META_NAME = re.compile(r"X[0-9]+\Z")

# Deepest formula or term that ``parse`` accepts and the proof writers emit,
# counting formula and term nodes along a path.  The parser, the printer
# and ``rebuild`` recurse on formulas.  Measured on CPython 3.11 with a
# 200-deep formula of each costliest shape: ``parse`` takes 804 frames on a
# quantifier prefix (4 per level), ``print_formula`` 597 on nested terms
# (3 per level) and ``rebuild`` about 400 on any shape (2 per level, which
# bounds ``gs3.check``); proving, translating with audits, checking and
# rendering takes at most 600.  That leaves about 200 of the default 1,000
# frames to the caller.
MAX_DEPTH = 200

V = TypeVar("V")


class ParseError(ValueError):
    """Syntax or reserved-symbol error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DepthError(ValueError):
    """A formula or term nested deeper than ``MAX_DEPTH`` levels."""


# -------------------------------------------------------------- interning


_table: dict[tuple, weakref.KeyedRef] = {}  # (class, *fields) -> the live node
_lookup = _table.get
_lock = threading.Lock()
_set_field = object.__setattr__


def _forget(ref: weakref.KeyedRef, table=_table, remove=_remove_dead_weakref) -> None:
    """Drop a dead node's entry, unless a live node has taken its key.

    The test and the removal are one C call, the one
    ``weakref.WeakValueDictionary`` uses, so no thread can slip a new entry
    in between; the defaults keep the callback working while the module is
    torn down at exit."""
    remove(table, ref.key)


def _intern(key: tuple):
    """The node ``key[0](*key[1:])``: the live one if there is one, else a
    new one entered under ``key``.  The parts in the key are interned
    already, so the lookup hashes and compares in C.  A miss takes the
    lock and looks again, so two threads never build rival nodes."""
    ref = _lookup(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    with _lock:
        ref = _lookup(key)
        node = None if ref is None else ref()
        if node is None:
            cls = key[0]
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, key[1:]):
                _set_field(node, name, value)
            parts = _parts(node)
            _set_field(node, "parts", parts)
            _set_field(node, "height", 1 + max([p.height for p in parts], default=0))
            _table[key] = weakref.KeyedRef(node, _forget, key)
    return node


class _Node:
    """Base of the ten interned classes: a pickled or copied node is the
    interned node itself.

    ``parts`` holds the node's subformulas and subterms in document order,
    and ``height`` the number of formula and term nodes on the longest path
    from the node down; both are set when the node is built.  Neither is a
    dataclass field, so they take no part in the intern key, in
    ``__reduce__`` or in ``repr``."""

    __slots__ = ("__weakref__", "parts", "height")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# ------------------------------------------------------------------ terms

# Every node class is a frozen, slotted dataclass with no generated
# ``__init__``, ``__eq__`` or ``__hash__``: ``__new__`` interns it.
_node = dataclass(frozen=True, eq=False, init=False, slots=True)


@_node
class Var(_Node):
    """A bound-variable occurrence; never free in a well-formed formula."""

    name: str

    def __new__(cls, name: str) -> Var:
        return _intern((cls, name))

    def __str__(self) -> str:
        return self.name


@_node
class Meta(_Node):
    """A free variable introduced by a gamma rule, awaiting instantiation."""

    name: str

    def __new__(cls, name: str) -> Meta:
        return _intern((cls, name))

    def __str__(self) -> str:
        return self.name


@_node
class App(_Node):
    """Function application; constants are zero-argument applications."""

    symbol: str
    args: tuple["Term", ...] = ()

    def __new__(cls, symbol: str, args: tuple["Term", ...] = ()) -> App:
        return _intern((cls, symbol, args))

    @property
    def is_skolem(self) -> bool:
        return SKOLEM_NAME.match(self.symbol) is not None

    def __str__(self) -> str:
        return print_term(self)


Term = Union[Var, Meta, App]


def const(name: str) -> App:
    return App(name, ())


# --------------------------------------------------------------- formulas


@_node
class Atom(_Node):
    predicate: str
    args: tuple[Term, ...] = ()

    def __new__(cls, predicate: str, args: tuple[Term, ...] = ()) -> Atom:
        return _intern((cls, predicate, args))

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Not(_Node):
    body: "Formula"

    def __new__(cls, body: "Formula") -> Not:
        return _intern((cls, body))

    def __str__(self) -> str:
        return print_formula(self)


@_node
class And(_Node):
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula") -> And:
        return _intern((cls, left, right))

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Or(_Node):
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula") -> Or:
        return _intern((cls, left, right))

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Implies(_Node):
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula") -> Implies:
        return _intern((cls, left, right))

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Forall(_Node):
    var: str
    body: "Formula"

    def __new__(cls, var: str, body: "Formula") -> Forall:
        return _intern((cls, var, body))

    def __str__(self) -> str:
        return print_formula(self)


@_node
class Exists(_Node):
    var: str
    body: "Formula"

    def __new__(cls, var: str, body: "Formula") -> Exists:
        return _intern((cls, var, body))

    def __str__(self) -> str:
        return print_formula(self)


Formula = Union[Atom, Not, And, Or, Implies, Forall, Exists]


# ------------------------------------------------------------- traversals


def walk(x: Formula | Term, descend: Callable[[Formula | Term], bool] | None = None
         ) -> Iterator[Formula | Term]:
    """Every formula and term position of ``x``, ``x`` first, in preorder
    and left-to-right document order, found without recursion.  The parts
    of a node for which ``descend`` is false are skipped."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        if descend is None or descend(node):
            stack += node.parts[::-1]


def rebuild(x: Formula | Term, by: Callable[[Formula | Term], Formula | Term | None]
            ) -> Formula | Term:
    """``x`` with each position rewritten bottom-up: ``by(node)`` if that is
    not None, else the node rebuilt from its rewritten parts, which is the
    node itself when no part changed.  ``by`` sees a node before its parts,
    which it does not enter when it gives a result.  It recurses once per
    level of ``x``, so ``MAX_DEPTH`` bounds its stack (see there)."""
    new = by(x)
    if new is not None:
        return new
    parts = x.parts
    if not parts:
        return x
    new = tuple([rebuild(p, by) for p in parts])
    return x if new == parts else _make(type(x), _name(x), new)


def free_metas(x: Formula | Term) -> tuple[Meta, ...]:
    """Metavariables of a formula or term in first-occurrence order.

    The order is what fixes the argument order of Skolem terms.
    """
    return tuple(dict.fromkeys([y for y in walk(x) if type(y) is Meta]))


def formula_symbols(f: Formula) -> set[str]:
    """Function symbols (including constants) occurring anywhere in f."""
    return {y.symbol for y in walk(f) if type(y) is App}


def _not_skolem(x: Formula | Term) -> bool:
    return type(x) is not App or not x.is_skolem


def outermost_skolem_terms(x: Formula | Term) -> set[App]:
    """Maximal Skolem-rooted subterms of a formula or term (occurrences
    inside a larger Skolem term are not reported separately)."""
    return {y for y in walk(x, _not_skolem) if not _not_skolem(y)}


def mark_any(items, memo: dict, own: Callable[[Formula | Term], bool]) -> None:
    """Enter in ``memo`` each formula and term of ``items``, and each part of
    one, that it lacks: true if ``own`` holds of the node or of a part below
    it.  A node is entered after its parts and visited once, and a node
    already in ``memo`` is not walked into, so calls that share one memo
    visit each distinct node once between them.  ``own`` is called once
    per node entered."""
    for item in items:
        if item in memo:
            continue
        stack: list[tuple[Formula | Term, tuple | None]] = [(item, None)]
        while stack:
            node, parts = stack.pop()
            if parts is None:
                if node in memo:  # reached again through another parent
                    continue
                parts = node.parts
                stack.append((node, parts))
                stack.extend([(p, None) for p in parts if p not in memo])
            else:
                memo[node] = own(node) or any([memo[p] for p in parts])


def is_ground_term(t: Term) -> bool:
    return not any([type(y) is Meta or type(y) is Var for y in walk(t)])


def is_subterm(s: Term, t: Term) -> bool:
    """True if s occurs in t (including s == t)."""
    return any(y is s for y in walk(t))


# ----------------------------------------------------------- substitution


def apply_subst(bindings: Mapping[str, Term], x: Formula | Term) -> Formula | Term:
    """Simultaneous replacement of metavariables by their images.

    Binders are untouched: metavariables are never bound, and after
    groundification the images are closed terms, so capture cannot occur.
    """
    if not bindings:
        return x
    return rebuild(x, lambda y: bindings.get(y.name, y) if type(y) is Meta else None)


def subst_var(f: Formula, var: str, t: Term) -> Formula:
    """Replace free occurrences of the bound variable ``var`` by ``t``.

    A binder of ``var`` in ``f`` shadows it and is kept whole: ``parse``
    renames binders apart, but a ``.gs3`` table may hold a formula that
    binds one name twice."""

    def by(x: Formula | Term) -> Formula | Term | None:
        cls = type(x)
        if cls is Var:
            return t if x.name == var else x
        if (cls is Forall or cls is Exists) and x.var == var:
            return x
        return None

    return rebuild(f, by)


# ----------------------------------------------------------------- print


def print_term(t: Term) -> str:
    if isinstance(t, (Var, Meta)):
        return t.name
    if isinstance(t, App):
        if not t.args:
            return t.symbol
        return f"{t.symbol}({', '.join(print_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula) -> str:
    """Canonical fully-parenthesized rendering; inverse of ``parse``."""
    if isinstance(f, Atom):
        if not f.args:
            return f.predicate
        return f"{f.predicate}({', '.join(print_term(a) for a in f.args)})"
    if isinstance(f, Not):
        return f"(~{print_formula(f.body)})"
    if isinstance(f, And):
        return f"({print_formula(f.left)} & {print_formula(f.right)})"
    if isinstance(f, Or):
        return f"({print_formula(f.left)} | {print_formula(f.right)})"
    if isinstance(f, Implies):
        return f"({print_formula(f.left)} => {print_formula(f.right)})"
    if isinstance(f, Forall):
        return f"(forall {f.var}. {print_formula(f.body)})"
    if isinstance(f, Exists):
        return f"(exists {f.var}. {print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# ----------------------------------------------------------------- parse

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
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind != "WS":
            tokens.append(_Token(kind, value, line, m.start() - line_start + 1))
        nl = value.count("\n")
        if nl:
            line += nl
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
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
    """Parse a formula; bound variables are renamed apart.

    ``allow_generated`` admits the reserved ``skoN``/``XN`` identifier
    families (Skolem symbols and metavariables).  The package itself never
    sets it: ``scripts/upgrade_files.py`` does, to read the formula text
    of version-1 proof files, and so do tests.  Input nested deeper than
    ``MAX_DEPTH`` is a ParseError.
    """
    return _parse_whole(text, allow_generated, _Parser.parse_formula)


def parse_term(text: str, *, allow_generated: bool = False) -> Term:
    return _parse_whole(text, allow_generated, _Parser.parse_term)


# ----------------------------------------------------------- file tables
#
# A version-2 `.gs3` or a version-2 or -3 `.tab` file holds each distinct
# formula and term once, as one entry of its table.  An entry is a JSON
# list whose first item is a tag, and it refers to earlier entries by their
# index:
#
#   ["v", name]                 bound variable
#   ["m", name]                 metavariable
#   ["f", symbol, t1, ...]      application (a constant has no arguments)
#   ["P", predicate, t1, ...]   atom
#   ["~", i]  ["&", i, j]  ["|", i, j]  ["=>", i, j]
#   ["forall", var, i]  ["exists", var, i]

# Per tag: the class, whether the entry is a formula, whether it carries a
# name, whether its parts are formulas, and how many there are (None: any).
_SPECS = {
    "v": (Var, False, True, False, 0),
    "m": (Meta, False, True, False, 0),
    "f": (App, False, True, False, None),
    "P": (Atom, True, True, False, None),
    "~": (Not, True, False, True, 1),
    "&": (And, True, False, True, 2),
    "|": (Or, True, False, True, 2),
    "=>": (Implies, True, False, True, 2),
    "forall": (Forall, True, True, True, 1),
    "exists": (Exists, True, True, True, 1),
}
_TAGS = {spec[0]: tag for tag, spec in _SPECS.items()}
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_NO_NAMES = frozenset()


def _parts(x: Formula | Term) -> tuple:
    """The subformulas and subterms an entry for ``x`` refers to, in order,
    from its fields; ``_intern`` stores them as ``x.parts``."""
    cls = type(x)
    if cls is Atom or cls is App:
        return x.args
    if cls is Not or cls is Forall or cls is Exists:
        return (x.body,)
    if cls is And or cls is Or or cls is Implies:
        return (x.left, x.right)
    if cls is Var or cls is Meta:
        return ()
    raise TypeError(f"not a formula or term: {x!r}")


def _make(cls: type, name: str | None, parts) -> Formula | Term:
    """The node of class ``cls`` whose ``_name`` is ``name`` and whose
    ``parts`` are ``parts``."""
    if cls is App or cls is Atom:
        return _intern((cls, name, tuple(parts)))
    return _intern((cls, *parts) if name is None else (cls, name, *parts))


def _name(x: Formula | Term) -> str | None:
    """The name an entry for ``x`` carries; None for a connective."""
    cls = type(x)
    if cls is Var or cls is Meta:
        return x.name
    if cls is App:
        return x.symbol
    if cls is Atom:
        return x.predicate
    if cls is Forall or cls is Exists:
        return x.var
    return None


def encode_table(items) -> tuple[list[tuple], Callable[[Formula | Term], int]]:
    """The table of a proof file (version 2 or 3) that holds ``items``, with the
    function that gives the entry of each item or part of one.

    Equal formulas and terms are one interned object and share one entry.
    The entries are sorted by height, then by content (tag, name and the
    indices of their parts), so a part comes before every entry that refers
    to it, and the table depends only on the set of formulas and terms, not
    on their order.  DepthError if an item nests deeper than ``MAX_DEPTH``,
    so no writer emits an entry the readers would refuse.
    """
    nodes = set(items)  # the items and every part of one, each once
    top = max([x.height for x in nodes], default=0)
    if top > MAX_DEPTH:
        raise DepthError(f"formula or term nested deeper than {MAX_DEPTH} levels")
    stack = list(nodes)
    while stack:
        for part in stack.pop().parts:
            if part not in nodes:
                nodes.add(part)
                stack.append(part)
    levels: list[list[Formula | Term]] = [[] for _ in range(top)]
    for x in nodes:
        levels[x.height - 1].append(x)

    index: dict[Formula | Term, int] = {}  # node -> its entry
    entries: list[tuple] = []

    def entry(x: Formula | Term) -> tuple:
        name = _name(x)
        parts = [index[p] for p in x.parts]
        return (_TAGS[type(x)], *parts) if name is None else (_TAGS[type(x)], name, *parts)

    # Equal contents are one interned node, so the sort never compares nodes.
    for level in levels:
        for content, x in sorted([(entry(x), x) for x in level]):
            index[x] = len(entries)
            entries.append(content)
    return entries, index.__getitem__


class Table:
    """The decoded table of a proof file (version 2 or 3), read in one flat loop.

    Every entry must be well formed: a known tag, a name the grammar
    accepts (with the generated ``skoN``/``XN`` families), the right number
    of references, each to an earlier entry of the right sort (formula or
    term), and no more than ``MAX_DEPTH`` levels of nesting.  Equal
    references give one shared object.  ``formula`` and ``term`` hand out
    entries that may stand alone: closed, with no bound variable free.
    """

    def __init__(self, raw) -> None:
        if type(raw) is not list:
            raise FormatError("table must be a list")
        # Per entry: (object, is a formula, free bound variables).
        entries: list[tuple[Formula | Term, bool, frozenset]] = []
        for pos, entry in enumerate(raw):
            if type(entry) is not list or not entry or type(entry[0]) is not str:
                raise FormatError(f"table entry {pos} must be a list that starts with a tag")
            spec = _SPECS.get(entry[0])
            if spec is None:
                raise FormatError(f"table entry {pos} has the unknown tag {entry[0]!r}")
            cls, formula, named, part_formula, count = spec
            name = entry[1] if named and len(entry) > 1 else None
            if named and not (type(name) is str and (META_NAME.match(name) if cls is Meta else
                                                     _IDENT.match(name) and name not in
                                                     ("forall", "exists"))):
                raise FormatError(f"table entry {pos} has no valid name for {entry[0]!r}")
            refs = entry[2:] if named else entry[1:]
            if count is not None and len(refs) != count:
                raise FormatError(f"table entry {pos} has the wrong length for {entry[0]!r}")
            parts = []
            for ref in refs:
                if type(ref) is not int or not 0 <= ref < pos:
                    raise FormatError(f"table entry {pos} refers to {ref!r}, "
                                      "not to an earlier entry")
                parts.append(entries[ref])
                if parts[-1][1] is not part_formula:
                    raise FormatError(f"table entry {pos} needs "
                                      f"{'a formula' if part_formula else 'a term'} "
                                      f"where entry {ref} is not one")
            obj = _make(cls, name, [part[0] for part in parts])
            free = _NO_NAMES
            for part in parts:
                if part[2]:
                    free = free | part[2]
            if cls is Var:
                free = frozenset((name,))
            elif named and part_formula:  # a quantifier binds its name
                free = free - {name}
            if obj.height > MAX_DEPTH:
                raise FormatError(f"table entry {pos} is nested deeper than {MAX_DEPTH} levels")
            entries.append((obj, formula, free))
        self._entries = entries

    def _closed(self, raw, formula: bool, what: str) -> Formula | Term:
        if type(raw) is not int or not 0 <= raw < len(self._entries):
            raise FormatError(f"{what} {raw!r} is not the index of a table entry")
        obj, is_formula, free = self._entries[raw]
        if is_formula is not formula:
            raise FormatError(f"{what} must be {'a formula' if formula else 'a term'}")
        if free:
            raise FormatError(f"{what} has the free bound variable {min(free)}")
        return obj

    def formula(self, raw, what: str) -> Formula:
        """The closed formula at index ``raw``, or a FormatError naming ``what``."""
        return self._closed(raw, True, what)

    def term(self, raw, what: str) -> Term:
        """The closed term at index ``raw``, or a FormatError naming ``what``."""
        return self._closed(raw, False, what)

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
is built, its ``parts`` (its subformulas and subterms, in order), its
``head`` (its file-table tag and name), its height (the formula and term
nodes on its longest downward path, computed from its parts' heights) and
whether it holds a metavariable or a Skolem term (from its parts' flags),
so a traversal reads a node's parts in one attribute, depth bounds cost
nothing to test, and a walk for metavariables or Skolem terms skips every
subtree that holds none.  Two slots are filled later, once: ``decomposed``
by ``gs3.premise_additions``, and ``symbols`` (the function symbols) by
``symbols_of`` from its parts' slots, the first time each is asked for.
The interning is not done by a metaclass: ``isinstance`` against a class
whose metaclass is not ``type`` leaves CPython's fast path, and the prover
and checker call it millions of times.

Every structural query and rewrite goes through one generic view of a
node: its ``parts``, its ``head`` and ``_make`` (the interned node of a
class with a name and parts), which the file tables use too.  ``walk``
lists a node's positions in document order without recursion, and
``rebuild`` rewrites them bottom-up; since a node rebuilt from unchanged
parts is the node itself, a rewrite that changes nothing returns its input.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Union

from .tree import FormatError

SKOLEM_NAME = re.compile(r"sko[0-9]+\Z")
META_NAME = re.compile(r"X[0-9]+\Z")

# Deepest formula or term that ``parse`` accepts and the proof writers emit,
# counting formula and term nodes along a path.  ``parse`` keeps a stack; the
# printers recurse, a frame per level, up to ``_SHALLOW`` (32) levels and keep
# a stack above.  ``rebuild`` recurses, 2 frames per level, and is the
# deepest: measured on CPython 3.11 with a 200-deep formula, proving,
# translating with audits and checking take about 400 frames through it.
# That leaves about 600 of the default 1,000 frames to the caller.
MAX_DEPTH = 200

_has_meta = attrgetter("has_meta")


class ParseError(ValueError):
    """Syntax or reserved-symbol error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DepthError(ValueError):
    """A formula or term nested deeper than ``MAX_DEPTH`` levels."""


# -------------------------------------------------------------- interning


class _Ref(weakref.ref):
    """``weakref.KeyedRef`` without its ``__new__`` and ``__init__`` in Python."""

    __slots__ = ("key",)


_table: dict[tuple, _Ref] = {}  # (class, *fields) -> the live node
_lookup = _table.get
_lock = threading.Lock()
_set_field = object.__setattr__


def _forget(ref: _Ref, table=_table, remove=_remove_dead_weakref) -> None:
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
            tag, named = _HEADS[cls]
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, key[1:]):
                _set_field(node, name, value)
            parts = key[2] if cls is App or cls is Atom else key[2:] if named else key[1:]
            height, meta = 0, cls is Meta
            skolem = cls is App and SKOLEM_NAME.match(key[1]) is not None
            for part in parts:
                if part.height > height:
                    height = part.height
                meta |= part.has_meta
                skolem |= part.has_skolem
            _set_field(node, "parts", parts)
            _set_field(node, "height", height + 1)
            _set_field(node, "has_meta", meta)
            _set_field(node, "has_skolem", skolem)
            _set_field(node, "head", (tag, key[1]) if named else (tag,))
            _set_field(node, "decomposed", None)
            _set_field(node, "symbols", None)
            ref = _Ref(node, _forget)
            ref.key = key
            _table[key] = ref
    return node


class _Node:
    """Base of the ten interned classes: a pickled or copied node is the
    interned node itself.

    ``parts`` holds the node's subformulas and subterms in document order,
    ``head`` its file-table entry's tag and name (see ``encode_table``),
    ``height`` the number of formula and term nodes on the longest path
    from the node down, and ``has_meta`` and ``has_skolem`` whether a
    metavariable or a Skolem term occurs in the node (the node itself
    included); all are set when the node is built.  ``decomposed`` is None
    until ``gs3.premise_additions`` keeps there the rule name and the
    additions of a witness-free decomposition of the node, and ``symbols``
    until ``symbols_of`` keeps there the node's function symbols.  None is
    a dataclass field, so they take no part in the intern key, in
    ``__reduce__`` or in ``repr``."""

    __slots__ = ("__weakref__", "parts", "height", "has_meta", "has_skolem", "decomposed", "head",
                 "symbols")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self) -> str:
        return print_term(self) if type(self) in (Var, Meta, App) else print_formula(self)


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


@_node
class Meta(_Node):
    """A free variable introduced by a gamma rule, awaiting instantiation."""

    name: str

    def __new__(cls, name: str) -> Meta:
        return _intern((cls, name))


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


@_node
class Not(_Node):
    body: "Formula"

    def __new__(cls, body: "Formula") -> Not:
        return _intern((cls, body))


@_node
class And(_Node):
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula") -> And:
        return _intern((cls, left, right))


@_node
class Or(_Node):
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula") -> Or:
        return _intern((cls, left, right))


@_node
class Implies(_Node):
    left: "Formula"
    right: "Formula"

    def __new__(cls, left: "Formula", right: "Formula") -> Implies:
        return _intern((cls, left, right))


@_node
class Forall(_Node):
    var: str
    body: "Formula"

    def __new__(cls, var: str, body: "Formula") -> Forall:
        return _intern((cls, var, body))


@_node
class Exists(_Node):
    var: str
    body: "Formula"

    def __new__(cls, var: str, body: "Formula") -> Exists:
        return _intern((cls, var, body))


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
    if new == parts:
        return x
    head = x.head
    return _make(type(x), head[1] if len(head) > 1 else None, new)


def free_metas(x: Formula | Term) -> tuple[Meta, ...]:
    """Metavariables of a formula or term in first-occurrence order.

    The order is what fixes the argument order of Skolem terms.
    """
    return tuple(dict.fromkeys([y for y in walk(x, _has_meta) if type(y) is Meta]))


def symbols_of(x: Formula | Term) -> frozenset[str]:
    """The function symbols (constants and Skolem symbols included) that
    occur in ``x``, kept in its ``symbols`` slot.  A node's set is made
    once, from its parts' sets, which are made before it, without
    recursion; a node whose set is one of its parts' shares that set."""
    if x.symbols is None:
        stack = [x]
        while stack:
            node = stack[-1]
            lacking = [p for p in node.parts if p.symbols is None]
            if lacking:
                stack += lacking
                continue
            stack.pop()
            if node.symbols is None:  # else pushed twice, and made since
                out = frozenset((node.symbol,)) if type(node) is App else _NO_NAMES
                for part in node.parts:
                    more = part.symbols
                    if out <= more:
                        out = more
                    elif not more <= out:
                        out = out | more
                _set_field(node, "symbols", out)
    return x.symbols


def _not_skolem(x: Formula | Term) -> bool:
    return type(x) is not App or not x.is_skolem


def outermost_skolem_terms(x: Formula | Term) -> set[App]:
    """Maximal Skolem-rooted subterms of a formula or term (occurrences
    inside a larger Skolem term are not reported separately)."""
    return {y for y in walk(x, lambda y: y.has_skolem and _not_skolem(y)) if not _not_skolem(y)}


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
    return rebuild(x, lambda y: y if not y.has_meta else
                   bindings.get(y.name, y) if type(y) is Meta else None)


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
#
# A formula or term at most ``_SHALLOW`` high prints by recursion, cheaper
# than a stack on the small formulas most inputs hold; a higher one from a
# stack.  So both printers take a bounded number of frames.

_CONNECTIVES = {And: " & ", Or: " | ", Implies: " => "}
_SHALLOW = 32


def _shallow(x: Formula | Term) -> str:
    """The text of a formula or term, by recursion, one frame per level."""
    if not x.parts:  # a variable, a constant or a propositional atom
        return x.head[1]
    cls = type(x)
    if cls is Atom or cls is App:
        # Arguments that are variables and constants print without a call each.
        args = [a.head[1] for a in x.parts] if x.height == 2 else map(_shallow, x.parts)
        return f"{x.head[1]}({', '.join(args)})"
    if cls is Not:
        return f"(~{_shallow(x.body)})"
    if cls is Forall or cls is Exists:
        return f"({'forall' if cls is Forall else 'exists'} {x.var}. {_shallow(x.body)})"
    return f"({_shallow(x.left)}{_CONNECTIVES[cls]}{_shallow(x.right)})"


def _deep(x: Formula | Term) -> str:
    """The text of a formula or term higher than ``_SHALLOW``, from a stack
    of (node, text after it) pairs."""
    out = []
    stack = [(x, "")]
    while stack:
        x, after = stack.pop()
        cls = type(x)
        if x.height <= _SHALLOW:
            out += (_shallow(x), after)
        elif cls is Atom or cls is App:
            out.append(x.head[1] + "(")
            stack.append((x.parts[-1], ")" + after))
            stack += [(a, ", ") for a in x.parts[-2::-1]]
        elif cls is Not:
            out.append("(~")
            stack.append((x.body, ")" + after))
        elif cls is Forall or cls is Exists:
            out.append(f"({'forall' if cls is Forall else 'exists'} {x.var}. ")
            stack.append((x.body, ")" + after))
        else:
            out.append("(")
            stack += ((x.right, ")" + after), (x.left, _CONNECTIVES[cls]))
    return "".join(out)


def print_term(t: Term) -> str:
    if type(t) not in (Var, Meta, App):
        raise TypeError(f"not a term: {t!r}")
    return _shallow(t) if t.height <= _SHALLOW else _deep(t)


def print_formula(f: Formula) -> str:
    """Canonical fully-parenthesized rendering; inverse of ``parse``."""
    if type(f) not in (Atom, Not, And, Or, Implies, Forall, Exists):
        raise TypeError(f"not a formula: {f!r}")
    return _shallow(f) if f.height <= _SHALLOW else _deep(f)


# ----------------------------------------------------------------- parse
#
# Grammar (precedence ``~ > & > | > =>``, ``=>`` right-associative, a
# quantifier body extends as far right as possible)::
#
#     formula := implies
#     implies := or ("=>" implies)?
#     or      := and ("|" and)*
#     and     := unary ("&" unary)*
#     unary   := "~" unary | "forall" ident "." implies
#              | "exists" ident "." implies | atom | "(" implies ")"
#     atom    := ident ("(" term ("," term)* ")")?
#     term    := ident ("(" term ("," term)* ")")?
#
# Identifiers match ``[A-Za-z][A-Za-z0-9_]*``; the generated families
# ``sko<digits>`` (Skolem symbols) and ``X<digits>`` (metavariables) are
# reserved and rejected unless ``allow_generated`` is set (see ``parse``).
# Formulas, terms and parentheses nest at most ``MAX_DEPTH`` deep.

# A token is ``=>``, an identifier or any other character but white space;
# a character that is no identifier and not one of ``(),.~&|`` is an error.
_TOKEN = re.compile(r"=>|[A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")
_PUNCTUATION = frozenset(["=>", "(", ")", ",", ".", "~", "&", "|"])
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_RESERVED = re.compile(r"\b(?:sko|X)[0-9]+\b", re.ASCII)  # SKOLEM_NAME or META_NAME
_QUANTIFIERS = {"forall": Forall, "exists": Exists}
_DEEP = f"nested deeper than {MAX_DEPTH} levels"
# A pending operator is (binds, class, left operand or bound name, source
# name, the binding it shadows).  A connective first reduces the operators
# that bind at least as tightly as its floor (``=>`` nests to the right,
# ``&`` and ``|`` chain to the left); ``)`` and the end reduce all but "(".
_BINARY = {"=>": (2, 1, Implies), "|": (2, 2, Or), "&": (3, 3, And)}  # floor, binds, class
_NEGATION, _PARENTHESIS = (4, Not, None, None, None), (-1, None, None, None, None)


class _Reader:
    """One parse of ``text``: its tokens, from one scan, and its binders.
    ``formula`` reads with one loop over a stack of pending operators and
    ``term`` with a stack of open applications, so a parse takes a constant
    number of frames; input is refused, at the first token, as soon as it
    is certain to nest deeper than ``MAX_DEPTH``."""

    __slots__ = ("text", "tokens", "generated", "reserved", "scope", "binders", "taken")

    def __init__(self, text: str, allow_generated: bool):
        self.text, self.generated = text, allow_generated
        self.tokens = _TOKEN.findall(text) + [""]  # "" is the end of the input
        self.reserved = not allow_generated and _RESERVED.search(text) is not None
        self.scope: dict[str, str | None] = {}  # source name -> its innermost binder's name
        self.binders: set[str] = set()  # binder names given out
        self.taken: dict[str, int] | None = None  # each token and binder name: its last suffix

    def fail(self, i: int, message: str):
        """Raise ``message`` at token ``i``, unless a character is no token,
        which is refused first; only here does a scan find positions."""
        text, start = self.text, len(self.text)
        for n, m in enumerate(_TOKEN.finditer(text)):
            if m[0][0] not in _LETTERS and m[0] not in _PUNCTUATION:
                message, start = f"unexpected character {m[0]!r}", m.start()
                break
            if n == i:
                start = m.start()
        raise ParseError(message, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start))

    def name(self, i: int, what: str) -> str:
        """The identifier at token ``i``: no keyword, and not reserved."""
        tok = self.tokens[i]
        if tok[:1] not in _LETTERS:
            self.fail(i, f"expected {what}, found {tok or 'end of input'!r}")
        if tok in _QUANTIFIERS:
            self.fail(i, f"expected {what}, found keyword {tok!r}")
        if self.reserved and _RESERVED.fullmatch(tok):
            self.fail(i, f"identifier {tok!r} is reserved for generated symbols")
        return tok

    def fresh(self, name: str) -> str:
        """A binder's name for ``name``: itself if no binder has it, else
        the first of ``name_1``, ``name_2``, ... that no token or binder
        has; names are only added, so the search starts after the last."""
        if name in self.binders:
            if self.taken is None:
                self.taken = dict.fromkeys(self.tokens, 0)
            n = self.taken[name] + 1
            while f"{name}_{n}" in self.taken:
                n += 1
            self.taken[name], name = n, f"{name}_{n}"
            self.taken[name] = 0
        self.binders.add(name)
        return name

    def term(self, i: int, frames: list, level: int) -> tuple[Term, int]:
        """The term at token ``i`` and the index after it, done when the
        applications (or the atom) open above it in ``frames``, each as
        (class, name, arguments read), are closed; ``level`` counts the
        formula operators pending above those."""
        tokens, scope = self.tokens, self.scope
        while True:
            if level + len(frames) >= MAX_DEPTH:
                self.fail(0, _DEEP)
            name = self.name(i, "a term")
            i += 1
            if tokens[i] == "(":
                frames.append((App, name, []))
                i += 1
                continue
            bound = scope.get(name)
            t = (_intern((Var, bound)) if bound is not None else _intern((Meta, name))
                 if self.generated and META_NAME.match(name) else _intern((App, name, ())))
            while frames:
                frames[-1][2].append(t)
                tok = tokens[i]
                i += 1
                if tok == ",":
                    break
                if tok != ")":
                    self.fail(i - 1, f"expected ')', found {tok or 'end of input'!r}")
                cls, name, args = frames.pop()
                t = _intern((cls, name, tuple(args)))
            else:
                return t, i

    def formula(self) -> tuple[Formula, int]:
        """The formula at the first token and the index after it."""
        tokens, scope, stack = self.tokens, self.scope, []
        level = parens = i = 0  # pending operators, open parentheses, next token
        while True:
            tok = tokens[i]  # an operand: prefix operators, then an atom
            if tok == "~":
                stack.append(_NEGATION)
                level, i = level + 1, i + 1
            elif tok == "(":
                stack.append(_PARENTHESIS)
                parens, i = parens + 1, i + 1
            elif tok in _QUANTIFIERS:
                source = self.name(i + 1, "a bound-variable name")
                bound = self.fresh(source)
                if tokens[i + 2] != ".":
                    self.fail(i + 2, "expected '.' after the bound variable, "
                                     f"found {tokens[i + 2] or 'end of input'!r}")
                stack.append((0, _QUANTIFIERS[tok], bound, source, scope.get(source)))
                scope[source], level, i = bound, level + 1, i + 3
            else:
                if tok[:1] not in _LETTERS:
                    self.fail(i, f"expected a formula, found {tok or 'end of input'!r}")
                if self.reserved and _RESERVED.fullmatch(tok):
                    self.fail(i, f"identifier {tok!r} is reserved for generated symbols")
                if tokens[i + 1] == "(":
                    f, i = self.term(i + 2, [(Atom, tok, [])], level)
                else:
                    f, i = _intern((Atom, tok, ())), i + 1
                while True:  # after an operand: a connective, ")" or the end
                    tok = tokens[i]
                    op = _BINARY.get(tok)
                    while stack and stack[-1][0] >= (0 if op is None else op[0]):
                        _, cls, arg, source, shadowed = stack.pop()
                        level -= 1
                        f = _intern((Not, f) if cls is Not else (cls, arg, f))
                        if source is not None:
                            scope[source] = shadowed
                    if op is not None:
                        stack.append((op[1], op[2], f, None, None))
                        level, i = level + 1, i + 1
                        if f.height + level > MAX_DEPTH:  # the new node and those above it
                            self.fail(0, _DEEP)
                        break
                    if not stack:
                        return f, i
                    if tok != ")":
                        self.fail(i, f"expected ')', found {tok or 'end of input'!r}")
                    stack.pop()
                    parens, i = parens - 1, i + 1
                continue
            if level >= MAX_DEPTH or parens > MAX_DEPTH:
                self.fail(0, _DEEP)


def _read(text: str, allow_generated: bool, formula: bool):
    reader = _Reader(text, allow_generated)
    result, i = reader.formula() if formula else reader.term(0, [], 0)
    if reader.tokens[i]:
        reader.fail(i, f"unexpected trailing input {reader.tokens[i]!r}")
    return result


def parse(text: str, *, allow_generated: bool = False) -> Formula:
    """Parse a formula; bound variables are renamed apart.

    ``allow_generated`` admits the reserved ``skoN``/``XN`` identifier
    families (Skolem symbols and metavariables).  The package itself never
    sets it: ``scripts/upgrade_files.py`` does, to read the formula text
    of version-1 proof files, and so do tests.  Input nested deeper than
    ``MAX_DEPTH`` is a ParseError.
    """
    return _read(text, allow_generated, True)


def parse_term(text: str, *, allow_generated: bool = False) -> Term:
    return _read(text, allow_generated, False)


# ----------------------------------------------------------- file tables
#
# A `.gs3` or `.tab` file, from version 2 on, holds each distinct formula
# and term once, as one entry of its table.  An entry is a JSON
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
_HEADS = {spec[0]: (tag, spec[2]) for tag, spec in _SPECS.items()}  # class -> (tag, named)
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_NO_NAMES = frozenset()


def _make(cls: type, name: str | None, parts) -> Formula | Term:
    """The node of class ``cls`` whose name (its symbol, predicate or bound
    variable; None for a connective) is ``name`` and whose ``parts`` are
    ``parts``."""
    if cls is App or cls is Atom:
        return _intern((cls, name, tuple(parts)))
    return _intern((cls, *parts) if name is None else (cls, name, *parts))


def encode_table(items) -> tuple[list[tuple], Callable[[Formula | Term], int]]:
    """The table of a proof file (version 2 or later) that holds ``items``, with the
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
    at = index.__getitem__
    entries: list[tuple] = []
    # An entry is a node's head followed by its parts' entries.  Equal
    # contents are one interned node, so the sort never compares nodes.
    for level in levels:
        for content, x in sorted([(x.head + tuple(map(at, x.parts)), x) for x in level]):
            index[x] = len(entries)
            entries.append(content)
    return entries, index.__getitem__


class Table:
    """The decoded table of a proof file (version 2 or later), read in one flat loop.

    Every entry must be well formed: a known tag, a name the grammar
    accepts (with the generated ``skoN``/``XN`` families), the right number
    of references, each to an earlier entry of the right sort (formula or
    term), and no more than ``MAX_DEPTH`` levels of nesting.  Equal
    references give one shared object.  ``formula`` and ``term`` hand out
    entries that may stand alone: closed, with no bound variable free.
    ``closed_formulas`` holds the closed formulas by index, for a reader
    that resolves many references; ``formula`` reads it first, and gives
    the FormatError for an index it lacks.
    """

    def __init__(self, raw) -> None:
        if type(raw) is not list:
            raise FormatError("table must be a list")
        # Per entry: (object, is a formula, free bound variables).
        entries: list[tuple[Formula | Term, bool, frozenset]] = []
        closed: dict[int, Formula] = {}
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
            # Each part's entry is unpacked once: its object, sort and free variables.
            parts = []
            free = _NO_NAMES
            for ref in refs:
                if type(ref) is not int or not 0 <= ref < pos:
                    raise FormatError(f"table entry {pos} refers to {ref!r}, "
                                      "not to an earlier entry")
                part, part_is_formula, part_free = entries[ref]
                if part_is_formula is not part_formula:
                    raise FormatError(f"table entry {pos} needs "
                                      f"{'a formula' if part_formula else 'a term'} "
                                      f"where entry {ref} is not one")
                parts.append(part)
                if part_free:
                    free = free | part_free
            obj = _make(cls, name, parts)
            if cls is Var:
                free = frozenset((name,))
            elif named and part_formula:  # a quantifier binds its name
                free = free - {name}
            if obj.height > MAX_DEPTH:
                raise FormatError(f"table entry {pos} is nested deeper than {MAX_DEPTH} levels")
            entries.append((obj, formula, free))
            if formula and not free:
                closed[pos] = obj
        self._entries = entries
        self.closed_formulas = closed

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
        found = self.closed_formulas.get(raw) if type(raw) is int else None  # a bool is no index
        return self._closed(raw, True, what) if found is None else found

    def term(self, raw, what: str) -> Term:
        """The closed term at index ``raw``, or a FormatError naming ``what``."""
        return self._closed(raw, False, what)

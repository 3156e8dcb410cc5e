import copy
import dataclasses
import gc
import json
import pickle
import random
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import reference_parse
from conftest import random_formula
from reference_check import schema
from tabseq import formula as formula_module
from tabseq.formula import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Implies,
    Meta,
    Not,
    Or,
    MAX_DEPTH,
    DepthError,
    ParseError,
    Table,
    Var,
    apply_subst,
    encode_table,
    const,
    free_metas,
    outermost_skolem_terms,
    parse,
    parse_term,
    print_formula,
    print_term,
    rebuild,
    subst_var,
    symbols_of,
    walk,
)
from tabseq.gs3 import RULE_GROUPS, GsRule, premise_additions, rule_name
from tabseq.problems import corpus

DRINKER_NEG = "~(exists x. (D(x) => forall y. D(y)))"


def drinker_neg_ast():
    return Not(
        Exists(
            "x",
            Implies(
                Atom("D", (Var("x"),)),
                Forall("y", Atom("D", (Var("y"),))),
            ),
        )
    )


class TestParse:
    def test_drinker_negation(self):
        assert parse(DRINKER_NEG) == drinker_neg_ast()

    def test_bare_atom(self):
        assert parse("P") == Atom("P", ())

    def test_precedence_not_binds_tightest(self):
        assert parse("~~P & Q") == And(Not(Not(Atom("P", ()))), Atom("Q", ()))

    def test_precedence_and_over_or_over_implies(self):
        f = parse("P & Q | R => S")
        assert f == Implies(Or(And(Atom("P", ()), Atom("Q", ())), Atom("R", ())), Atom("S", ()))

    def test_implies_right_associative(self):
        assert parse("P => Q => R") == Implies(
            Atom("P", ()), Implies(Atom("Q", ()), Atom("R", ()))
        )

    def test_quantifier_body_extends_right(self):
        f = parse("forall x. P(x) & Q")
        assert f == Forall("x", And(Atom("P", (Var("x"),)), Atom("Q", ())))

    def test_free_identifiers_are_constants(self):
        f = parse("P(x) & forall x. Q(x)")
        assert f == And(Atom("P", (const("x"),)), Forall("x", Atom("Q", (Var("x"),))))

    def test_duplicate_binders_renamed_apart(self):
        f = parse("(forall x. P(x)) & (forall x. Q(x))")
        assert isinstance(f, And)
        assert f.left.var != f.right.var
        assert f.left.var == "x"

    def test_nested_shadowing_renamed(self):
        f = parse("forall x. forall x. P(x)")
        assert isinstance(f, Forall) and isinstance(f.body, Forall)
        assert f.var != f.body.var
        # the occurrence binds to the innermost quantifier
        assert f.body.body == Atom("P", (Var(f.body.var),))

    def test_renaming_avoids_existing_identifiers(self):
        f = parse("P(x_1) & (forall x. Q(x)) & (forall x. R(x))")
        renamed = f.right.var
        assert renamed not in ("x", "x_1")

    def test_reserved_skolem_identifier_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("P(sko1)")

    def test_reserved_meta_identifier_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("P(X1)")

    def test_generated_mode_reads_metas_and_skolems(self):
        f = parse("D(X1) & P(sko2(X1))", allow_generated=True)
        sko = App("sko2", (Meta("X1"),))
        assert f == And(Atom("D", (Meta("X1"),)), Atom("P", (sko,)))
        assert sko.is_skolem

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("P &\n& Q")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("P Q")

    def test_parse_term(self):
        assert parse_term("f(a, g(b, c))") == App(
            "f", (const("a"), App("g", (const("b"), const("c"))))
        )

    def test_binary_precedence_and_associativity(self):
        p, q, r, s = (Atom(n, ()) for n in "PQRS")
        assert parse("P & Q | R & S") == Or(And(p, q), And(r, s))
        assert parse("P | Q & R => S") == Implies(Or(p, And(q, r)), s)
        assert parse("P | Q | R") == Or(Or(p, q), r)
        assert parse("P => Q | R => S") == Implies(p, Implies(Or(q, r), s))
        assert parse("P & forall x. Q | R") == And(p, Forall("x", Or(q, r)))


# The token pattern of the tokenizer that ``formula.parse`` replaced.
LOOP_TOKEN_RE = re.compile(r"(?P<IMPLIES>=>)|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)|(?P<LPAR>\()|"
                           r"(?P<RPAR>\))|(?P<COMMA>,)|(?P<DOT>\.)|(?P<NOT>~)|(?P<AND>&)|"
                           r"(?P<OR>\|)|(?P<WS>[ \t\r\n]+)")


def loop_tokenize(text: str) -> list[tuple[str, int, int]]:
    """The tokens as (text, line, column), the end as ("", line, column),
    from a loop that matches at each position in turn."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = LOOP_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        value = m.group()
        if m.lastgroup != "WS":
            tokens.append((value, line, m.start() - line_start + 1))
        nl = value.count("\n")
        if nl:
            line += nl
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(("", line, pos - line_start + 1))
    return tokens


def scan(text: str) -> list[tuple[str, int, int]]:
    """The package's tokens of ``text``, each with the position that an
    error at it reports; the scan keeps no positions, so each is asked of
    ``fail``, which also refuses a character that no token matches."""
    reader = formula_module._Reader(text, allow_generated=False)
    tokens = []
    for i, tok in enumerate(reader.tokens):
        with pytest.raises(ParseError) as e:
            reader.fail(i, "here")
        if not str(e.value).startswith("here"):
            raise e.value
        tokens.append((tok, e.value.line, e.value.column))
    return tokens


def tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e), e.line, e.column


PIECES = ["P", "Q1", "forall", "x_2", "f", "(", ")", ",", ".", "~", "&", "|", "=>", "=", ">",
          " ", "\t", "\n", "\r\n", "$", "#", "\u00e9", "1", "_", "exists", "x", "X1", "sko2"]
SOUPS = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


class TestTokenize:
    @given(SOUPS)
    def test_matches_the_loop(self, text):
        assert tokens_or_error(scan, text) == tokens_or_error(loop_tokenize, text)

    def test_a_bad_character_after_newlines(self):
        for read in (parse, parse_term):
            with pytest.raises(ParseError) as e:
                read("P &\n  Q |\r\n ~$R")
            assert (str(e.value), e.value.line, e.value.column) == (
                "unexpected character '$' (line 3, column 3)", 3, 3)

    def test_a_bad_character_comes_before_any_parse_error(self):
        with pytest.raises(ParseError) as e:
            parse("P & & Q\n\n  =")
        assert (str(e.value), e.value.line, e.value.column) == (
            "unexpected character '=' (line 3, column 3)", 3, 3)


class TestDepthBound:
    def test_goal_at_the_bound_parses(self):
        f = parse(" => ".join(["P"] * MAX_DEPTH))
        assert f.height == walk_height(f) == MAX_DEPTH

    def test_wide_120_parses(self):
        conj = " & ".join(f"P{i}" for i in range(120))
        assert parse(f"({conj}) => ({conj})").height == 121

    def test_proof_files_share_the_bound(self):
        text = "~" * MAX_DEPTH + "P"
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text, allow_generated=True)
        assert parse(text[1:], allow_generated=True).height == MAX_DEPTH

    @pytest.mark.parametrize("text", [
        " => ".join(["P"] * 1200),
        " & ".join(["P"] * 5000),
        "~" * 5000 + "P",
        "(" * 5000 + "P" + ")" * 5000,
        "P(" + "f(" * 3000 + "a" + ")" * 3001,
        "forall x. " * 3000 + "P(x)",
    ])
    def test_deeper_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text)

    def test_deep_term_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_term("f(" * 3000 + "a" + ")" * 3000)

    def test_table_encoder_refuses_deeper_entries(self):
        at_bound = parse_term("f(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1))
        table, entry = encode_table([at_bound])
        assert len(table) == MAX_DEPTH and entry(at_bound) == MAX_DEPTH - 1
        with pytest.raises(DepthError, match="nested deeper"):
            encode_table([Atom("P", (at_bound,))])


class TestStackUse:
    """The parser and the printers keep explicit stacks: a formula at the
    bound round-trips from a deep caller, and deeper input is refused at
    the first token as soon as its depth is certain."""

    def test_parentheses_nest_as_deep_as_formulas(self):
        assert parse("(" * MAX_DEPTH + "P" + ")" * MAX_DEPTH) is Atom("P")
        with pytest.raises(ParseError, match="nested deeper") as e:
            parse("(" * (MAX_DEPTH + 1) + "P" + ")" * (MAX_DEPTH + 1))
        assert (e.value.line, e.value.column) == (1, 1)

    @pytest.mark.parametrize("shape", ["quantifier prefix", "negation chain", "right-nested =>",
                                       "nested terms"])
    def test_round_trip_at_the_bound_from_a_deep_caller(self, shape):
        f = shape_at_the_bound(shape)
        assert f.height == MAX_DEPTH
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            back = call_from_depth(900, lambda: parse(print_formula(f), allow_generated=True))
        finally:
            sys.setrecursionlimit(limit)
        assert back is f

    def test_a_deep_quantifier_prefix_stops_at_the_bound(self, monkeypatch):
        fresh = formula_module._Reader.fresh
        names = []
        monkeypatch.setattr(formula_module._Reader, "fresh",
                            lambda reader, name: names.append(name) or fresh(reader, name))
        with pytest.raises(ParseError, match="nested deeper") as e:
            parse("forall x. " * 3000 + "P(x)")
        assert 0 < len(names) <= MAX_DEPTH and (e.value.line, e.value.column) == (1, 1)

    @settings(max_examples=40)
    @given(st.randoms(use_true_random=False), st.integers(MAX_DEPTH - 3, MAX_DEPTH + 3))
    def test_mixed_shapes_are_refused_just_above_the_bound(self, rng, height):
        f = spine_formula(rng, height)
        assert f.height == height
        text = print_formula(f)
        if height <= MAX_DEPTH:
            assert parse(text, allow_generated=True) is f
            return
        with pytest.raises(ParseError, match="nested deeper") as e:
            parse(text, allow_generated=True)
        assert (e.value.line, e.value.column) == (1, 1)


def shape_at_the_bound(shape: str):
    """A formula of height ``MAX_DEPTH`` in one of four shapes."""
    if shape == "nested terms":
        t = const("a")
        for _ in range(MAX_DEPTH - 2):
            t = App("f", (t,))
        return Atom("P", (t,))
    f = Atom("P", (Var("x1"),)) if shape == "quantifier prefix" else Atom("P")
    for k in range(MAX_DEPTH - f.height, 0, -1):
        if shape == "quantifier prefix":
            f = Forall(f"x{k}", f)
        elif shape == "negation chain":
            f = Not(f)
        else:
            f = Implies(Atom(f"Q{k}"), f)
    return f


def spine_formula(rng: random.Random, height: int):
    """A formula of height ``height`` whose deepest path runs through
    nested terms, then negations, quantifiers and connectives in a random
    order, with the path on either side of a connective."""
    t = const("a")
    for _ in range(rng.randrange(0, 20)):
        t = App("g", (const("b"), t) if rng.random() < 0.5 else (t,))
    f = Atom("P", (t,))
    k = 0
    while f.height < height:
        k += 1
        roll = rng.random()
        if roll < 0.2:
            f = Not(f)
        elif roll < 0.4:
            f = (Forall if roll < 0.3 else Exists)(f"x{k}", f)
        else:
            cls = rng.choice([And, Or, Implies])
            other = Atom("Q") if rng.random() < 0.5 else Not(Atom("R", (const("c"),)))
            f = cls(f, other) if rng.random() < 0.5 else cls(other, f)
    return f


def call_from_depth(frames: int, call):
    """``call()``, made by a caller ``frames`` frames deep."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(n):
        return call() if n == 0 else down(n - 1)

    return down(frames - depth - 2)  # the frames of ``down`` and of ``call``


def walk_height(x) -> int:
    """Formula and term nodes on the longest downward path, walked from
    scratch without reading any node's ``height``."""
    if isinstance(x, (Atom, App)):
        return 1 + max([walk_height(a) for a in x.args], default=0)
    if isinstance(x, (Not, Forall, Exists)):
        return 1 + walk_height(x.body)
    if isinstance(x, (And, Or, Implies)):
        return 1 + max(walk_height(x.left), walk_height(x.right))
    return 1


TERMS = st.recursive(
    st.sampled_from([Meta("X1"), Meta("X2"), const("a"), const("b")]),
    lambda kids: st.builds(lambda name, args: App(name, tuple(args)),
                           st.sampled_from(["f", "g", "sko1"]), st.lists(kids, min_size=1, max_size=3)),
    max_leaves=12)
FORMULAS = st.recursive(
    st.builds(lambda name, args: Atom(name, tuple(args)),
              st.sampled_from(["P", "Q"]), st.lists(TERMS, max_size=3)),
    lambda kids: st.one_of(
        st.builds(Not, kids), st.builds(And, kids, kids), st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids), st.builds(Forall, st.just("x"), kids),
        st.builds(Exists, st.just("y"), kids)),
    max_leaves=16)


def outcome(read, text: str, allow_generated: bool):
    """What ``read`` makes of ``text``: the node, or the error's message and
    position; a depth error by its message only."""
    try:
        return read(text, allow_generated=allow_generated)
    except ParseError as e:
        if "nested deeper" in str(e):
            return f"nested deeper than {MAX_DEPTH} levels"
        return str(e), e.line, e.column


def mutated(text: str, data) -> str:
    """``text`` with one token dropped, doubled or replaced by a piece."""
    tokens = [m.group() for m in LOOP_TOKEN_RE.finditer(text)]
    i = data.draw(st.integers(0, len(tokens) - 1))
    how = data.draw(st.sampled_from(["drop", "double", "replace"]))
    piece = data.draw(st.sampled_from(PIECES))
    tokens[i:i + 1] = {"drop": [], "double": [tokens[i]] * 2, "replace": [piece]}[how]
    return "".join(tokens)


class TestAgainstTheReferenceParser:
    """``parse`` and ``parse_term`` give what the recursive-descent parser
    they replaced (``tests/reference_parse.py``) gives: the same interned
    node, or the same message at the same line and column.  A depth error
    keeps its message; it may come at another token."""

    def assert_agree(self, text):
        for generated in (False, True):
            for read, reference in ((parse, reference_parse.parse),
                                    (parse_term, reference_parse.parse_term)):
                got = outcome(read, text, generated)
                expected = outcome(reference, text, generated)
                assert got is expected or got == expected, (text, generated, read.__name__)

    @given(SOUPS)
    def test_token_soups(self, text):
        self.assert_agree(text)

    @given(st.one_of(FORMULAS.map(print_formula), TERMS.map(print_term)), st.data())
    def test_printed_formulas_and_terms_and_one_token_off(self, text, data):
        self.assert_agree(text)
        self.assert_agree(mutated(text, data))

    @given(st.integers(0, 2**32 - 1))
    def test_random_formulas_with_binders(self, seed):
        text = print_formula(random_formula(random.Random(seed)))
        # Shadowed binders, renamed apart; a binder named like a renaming;
        # and the constant ``b`` named like a binder, in and out of its scope.
        self.assert_agree(text.replace("v1", "v0").replace("v2", "v0_1").replace("b", "v0"))

    def test_a_binder_is_out_of_scope_after_its_body(self):
        x = Var("x")
        assert parse("(forall x. P(x)) & Q(x)") == And(Forall("x", Atom("P", (x,))),
                                                        Atom("Q", (const("x"),)))
        self.assert_agree("(forall x. P(x) | (exists x. Q(x)) & R(x)) => S(x)")


class TestHeight:
    """Every node carries the height a from-scratch walk finds, however it
    was built: by a constructor, the parser, a pickle, a copy or a table."""

    @given(FORMULAS)
    def test_formulas(self, f):
        assert f.height == walk_height(f)
        assert parse(print_formula(f), allow_generated=True).height == walk_height(f)

    @given(TERMS)
    def test_terms(self, t):
        assert t.height == walk_height(t)

    @settings(max_examples=40)  # each example collects the garbage
    @given(st.one_of(FORMULAS, TERMS))
    def test_read_back_pickled_and_copied(self, x):
        entries, index = encode_table([x])
        text, at = json.dumps(entries), index(x)
        texts = [pickle.dumps(x, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        formula = not isinstance(x, (Meta, App))
        del x
        gc.collect()  # nodes nothing holds leave the table and are built again
        table = Table(json.loads(text))
        back = table.formula(at, "item") if formula else table.term(at, "item")
        assert back.height == walk_height(back)
        for text in texts:
            assert pickle.loads(text) is back
        assert copy.copy(back).height == copy.deepcopy(back).height == walk_height(back)

    def test_height_is_no_field(self):
        f = parse("P(f(a)) & Q")
        assert f.height == 4
        assert [field.name for field in dataclasses.fields(f)] == ["left", "right"]
        assert f.__reduce__() == (And, (f.left, f.right))
        assert "height" not in repr(f)


def assert_flags_match_a_walk(x) -> None:
    """Each position of ``x`` says in its ``has_meta`` and ``has_skolem``
    what a walk below it finds, without reading any node's flags."""
    for y in walk(x):
        below = list(walk(y))
        assert y.has_meta == any(type(z) is Meta for z in below)
        assert y.has_skolem == any(type(z) is App and z.is_skolem for z in below)


class TestFlags:
    """Every node's ``has_meta`` and ``has_skolem`` say whether a
    metavariable or a Skolem term occurs in it, however it was built: by a
    constructor, the parser, a table, a pickle, a copy or a rewrite."""

    @settings(max_examples=40)  # each example collects the garbage
    @given(st.one_of(FORMULAS, TERMS))
    def test_built_parsed_read_back_pickled_and_copied(self, x):
        assert_flags_match_a_walk(x)
        formula = not isinstance(x, (Meta, App))
        printed = print_formula(x) if formula else print_term(x)
        entries, index = encode_table([x])
        text, at = json.dumps(entries), index(x)
        data = pickle.dumps(x)
        del x, entries, index
        gc.collect()  # nodes nothing holds leave the table and are built again
        table = Table(json.loads(text))
        back = table.formula(at, "item") if formula else table.term(at, "item")
        assert_flags_match_a_walk(back)
        # The parser renames nested binders of one name apart.
        assert_flags_match_a_walk((parse if formula else parse_term)(printed, allow_generated=True))
        assert pickle.loads(data) is back
        assert copy.copy(back) is copy.deepcopy(back) is back

    @given(FORMULAS, TERMS, TERMS)
    def test_rewritten(self, f, t, u):
        with_var = Forall("x", And(f, Atom("R", (Var("x"), u))))
        no_skolems = rebuild(f, lambda y: const("c9") if type(y) is App and y.is_skolem else None)
        for y in (apply_subst({"X1": t}, f), apply_subst({"X2": const("a")}, u),
                  subst_var(with_var.body, "x", t), no_skolems):
            assert_flags_match_a_walk(y)
        assert not no_skolems.has_skolem

    def test_flags_are_no_fields(self):
        t = parse_term("f(sko1(X1))", allow_generated=True)
        assert t.has_meta and t.has_skolem and not t.is_skolem and t.args[0].is_skolem
        assert [field.name for field in dataclasses.fields(t)] == ["symbol", "args"]
        assert "has_" not in repr(t) and t.__reduce__() == (App, ("f", t.args))
        # Nor are the head, the decomposition memo and the function symbols.
        f = parse("forall x. (P(x, g(a)) & Q)")
        assert f.head == ("forall", "x") and f.body.head == ("&",) and f.body.left.head == ("P", "P")
        assert premise_additions(GsRule("and"), f.body) == ((f.body.left, f.body.right),)
        assert f.body.decomposed == ("and", ((f.body.left, f.body.right),))
        assert symbols_of(t) == {"f", "sko1"} and symbols_of(f) == {"g", "a"}
        assert t.symbols is symbols_of(t) and f.symbols is f.body.symbols is f.body.left.symbols
        for x in (t, f, f.body):
            assert [field.name for field in dataclasses.fields(x)] == list(x.__match_args__)
            for word in ("head", "decomposed", "symbols", "frozenset"):
                assert word not in repr(x)
            assert x.__reduce__() == (type(x), tuple(getattr(x, n) for n in x.__match_args__))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                data = pickle.dumps(x, protocol)
                assert b"head" not in data and b"decomposed" not in data
                assert b"symbols" not in data and b"frozenset" not in data
                assert pickle.loads(data) is x
            assert copy.copy(x) is copy.deepcopy(x) is x

    def test_a_shared_part_gets_its_symbols_once(self, monkeypatch):
        # ``f(a)`` is a part of several nodes, twice of one, and ``P(...)``
        # is below both sides of the conjunction: every node's set is made
        # exactly once, and shared with a part where it is the same.
        from conftest import count_symbol_sets, forget_symbols

        f = parse("(P(f(a), f(a)) & ~P(f(a), f(a))) | Q(g(f(a)))")
        nodes = forget_symbols([f])
        made = count_symbol_sets(monkeypatch)
        assert symbols_of(f) == {"f", "a", "g"} and made == dict.fromkeys(nodes, 1)
        assert symbols_of(f) is f.symbols and made == dict.fromkeys(nodes, 1)
        assert f.left.symbols is f.left.left.symbols is f.left.right.symbols

    @settings(max_examples=40)  # each example collects the garbage
    @given(st.one_of(FORMULAS, TERMS), st.randoms(use_true_random=False))
    def test_symbols_match_the_old_walk(self, x, rng):
        """``symbols_of`` of every position, asked for in a random order on
        the nodes as built and on the nodes ``Table`` builds again, equals
        the walk of every position that ``formula_symbols`` made before the
        ``symbols`` slot."""

        def old_walk(y):
            return {z.symbol for z in walk(y) if type(z) is App}

        def assert_symbols_match(nodes):
            nodes = list(nodes)
            rng.shuffle(nodes)
            for y in nodes:
                assert type(symbols_of(y)) is frozenset and symbols_of(y) is y.symbols
                assert symbols_of(y) == old_walk(y)

        assert_symbols_match(set(walk(x)))
        entries, index = encode_table([x])
        text = json.dumps(entries)
        del x, entries, index
        gc.collect()  # nodes nothing holds leave the table and are built again
        assert_symbols_match(entry[0] for entry in Table(json.loads(text))._entries)


class TestCachedHash:
    """Nodes are interned: equal constructions give one object, whose hash
    is ``object``'s, computed in C, and which copies and pickles return."""

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_generated_hash(self, seed):
        f = random_formula(random.Random(seed), depth=4)
        again = random_formula(random.Random(seed), depth=4)
        assert f is again
        assert hash(f) == object.__hash__(f) == hash(again)
        assert type(f).__hash__ is object.__hash__ and type(f).__eq__ is object.__eq__

    def test_terms_cache_their_hash(self):
        t = App("f", (Var("x"), Meta("X1"), const("a")))
        assert t is App("f", (Var("x"), Meta("X1"), const("a")))
        assert hash(t) == object.__hash__(t)
        assert Var("x") is Var("x") and Var("x") is not Meta("x")

    def test_nodes_stay_frozen(self):
        f = parse("P(a) & Q")
        hash(f)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.left = f.right

    def test_cache_is_not_copied_or_pickled(self):
        f = parse("forall x. (P(x) => Q(f(x)))")
        for other in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert other is f


NODES = [Var("x"), Meta("X1"), const("a"), App("f", (Var("x"), const("a"))),
         Atom("P"), Atom("R", (const("a"), Meta("X1"))), Not(Atom("P")),
         And(Atom("P"), Atom("Q")), Or(Atom("P"), Atom("Q")), Implies(Atom("P"), Atom("Q")),
         Forall("x", Atom("P", (Var("x"),))), Exists("x", Atom("P", (Var("x"),)))]


class TestInterning:
    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_every_construction_gives_the_interned_node(self, node):
        fields = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
        cls = type(node)
        assert cls(*fields.values()) is node
        assert cls(**fields) is node
        assert dataclasses.replace(node) is node
        assert type(cls) is type  # no metaclass: isinstance keeps its fast path

    def test_default_args_are_the_empty_tuple(self):
        assert App("a") is App("a", ()) is App(symbol="a") is const("a")
        assert Atom("P") is Atom("P", ()) is Atom(predicate="P", args=())
        assert dataclasses.replace(App("b"), symbol="a") is const("a")

    def test_pickles_and_copies_share_the_interned_nodes(self):
        sequent = [parse(text) for text in ("P(a) & Q", "forall x. P(x)", "~(P(a) & Q)")]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(sequent, protocol))
            assert all(b is f for b, f in zip(back, sequent))
        assert all(b is f for b, f in zip(copy.deepcopy(sequent), sequent))

    def test_nodes_take_no_new_attributes(self):
        f = parse("P(a) & Q")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del f.left
        # Python 3.11's frozen slotted dataclasses refuse a name that is no
        # field with a TypeError instead of a FrozenInstanceError.
        with pytest.raises((AttributeError, TypeError)):
            f.extra = 1
        with pytest.raises(AttributeError):  # slots: no instance dict
            object.__setattr__(f, "extra", 1)

    def test_a_dropped_formula_leaves_the_table(self):
        def named(name):
            return [key for key in list(formula_module._table) if key[1] == name]

        f = Atom("Dropped", (const("zz9"),))
        dead = weakref.ref(f)
        assert named("Dropped") and named("zz9")
        del f
        gc.collect()
        assert dead() is None
        assert not named("Dropped") and not named("zz9")

    def test_threads_building_the_same_formulas_get_one_object(self):
        # Texts, not formulas, so that the threads race to build them; a
        # short switch interval makes them change places inside ``_intern``.
        texts = [print_formula(goal) for _, goal in corpus(generated=40)]
        start = threading.Barrier(4, timeout=60)

        def build(_):
            start.wait()
            return [parse(text) for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                first, *others = pool.map(build, range(4), timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for other in others:
            assert all(a is b for a, b in zip(first, other, strict=True))


class TestPrint:
    def test_atom(self):
        assert print_formula(Atom("D", (const("c"),))) == "D(c)"

    def test_negated_quantifier(self):
        f = Not(Forall("y", Atom("D", (Var("y"),))))
        assert print_formula(f) == "(~(forall y. D(y)))"

    def test_term_with_args(self):
        assert print_term(App("f", (Meta("X1"), const("a")))) == "f(X1, a)"

    def test_str_of_every_node_class_is_its_printers_text(self):
        p = Atom("P", (Var("x"),))
        terms = [Var("x"), Meta("X1"), App("f", (Meta("X1"), const("a")))]
        formulas = [p, Not(p), And(p, p), Or(p, p), Implies(p, p), Forall("x", p), Exists("x", p)]
        assert {type(x) for x in terms + formulas} == {
            Var, Meta, App, Atom, Not, And, Or, Implies, Forall, Exists}
        for t in terms:
            assert str(t) == print_term(t)
        for f in formulas:
            assert str(f) == print_formula(f)

    def test_drinker_round_trip(self):
        f = parse(DRINKER_NEG)
        assert parse(print_formula(f)) == f

    def test_round_trip_generated_corpus(self):
        for seed in range(300):
            f = random_formula(random.Random(seed))
            assert parse(print_formula(f)) == f

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        f = random_formula(random.Random(seed))
        assert parse(print_formula(f)) == f


def group(f):
    """The tableau group of the rule that decomposes ``f``; None for a literal."""
    return RULE_GROUPS.get(rule_name(f))


CLASSIFY_CASES = [
    ("P & Q", "alpha"),
    ("~(P | Q)", "alpha"),
    ("~(P => Q)", "alpha"),
    ("~~P", "alpha"),
    ("P | Q", "beta"),
    ("P => Q", "beta"),
    ("~(P & Q)", "beta"),
    ("exists x. P(x)", "delta"),
    ("~(forall x. P(x))", "delta"),
    ("forall x. P(x)", "gamma"),
    ("~(exists x. P(x))", "gamma"),
    ("P(a)", None),
    ("~P(a)", None),
]


class TestClassify:
    # The ids are the ones these cases had when the groups were the enum
    # ``RuleClass``, so that runs before and after compare case by case.
    @pytest.mark.parametrize(
        "text,expected", CLASSIFY_CASES,
        ids=[f"{text}-RuleClass.{(kind or 'literal').upper()}" for text, kind in CLASSIFY_CASES],
    )
    def test_table(self, text, expected):
        assert group(parse(text)) == expected

    def test_paper_alpha_step(self):
        f = Not(Implies(Atom("D", (Meta("X"),)), Forall("y", Atom("D", (Var("y"),)))))
        assert group(f) == "alpha"

    def test_paper_delta_step(self):
        assert group(Not(Forall("y", Atom("D", (Var("y"),))))) == "delta"


class TestDecompose:
    """A non-literal formula's successors: what each premise of its rule
    adds, with the quantifier rules' witness substituted."""

    def test_alpha_negated_implication(self):
        f = Not(Implies(Atom("D", (Meta("X"),)), Forall("y", Atom("D", (Var("y"),)))))
        assert rule_name(f) == "not_implies"
        assert premise_additions(GsRule("not_implies"), f) == (
            (Atom("D", (Meta("X"),)), Not(Forall("y", Atom("D", (Var("y"),))))),)

    def test_beta_disjunction(self):
        assert premise_additions(GsRule("or"), parse("P | Q")) == (
            (Atom("P", ()),), (Atom("Q", ()),))

    def test_alpha_double_negation(self):
        assert premise_additions(GsRule("not_not"), parse("~~P")) == ((Atom("P", ()),),)

    def test_gamma_returns_body_and_polarity(self):
        f = parse("~(exists x. P(x))")
        assert rule_name(f) == "not_exists" and group(f) == "gamma"
        assert premise_additions(GsRule("not_exists", const("a")), f) == (
            (Not(Atom("P", (const("a"),))),),)

    def test_delta_positive_polarity(self):
        f = parse("exists x. P(x)")
        assert rule_name(f) == "exists" and group(f) == "delta"
        assert premise_additions(GsRule("exists", Meta("X1")), f) == ((Atom("P", (Meta("X1"),)),),)

    def test_literal_rejected(self):
        for text in ("P(a)", "~P(a)"):
            assert rule_name(parse(text)) is None
            for name in RULE_GROUPS:
                assert premise_additions(GsRule(name, const("a")), parse(text)) is None

    @given(FORMULAS, st.permutations(sorted(RULE_GROUPS)))
    def test_a_kept_decomposition_equals_a_fresh_one(self, f, names):
        """Every rule, in any order and twice over, with a witness and then
        without, on a principal whose ``decomposed`` slot starts empty: each
        result equals the schema written out in ``reference_check``, a
        witness-free call that succeeds keeps its result, and any other
        call keeps nothing."""
        object.__setattr__(f, "decomposed", None)
        for name in names * 2:
            for witness in (const("a"), None):
                before = f.decomposed
                fresh = schema(name, f, witness)
                out = premise_additions(GsRule(name, witness), f)
                if fresh is None:
                    assert out is None
                else:
                    assert out == tuple(map(tuple, fresh[1]))
                if fresh is None or witness is not None:
                    assert f.decomposed is before
                else:
                    assert f.decomposed == (name, out)

    @given(st.integers(0, 2**32 - 1))
    def test_alpha_beta_parts_are_subformulas(self, seed):
        f = random_formula(random.Random(seed))
        if group(f) not in ("alpha", "beta"):
            return
        parts = [g for added in premise_additions(GsRule(rule_name(f)), f) for g in added]
        direct = f.body if isinstance(f, Not) else f
        subformulas = {direct.left, direct.right} if not isinstance(direct, Not) else {direct.body}
        for g in parts:
            stripped = g.body if isinstance(g, Not) and g.body in subformulas else g
            assert stripped in subformulas


class TestFreeMetas:
    def test_bound_variable_gives_no_metas(self):
        body = Atom("D", (Var("y"),))
        assert free_metas(body) == ()

    def test_first_occurrence_order(self):
        f = Atom("Q", (Meta("X"), App("f", (Meta("Y"), Meta("X")))))
        assert free_metas(f) == (Meta("X"), Meta("Y"))

    def test_closed_formula(self):
        assert free_metas(parse(DRINKER_NEG)) == ()


class TestApplySubst:
    def test_paper_unifier(self):
        f = Atom("D", (Meta("X"),))
        assert apply_subst({"X": const("c")}, f) == Atom("D", (const("c"),))

    def test_identity(self):
        f = parse(DRINKER_NEG)
        assert apply_subst({}, f) == f

    def test_under_binder(self):
        f = Forall("y", Atom("P", (Meta("X"), Var("y"))))
        expected = Forall("y", Atom("P", (App("f", (const("a"),)), Var("y"))))
        assert apply_subst({"X": App("f", (const("a"),))}, f) == expected

    @given(st.integers(0, 2**32 - 1))
    def test_ground_covering_subst_removes_all_metas(self, seed):
        rng = random.Random(seed)
        from conftest import random_formula_with_metas

        f = random_formula_with_metas(rng, ("X1", "X2"))
        bindings = {m.name: const("a") for m in free_metas(f)}
        assert free_metas(apply_subst(bindings, f)) == ()


class TestMisc:
    def test_subst_var_respects_shadowing(self):
        f = Forall("x", Atom("P", (Var("x"),)))
        assert subst_var(f, "x", const("a")) == f

    def test_alpha_equal(self):
        # Formulas equal up to the names of their bound variables have the
        # same ground instances, which is all the prover reads of a binder.
        def instance(text):
            f = parse(text)
            outer = subst_var(f.body, f.var, const("a"))
            return subst_var(outer.body, outer.var, const("b"))

        same = instance("forall x. exists y. R(x, y)")
        assert instance("forall u. exists v. R(u, v)") == same == parse("R(a, b)")
        assert instance("forall u. exists v. R(v, u)") != same
        assert instance("forall u. exists v. S(u, v)") != same

    def test_outermost_skolem_terms(self):
        inner = App("sko1", ())
        outer = App("sko2", (inner,))
        f = And(Atom("P", (outer,)), Atom("Q", (inner, App("f", (inner,)))))
        assert outermost_skolem_terms(f) == {outer, inner}

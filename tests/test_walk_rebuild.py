"""``formula.walk`` and ``formula.rebuild`` against plain recursive reference
implementations, one per query or rewrite that now runs through them."""

from __future__ import annotations

import sys

from hypothesis import given, strategies as st

from tabseq.formula import (
    MAX_DEPTH,
    And,
    App,
    Atom,
    Exists,
    Forall,
    Implies,
    Meta,
    Not,
    Or,
    Var,
    apply_subst,
    free_metas,
    is_ground_term,
    is_subterm,
    outermost_skolem_terms,
    rebuild,
    subst_var,
    symbols_of,
    walk,
)
from tabseq.gs3 import GsProof
from tabseq.translate import replace_skolem_terms

from conftest import builder_records

# --------------------------------------------------------------- reference


def ref_term_positions(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from ref_term_positions(a)


def ref_positions(x):
    """Every formula and term position, parent first, left to right."""
    yield x
    if isinstance(x, (Atom, App)):
        for a in x.args:
            yield from ref_positions(a)
    elif isinstance(x, (Not, Forall, Exists)):
        yield from ref_positions(x.body)
    elif isinstance(x, (And, Or, Implies)):
        yield from ref_positions(x.left)
        yield from ref_positions(x.right)


def ref_free_metas(x):
    out = []
    for y in ref_positions(x):
        if isinstance(y, Meta) and y not in out:
            out.append(y)
    return tuple(out)


def ref_symbols(x):
    return {y.symbol for y in ref_positions(x) if isinstance(y, App)}


def ref_outermost_skolems(x):
    if isinstance(x, App) and x.is_skolem:
        return {x}
    out = set()
    if isinstance(x, (Atom, App)):
        for a in x.args:
            out |= ref_outermost_skolems(a)
    elif isinstance(x, (Not, Forall, Exists)):
        out |= ref_outermost_skolems(x.body)
    elif isinstance(x, (And, Or, Implies)):
        out |= ref_outermost_skolems(x.left) | ref_outermost_skolems(x.right)
    return out


def ref_is_ground_term(t):
    return not any(isinstance(y, (Meta, Var)) for y in ref_term_positions(t))


def ref_is_subterm(s, t):
    return any(y == s for y in ref_term_positions(t))


def ref_map(f, term):
    """``f`` with ``term`` applied to each of its top-level terms."""
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(term(a) for a in f.args))
    if isinstance(f, Not):
        return Not(ref_map(f.body, term))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(ref_map(f.left, term), ref_map(f.right, term))
    return type(f)(f.var, ref_map(f.body, term))


def ref_apply_subst_term(bindings, t):
    if isinstance(t, Meta):
        return bindings.get(t.name, t)
    if isinstance(t, App):
        return App(t.symbol, tuple(ref_apply_subst_term(bindings, a) for a in t.args))
    return t


def ref_apply_subst(bindings, f):
    return ref_map(f, lambda t: ref_apply_subst_term(bindings, t))


def ref_subst_var(f, var, t):
    def in_term(u):
        if isinstance(u, Var) and u.name == var:
            return t
        if isinstance(u, App):
            return App(u.symbol, tuple(in_term(a) for a in u.args))
        return u

    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(in_term(a) for a in f.args))
    if isinstance(f, Not):
        return Not(ref_subst_var(f.body, var, t))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(ref_subst_var(f.left, var, t), ref_subst_var(f.right, var, t))
    if f.var == var:
        return f
    return type(f)(f.var, ref_subst_var(f.body, var, t))


def ref_replace_skolems(formulas):
    """The formulas with each Skolem symbol's terms replaced by the constant
    ``c<n>`` that ``replace_skolem_terms`` gives it: in the order of the
    symbols' numbers, skipping every symbol in use."""
    symbols = set().union(*map(ref_symbols, formulas))
    constants, counter = {}, 0
    for symbol in sorted((s for s in symbols if s.startswith("sko")), key=lambda s: int(s[3:])):
        counter += 1
        while f"c{counter}" in symbols:
            counter += 1
        constants[symbol] = App(f"c{counter}", ())

    def term(t):
        if isinstance(t, App):
            if t.symbol in constants:
                return constants[t.symbol]
            return App(t.symbol, tuple(term(a) for a in t.args))
        return t

    return tuple(ref_map(f, term) for f in formulas)


# -------------------------------------------------------------- strategies

# Each Skolem symbol has one argument vector, as a translation makes them,
# and the later ones nest the earlier ones.
SKO1 = App("sko1", ())
SKO2 = App("sko2", (Meta("X1"),))
SKO3 = App("sko3", (App("f", (SKO1,)),))
SKO4 = App("sko4", (SKO3, SKO2))
NAMES = st.sampled_from(["x", "y"])

leaves = st.one_of(
    st.builds(Var, NAMES),
    st.sampled_from([Meta("X1"), Meta("X2"), App("a"), App("c1"), SKO1, SKO2, SKO3, SKO4]),
)
terms = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(lambda t: App("f", (t,)), inner),
        st.builds(lambda s, t: App("g", (s, t)), inner, inner),
    ),
    max_leaves=6,
)
atoms = st.builds(lambda p, args: Atom(p, tuple(args)), st.sampled_from("PQ"),
                  st.lists(terms, max_size=3))
# Binders draw from two names, so shadowed binders and free bound
# variables are common.
formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Forall, NAMES, inner),
        st.builds(Exists, NAMES, inner),
    ),
    max_leaves=10,
)
bindings = st.dictionaries(st.sampled_from(["X1", "X2", "X3"]), terms, max_size=3)
nodes = st.one_of(formulas, terms)

# ------------------------------------------------------------------- tests


@given(nodes)
def test_walk_is_preorder_in_document_order(x):
    assert list(walk(x)) == list(ref_positions(x))


@given(nodes)
def test_queries_match_the_reference(x):
    assert free_metas(x) == ref_free_metas(x)
    assert outermost_skolem_terms(x) == ref_outermost_skolems(x)
    assert symbols_of(x) == ref_symbols(x)


@given(terms, terms)
def test_term_queries_match_the_reference(s, t):
    assert is_ground_term(t) == ref_is_ground_term(t)
    assert is_subterm(s, t) == ref_is_subterm(s, t)
    assert is_subterm(t, t)


@given(bindings, formulas, terms)
def test_apply_subst_matches_the_reference(b, f, t):
    assert apply_subst(b, f) is ref_apply_subst(b, f)
    assert apply_subst(b, t) is ref_apply_subst_term(b, t)


@given(formulas, NAMES, terms)
def test_subst_var_matches_the_reference(f, var, t):
    assert subst_var(f, var, t) is ref_subst_var(f, var, t)


def test_subst_var_keeps_a_shadowing_binder_whole():
    inner = Exists("x", Atom("P", (Var("x"), Var("y"))))
    f = And(Atom("P", (Var("x"),)), inner)
    assert subst_var(f, "x", App("a")) == And(Atom("P", (App("a"),)), inner)
    assert subst_var(inner, "x", App("a")) is inner


@given(st.lists(formulas, min_size=1, max_size=3))
def test_replace_skolem_terms_matches_the_reference(fs):
    proof = replace_skolem_terms(*builder_records(GsProof(tuple(fs))))
    assert proof.sequent == ref_replace_skolems(fs)


@given(nodes)
def test_an_unchanged_rebuild_is_the_node_itself(x):
    assert rebuild(x, lambda y: None) is x
    assert apply_subst({"X9": App("a")}, x) is x


def test_max_depth_formula_under_the_default_recursion_limit():
    """A quantifier prefix over an atom whose argument is a nested term with
    a Skolem term, a metavariable and the bound variable at the bottom,
    ``MAX_DEPTH`` levels in all: every level is rebuilt."""
    half = MAX_DEPTH // 2
    t = App("g", (Var("x"), App("sko1", (Meta("X1"),))))
    while t.height < half:
        t = App("f", (t,))
    f = Atom("P", (t,))
    while f.height < MAX_DEPTH - 1:
        f = Not(f)
    f = Forall("x", f)
    assert f.height == MAX_DEPTH
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        instance = subst_var(f.body, "x", App("a"))
        ground = apply_subst({"X1": App("b")}, instance)
        skolems = outermost_skolem_terms(f)
        metas = free_metas(f)
    finally:
        sys.setrecursionlimit(limit)
    assert ground.height == MAX_DEPTH - 1 and not free_metas(ground)
    assert symbols_of(ground) == {"a", "b", "f", "g", "sko1"}
    assert skolems == {App("sko1", (Meta("X1"),))}
    assert metas == (Meta("X1"),)

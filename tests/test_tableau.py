import dataclasses
import random
import re
import sys

import pytest

from tabseq import gs3, tableau
from tabseq.formula import (
    App,
    Atom,
    Meta,
    Not,
    Var,
    apply_subst,
    const,
    free_metas,
    parse,
    print_formula,
    symbols_of,
)
from tabseq.gs3 import RULE_GROUPS, GsProof, GsRule, rule_name
from tabseq.problems import HAND_GOALS, corpus
from tabseq.tableau import (
    CLOSURE,
    AuditError,
    ClosedTableau,
    Exhausted,
    FormatError,
    NameSupply,
    RuleInstance,
    TableauError,
    TableauNode,
    audit_closed_tableau,
    close,
    closure_constraints,
    expand,
    iter_nodes,
    open_leaves,
    prove,
    render_tableau,
    rule_count,
    tableau_from_json,
    tableau_to_json,
)
from tabseq.translate import translate
from tabseq.unify import Constraint, groundify, solve

from conftest import node_at, rule_kinds

DRINKER_NEG = "~(exists x. (D(x) => forall y. D(y)))"


class TestExpand:
    def test_delta_ignores_metas_outside_the_body(self):
        # the only metavariable at the leaf does not occur in D(y), so the
        # Skolem term is a fresh constant
        root = TableauNode((Not(parse("forall y. D(y)")), Atom("P", (Meta("X"),))))
        expand(root, root.formulas[0], NameSupply())
        (child,) = root.children
        assert child.formulas[-1] == Not(Atom("D", (App("sko1", ()),)))
        assert root.rule.witness == App("sko1", ())

    def test_delta_collects_occurring_metas(self):
        from tabseq.formula import Forall

        f = Not(Forall("y", Atom("Q", (Meta("X"), Var("y")))))
        root = TableauNode((f,))
        expand(root, f, NameSupply())
        assert root.rule.witness == App("sko1", (Meta("X"),))
        (child,) = root.children
        assert child.formulas[-1] == Not(Atom("Q", (Meta("X"), App("sko1", (Meta("X"),)))))

    def test_gamma_introduces_fresh_meta(self):
        f = parse(DRINKER_NEG)
        root = TableauNode((f,))
        expand(root, f, NameSupply())
        (child,) = root.children
        intro = child.formulas[-1]
        assert intro == parse("~(D(X1) => forall y. D(y))", allow_generated=True)
        assert root.rule.witness == Meta("X1")

    def test_beta_splits_into_two_children(self):
        f = parse("A | B")
        root = TableauNode((f,))
        expand(root, f, NameSupply())
        assert len(root.children) == 2
        assert root.children[0].formulas == (f, Atom("A", ()))
        assert root.children[1].formulas == (f, Atom("B", ()))

    def test_children_supersets_of_parent(self):
        f = parse("~(P => Q)")
        root = TableauNode((f, Atom("R", ())))
        expand(root, f, NameSupply())
        (child,) = root.children
        assert child.formulas[: len(root.formulas)] == root.formulas

    def test_errors(self):
        f = parse("P & Q")
        root = TableauNode((f,))
        with pytest.raises(TableauError, match="not at leaf"):
            expand(root, parse("P | Q"), NameSupply())
        with pytest.raises(TableauError, match="literal"):
            expand(TableauNode((Atom("P", ()),)), Atom("P", ()), NameSupply())
        expand(root, f, NameSupply())
        with pytest.raises(TableauError, match="not an open leaf"):
            expand(root, f, NameSupply())

    def test_extends_the_leaf_in_place(self):
        f = parse("A | B")
        root = TableauNode((parse("P & Q"), f))
        expand(root, root.formulas[0], NameSupply())
        (leaf,) = root.children
        expand(leaf, f, NameSupply())
        assert root.children == (leaf,)
        assert leaf.rule.principal == f and len(leaf.children) == 2

    def test_name_supply_avoids_input_symbols(self):
        names = NameSupply(avoid={"sko1", "X1"})
        assert names.fresh_meta() == Meta("X2")
        assert names.fresh_skolem_symbol() == "sko2"


class TestClose:
    def test_unifiable_pair_closes_and_stores_constraint(self):
        pos = Atom("D", (Meta("X"),))
        neg = Not(Atom("D", (const("c"),)))
        root = TableauNode((pos, neg))
        sigma = close(root, {}, pos, neg)
        assert sigma == {"X": const("c")}
        assert root.rule.kind == "closure"
        assert root.rule.closure_pair == (pos, neg)
        assert root.children == () and root.rule.introduced == ()
        assert closure_constraints(root) == [Constraint(pos, neg.body)]

    def test_ground_identical_literals(self):
        pos, neg = Atom("P", ()), Not(Atom("P", ()))
        sigma = {"X": const("a")}
        assert close(TableauNode((pos, neg)), sigma, pos, neg) is sigma

    def test_constant_clash_refused(self):
        pos = Atom("P", (const("a"),))
        neg = Not(Atom("P", (const("b"),)))
        result = close(TableauNode((pos, neg)), {}, pos, neg)
        assert result is None

    def test_refusal_leaves_store_untouched(self):
        sigma = {"X": const("a")}
        pos = Atom("P", (Meta("X"),))
        neg = Not(Atom("P", (const("b"),)))
        assert close(TableauNode((pos, neg)), sigma, pos, neg) is None
        assert sigma == {"X": const("a")}

    def test_refusal_leaves_the_leaf_open(self):
        pos = Atom("P", (const("a"),))
        neg = Not(Atom("P", (const("b"),)))
        root = TableauNode((pos, neg))
        assert close(root, {}, pos, neg) is None
        assert root.rule is None and root.children == ()
        assert open_leaves(root) == [()]

    def test_closes_the_leaf_in_place(self):
        pos, neg = Atom("P", ()), Not(Atom("P", ()))
        root = TableauNode((pos, neg))
        assert close(root, {}, pos, neg) == {}
        assert root.rule.kind == "closure"
        assert open_leaves(root) == []


class TestProve:
    def test_drinker_reproduces_four_rule_derivation(self):
        ct = prove([parse(DRINKER_NEG)])
        assert isinstance(ct, ClosedTableau)
        assert rule_kinds(ct.root) == ["gamma", "alpha", "delta", "closure"]
        # the single closure pair gives the constraint D(X) = D(c)
        (c,) = closure_constraints(ct.root)
        assert c.lhs == Atom("D", (Meta("X1"),))
        assert c.rhs == Atom("D", (App("sko1", ()),))
        assert ct.unifier == {"X1": App("sko1", ())}

    def test_propositional_identity(self):
        ct = prove([parse("~(P => P)")])
        assert rule_kinds(ct.root) == ["alpha", "closure"]
        assert ct.unifier == {}

    def test_forall_instantiation(self):
        ct = prove([parse("~((forall x. P(x)) => P(a))")])
        assert rule_kinds(ct.root) == ["alpha", "gamma", "closure"]
        assert ct.unifier == {"X1": const("a")}

    def test_satisfiable_input_exhausts(self):
        result = prove([parse("P & ~Q")])
        assert isinstance(result, Exhausted)

    def test_gamma_limit_bounds_reuse(self):
        # closing this one needs the root universal twice on the same branch
        goal = parse(
            "~(exists x. (D(x) => forall y. exists z. (E(y, z) => forall w. E(z, w))))"
        )
        assert isinstance(prove([goal], gamma_limit=1), Exhausted)
        assert isinstance(prove([goal], gamma_limit=2), ClosedTableau)

    def test_a_gamma_limit_beyond_any_index_changes_no_tableau(self):
        """Gamma buckets are made as a formula's uses reach them, so a limit
        no tuple could be that long neither fails nor costs a step: goals
        that close within two uses get the same tableau, and a branch that
        never closes stops at the depth limit."""
        for name, goal in corpus(200, 3):
            low = prove([Not(goal)])
            assert tableau_to_json(prove([Not(goal)], gamma_limit=10**20)) == tableau_to_json(low), name
        endless = parse("~((forall x. (P(x) => P(f(x)))) => (P(a) => P(f(f(a)))))")
        assert prove([endless], gamma_limit=10**20, depth_limit=30).reason == "depth limit reached"

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            prove([parse("P")], gamma_limit=0)
        with pytest.raises(ValueError):
            prove([parse("P")], depth_limit=0)

    def test_deterministic_serialization(self):
        first = tableau_to_json(prove([parse(DRINKER_NEG)]))
        second = tableau_to_json(prove([parse(DRINKER_NEG)]))
        assert first == second

    def test_fresh_names_skip_input_symbols(self):
        # a user constant k1 must not collide with groundification output
        ct = prove([parse("~((forall x. R(x, k1)) => exists y. R(y, k1))")])
        assert isinstance(ct, ClosedTableau)
        audit_closed_tableau(ct)

    def test_unifier_equates_every_closure_pair(self):
        ct = prove([parse(DRINKER_NEG)])
        for _, node in _rule_nodes(ct):
            if node.rule.closure_pair is not None:
                pos, neg = node.rule.closure_pair
                assert apply_subst(ct.unifier, pos) == apply_subst(ct.unifier, neg.body)

    def test_audit_passes_on_proofs(self):
        for text in (DRINKER_NEG, "~(P => P)", "~((forall x. P(x)) => P(a))"):
            ct = prove([parse(text)])
            audit_closed_tableau(ct)

    def test_refused_closure_leaves_room_for_a_consistent_one(self):
        # Closing the ~Q(X1) branch binds X1 to a; the ~R(X1) branch must
        # then refuse R(b), which clashes with that binding, and close on R(a).
        gamma = [
            parse("Q(a)"),
            parse("R(b)"),
            parse("R(a)"),
            parse("forall x. (~Q(x) | ~R(x))"),
        ]
        ct = prove(gamma)
        assert isinstance(ct, ClosedTableau)
        pairs = [n.rule.closure_pair for _, n in iter_nodes(ct.root)
                 if n.rule is not None and n.rule.kind == CLOSURE]
        assert pairs == [(parse("Q(a)"), parse("~Q(X1)", allow_generated=True)),
                         (parse("R(a)"), parse("~R(X1)", allow_generated=True))]

    def test_multiset_root(self):
        ct = prove([parse("P"), parse("~P")])
        assert rule_kinds(ct.root) == ["closure"]


def wide(n: int):
    conj = " & ".join(f"P{i}" for i in range(n))
    return parse(f"~(({conj}) => ({conj}))")


def closure_count(ct: ClosedTableau) -> int:
    return sum(1 for _, n in iter_nodes(ct.root) if n.rule is not None and n.rule.kind == CLOSURE)


def old_order_pairs(formulas):
    """Every closure candidate of a leaf, in the order ``prove`` tries them:
    atoms by position, each against the negated atoms of its predicate and
    arity by position."""
    for pos in formulas:
        if isinstance(pos, Atom):
            for neg in formulas:
                if (isinstance(neg, Not) and isinstance(neg.body, Atom)
                        and neg.body.predicate == pos.predicate
                        and len(neg.body.args) == len(pos.args)):
                    yield pos, neg


def reference_close(node, store, pos, neg):
    """``close`` as it was first written: the leaf closes if a solve of
    the whole list of closure constraints ``store``, with the pair's
    constraint added, finds a unifier.  It keeps no unifier between
    closures, and returns the grown list."""
    grown = store + [Constraint(pos, neg.body)]
    if solve(grown) is None:
        return None
    node.rule = RuleInstance(CLOSURE, None, (), closure_pair=(pos, neg))
    return grown


def reference_prove(formulas, gamma_limit=2, depth_limit=200):
    """``prove`` as a plain search: every leaf tries all its closure
    candidates in the old order, each against a solve of the whole store,
    scans and classifies every formula of the leaf for its principal at
    every step, and walks every introduced formula for metavariables and
    symbols."""
    priority = {"alpha": 0, "delta": 1, "beta": 2, "gamma": 3}
    gamma = tuple(formulas)
    symbols = set()
    for f in gamma:
        symbols |= symbols_of(f)
    names = NameSupply(symbols)
    root = TableauNode(gamma)
    store = []
    steps = 0
    metas, gamma_metas = {}, []
    pending = [(root, 0, {}, gamma)]
    while pending:
        node, depth, uses, introduced = pending.pop()
        for f in introduced:
            metas.update(dict.fromkeys(free_metas(f)))
            symbols |= symbols_of(f)
        closed = None
        for pos, neg in old_order_pairs(node.formulas):
            closed = reference_close(node, store, pos, neg)
            if closed is not None:
                break
        if closed is not None:
            store = closed
            steps += 1
            continue
        if depth >= depth_limit:
            return Exhausted("depth limit reached", steps)
        candidates = []
        for index, f in enumerate(node.formulas):
            kind = RULE_GROUPS.get(rule_name(f))
            if kind is not None:
                used = uses.get(f, 0)
                if used < (gamma_limit if kind == "gamma" else 1):
                    candidates.append(((priority[kind], used, index), f))
        if not candidates:
            return Exhausted("no closure and no usable formula on a branch", steps)
        principal = min(candidates)[1]
        expand(node, principal, names)
        steps += 1
        if node.rule.kind == "gamma":
            gamma_metas.append(node.rule.witness)
        child_uses = {**uses, principal: uses.get(principal, 0) + 1}
        for child, extra in zip(reversed(node.children), reversed(node.rule.introduced)):
            pending.append((child, depth + 1, child_uses, extra))
    metas.update(dict.fromkeys(gamma_metas))
    return ClosedTableau(root, groundify(solve(store), metas, symbols))


def close_rightmost_first(formulas, gamma_limit=2, max_steps=200):
    """A tree of ``formulas`` closed with ``expand`` and ``close`` on the
    rightmost open leaf first, the reverse of ``prove``'s order: a leaf
    closes on its first candidate pair that ``close`` accepts under the
    unifier of the closures before it, or else expands its least used
    formula, alpha before delta before beta before gamma and the oldest
    first, each gamma formula at most ``gamma_limit`` times on a branch.
    Returns the root and the closure constraints in the order the leaves
    closed."""
    priority = {"alpha": 0, "delta": 1, "beta": 2, "gamma": 3}
    names = NameSupply(set().union(*map(symbols_of, formulas)))
    root = TableauNode(tuple(formulas))
    sigma, store = {}, []
    pending = [(root, {})]  # each open leaf with its branch's uses, rightmost last
    for _ in range(max_steps):
        if not pending:
            return root, store
        node, uses = pending.pop()
        closed = None
        for pos, neg in old_order_pairs(node.formulas):
            closed = close(node, sigma, pos, neg)
            if closed is not None:
                sigma = closed
                store.append(Constraint(pos, neg.body))
                break
        if closed is not None:
            continue
        candidates = []
        for index, f in enumerate(node.formulas):
            kind = RULE_GROUPS.get(rule_name(f))
            if kind is not None and uses.get(f, 0) < (gamma_limit if kind == "gamma" else 1):
                candidates.append(((priority[kind], uses.get(f, 0), index), f))
        principal = min(candidates)[1]
        expand(node, principal, names)
        child_uses = {**uses, principal: uses.get(principal, 0) + 1}
        pending.extend((child, child_uses) for child in node.children)
    raise AssertionError(f"not closed in {max_steps} steps")


@pytest.mark.parametrize("name", ["drinker-under-or", "nested-skolem"])
def test_a_tableau_closed_rightmost_leaf_first_is_grounded_and_accepted(name):
    """``ground`` reads the unifier off the tree alone, so a tree closed in
    another order than ``prove``'s passes the audit, the audited
    translation and the checker, also after a write and read-back."""
    goal = Not(parse(dict(HAND_GOALS)[name]))
    root, store = close_rightmost_first([goal])
    ct = tableau.ground(root)
    if name == "drinker-under-or":
        # Three branches, closed right to left: the store the leaves built
        # is the reverse of the closure pairs in preorder.
        assert store == closure_constraints(root)[::-1]
        assert tableau_to_json(ct) != tableau_to_json(prove([goal]))
    audit_closed_tableau(ct)
    assert gs3.check(translate(ct)).accepted
    back = tableau_from_json(tableau_to_json(ct))
    assert gs3.check(translate(back)).accepted


def refusal_goal(seed: int) -> list:
    """Seeded inputs on which a closure pair is refused at a leaf that is
    then expanded, so the pair is still on the branch below it: closing
    the ~Q(X1) branch binds X1, after which the other branch's ~R(X1)
    clashes with each R atom, and the branch goes on to T | ~S(X1)."""
    rng = random.Random(seed)
    a, b, c = rng.sample("abcd", 3)
    texts = [f"Q({a})", f"R({b})", f"R({c})", f"S({rng.choice((a, b, c))})", "~T",
             "forall x. (~Q(x) | (~R(x) & (T | ~S(x))))"]
    texts += [f"{rng.choice(('', '~'))}{rng.choice('QRS')}({rng.choice('abcd')})"
              for _ in range(rng.randrange(3))]
    rng.shuffle(texts)
    return [parse(t) for t in texts]


class TestClosureCandidates:
    def test_solve_runs_once_per_closure_and_in_ground_on_wide_40(self, monkeypatch):
        solved, closes = [], []
        real_solve, real_close = tableau.solve, tableau.close
        monkeypatch.setattr(tableau, "solve", lambda constraints, sigma=None: (
            solved.append(1) or real_solve(constraints, sigma)))
        monkeypatch.setattr(tableau, "close", lambda node, sigma, pos, neg: (
            closes.append(1) or real_close(node, sigma, pos, neg)))
        ct = prove([wide(40)])
        assert isinstance(ct, ClosedTableau)
        assert closure_count(ct) == 40 and len(closes) == 40
        assert len(solved) == len(closes) + 1

    def test_a_leaf_tries_only_pairs_with_a_literal_its_rule_introduced(self, monkeypatch):
        tried = []
        real = tableau.close
        monkeypatch.setattr(tableau, "close", lambda node, sigma, pos, neg: (
            tried.append((node, pos, neg)) or real(node, sigma, pos, neg)))
        inputs = [[Not(goal)] for _, goal in corpus()] + [refusal_goal(s) for s in range(10)]
        for formulas in inputs:
            tried.clear()
            result = prove(formulas)
            if isinstance(result, Exhausted):
                continue
            fresh = {result.root: result.root.formulas}
            for _, node in iter_nodes(result.root):
                for child in node.children:
                    fresh[child] = child.formulas[len(node.formulas):]
            for node, pos, neg in tried:
                assert pos in fresh[node] or neg in fresh[node]

    def test_refused_pairs_left_on_the_branch_change_no_outcome(self, monkeypatch):
        refused_at = []
        real = tableau.close

        def spy(node, sigma, pos, neg):
            extended = real(node, sigma, pos, neg)
            if extended is None:
                refused_at.append(node)
            return extended

        monkeypatch.setattr(tableau, "close", spy)
        expanded_after_refusal = 0
        for seed in range(60):
            formulas = refusal_goal(seed)
            refused_at.clear()
            result = prove(formulas, 2, 30)
            expected = reference_prove(formulas, 2, 30)
            if isinstance(result, Exhausted):
                assert result == expected
                continue
            assert tableau_to_json(result) == tableau_to_json(expected)
            expanded_after_refusal += any(n.rule.kind != CLOSURE for n in refused_at)
        assert expanded_after_refusal >= 10


def _rule_nodes(ct):
    from tabseq.tableau import iter_nodes

    return [(p, n) for p, n in iter_nodes(ct.root) if n.rule is not None]


class TestSerialization:
    def test_round_trip_is_bit_stable(self):
        ct = prove([parse(DRINKER_NEG)])
        text = tableau_to_json(ct)
        again = tableau_to_json(tableau_from_json(text))
        assert text == again

    def test_round_trip_preserves_structure(self):
        ct = prove([parse(DRINKER_NEG)])
        loaded = tableau_from_json(tableau_to_json(ct))
        assert rule_kinds(loaded.root) == rule_kinds(ct.root)
        assert loaded.root.formulas == ct.root.formulas
        assert loaded.unifier == ct.unifier
        audit_closed_tableau(loaded)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"root": {"formulas": ["P"], "rule": null, "children": []}}',
            '{"root": {"formulas": ["P("], "rule": null, "children": [], "closed": true}, "store": [], "unifier": []}',
            '{"root": {"formulas": ["P"], "rule": null, "children": [], "closed": true}, "store": [], "unifier": ["oops"]}',
            '{"root": {"formulas": ["P"], "rule": {"class": "zeta", "principal": "P", "introduced": []}, "children": [], "closed": false}, "store": [], "unifier": []}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            tableau_from_json(text)

    def test_render_smoke(self):
        ct = prove([parse(DRINKER_NEG)])
        text = render_tableau(ct)
        assert "gamma" in text and "closure" in text and "X1 := sko1" in text


class TestInPlaceGrowth:
    @pytest.mark.parametrize("text", [
        DRINKER_NEG,
        "~((P | Q) => (Q | P))",
        "~(exists x. (D(x) => forall y. exists z. (E(y, z) => forall w. E(z, w))))",
    ])
    def test_no_node_object_appears_twice(self, text):
        from tabseq.tableau import iter_nodes

        ct = prove([parse(text)])
        ids = [id(n) for _, n in iter_nodes(ct.root)]
        assert len(ids) == len(set(ids))

    def test_open_leaves_are_taken_leftmost_first(self):
        # min(open_leaves(root)) order: each branch's gamma step takes the
        # next metavariable, so X1..X4 follow the branches left to right
        from tabseq.tableau import iter_nodes

        gamma = [parse(t) for t in (
            "(forall x. P(x)) | (forall y. Q(y))",
            "(forall z. R(z)) | (forall w. S(w))",
            "~P(a)", "~Q(a)", "~R(a)", "~S(a)",
        )]
        ct = prove(gamma)
        metas = [n.rule.witness.name for _, n in iter_nodes(ct.root)
                 if n.rule is not None and n.rule.kind == "gamma"]
        assert metas == ["X1", "X2", "X3", "X4"]


class TestRecords:
    """The rule instances and constraints are immutable named tuples; the
    tableau and sequent-proof nodes are slotted, so that only their own
    fields, which the builders set once, can be set."""

    def test_rule_instances_and_constraints_refuse_assignment(self):
        f = parse("P & Q")
        rule = RuleInstance("alpha", f, ((f.left, f.right),))
        constraint = Constraint(Meta("X1"), const("a"))
        for record, field in ((rule, "kind"), (rule, "introduced"), (constraint, "lhs")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert rule == RuleInstance("alpha", f, ((f.left, f.right),), None, None)
        assert constraint == Constraint(Meta("X1"), const("a"))

    def test_nodes_refuse_new_attributes(self):
        node = TableauNode((parse("P"),))
        proof = GsProof((parse("P"),))
        for record in (node, proof):
            with pytest.raises(AttributeError):
                record.note = "set"
            assert not hasattr(record, "__dict__")
        node.rule = RuleInstance(CLOSURE, None, (), None, (parse("P"), parse("~P")))
        proof.rule = GsRule("axiom")
        assert node.rule.kind == CLOSURE and proof.rule == GsRule("axiom")


class TestNonDestructivity:
    def test_every_child_contains_its_parent(self):
        from collections import Counter

        from tabseq.tableau import iter_nodes

        ct = prove([parse("~((P | Q) => (Q | P))")])
        assert isinstance(ct, ClosedTableau)
        for path, node in iter_nodes(ct.root):
            for child in node.children:
                assert not (Counter(node.formulas) - Counter(child.formulas))

    def test_skolem_symbols_fresh_at_introduction(self):
        ct = prove([parse("~(exists x. (D(x) => forall y. exists z. (E(y, z) => forall w. E(z, w))))")])
        audit_closed_tableau(ct)


def double_negation_chain(depth: int) -> ClosedTableau:
    """A closed tableau of ``~~P, ~P`` that applies the alpha rule to
    ``~~P`` on each of ``depth`` nodes in a row, then closes on P, ~P."""
    nn, p, np = parse("~~P"), parse("P"), parse("~P")
    alpha = RuleInstance("alpha", nn, ((p,),))
    formulas = (nn, np)
    root = node = TableauNode(formulas)
    for _ in range(depth):
        formulas += (p,)
        child = TableauNode(formulas)
        node.rule, node.children = alpha, (child,)
        node = child
    node.rule = RuleInstance(CLOSURE, None, (), closure_pair=(p, np))
    return ClosedTableau(root, {})


class TestAudit:
    def test_a_tableau_deeper_than_the_recursion_limit_is_audited(self):
        ct = double_negation_chain(1100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            audit_closed_tableau(ct)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_broken_deep_chain_is_reported_where_it_breaks(self):
        ct = double_negation_chain(1100)
        path = (0,) * 1050
        node_at(ct.root, path).formulas += (parse("Q"),)
        with pytest.raises(AuditError, match=f"not parent plus introduced at {'0' * 1049}$"):
            audit_closed_tableau(ct)

    @pytest.mark.parametrize("kind", ["alpha", "beta", "gamma", "delta"])
    def test_introduced_formulas_must_decompose_the_principal(self, kind):
        # Each forgery keeps every child equal to its parent plus the
        # introduced formulas: only the decomposition is wrong.
        text = {"alpha": "~((P & Q) => P)", "beta": "~((P | Q) => (Q | P))",
                "gamma": "~((forall x. P(x)) => P(a))", "delta": DRINKER_NEG}[kind]
        ct = prove([parse(text)])
        path, node = next((p, n) for p, n in iter_nodes(ct.root)
                          if n.rule is not None and n.rule.kind == kind)
        rule = node.rule
        if kind == "beta":
            # The branches swapped.
            introduced = rule.introduced[::-1]
            node.children = node.children[::-1]
        else:
            # One more formula, on the child and below it.
            introduced = (rule.introduced[0] + (parse("S"),),)
            for _, below in iter_nodes(node.children[0]):
                below.formulas += (parse("S"),)
        node.rule = RuleInstance(rule.kind, rule.principal, introduced, rule.witness)
        with pytest.raises(AuditError, match=f"^{kind} rule is not the expansion of its principal "
                                             f"at {''.join(map(str, path)) or '[(]root[)]'}$"):
            audit_closed_tableau(ct)

    def test_rule_kind_must_be_the_principal_class(self):
        ct = prove([parse("~((P & Q) => P)")])
        alpha = next(n for _, n in iter_nodes(ct.root) if n.rule is not None
                     and n.rule.kind == "alpha" and n.rule.principal == parse("P & Q"))
        alpha.rule = RuleInstance("beta", alpha.rule.principal, alpha.rule.introduced)
        with pytest.raises(AuditError, match="^beta rule is not the expansion of its principal"):
            audit_closed_tableau(ct)

    def test_first_violation_is_the_first_in_preorder(self):
        # A fault deep in the left branch comes before a bad multiset of
        # the right child, although the right child hangs off a node
        # visited earlier.
        ct = prove([parse("~((P | Q) => (Q | P))")])
        assert isinstance(ct, ClosedTableau)
        beta = next(p for p, n in iter_nodes(ct.root) if n.rule is not None and n.rule.kind == "beta")
        closure = next(p for p, n in iter_nodes(node_at(ct.root, beta + (0,)))
                       if n.rule is not None and n.rule.kind == CLOSURE)
        closure = beta + (0,) + closure
        node = node_at(ct.root, closure)
        rule = node.rule
        node.rule = rule._replace(closure_pair=None)
        node_at(ct.root, beta + (1,)).formulas += (parse("R"),)
        with pytest.raises(AuditError, match="closure is not a pair with no children"):
            audit_closed_tableau(ct)
        node.rule = rule
        with pytest.raises(AuditError, match="child multiset is not parent plus introduced"):
            audit_closed_tableau(ct)



class TestAuditRefusals:
    """Each refusal of ``audit_closed_tableau`` on the negated drinker
    goal's tableau (gamma at the root, then alpha, delta and closure down
    one branch), altered in one place, pinned by its message.  A rule that
    ``expand`` or ``close`` does not make is refused by the audit and the
    ``.tab`` writer alike: ``test_tab_v4.test_the_audit_and_the_writer_agree``
    pins those cases."""

    @staticmethod
    def drinker(kind: str):
        ct = prove([parse(DRINKER_NEG)])
        node = next(n for _, n in iter_nodes(ct.root) if n.rule is not None and n.rule.kind == kind)
        return ct, node

    @staticmethod
    def refused(ct: ClosedTableau, message: str) -> None:
        with pytest.raises(AuditError, match=f"^{re.escape(message)}$"):
            audit_closed_tableau(ct)

    def test_open_leaf(self):
        ct, node = self.drinker(CLOSURE)
        node.rule, node.children = None, ()
        self.refused(ct, "open leaf at 000")

    def test_closure_pair_absent(self):
        ct, node = self.drinker(CLOSURE)
        node.rule = node.rule._replace(closure_pair=(parse("Q"), parse("~Q")))
        self.refused(ct, "closure pair absent at 000")

    def test_skolem_before_its_delta_step(self):
        # Q(sko1) on every node keeps each child its parent plus the
        # introduced formulas, as multisets.
        ct, node = self.drinker("delta")
        q = Atom("Q", (node.rule.witness,))
        for _, n in iter_nodes(ct.root):
            n.formulas += (q,)
        self.refused(ct, "skolem sko1 occurs before its delta step")

    def test_unifier_range_with_a_metavariable(self):
        ct, _ = self.drinker("gamma")
        self.refused(dataclasses.replace(ct, unifier={"X1": Meta("X2")}),
                     "unifier range for X1 contains a metavariable")

    def test_unifier_that_does_not_equate_a_closure_pair(self):
        ct, _ = self.drinker("gamma")
        self.refused(dataclasses.replace(ct, unifier={"X1": const("c")}),
                     "unifier does not equate closure pair at 000")


def test_prove_agrees_with_the_reference_search():
    """The incremental closure test and the principal buckets against the
    plain search, on the search digest's inputs, the wide family and the
    refusal goals, under each of the digest's limits: the same Exhausted
    result or the same ``.tab`` bytes."""
    from test_search_digest import LIMITS, inputs

    goals = [formulas for _, formulas in inputs()]
    goals += [[wide(n)] for n in range(8, 41)]
    goals += [refusal_goal(seed) for seed in range(60)]
    closed = 0
    for formulas in goals:
        for gamma_limit, depth_limit in LIMITS:
            result = prove(formulas, gamma_limit, depth_limit)
            expected = reference_prove(formulas, gamma_limit, depth_limit)
            if isinstance(expected, Exhausted):
                assert result == expected
            else:
                closed += 1
                assert tableau_to_json(result) == tableau_to_json(expected)
    assert closed > len(goals)

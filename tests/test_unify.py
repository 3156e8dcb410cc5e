import random

import pytest
from hypothesis import given, strategies as st

from tabseq.formula import (App, Atom, Meta, Not, apply_subst, const, free_metas, parse,
                            parse_term)
from tabseq.unify import Constraint, ConstraintStore, consistent, groundify, solve


def pair(lhs, rhs) -> Constraint:
    """The constraint of two literals, or of the unary atoms E(s), E(t) for
    two terms s and t."""
    if isinstance(lhs, (Meta, App)):
        lhs, rhs = Atom("E", (lhs,)), Atom("E", (rhs,))
    return Constraint(lhs, rhs)


def term_store(*pairs):
    return ConstraintStore(tuple(pair(l, r) for l, r in pairs))


class TestSolve:
    def test_atom_pair(self):
        store = term_store((Atom("D", (Meta("X"),)), Atom("D", (const("c"),))))
        sigma = solve(store)
        assert sigma is not None
        assert sigma == {"X": const("c")}

    def test_empty_store_gives_identity(self):
        sigma = solve(ConstraintStore())
        assert sigma == {}

    def test_occurs_check(self):
        store = term_store((Meta("X"), App("f", (Meta("X"),))))
        assert solve(store) is None

    def test_symbol_clash(self):
        assert solve(term_store((const("a"), const("b")))) is None

    def test_arity_clash(self):
        assert solve(term_store((App("f", (const("a"),)), App("f", (const("a"), const("b")))))) is None

    def test_predicate_clash_between_atoms(self):
        assert solve(term_store((Atom("P", ()), Atom("Q", ())))) is None

    def test_one_quantified_formula_on_both_sides_is_still_refused(self):
        f = parse("forall x. P(x)")
        for side in (f, Not(f)):
            assert solve(term_store((side, side))) is None

    def test_only_two_atoms_or_two_negated_atoms_unify(self):
        p, q = Atom("P", (Meta("X"),)), Atom("P", (const("a"),))
        assert solve(term_store((Not(p), Not(q)))) is not None
        for lhs, rhs in [(p, Not(q)), (Not(Not(p)), Not(Not(q))),
                         (parse("P(a) & Q"), parse("P(a) & Q")), (parse("P | Q"), parse("P | R"))]:
            assert solve(term_store((lhs, rhs))) is None

    def test_a_term_sided_constraint_is_refused(self):
        a = const("a")
        for lhs, rhs in [(Meta("X"), a), (a, a), (Meta("X"), Atom("P", (a,)))]:
            assert solve(ConstraintStore((Constraint(lhs, rhs),))) is None

    def test_negated_literal_constraint(self):
        store = term_store((Not(Atom("P", (Meta("X"),))), Not(Atom("P", (const("a"),)))))
        sigma = solve(store)
        assert sigma is not None and apply_subst(sigma, Meta("X")) == const("a")

    def test_chained_bindings_stay_idempotent(self):
        # X = f(Y), Y = a: the final range must not mention Y
        store = term_store((Meta("X"), App("f", (Meta("Y"),))), (Meta("Y"), const("a")))
        sigma = solve(store)
        assert sigma is not None
        assert apply_subst(sigma, Meta("X")) == App("f", (const("a"),))

    def test_soundness_on_every_constraint(self):
        store = term_store(
            (App("f", (Meta("X"), Meta("Y"))), App("f", (Meta("Y"), const("a")))),
            (Atom("P", (Meta("Z"),)), Atom("P", (App("g", (Meta("X"),)),))),
        )
        sigma = solve(store)
        assert sigma is not None
        for c in store.constraints:
            assert apply_subst(sigma, c.lhs) == apply_subst(sigma, c.rhs)


class TestConsistent:
    def test_closure_candidate_accepted(self):
        extra = [Constraint(Atom("D", (Meta("X"),)), Atom("D", (const("c"),)))]
        assert consistent(ConstraintStore(), extra)

    def test_constant_clash_rejected(self):
        store = term_store((Meta("X"), const("a")))
        assert not consistent(store, [pair(Meta("X"), const("b"))])

    def test_occurs_cycle_through_composition(self):
        store = term_store((Meta("X"), App("f", (Meta("Y"),))))
        extra = [pair(Meta("Y"), Meta("X"))]
        # oracle: solving the combined store directly
        assert solve(store.add(*extra)) is None
        assert not consistent(store, extra)

    def test_store_not_modified(self):
        store = term_store((Meta("X"), const("a")))
        consistent(store, [pair(Meta("X"), const("b"))])
        assert len(store) == 1


def random_constraint(rng: random.Random) -> Constraint:
    """A term pair (as ``pair`` makes it) or an atom pair over few
    metavariables and symbols, so that symbol clashes and occurs-check
    failures, through the store's bindings too, are common; one in five
    has one atom or negated atom (one interned object) on both sides."""
    metas = [Meta(f"X{i}") for i in range(1, 5)]

    def term(depth: int):
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(metas)
        if depth > 0 and roll < 0.75:
            return App(rng.choice("fg"), (term(depth - 1),))
        return const(rng.choice("ab"))

    roll = rng.random()
    if roll < 0.2:
        side = [term(2), Atom("P", (term(1),)), Not(Atom("Q", (term(1), term(1))))][int(roll * 15)]
        return pair(side, side)
    if roll < 0.6:
        return pair(term(2), term(2))
    arity = rng.randrange(3)
    return Constraint(Atom(rng.choice("PP" "Q"), tuple(term(1) for _ in range(arity))),
                      Atom("P", tuple(term(1) for _ in range(arity))))


class TestIncrementalConsistency:
    """``consistent`` unifies only the new constraints, under the unifier
    the store carries; it must agree with a solve of the whole store, and
    the carried unifier must stay a unifier of every stored constraint."""

    @staticmethod
    def whole(constraints) -> ConstraintStore:
        return ConstraintStore(tuple(constraints))

    def test_agrees_with_a_whole_store_solve_on_random_sequences(self):
        refused = occurs = same = 0
        for seed in range(400):
            rng = random.Random(seed)
            store = ConstraintStore()
            for _ in range(rng.randrange(1, 12)):
                c = random_constraint(rng)
                verdict = consistent(store, [c])
                assert verdict == (solve(self.whole(store.constraints + (c,))) is not None), seed
                if c.lhs is c.rhs:
                    # Nothing to solve: the unifier is handed on, not copied.
                    same += 1
                    assert store.add(c).unifier is store.unifier, seed
                if not verdict:
                    refused += 1
                    occurs += _pairs_a_meta_with_a_term_holding_it(store, c)
                    continue
                store = store.add(c)
                sigma = store.unifier
                for stored in store.constraints:
                    assert apply_subst(sigma, stored.lhs) is apply_subst(sigma, stored.rhs), seed
                for t in sigma.values():
                    assert not any(m.name in sigma for m in free_metas(t)), seed
        assert refused > 100 and occurs > 10 and same > 300

    def test_add_never_alters_a_unifier_a_store_holds(self):
        """Stores share unifier dicts, so ``add`` must leave every unifier
        it is handed as it was: each store's unifier, as first read, is
        compared after every later ``add`` of its sequence."""
        shared = 0
        for seed in range(300):
            rng = random.Random(seed)
            stores = [ConstraintStore()]
            held = [dict(stores[0].unifier)]
            for _ in range(rng.randrange(1, 12)):
                c = random_constraint(rng)
                base = rng.choice(stores)
                grown = base.add(c)
                if grown.unifier is None:
                    continue
                shared += grown.unifier is base.unifier
                stores.append(grown)
                held.append(dict(grown.unifier))
                for store, unifier in zip(stores, held):
                    assert store.unifier == unifier, seed
        assert shared > 200

    def test_occurs_check_through_the_store(self):
        store = ConstraintStore().add(pair(Meta("X1"), App("f", (Meta("X2"),))))
        assert not consistent(store, [pair(Meta("X2"), App("g", (Meta("X1"),)))])
        assert consistent(store, [pair(Meta("X2"), App("g", (Meta("X3"),)))])

    def test_symbol_clash_through_the_store(self):
        store = ConstraintStore().add(
            Constraint(Atom("P", (Meta("X1"),)), Atom("P", (const("a"),))))
        assert not consistent(store, [pair(Meta("X1"), const("b"))])
        assert consistent(store, [pair(Meta("X1"), const("a"))])

    def test_an_unsolvable_store_stays_unsolvable(self):
        store = term_store((const("a"), const("b")))
        assert store.unifier is None
        assert not consistent(store, [pair(Meta("X1"), const("a"))])
        assert store.add(pair(Meta("X1"), const("a"))).unifier is None

    def test_add_after_consistent_unifies_once(self, monkeypatch):
        from tabseq import unify

        calls = []
        real = unify._unify
        monkeypatch.setattr(unify, "_unify", lambda b, cs: calls.append(cs) or real(b, cs))
        store = ConstraintStore().add(pair(Meta("X1"), const("a")))
        c = Constraint(Atom("P", (Meta("X1"), Meta("X2"))), Atom("P", (const("a"), const("b"))))
        calls.clear()
        assert consistent(store, [c])
        grown = store.add(c)
        assert calls == [(c,)] and grown.unifier == {"X1": const("a"), "X2": const("b")}
        assert store.add(pair(Meta("X2"), const("a"))) is not grown


def _pairs_a_meta_with_a_term_holding_it(store: ConstraintStore, c: Constraint) -> bool:
    """Whether ``c`` under the store's unifier puts, at one position of
    both sides and before any clash of shapes, a metavariable against a
    term that strictly contains it: a refusal of the occurs check."""
    sigma = store.unifier
    lhs, rhs = apply_subst(sigma, c.lhs), apply_subst(sigma, c.rhs)
    pairs = [(lhs, rhs)]
    while pairs:
        s, t = pairs.pop()
        if s is t:
            continue
        if type(s) is Meta or type(t) is Meta:
            m, u = (s, t) if type(s) is Meta else (t, s)
            if m in free_metas(u):
                return True
            continue
        if type(s) is not type(t) or len(s.parts) != len(t.parts):
            return False
        pairs += zip(s.parts, t.parts)
    return False


def random_solvable_store(rng: random.Random) -> ConstraintStore:
    """Random pairs (t, t-instantiated), solvable by construction."""
    metas = [Meta(f"X{i}") for i in range(1, 5)]
    theta = {}
    for m in rng.sample(metas, rng.randrange(1, 4)):
        depth = rng.randrange(0, 2)
        theta[m.name] = random_ground(rng, depth)

    def random_open(depth: int):
        roll = rng.random()
        if roll < 0.35:
            return rng.choice(metas)
        if depth > 0 and roll < 0.7:
            return App("f", (random_open(depth - 1), random_open(depth - 1)))
        return const(rng.choice("abc"))

    pairs = []
    for _ in range(rng.randrange(1, 5)):
        t = random_open(2)
        pairs.append((t, apply_subst(theta, t)))
    return term_store(*pairs)


def random_ground(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return const(rng.choice("abc"))
    return App("g", (random_ground(rng, depth - 1),))


class TestIdempotence:
    def test_thousand_random_solvable_stores(self):
        solved = 0
        for seed in range(1000):
            rng = random.Random(seed)
            store = random_solvable_store(rng)
            sigma = solve(store)
            assert sigma is not None, seed
            solved += 1
            for name, t in sigma.items():
                assert apply_subst(sigma, t) == t, seed
            for c in store.constraints:
                lhs = apply_subst(sigma, c.lhs)
                assert lhs == apply_subst(sigma, c.rhs)
                assert apply_subst(sigma, lhs) == lhs
        assert solved == 1000


class TestGroundify:
    def test_meta_in_range_gets_fresh_constant(self):
        ground = groundify({"X": Meta("Y")})
        assert not any(free_metas(t) for t in ground.values())
        assert ground == {"X": const("k1"), "Y": const("k1")}

    def test_already_ground_unchanged(self):
        sigma = {"X": App("f", (const("a"),))}
        assert groundify(sigma) == sigma

    def test_unbound_tableau_meta_covered(self):
        assert groundify({}, metas=[Meta("X")]) == {"X": const("k1")}

    def test_distinct_metas_get_distinct_constants(self):
        ground = groundify({}, metas=[Meta("X"), Meta("Y"), Meta("Z")])
        assert len(set(ground.values())) == 3

    def test_range_contains_no_metas(self):
        ground = groundify({"X": App("f", (Meta("Y"), Meta("Z")))}, metas=[Meta("W")])
        for t in ground.values():
            assert not free_metas(t)

    def test_avoid_set_respected(self):
        assert groundify({}, metas=[Meta("X")], avoid={"k1", "k2"}) == {"X": const("k3")}

    def test_subsumes_original(self):
        sigma = {"X": App("f", (Meta("Y"),))}
        ground = groundify(sigma)
        # applying the ground substitution refines every original binding
        image = apply_subst(ground, apply_subst(sigma, Meta("X")))
        assert image == apply_subst(ground, Meta("X"))


@given(st.integers(0, 2**32 - 1))
def test_solve_is_deterministic(seed):
    store = random_solvable_store(random.Random(seed))
    first = solve(store)
    second = solve(store)
    assert first is not None and first == second

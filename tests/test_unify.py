import random

import pytest
from hypothesis import given, strategies as st

from tabseq.formula import (App, Atom, Meta, Not, apply_subst, const, free_metas, parse,
                            parse_term)
from tabseq.tableau import TableauNode, close
from tabseq.unify import Constraint, consistent, groundify, solve


def pair(lhs, rhs) -> Constraint:
    """The constraint of two literals, or of the unary atoms E(s), E(t) for
    two terms s and t."""
    if isinstance(lhs, (Meta, App)):
        lhs, rhs = Atom("E", (lhs,)), Atom("E", (rhs,))
    return Constraint(lhs, rhs)


def pairs_of(*pairs) -> list[Constraint]:
    return [pair(l, r) for l, r in pairs]


class TestSolve:
    def test_atom_pair(self):
        sigma = solve(pairs_of((Atom("D", (Meta("X"),)), Atom("D", (const("c"),)))))
        assert sigma is not None
        assert sigma == {"X": const("c")}

    def test_empty_store_gives_identity(self):
        assert solve([]) == {}
        sigma = {"X": const("a")}
        assert solve([], sigma) is sigma

    def test_occurs_check(self):
        assert solve(pairs_of((Meta("X"), App("f", (Meta("X"),))))) is None

    def test_symbol_clash(self):
        assert solve(pairs_of((const("a"), const("b")))) is None

    def test_arity_clash(self):
        assert solve(pairs_of((App("f", (const("a"),)), App("f", (const("a"), const("b")))))) is None

    def test_predicate_clash_between_atoms(self):
        assert solve(pairs_of((Atom("P", ()), Atom("Q", ())))) is None

    def test_one_quantified_formula_on_both_sides_is_still_refused(self):
        f = parse("forall x. P(x)")
        for side in (f, Not(f)):
            assert solve(pairs_of((side, side))) is None

    def test_only_two_atoms_unify(self):
        p, q = Atom("P", (Meta("X"),)), Atom("P", (const("a"),))
        assert solve(pairs_of((p, q))) == {"X": const("a")}
        for lhs, rhs in [(Not(p), Not(q)), (p, Not(q)), (Not(Not(p)), Not(Not(q))),
                         (parse("P(a) & Q"), parse("P(a) & Q")), (parse("P | Q"), parse("P | R"))]:
            assert solve(pairs_of((lhs, rhs))) is None

    def test_a_term_sided_constraint_is_refused(self):
        a = const("a")
        for lhs, rhs in [(Meta("X"), a), (a, a), (Meta("X"), Atom("P", (a,)))]:
            assert solve([Constraint(lhs, rhs)]) is None

    def test_negated_literal_constraint(self):
        """A closure's constraint is its atom pair, so two negated atoms,
        even one negated atom on both sides, have no unifier."""
        neg = Not(Atom("P", (const("a"),)))
        assert solve(pairs_of((Not(Atom("P", (Meta("X"),))), neg))) is None
        assert solve([Constraint(neg, neg)]) is None
        assert solve([Constraint(neg, neg)], {"X": const("a")}) is None

    def test_chained_bindings_stay_idempotent(self):
        # X = f(Y), Y = a: the final range must not mention Y
        sigma = solve(pairs_of((Meta("X"), App("f", (Meta("Y"),))), (Meta("Y"), const("a"))))
        assert sigma is not None
        assert apply_subst(sigma, Meta("X")) == App("f", (const("a"),))

    def test_soundness_on_every_constraint(self):
        constraints = pairs_of(
            (App("f", (Meta("X"), Meta("Y"))), App("f", (Meta("Y"), const("a")))),
            (Atom("P", (Meta("Z"),)), Atom("P", (App("g", (Meta("X"),)),))),
        )
        sigma = solve(constraints)
        assert sigma is not None
        for c in constraints:
            assert apply_subst(sigma, c.lhs) == apply_subst(sigma, c.rhs)


class TestConsistent:
    def test_closure_candidate_accepted(self):
        extra = [Constraint(Atom("D", (Meta("X"),)), Atom("D", (const("c"),)))]
        assert consistent({}, extra)

    def test_constant_clash_rejected(self):
        sigma = solve(pairs_of((Meta("X"), const("a"))))
        assert not consistent(sigma, [pair(Meta("X"), const("b"))])

    def test_occurs_cycle_through_composition(self):
        stored = pairs_of((Meta("X"), App("f", (Meta("Y"),))))
        extra = [pair(Meta("Y"), Meta("X"))]
        # oracle: solving all the constraints at once
        assert solve(stored + extra) is None
        assert not consistent(solve(stored), extra)

    def test_store_not_modified(self):
        sigma = solve(pairs_of((Meta("X"), const("a"))))
        consistent(sigma, [pair(Meta("X"), const("b"))])
        consistent(sigma, [pair(Meta("Y"), const("b"))])
        assert sigma == {"X": const("a")}


def random_constraint(rng: random.Random) -> Constraint:
    """A term pair (as ``pair`` makes it) or an atom pair over few
    metavariables and symbols, so that symbol clashes and occurs-check
    failures, through a unifier's bindings too, are common; one in five
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
    """A closure solves only its new constraint, under the unifier of the
    ones before it; the result must agree with a solve of the whole list,
    and must stay a unifier of every constraint in it."""

    def test_agrees_with_a_whole_store_solve_on_random_sequences(self):
        refused = occurs = same = 0
        for seed in range(400):
            rng = random.Random(seed)
            sigma, stored = {}, []
            for _ in range(rng.randrange(1, 12)):
                c = random_constraint(rng)
                grown = solve([c], sigma)
                assert (grown is not None) == (solve(stored + [c]) is not None), seed
                assert consistent(sigma, [c]) == (grown is not None), seed
                if c.lhs is c.rhs:
                    # Nothing to solve: the unifier is handed on, not copied;
                    # a negated atom on both sides has none.
                    same += 1
                    assert grown is (sigma if type(c.lhs) is Atom else None), seed
                if grown is None:
                    refused += 1
                    occurs += _pairs_a_meta_with_a_term_holding_it(sigma, c)
                    continue
                sigma = grown
                stored.append(c)
                for s in stored:
                    assert apply_subst(sigma, s.lhs) is apply_subst(sigma, s.rhs), seed
                for t in sigma.values():
                    assert not any(m.name in sigma for m in free_metas(t)), seed
        assert refused > 100 and occurs > 10 and same > 300

    def test_solve_and_close_never_alter_a_given_unifier(self):
        """Either may hand back the unifier it was given, so neither may
        alter one: each unifier of a sequence, as first made, is compared
        after every later call.  A constraint of two atoms of one predicate
        and arity is also closed on, as the pair (lhs, ~rhs) of a leaf, and
        ``close`` must give what ``solve`` gives."""
        shared = closes = 0
        for seed in range(300):
            rng = random.Random(seed)
            unifiers = [{}]
            held = [{}]
            for _ in range(rng.randrange(1, 12)):
                c = random_constraint(rng)
                base = rng.choice(unifiers)
                grown = solve([c], base)
                lhs, rhs = c
                if (type(lhs) is Atom and type(rhs) is Atom and lhs.predicate == rhs.predicate
                        and len(lhs.args) == len(rhs.args)):
                    closed = close(TableauNode((lhs, Not(rhs))), base, lhs, Not(rhs))
                    assert closed == grown and (closed is base) == (grown is base), seed
                    closes += 1
                if grown is None:
                    continue
                shared += grown is base
                unifiers.append(grown)
                held.append(dict(grown))
                for unifier, copy in zip(unifiers, held):
                    assert unifier == copy, seed
        assert shared > 200 and closes > 1000

    def test_occurs_check_through_the_store(self):
        sigma = solve([pair(Meta("X1"), App("f", (Meta("X2"),)))])
        assert not consistent(sigma, [pair(Meta("X2"), App("g", (Meta("X1"),)))])
        assert consistent(sigma, [pair(Meta("X2"), App("g", (Meta("X3"),)))])

    def test_symbol_clash_through_the_store(self):
        sigma = solve([Constraint(Atom("P", (Meta("X1"),)), Atom("P", (const("a"),)))])
        assert not consistent(sigma, [pair(Meta("X1"), const("b"))])
        assert consistent(sigma, [pair(Meta("X1"), const("a"))])


def _pairs_a_meta_with_a_term_holding_it(sigma: dict, c: Constraint) -> bool:
    """Whether ``c`` under the unifier ``sigma`` puts, at one position of
    both sides and before any clash of shapes, a metavariable against a
    term that strictly contains it: a refusal of the occurs check."""
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


def random_solvable_pairs(rng: random.Random) -> list[Constraint]:
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
    return pairs_of(*pairs)


def random_ground(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return const(rng.choice("abc"))
    return App("g", (random_ground(rng, depth - 1),))


class TestIdempotence:
    def test_thousand_random_solvable_stores(self):
        solved = 0
        for seed in range(1000):
            rng = random.Random(seed)
            constraints = random_solvable_pairs(rng)
            sigma = solve(constraints)
            assert sigma is not None, seed
            solved += 1
            for name, t in sigma.items():
                assert apply_subst(sigma, t) == t, seed
            for c in constraints:
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
    constraints = random_solvable_pairs(random.Random(seed))
    first = solve(constraints)
    second = solve(constraints)
    assert first is not None and first == second

import ast
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from tabseq.formula import App, Atom, Meta, Not, const, parse, parse_term
from tabseq.gs3 import (
    BAD_AXIOM,
    FRESHNESS,
    OPEN_LEAF,
    RULE_GROUPS,
    RULE_NAMES,
    SCHEMA_MISMATCH,
    FormatError,
    GsProof,
    GsRule,
    check,
    inference_count,
    iter_nodes,
    premise_additions,
    proof_from_json,
    proof_to_json,
    replace_at,
    rule_name,
)
from tabseq import formula as formula_module, gs3, tableau
from tabseq.cli import render_proof
from tabseq.problems import growth_goal
from tabseq.tableau import prove
from tabseq.translate import StepError, build_step, translate
from tabseq.tree import postorder

from conftest import PathError, node_at, open_leaves, rule_names, spine_rule_names

GOAL = parse("~(exists x. (D(x) => forall y. D(y)))")
NOT_IMP = parse("~(D(c) => forall y. D(y))")
D_C = parse("D(c)")
NOT_ALL = parse("~(forall y. D(y))")
NOT_D_C = parse("~D(c)")
C = const("c")


def grown_drinker_proof() -> GsProof:
    """The graft-and-grow sequent proof of the drinker statement, built
    step by step (weakening chains written one occurrence at a time)."""
    p = node = GsProof((GOAL,))
    for rule, principal in (
        (GsRule("not_exists", C), GOAL),
        (GsRule("not_implies"), NOT_IMP),
        (GsRule("weaken"), NOT_IMP),
        (GsRule("weaken"), D_C),
        (GsRule("not_forall", C), NOT_ALL),
        (GsRule("weaken"), NOT_ALL),
        (GsRule("not_exists", C), GOAL),
        (GsRule("not_implies"), NOT_IMP),
    ):
        build_step(node, rule, principal)
        (node,) = node.children
    build_step(node, GsRule("axiom"), D_C)
    return p


def naive_drinker_pseudo_proof() -> GsProof:
    """The unsound one-pass derivation: the tableau replayed upside down.

    Its second existential step reuses the constant already introduced by
    the first, which a correct checker must reject; raw constructors are
    used since build_step would refuse the step.
    """
    s0 = (GOAL,)
    s1 = s0 + (NOT_IMP,)
    s2 = s1 + (D_C, NOT_ALL)
    s3 = s2 + (NOT_D_C,)
    ax = GsProof(s3, GsRule("axiom"), D_C, ())
    n2 = GsProof(s2, GsRule("not_forall", C), NOT_ALL, (ax,))
    n1 = GsProof(s1, GsRule("not_implies"), NOT_IMP, (n2,))
    return GsProof(s0, GsRule("not_exists", C), GOAL, (n1,))


class TestCheckAccepts:
    def test_single_axiom(self):
        p = GsProof((parse("P"), parse("~P")), GsRule("axiom"), parse("P"), ())
        assert check(p).accepted

    def test_grown_drinker_proof(self):
        p = grown_drinker_proof()
        assert check(p).accepted
        assert inference_count(p) == 9
        assert spine_rule_names(p, coalesce_weaken=True) == [
            "not_exists",
            "not_implies",
            "weaken",
            "not_forall",
            "weaken",
            "not_exists",
            "not_implies",
            "axiom",
        ]

    def test_axiom_on_compound_pair(self):
        f = parse("P & Q")
        p = GsProof((f, Not(f)), GsRule("axiom"), f, ())
        assert check(p).accepted

    def test_branching_rules(self):
        f = parse("(P | Q) & (~P & ~Q)")
        p = GsProof((f,))
        build_step(p, GsRule("and"), f)
        build_step(p.children[0], GsRule("and"), parse("~P & ~Q"))
        (node,) = p.children[0].children
        build_step(node, GsRule("or"), parse("P | Q"))
        build_step(node.children[0], GsRule("axiom"), parse("P"))
        build_step(node.children[1], GsRule("axiom"), parse("Q"))
        assert check(p).accepted


class TestCheckRejects:
    def test_naive_drinker_derivation_fails_freshness(self):
        result = check(naive_drinker_pseudo_proof())
        assert not result.accepted
        assert result.reason == FRESHNESS
        # the failing inference is the second existential step
        assert result.path == (0, 0)
        assert node_at(naive_drinker_pseudo_proof(), result.path).rule.name == "not_forall"
        assert result.describe() == "Rejected: freshness-violation at path 00"

    def test_open_leaf(self):
        result = check(GsProof((parse("P"),)))
        assert not result.accepted and result.reason == OPEN_LEAF

    def test_bad_axiom(self):
        p = GsProof((parse("P"), parse("~Q")), GsRule("axiom"), parse("P"), ())
        result = check(p)
        assert not result.accepted and result.reason == BAD_AXIOM

    def test_missing_principal(self):
        child = GsProof((parse("P"), parse("~P")), GsRule("axiom"), parse("P"), ())
        p = GsProof((parse("P"), parse("~P")), GsRule("weaken"), parse("R"), (child,))
        result = check(p)
        assert not result.accepted and result.reason == SCHEMA_MISMATCH

    def test_wrong_premise_multiset(self):
        f = parse("P & Q")
        # premise forgets Q
        child = GsProof((f, parse("P")))
        p = GsProof((f,), GsRule("and"), f, (child,))
        result = check(p)
        assert not result.accepted and result.reason == SCHEMA_MISMATCH

    def test_weakening_must_drop_exactly_one_occurrence(self):
        seq = (parse("P"), parse("P"), parse("~P"))
        child = GsProof((parse("~P"),))  # dropped two occurrences at once
        p = GsProof(seq, GsRule("weaken"), parse("P"), (child,))
        result = check(p)
        assert not result.accepted and result.reason == SCHEMA_MISMATCH

    def test_compound_witness_rejected(self):
        f = parse("exists x. P(x)")
        w = App("f", (const("a"),))
        child = GsProof((f, Atom("P", (w,))), GsRule("axiom"), parse("P(a)"), ())
        p = GsProof((f,), GsRule("exists", w), f, (child,))
        result = check(p)
        assert not result.accepted and result.reason == SCHEMA_MISMATCH

    def test_metavariable_in_sequent_rejected(self):
        p = GsProof((Atom("P", (Meta("X1"),)),), GsRule("axiom"), parse("P"), ())
        result = check(p)
        assert not result.accepted and result.reason == SCHEMA_MISMATCH

    def test_gamma_witness_may_be_any_ground_term(self):
        f = parse("forall x. P(x)")
        w = App("f", (const("a"),))
        inst = Atom("P", (w,))
        ax = GsProof((f, inst, Not(inst)), GsRule("axiom"), inst, ())
        p = GsProof((f, Not(inst)), GsRule("forall", w), f, (ax,))
        assert check(p).accepted


def _tamper(node: GsProof, path, target):
    """Add a stray formula to the sequent of the node at target."""
    if path == target:
        stray = parse("Stray")
        return GsProof(node.sequent + (stray,), node.rule, node.principal, node.children)
    return GsProof(
        node.sequent,
        node.rule,
        node.principal,
        tuple(_tamper(c, path + (i,), target) for i, c in enumerate(node.children)),
    )


class TestLocality:
    def test_any_single_node_mutation_is_rejected(self):
        from tabseq.gs3 import iter_nodes

        p = grown_drinker_proof()
        assert check(p).accepted
        for path, _ in iter_nodes(p):
            assert not check(_tamper(p, (), path)).accepted, path

    def test_witness_mutation_rejected(self):
        p = grown_drinker_proof()
        node = node_at(p, (0, 0, 0, 0))
        bad = GsProof(node.sequent, GsRule("not_forall", const("d")), node.principal, node.children)
        from tabseq.gs3 import replace_at

        assert not check(replace_at(p, (0, 0, 0, 0), bad)).accepted


class TestCheckReadsWhatRulesAdd:
    """A premise built as its conclusion followed by what the rule added, in
    any order, is accepted by counting at most that tail; any other premise
    is counted whole, and the metavariable test reads the root and each
    premise's additions."""

    def test_premise_in_another_order_or_with_a_repeat_is_accepted(self):
        f, p, q, not_p = parse("P & Q"), parse("P"), parse("Q"), parse("~P")
        shuffled = GsProof((f, not_p), GsRule("and"), f,
                           (GsProof((q, not_p, p, f), GsRule("axiom"), p),))
        assert check(shuffled).accepted
        repeated = GsProof((f, p, not_p), GsRule("and"), f,
                           (GsProof((p, f, not_p, p, q), GsRule("axiom"), p),))
        assert check(repeated).accepted
        weakened = GsProof((p, q, not_p), GsRule("weaken"), q,
                           (GsProof((not_p, p), GsRule("axiom"), p),))
        assert check(weakened).accepted

    def test_premise_missing_a_formula_is_rejected_at_its_parent(self):
        f, g = parse("P & Q"), parse("R | S")
        below = GsProof((g, f, parse("R")), GsRule("and"), f, (GsProof((g, f, parse("P"))),))
        proof = GsProof((g, f), GsRule("or"), g, (below, GsProof((g, f, parse("S")))))
        result = check(proof)
        assert (result.path, result.reason, result.detail) == (
            (0,), SCHEMA_MISMATCH, "premise 0 is not conclusion plus introduced formulas")
        lost = GsProof((g, f, parse("R")), GsRule("weaken"), f, (GsProof((g,)),))
        result = check(GsProof((g, f), GsRule("or"), g, (lost, GsProof((g, f, parse("S"))))))
        assert (result.path, result.reason, result.detail) == (
            (0,), SCHEMA_MISMATCH, "premise is not conclusion minus the dropped occurrence")

    def test_metavariable_only_an_addition_holds_is_rejected_at_the_premise(self, monkeypatch):
        # No schema adds a metavariable its principal lacks, so one that
        # does stands in: ``and`` here also adds R(X1).
        f, stray = parse("P & Q"), Atom("R", (Meta("X1"),))
        monkeypatch.setattr(gs3, "premise_additions",
                            lambda rule, principal: ((principal.left, principal.right, stray),))
        leaf = GsProof((f, parse("~P"), parse("P"), parse("Q"), stray), GsRule("axiom"), parse("P"))
        result = check(GsProof((f, parse("~P")), GsRule("and"), f, (leaf,)))
        assert (result.path, result.reason, result.detail) == (
            (0,), SCHEMA_MISMATCH, "metavariable in sequent formula R(X1)")

    def test_a_translated_proof_counts_only_the_root(self, monkeypatch):
        proof = _growth_proof(3)
        counted = []
        multiset = gs3._multiset
        monkeypatch.setattr(gs3, "_multiset", lambda formulas: counted.append(formulas) or
                            multiset(formulas))
        assert check(proof).accepted
        assert counted == [proof.sequent]

    def test_a_read_back_proof_counts_only_the_root_and_the_tails(self, monkeypatch):
        # The reader derives each premise as its conclusion followed by
        # what the rule adds, in the rule's order, so on the wide n=120
        # proof ``check`` counts the root and no tail.
        conj = " & ".join(f"P{i}" for i in range(120))
        ct = prove([Not(parse(f"({conj}) => ({conj})"))], depth_limit=1000)
        back = proof_from_json(proof_to_json(translate(ct)))
        counted = []
        multiset = gs3._multiset
        monkeypatch.setattr(gs3, "_multiset", lambda formulas: counted.append(formulas) or
                            multiset(formulas))
        assert check(back).accepted
        assert counted == [back.sequent] and len(back.sequent) == 1

    def test_the_metavariable_test_walks_nothing(self, monkeypatch):
        # The wide proof has no quantifier rule, so no freshness test and no
        # witness test: with every formula walk refused and its formulas'
        # function-symbol sets cleared, ``check`` still accepts it, and still
        # finds a metavariable nested deep in a sequent formula, from the
        # formula's flag, and makes no function-symbol set.
        from conftest import count_symbol_sets, forget_symbols

        conj = " & ".join(f"P{i}" for i in range(16))
        proof = translate(prove([Not(parse(f"({conj}) => ({conj})"))]))
        buried = parse("P(f(g(a, f(X1))))", allow_generated=True)
        forget_symbols([f for node in postorder(proof) for f in node.sequent] + [buried])

        def refuse(*args):
            raise AssertionError("check walked a formula")

        made = count_symbol_sets(monkeypatch)
        monkeypatch.setattr(formula_module, "walk", refuse)
        assert check(proof).accepted
        result = check(GsProof(proof.sequent + (buried,), proof.rule, proof.principal,
                               proof.children))
        assert (result.path, result.reason, result.detail) == (
            (), SCHEMA_MISMATCH, "metavariable in sequent formula P(f(g(a, f(X1))))")
        assert not made

    def test_freshness_walks_each_distinct_subnode_once_per_witness_symbol(self, monkeypatch):
        # The freshness test reads each formula's ``symbols`` slot: with
        # every slot cleared, one ``check`` makes each distinct subnode's
        # set at most once, whatever the number of witness symbols, and a
        # second ``check`` makes none.
        from conftest import count_symbol_sets, forget_symbols

        proof = _growth_proof(3)
        nodes = list(postorder(proof))
        symbols = {n.rule.witness.symbol for n in nodes
                   if n.rule and RULE_GROUPS.get(n.rule.name) == "delta"}
        distinct = forget_symbols(f for node in nodes for f in node.sequent)
        made = count_symbol_sets(monkeypatch)
        assert check(proof).accepted
        assert len(symbols) > 1 and made and set(made) <= distinct
        assert set(made.values()) == {1}
        made.clear()
        assert check(proof).accepted and not made


def _local_key(node: GsProof):
    """What ``check`` reads at one node: the sequent, rule, principal and
    premise sequents."""
    return (node.sequent, node.rule, node.principal, tuple(c.sequent for c in node.children))


def _last_repeated_inferences(proof: GsProof) -> list:
    """Paths of the last preorder occurrence of each local inference with
    premises, other than a weakening, that occurs more than once."""
    seen: dict = {}
    for path, node in iter_nodes(proof):
        key = _local_key(node)
        count, _ = seen.get(key, (0, None))
        seen[key] = (count + 1, path)
    return [path for key, (count, path) in seen.items()
            if count > 1 and key[1] is not None and key[1].name not in ("axiom", "weaken")]


def _growth_proof(k: int) -> GsProof:
    return translate(prove([Not(growth_goal(k))]))


class TestRepeatedInferences:
    """A proof repeats local inferences, and ``check`` skips a node object
    it has met before; a fault at the last occurrence of a repeated
    inference must still be found, at its path."""

    @staticmethod
    def assert_rejected_as_alone(proof: GsProof, path, bad: GsProof) -> None:
        alone = check(bad)
        assert not alone.accepted and alone.path == ()
        result = check(replace_at(proof, path, bad))
        assert (result.accepted, result.path, result.reason, result.detail) == (
            False, path, alone.reason, alone.detail)

    def test_growth_proof_repeats_inferences(self):
        proof = _growth_proof(3)
        assert check(proof).accepted
        assert len(_last_repeated_inferences(proof)) >= 10

    def test_dropped_premise_formula_at_last_occurrence(self):
        proof = _growth_proof(3)
        for path in _last_repeated_inferences(proof):
            node = node_at(proof, path)
            child = node.children[0]
            short = GsProof(child.sequent[:-1], child.rule, child.principal, child.children)
            bad = GsProof(node.sequent, node.rule, node.principal, (short,) + node.children[1:])
            self.assert_rejected_as_alone(proof, path, bad)

    def test_rule_swapped_for_weaken_at_last_occurrence(self):
        proof = _growth_proof(3)
        for path in _last_repeated_inferences(proof):
            node = node_at(proof, path)
            bad = GsProof(node.sequent, GsRule("weaken"), node.principal, node.children)
            self.assert_rejected_as_alone(proof, path, bad)

    def test_opened_leaf_below_last_occurrence(self):
        proof = _growth_proof(3)
        for path in _last_repeated_inferences(proof):
            below, leaf = next((p, n) for p, n in iter_nodes(node_at(proof, path))
                               if not n.children)
            result = check(replace_at(proof, path + below, GsProof(leaf.sequent)))
            assert (result.accepted, result.path, result.reason, result.detail) == (
                False, path + below, OPEN_LEAF, "open leaf")


class TestWeakening:
    """Weakening drops one occurrence; dropping the last one leaves the
    formula out of the premise multiset altogether."""

    @staticmethod
    def weakening(sequent, dropped, premise) -> GsProof:
        axiom = GsProof(premise, GsRule("axiom"), parse("P"), ())
        return GsProof(sequent, GsRule("weaken"), dropped, (axiom,))

    def test_dropping_one_of_two_occurrences_is_accepted(self):
        p, not_p = parse("P"), parse("~P")
        assert check(self.weakening((p, p, not_p), p, (p, not_p))).accepted

    def test_dropping_the_only_occurrence_is_accepted(self):
        p, not_p, q = parse("P"), parse("~P"), parse("Q")
        assert check(self.weakening((q, p, not_p), q, (p, not_p))).accepted

    @pytest.mark.parametrize("sequent", ["Q, P, ~P", "P, P, ~P"])
    def test_premise_keeping_the_dropped_formula_is_rejected(self, sequent):
        seq = tuple(parse(t) for t in sequent.split(", "))
        result = check(self.weakening(seq, seq[0], seq))
        assert (result.accepted, result.path, result.reason, result.detail) == (
            False, (), SCHEMA_MISMATCH, "premise is not conclusion minus the dropped occurrence")


class TestBuildStep:
    def test_fig5_bottom_inference(self):
        p = GsProof((GOAL,))
        build_step(p, GsRule("not_exists", C), GOAL)
        assert node_at(p, (0,)).sequent == (GOAL, NOT_IMP)

    def test_weaken_drops_one_occurrence(self):
        p = GsProof((GOAL, NOT_ALL))
        build_step(p, GsRule("weaken"), NOT_ALL)
        assert node_at(p, (0,)).sequent == (GOAL,)

    def test_implies_two_children(self):
        f = parse("A => B")
        p = GsProof((f,))
        build_step(p, GsRule("implies"), f)
        assert node_at(p, (0,)).sequent == (f, parse("~A"))
        assert node_at(p, (1,)).sequent == (f, parse("B"))

    def test_delta_freshness_enforced_eagerly(self):
        seq = (parse("exists x. P(x)"), parse("Q(c)"))
        with pytest.raises(StepError) as err:
            build_step(GsProof(seq), GsRule("exists", C), seq[0])
        assert err.value.reason == FRESHNESS

    def test_skolem_witness_outermost_occurrence_refused(self):
        sko = App("sko1", ())
        seq = (parse("exists x. P(x)"), Atom("Q", (sko,)))
        with pytest.raises(StepError) as err:
            build_step(GsProof(seq), GsRule("exists", sko), seq[0])
        assert err.value.reason == FRESHNESS

    def test_skolem_witness_nested_occurrence_allowed(self):
        # an occurrence inside a bigger Skolem term disappears with it
        # under the final replacement, so it does not block the step
        inner = App("sko1", ())
        outer = App("sko2", (inner,))
        seq = (parse("exists x. P(x)"), Atom("Q", (outer,)))
        p = GsProof(seq)
        build_step(p, GsRule("exists", inner), seq[0])
        assert node_at(p, (0,)).sequent[-1] == Atom("P", (inner,))

    def test_bad_axiom_raises(self):
        with pytest.raises(StepError) as err:
            build_step(GsProof((parse("P"),)), GsRule("axiom"), parse("P"))
        assert err.value.reason == BAD_AXIOM

    def test_closed_leaf_rejected(self):
        p = GsProof((parse("P"), parse("~P")), GsRule("axiom"), parse("P"), ())
        with pytest.raises(StepError):
            build_step(p, GsRule("weaken"), parse("P"))

    def test_extends_the_leaf_in_place(self):
        f = parse("A => B")
        root = GsProof((GOAL, f))
        build_step(root, GsRule("weaken"), GOAL)
        (leaf,) = root.children
        build_step(leaf, GsRule("implies"), f)
        assert root.children == (leaf,)
        assert leaf.rule == GsRule("implies") and leaf.principal == f
        assert [c.sequent for c in leaf.children] == [(f, parse("~A")), (f, parse("B"))]

    def test_refused_step_changes_nothing(self):
        root = GsProof((parse("P"), parse("Q")))
        with pytest.raises(StepError):
            build_step(root, GsRule("axiom"), parse("P"))
        assert root.is_open

    def test_given_node_and_additions_build_the_same_step(self):
        f = parse("A => B")
        root = GsProof((GOAL, f))
        build_step(root, GsRule("weaken"), GOAL)
        (leaf,) = root.children
        additions = premise_additions(GsRule("implies"), f)
        build_step(leaf, GsRule("implies"), f, additions=additions)
        assert [c.sequent for c in leaf.children] == [(f, parse("~A")), (f, parse("B"))]
        assert [c.sequent[-1] for c in leaf.children] == [a for (a,) in additions]

    def test_given_node_is_still_validated(self):
        seq = (parse("exists x. P(x)"), parse("Q(c)"))
        leaf = GsProof(seq)
        with pytest.raises(StepError) as err:
            build_step(leaf, GsRule("exists", C), seq[0],
                       additions=premise_additions(GsRule("exists", C), seq[0]))
        assert err.value.reason == FRESHNESS
        assert leaf.is_open


EXTRA_POOL = (
    "Q",
    "~Q",
    "Q | R",
    "~(Q & R)",
    "~~R",
    "Q => R",
    "forall x. S(x)",
    "~(exists x. S(x))",
    "exists x. S(x)",
    "~(forall x. S(x))",
    "Q & R",
    "~(Q | R)",
    "~(Q => R)",
)


PROTECTED = (parse("P"), parse("~P"))


def random_built_proof(rng: random.Random) -> GsProof:
    """A proof built only through build_step: random legal expansions and
    weakenings over a protected complementary pair, then axioms everywhere."""
    extras = [parse(t) for t in rng.sample(EXTRA_POOL, rng.randrange(0, 4))]
    sequent = [*PROTECTED, *extras]
    rng.shuffle(sequent)
    proof = GsProof(tuple(sequent))
    fresh = [0]
    for _ in range(rng.randrange(0, 14)):
        leaves = open_leaves(proof)
        if not leaves:
            break
        leaf = rng.choice(leaves)
        node = node_at(proof, leaf)
        candidates = []
        for f in dict.fromkeys(node.sequent):  # a set's order would follow addresses
            name = rule_name(f)
            if name is None:
                continue
            if RULE_GROUPS[name] == "delta":
                fresh[0] += 1
                candidates.append((GsRule(name, const(f"w{fresh[0]}")), f))
            elif RULE_GROUPS[name] == "gamma":
                candidates.append((GsRule(name, const(rng.choice("ab"))), f))
            else:
                candidates.append((GsRule(name), f))
        weakenings = [(GsRule("weaken"), f) for f in dict.fromkeys(node.sequent)
                      if f not in PROTECTED]
        if weakenings and (not candidates or rng.random() < 0.2):
            candidates = weakenings
        if not candidates:
            break
        rule, principal = rng.choice(candidates)
        build_step(node, rule, principal)
    for leaf in open_leaves(proof):
        build_step(node_at(proof, leaf), GsRule("axiom"), parse("P"))
    return proof


class TestBuildCheckRoundTrip:
    def test_thousand_random_build_sequences_pass_check(self):
        used: Counter = Counter()
        for seed in range(1000):
            proof = random_built_proof(random.Random(seed))
            result = check(proof)
            assert result.accepted, (seed, result.describe())
            text = proof_to_json(proof)
            back = proof_from_json(text)
            assert proof_to_json(back) == text, seed
            assert check(back).accepted, seed
            used.update(rule_names(proof))
        assert set(used) == set(RULE_NAMES), used


class TestSerialization:
    def test_round_trip_bit_stable(self):
        p = grown_drinker_proof()
        text = proof_to_json(p)
        assert proof_to_json(proof_from_json(text)) == text

    def test_round_trip_still_checks(self):
        p = proof_from_json(proof_to_json(grown_drinker_proof()))
        assert check(p).accepted
        assert rule_names(p) == rule_names(grown_drinker_proof())

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"sequent": "P", "rule": null, "children": []}',
            '{"sequent": [["P", 0]], "rule": null, "children": []}',
            '{"sequent": [["P(", 1]], "rule": null, "children": []}',
            '{"sequent": [["P", 1]], "rule": {"witness": "c"}, "children": []}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            proof_from_json(text)

    def test_sequent_changes_read_back_in_their_order(self):
        """A listed sequent reads back in its listed order.  A premise the
        file leaves out is its conclusion's tuple followed by what the
        rule adds, in the rule's order, once per premise; below a
        weakening, the conclusion's tuple less the principal's first
        occurrence."""
        table = [["P", "P"], ["P", "Q"], ["P", "R"], ["|", 1, 0], ["&", 0, 2]]
        p, q, r = (parse(name) for name in "PQR")
        q_or_p, p_and_r = parse("Q | P"), parse("P & R")
        text = json.dumps({
            "version": 3, "table": table, "root": 4, "nodes": [
                [None, None, []],  # P & R, Q | P, P, P, Q, P, R
                [None, ["weaken", 1], [0]],  # P & R, Q | P, P, Q, P, Q, P, R
                [None, [4], [1]],  # P & R, Q | P, P, Q, P, Q
                [None, None, []],  # P & R, Q | P, P, Q, P, P
                [[4, 3, 0, 1, 0], [3], [2, 3]]]})  # listed out of entry order
        back = proof_from_json(text)
        assert back.sequent == (p_and_r, q_or_p, p, q, p)
        left, right = back.children
        assert left.sequent == (p_and_r, q_or_p, p, q, p, q)
        assert right.sequent == (p_and_r, q_or_p, p, q, p, p)
        assert left.children[0].sequent == (p_and_r, q_or_p, p, q, p, q, p, r)
        assert left.children[0].children[0].sequent == (p_and_r, q_or_p, p, p, q, p, r)

    def test_render_smoke(self):
        text = render_proof(grown_drinker_proof())
        assert "|-" in text and "not_forall" in text

    def test_render_writes_a_shared_subproof_once(self):
        """A proof without repeats renders as its tree.  A subproof with two
        parents is numbered once and referred to after that, whether its
        copies are one node object or equal separate ones."""
        p, q, p_or_p, p_or_q = parse("P"), parse("Q"), parse("P | P"), parse("P | Q")
        not_p, not_q = parse("~P"), parse("~Q")
        base = (p_or_q, not_p, not_q)
        distinct = GsProof(base, GsRule("or"), p_or_q,
                           (GsProof(base + (p,), GsRule("axiom"), p),
                            GsProof(base + (q,), GsRule("axiom"), q)))
        assert render_proof(distinct) == (
            "(P | Q), (~P), (~Q) |-\n"
            "-- or on (P | Q)\n"
            "    (P | Q), (~P), (~Q), P |-\n"
            "    -- axiom on P\n"
            "    (P | Q), (~P), (~Q), Q |-\n"
            "    -- axiom on Q\n")
        short, long = (p_or_p, not_p), (p_or_p, not_p, p)
        copies = GsProof(short, GsRule("or"), p_or_p,
                         (GsProof(long, GsRule("axiom"), p), GsProof(long, GsRule("axiom"), p)))
        leaf = GsProof(long, GsRule("axiom"), p)
        shared = GsProof(short, GsRule("or"), p_or_p, (leaf, leaf))
        for proof in (copies, shared):
            assert render_proof(proof) == (
                "(P | P), (~P) |-\n"
                "-- or on (P | P)\n"
                "    [1] (P | P), (~P), P |-\n"
                "    -- axiom on P\n"
                "    [1] as above\n")

    def test_render_of_growth_five_lists_each_distinct_subproof_once(self):
        # In memory the translated proof holds 678 node objects for the 373
        # distinct subproofs its .gs3 file lists.
        proof = translate(prove([Not(growth_goal(5))]), audit=False)
        lines = render_proof(proof).splitlines()
        assert sum(1 for line in lines if line.endswith(" |-")) <= 373
        assert len(list(postorder(proof))) == 678


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tabseq"
TREE_HELPERS = {"format_path", "node_at", "iter_nodes", "replace_at", "FormatError"}


def package_imports(path: pathlib.Path) -> set[str]:
    """The ``tabseq`` modules a source file imports; ``tabseq`` itself
    stands for the package's ``__init__``."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[0] != "tabseq":
                    continue
                parts = parts[1:]
            if parts:
                out.add(parts[0])
            else:  # from . import name
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tabseq":
                    out.add(parts[1] if len(parts) > 1 else "tabseq")
    return out


class TestCheckerIndependence:
    def test_module_imports_only_the_formula_layer(self):
        # The formula syntax and the tree helpers, which import nothing
        # from the package: never the prover or the translator.
        imports = package_imports(SRC / "gs3.py")
        assert "formula" in imports
        assert imports <= {"formula", "tree"}, imports

    def test_tree_module_imports_nothing_from_the_package(self):
        assert package_imports(SRC / "tree.py") == set()

    @pytest.mark.parametrize("module,loaded", [
        ("tabseq.gs3", ["tabseq", "tabseq.formula", "tabseq.gs3", "tabseq.tree"]),
        ("tabseq.tableau", ["tabseq", "tabseq.formula", "tabseq.gs3", "tabseq.tableau",
                            "tabseq.tree", "tabseq.unify"]),
    ])
    def test_importing_a_module_loads_only_what_it_imports(self, module, loaded):
        """In a fresh interpreter, importing the checker runs the trusted
        base and nothing else, and importing the prover runs no translator
        or command line: the package itself imports none of its modules."""
        code = (f"import sys, {module}; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tabseq'))")
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == loaded

    def test_allowlist_sees_every_import_form(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text("import json\nimport tabseq.unify\nfrom tabseq import cli\n"
                        "from . import tableau\nfrom .translate import translate\n"
                        "from tabseq.problems import corpus\n", encoding="utf-8")
        assert package_imports(path) == {"unify", "cli", "tableau", "translate", "problems"}

    def test_tree_helpers_are_defined_only_in_the_tree_module(self):
        for path in sorted(SRC.glob("*.py")):
            if path.name == "tree.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = []
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                for name in names:
                    assert name.lstrip("_") not in TREE_HELPERS, f"{path.name} defines {name}"


# One row per decomposition rule: its name and group, a principal, a
# witness and what each premise adds, written out by hand.  With
# ``schema`` in ``reference_check.py``, it is an independent encoding of
# the schemas that ``rule_name``, ``RULE_GROUPS`` and ``premise_additions``
# derive from ``gs3._RULES``.
SCHEMA_TABLE = [
    ("not_not", "alpha", "~~P(a)", None, [["P(a)"]]),
    ("not_implies", "alpha", "~(P(a) => Q)", None, [["P(a)", "~Q"]]),
    ("and", "alpha", "P(a) & ~Q", None, [["P(a)", "~Q"]]),
    ("not_or", "alpha", "~(P(a) | ~Q)", None, [["~P(a)", "~~Q"]]),
    ("implies", "beta", "~P(a) => Q", None, [["~~P(a)"], ["Q"]]),
    ("not_and", "beta", "~(P(a) & Q)", None, [["~P(a)"], ["~Q"]]),
    ("or", "beta", "P(a) | (Q & R)", None, [["P(a)"], ["Q & R"]]),
    ("exists", "delta", "exists x. R(x, a)", "c", [["R(c, a)"]]),
    ("not_forall", "delta", "~(forall x. (P(x) | Q))", "c", [["~(P(c) | Q)"]]),
    ("not_exists", "gamma", "~(exists x. R(x, f(a)))", "f(b)", [["~R(f(b), f(a))"]]),
    ("forall", "gamma", "forall x. (P(x) & exists y. R(x, y))", "b",
     [["P(b) & exists y. R(b, y)"]]),
]
RULE_TABLE = {"rule_name", "RULE_GROUPS", "premise_additions"}


def defined_names(path: pathlib.Path) -> list[str]:
    """The functions, classes and plain assignment targets a source file
    defines, at any depth."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


class TestRuleTable:
    @pytest.mark.parametrize("name,group,principal,witness,added", SCHEMA_TABLE,
                             ids=[row[0] for row in SCHEMA_TABLE])
    def test_each_rule_decomposes_as_written(self, name, group, principal, witness, added):
        f = parse(principal)
        rule = GsRule(name, None if witness is None else parse_term(witness))
        assert rule_name(f) == name
        assert RULE_GROUPS[name] == group
        assert premise_additions(rule, f) == tuple(tuple(map(parse, texts)) for texts in added)
        for other in RULE_GROUPS.keys() - {name}:
            assert premise_additions(GsRule(other, C), f) is None, other

    def test_the_table_has_one_row_per_rule(self):
        assert sorted(row[0] for row in SCHEMA_TABLE) == sorted(RULE_GROUPS)

    def test_a_literal_has_no_rule(self):
        for text in ("P(a)", "~P(a)"):
            assert rule_name(parse(text)) is None
            for name in RULE_GROUPS:
                assert premise_additions(GsRule(name, C), parse(text)) is None

    def test_the_rule_table_is_defined_only_in_the_checker_module(self):
        for path in sorted(SRC.glob("*.py")):
            if path.name == "gs3.py":
                continue
            for name in defined_names(path):
                assert name.lstrip("_") not in RULE_TABLE, f"{path.name} defines {name}"


class TestSharedTreeHelpers:
    def test_both_trees_raise_one_format_error(self):
        assert gs3.FormatError is tableau.FormatError is FormatError
        with pytest.raises(FormatError):
            tableau.tableau_from_json(proof_to_json(grown_drinker_proof()))

    def test_a_missing_path_is_one_error_on_both_trees(self):
        ct = prove([GOAL])
        for root in (ct.root, grown_drinker_proof()):
            with pytest.raises(PathError, match="no node at path 0001"):
                node_at(root, (0, 0, 0, 1))

    def test_replace_at_copies_either_tree_along_the_path(self):
        ct = prove([GOAL])
        leaf_path = next(p for p, n in tableau.iter_nodes(ct.root) if not n.children)
        new = tableau.TableauNode(ct.root.formulas)
        copy = tableau.replace_at(ct.root, leaf_path, new)
        assert copy is not ct.root and type(copy) is tableau.TableauNode
        assert node_at(copy, leaf_path) is new
        assert [(p, n.rule) for p, n in tableau.iter_nodes(copy) if p != leaf_path] == [
            (p, n.rule) for p, n in tableau.iter_nodes(ct.root) if p != leaf_path]

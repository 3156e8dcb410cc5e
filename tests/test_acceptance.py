"""Acceptance suite: one test per shipping criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import time

from conftest import node_at, random_formula, rule_kinds, spine_rule_names
from tabseq import gs3
from tabseq.formula import App, Atom, Meta, Not, parse, print_formula
from tabseq.problems import corpus, growth_goal
from tabseq.tableau import (
    ClosedTableau,
    audit_closed_tableau,
    iter_nodes,
    prove,
    rule_count,
    tableau_to_json,
)
from tabseq.translate import translate, translate_detailed

DRINKER_NEG = "~(exists x. (D(x) => forall y. D(y)))"


def test_acceptance_1_drinker_reproduction():
    start = time.perf_counter()
    ct = prove([parse(DRINKER_NEG)])
    elapsed = time.perf_counter() - start
    assert isinstance(ct, ClosedTableau)

    assert rule_kinds(ct.root) == ["gamma", "alpha", "delta", "closure"]
    alpha_node = node_at(ct.root, (0,))
    assert print_formula(alpha_node.rule.principal).startswith("(~(D(")

    assert len(ct.store) == 1
    constraint = ct.store.constraints[0]
    assert isinstance(constraint.lhs, Atom) and constraint.lhs.predicate == "D"
    (meta,) = constraint.lhs.args
    assert isinstance(meta, Meta)
    (sko,) = constraint.rhs.args
    assert isinstance(sko, App) and sko.is_skolem and not sko.args

    assert ct.unifier == {meta.name: sko}
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: drinker tableau is gamma,alpha,delta,closure "
          f"with store {{D({meta.name}) = D({sko.symbol})}} in {elapsed:.3f}s")


def test_acceptance_2_translation_reproduction():
    ct = prove([parse(DRINKER_NEG)])
    start = time.perf_counter()
    proof = translate(ct)
    elapsed = time.perf_counter() - start

    spine = spine_rule_names(proof, coalesce_weaken=True)
    assert spine == [
        "not_exists",
        "not_implies",
        "weaken",
        "not_forall",
        "weaken",
        "not_exists",
        "not_implies",
        "axiom",
    ]
    assert len(spine) == 8
    assert gs3.check(proof).accepted

    # exact up to renaming of the one witness constant
    c = proof.rule.witness.symbol
    goal = parse(DRINKER_NEG)
    expected_axiom_leaf = [
        goal,
        parse(f"~D({c})"),
        parse(f"~(D({c}) => forall y. D(y))"),
        parse(f"D({c})"),
        parse("~(forall y. D(y))"),
    ]
    node = proof
    while node.children:
        node = node.children[0]
    from collections import Counter

    assert Counter(node.sequent) == Counter(expected_axiom_leaf)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: translation is the 8-inference grown proof "
          f"(witness {c}), checker accepted, in {elapsed:.3f}s")


def test_acceptance_3_checker_negative_control():
    import test_gs3

    result = gs3.check(test_gs3.naive_drinker_pseudo_proof())
    assert not result.accepted
    assert result.reason == "freshness-violation"
    failing = node_at(test_gs3.naive_drinker_pseudo_proof(), result.path)
    assert failing.rule.name == "not_forall"
    print(f"\nACCEPTANCE 3 PASS: pseudo-derivation rejected with "
          f"{result.reason} at its not_forall inference (path {''.join(map(str, result.path))})")


def test_acceptance_4_end_to_end_soundness_property():
    goals = corpus()
    assert len(goals) >= 50
    hand_written = [name for name, _ in goals if not name.startswith("gen")]
    assert len(hand_written) >= 15

    start = time.perf_counter()
    proved = 0
    accepted = 0
    saw_recursive_graft = False
    for name, goal in goals:
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), f"{name} did not prove"
        proved += 1
        proof, stats = translate_detailed(ct)
        saw_recursive_graft = saw_recursive_graft or stats.graft_case_v > 0
        result = gs3.check(proof)
        assert result.accepted, f"{name}: {result.describe()}"
        accepted += 1
    elapsed = time.perf_counter() - start

    assert proved == accepted == len(goals)
    assert saw_recursive_graft, "no corpus input exercised the recursive graft"
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: {accepted}/{proved} proved inputs translated and "
          f"accepted ({len(hand_written)} hand-written) in {elapsed:.1f}s")


def test_acceptance_5_invariant_suites():
    checked_tableaux = 0
    link_steps = 0
    graft_audits = 0
    measure_records = 0
    for name, goal in corpus(generated=20):
        ct = prove([Not(goal)])
        assert isinstance(ct, ClosedTableau), name
        audit_closed_tableau(ct)  # includes the per-node non-destructivity audit
        checked_tableaux += 1
        proof, stats = translate_detailed(ct, audit=True)
        assert stats.link_audits == stats.steps == rule_count(ct.root), name
        assert stats.bilink_audits == stats.grafts, name
        assert len(stats.measures) == stats.grafts, name
        link_steps += stats.link_audits
        graft_audits += stats.bilink_audits
        measure_records += len(stats.measures)
    print(f"\nACCEPTANCE 5 PASS: non-destructivity on {checked_tableaux} tableaux, "
          f"link invariant on {link_steps} steps, bilink + measure on "
          f"{graft_audits} grafts ({measure_records} measures)")


def test_acceptance_6_growth_property():
    ratios = []
    for k in range(1, 6):
        ct = prove([Not(growth_goal(k))])
        assert isinstance(ct, ClosedTableau)
        proof = translate(ct, audit=True)
        assert gs3.check(proof).accepted
        ratios.append(gs3.inference_count(proof) / rule_count(ct.root))
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
    pretty = ", ".join(f"k={k}: {r:.2f}" for k, r in enumerate(ratios, start=1))
    print(f"\nACCEPTANCE 6 PASS: proof-size ratio strictly increases ({pretty})")


def test_acceptance_7_round_trip_and_determinism(tmp_path):
    for seed in range(1000):
        f = random_formula(random.Random(seed))
        assert parse(print_formula(f)) == f

    def run():
        ct = prove([parse(DRINKER_NEG)])
        return tableau_to_json(ct), gs3.proof_to_json(translate(ct))

    first_tab, first_gs3 = run()
    second_tab, second_gs3 = run()
    assert first_tab.encode() == second_tab.encode()
    assert first_gs3.encode() == second_gs3.encode()
    print("\nACCEPTANCE 7 PASS: parse-print identity on 1000 formulas; "
          "proof files bit-identical across runs")

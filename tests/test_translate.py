import random
from collections import Counter

import pytest

from tabseq import gs3
from tabseq.formula import App, Not, const, parse, print_formula
from tabseq.gs3 import GsProof, GsRule
from tabseq.problems import growth_goal
from tabseq.tableau import ClosedTableau, node_at, prove, rule_count, tableau_from_json, tableau_to_json
from tabseq.translate import (
    InitialPart,
    LinkMapping,
    TranslateError,
    delta_graft,
    extend_initial,
    initial_fringe,
    open_fringe,
    parallel_extend,
    replace_skolem_terms,
    skolem_ranks,
    translate,
    translate_detailed,
)

DRINKER_NEG = "~(exists x. (D(x) => forall y. D(y)))"
NESTED_NEG = "~(exists x. (D(x) => forall y. exists z. (E(y, z) => forall w. E(z, w))))"


def drinker_tableau() -> ClosedTableau:
    ct = prove([parse(DRINKER_NEG)])
    assert isinstance(ct, ClosedTableau)
    return ct


class TestDrinkerTranslation:
    def test_structure_matches_the_grown_proof(self):
        proof = translate(drinker_tableau())
        assert gs3.inference_count(proof) == 9
        assert gs3.spine_rule_names(proof, coalesce_weaken=True) == [
            "not_exists",
            "not_implies",
            "weaken",
            "not_forall",
            "weaken",
            "not_exists",
            "not_implies",
            "axiom",
        ]
        assert gs3.check(proof).accepted

    def test_sequents_match_up_to_the_witness_constant(self):
        proof = translate(drinker_tableau())
        c = proof.rule.witness
        assert isinstance(c, App) and not c.args and not c.is_skolem
        goal = parse(DRINKER_NEG)
        cname = c.symbol
        not_imp = parse(f"~(D({cname}) => forall y. D(y))")
        d_c = parse(f"D({cname})")
        not_all = parse("~(forall y. D(y))")
        not_d_c = parse(f"~D({cname})")
        expected = [
            [goal],
            [goal, not_imp],
            [goal, not_imp, d_c, not_all],
            [goal, d_c, not_all],
            [goal, not_all],
            [goal, not_all, not_d_c],
            [goal, not_d_c],
            [goal, not_d_c, not_imp],
            [goal, not_d_c, not_imp, d_c, not_all],
        ]
        node = proof
        for want in expected:
            assert Counter(node.sequent) == Counter(want)
            if node.children:
                node = node.children[0]

    def test_root_is_the_instantiated_tableau_root(self):
        ct = drinker_tableau()
        proof = translate(ct)
        assert list(proof.sequent) == [ct.unifier.apply(f) for f in ct.root.formulas]


class TestSimpleCases:
    def test_propositional_needs_no_graft(self):
        ct = prove([parse("~(P => P)")])
        proof, stats = translate_detailed(ct)
        assert gs3.rule_names(proof) == ["not_implies", "axiom"]
        assert stats.grafts == 0
        assert gs3.check(proof).accepted

    def test_gamma_witness_is_the_unifier_image(self):
        ct = prove([parse("~((forall x. P(x)) => P(a))")])
        proof = translate(ct)
        names = gs3.rule_names(proof)
        assert names == ["not_implies", "forall", "axiom"]
        witness = node_at_rule(proof, "forall").rule.witness
        assert witness == const("a")

    def test_translating_a_loaded_proof_file_matches(self):
        ct = drinker_tableau()
        loaded = tableau_from_json(tableau_to_json(ct))
        assert gs3.proof_to_json(translate(loaded)) == gs3.proof_to_json(translate(ct))


def node_at_rule(proof: GsProof, name: str) -> GsProof:
    for _, node in gs3.iter_nodes(proof):
        if node.rule is not None and node.rule.name == name:
            return node
    raise AssertionError(f"no {name} node")


class TestInitialPart:
    def test_first_extension_marks_the_root_rule(self):
        ct = drinker_tableau()
        part = extend_initial(InitialPart(), ct.root, ())
        assert part.marks == {()}
        assert node_at(ct.root, ()).rule.kind == "gamma"

    def test_final_extension_consumes_the_closure(self):
        ct = drinker_tableau()
        part = InitialPart()
        for leaf in [(), (0,), (0, 0), (0, 0, 0)]:
            part = extend_initial(part, ct.root, leaf)
        assert open_fringe(ct.root, part) == []
        assert initial_fringe(ct.root, part) == [(0, 0, 0, 0)]

    def test_errors(self):
        ct = drinker_tableau()
        part = extend_initial(InitialPart(), ct.root, ())
        with pytest.raises(TranslateError, match="already marked"):
            extend_initial(part, ct.root, ())
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            extend_initial(part, ct.root, (0, 0))
        full = InitialPart(frozenset({(), (0,), (0, 0), (0, 0, 0)}))
        with pytest.raises(TranslateError, match="closed"):
            extend_initial(full, ct.root, (0, 0, 0, 0))

    def test_fringe_needs_every_ancestor_marked_and_the_node_to_exist(self):
        ct = drinker_tableau()
        not_prefix_closed = InitialPart(frozenset({(0,)}))
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            extend_initial(not_prefix_closed, ct.root, (0, 0))
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            extend_initial(InitialPart(frozenset({()})), ct.root, (5,))

    def test_random_extension_orders_preserve_prefix_closure(self):
        ct = prove([parse("~((P | Q) => (Q | P))")])
        for seed in range(25):
            rng = random.Random(seed)
            part = InitialPart()
            while True:
                pending = open_fringe(ct.root, part)
                if not pending:
                    break
                part = extend_initial(part, ct.root, rng.choice(pending))
                for mark in part.marks:
                    for i in range(len(mark)):
                        assert mark[:i] in part.marks


class TestParallelExtend:
    def translate_steps(self, gamma, record=None):
        ct = prove(gamma)
        assert isinstance(ct, ClosedTableau)
        proof = GsProof(tuple(ct.unifier.apply(f) for f in ct.root.formulas))
        link = LinkMapping({(): ()}, "tableau")
        part = InitialPart(frozenset())
        while True:
            pending = open_fringe(ct.root, part)
            if not pending:
                return ct, proof
            leaf = min(pending)
            if record is not None:
                record.append((leaf, node_at(ct.root, leaf).rule.kind, len(link.preimage(leaf))))
            proof, link, part = parallel_extend(proof, link, ct, part, leaf)

    def test_drinker_first_three_steps_build_the_expected_leaf(self):
        ct = drinker_tableau()
        proof = GsProof(tuple(ct.unifier.apply(f) for f in ct.root.formulas))
        link = LinkMapping({(): ()}, "tableau")
        part = InitialPart(frozenset())
        for leaf in [(), (0,)]:
            proof, link, part = parallel_extend(proof, link, ct, part, leaf)
        [(open_leaf, target)] = list(link.mapping.items())
        assert target == (0, 0)
        sko = const("sko1")
        expected = [
            parse(DRINKER_NEG),
            parse("~(D(sko1) => forall y. D(y))", allow_generated=True),
            parse("D(sko1)", allow_generated=True),
            parse("~(forall y. D(y))"),
        ]
        assert list(gs3.node_at(proof, open_leaf).sequent) == expected
        assert gs3.rule_names(proof) == ["not_exists", "not_implies"]
        assert proof.rule.witness == sko

    def test_closure_on_a_single_leaf_empties_the_link(self):
        ct = prove([parse("~(P => P)")])
        proof = GsProof((parse("~(P => P)"),))
        link = LinkMapping({(): ()}, "tableau")
        part = InitialPart(frozenset())
        proof, link, part = parallel_extend(proof, link, ct, part, ())
        proof, link, part = parallel_extend(proof, link, ct, part, (0,))
        assert link.mapping == {}
        assert gs3.check(proof).accepted

    def test_beta_replay_on_two_linked_leaves_makes_four(self):
        gamma = [parse(DRINKER_NEG), parse("P | (C | E)")]
        ct = prove(gamma)
        assert isinstance(ct, ClosedTableau)
        proof = GsProof(tuple(ct.unifier.apply(f) for f in ct.root.formulas))
        link = LinkMapping({(): ()}, "tableau")
        part = InitialPart(frozenset())
        fanout_seen = False
        while True:
            pending = open_fringe(ct.root, part)
            if not pending:
                break
            leaf = min(pending)
            fanned = link.preimage(leaf)
            proof, link, part = parallel_extend(proof, link, ct, part, leaf)
            if node_at(ct.root, leaf).rule.kind == "beta" and len(fanned) == 2:
                fanout_seen = True
                new_leaves = [
                    s for s, q in link.mapping.items() if q in (leaf + (0,), leaf + (1,))
                ]
                assert len(new_leaves) == 4
        assert fanout_seen
        assert gs3.check(proof).accepted


class TestDeltaGraft:
    def test_base_case_extends_by_weaken_delta_weaken_only(self):
        root = (parse("P & Q"), parse("exists x. D(x)"))
        theta = GsProof(root)
        theta = gs3.build_step(theta, (), GsRule("and"), root[0])
        sko = App("sko1", ())
        pi1, mu_part, mu_theta, held = delta_graft(
            theta,
            InitialPart(frozenset()),
            frozenset({(0,)}),
            sko,
            parse("D(sko1)", allow_generated=True),
            root[1],
        )
        new_rules = gs3.rule_names(pi1)[1:]
        assert new_rules == ["weaken", "weaken", "exists"]
        [(leaf, target)] = list(mu_part.items())
        assert target == ()
        assert mu_theta == {}
        assert held == {leaf}
        expected = Counter(root) + Counter([parse("D(sko1)", allow_generated=True)])
        assert Counter(gs3.node_at(pi1, leaf).sequent) == expected

    def test_base_case_with_single_leaf_b(self):
        theta = GsProof((parse("~(forall y. D(y))"),))
        sko = App("sko1", ())
        pi1, mu_part, _, _ = delta_graft(
            theta,
            InitialPart(frozenset()),
            frozenset({()}),
            sko,
            parse("~D(sko1)", allow_generated=True),
            parse("~(forall y. D(y))"),
        )
        # the principal is a root formula, so no weakenings are needed
        assert gs3.rule_names(pi1) == ["not_forall"]
        assert list(mu_part.values()) == [()]

    def test_nested_dependency_triggers_one_recursive_graft(self):
        ct = prove([parse(NESTED_NEG)])
        proof, stats = translate_detailed(ct)
        assert stats.graft_case_v == 1
        assert stats.graft_case_iv >= 1
        assert gs3.check(proof).accepted

    def test_recursion_measure_decreases(self):
        ct = prove([parse(NESTED_NEG)])
        ranks = skolem_ranks(ct)
        assert len(set(ranks.values())) >= 2
        _, stats = translate_detailed(ct)
        # measures are recorded per graft call: the recursive call has a
        # strictly smaller rank than its parent
        assert stats.measures[1][0] > stats.measures[2][0]

    def test_graft_duplicates_pending_branches(self):
        gamma = [parse(DRINKER_NEG), parse("P | (C | E)")]
        ct = prove(gamma)
        _, stats = translate_detailed(ct)
        assert any(after > before for before, after in stats.graft_leaf_growth)


def grown_before_skolem_replacement(ct: ClosedTableau) -> GsProof:
    """The proof ``translate`` builds, before its final rebuild."""
    proof = GsProof(tuple(ct.unifier.apply(f) for f in ct.root.formulas))
    link = LinkMapping({(): ()}, "tableau")
    part = InitialPart(frozenset())
    while pending := open_fringe(ct.root, part):
        proof, link, part = parallel_extend(proof, link, ct, part, min(pending))
    return proof


class TestInPlaceGrowth:
    @pytest.mark.parametrize("goal", [
        parse(DRINKER_NEG),
        parse(NESTED_NEG),
        parse("~((P | Q) => (Q | P))"),
        Not(growth_goal(3)),
    ], ids=["drinker", "nested", "or-commutes", "growth-3"])
    def test_no_node_object_appears_twice(self, goal):
        ct = prove([goal])
        for proof in (grown_before_skolem_replacement(ct), translate(ct)):
            ids = [id(n) for _, n in gs3.iter_nodes(proof)]
            assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("text", [DRINKER_NEG, NESTED_NEG])
    def test_translating_twice_gives_the_same_file_and_keeps_the_tableau(self, text):
        ct = prove([parse(text)])
        tab = tableau_to_json(ct)
        first = gs3.proof_to_json(translate(ct))
        second = gs3.proof_to_json(translate(ct))
        assert first == second
        assert tableau_to_json(ct) == tab

    def test_delta_graft_returns_the_tree_it_was_given(self):
        root = (parse("P & Q"), parse("exists x. D(x)"))
        theta = gs3.build_step(GsProof(root), (), GsRule("and"), root[0])
        leaf = gs3.node_at(theta, (0,))
        pi1, *_ = delta_graft(
            theta,
            InitialPart(frozenset()),
            frozenset({(0,)}),
            App("sko1", ()),
            parse("D(sko1)", allow_generated=True),
            root[1],
        )
        assert pi1 is theta and gs3.node_at(pi1, (0,)) is leaf


class TestSkolemReplacement:
    def test_rewrites_in_place_and_keeps_formulas_without_skolem_terms(self):
        goal = parse("exists x. D(x)")
        proof = gs3.build_step(GsProof((goal,)), (), GsRule("exists", App("sko1", ())), goal)
        leaf = proof.children[0]
        assert replace_skolem_terms(proof) is proof
        assert proof.children[0] is leaf
        assert proof.sequent[0] is goal and proof.principal is goal
        assert proof.rule.witness == const("c1")
        assert leaf.sequent == (goal, parse("D(c1)"))

    def test_equal_formulas_share_one_replacement(self):
        a = parse("D(sko1)", allow_generated=True)
        b = parse("D(sko1)", allow_generated=True)
        assert a is not b
        proof = replace_skolem_terms(GsProof((a, b)))
        assert proof.sequent[0] is proof.sequent[1]

    def test_two_argument_vectors_are_refused(self):
        proof = GsProof((parse("P(sko1(a), sko1(b))", allow_generated=True),))
        with pytest.raises(TranslateError, match="two argument vectors"):
            replace_skolem_terms(proof)


class TestInvariants:
    def test_link_audit_runs_every_step(self):
        ct = drinker_tableau()
        _, stats = translate_detailed(ct, audit=True)
        assert stats.link_audits == stats.steps == rule_count(ct.root)

    def test_bilink_audit_runs_every_graft(self):
        ct = prove([parse(NESTED_NEG)])
        _, stats = translate_detailed(ct, audit=True)
        assert stats.grafts == 3
        assert stats.bilink_audits == stats.grafts

    def test_growth_is_monotone(self):
        for text in (DRINKER_NEG, "~(P => P)", NESTED_NEG):
            ct = prove([parse(text)])
            proof = translate(ct)
            assert gs3.inference_count(proof) >= rule_count(ct.root)

    def test_final_proof_has_no_skolem_symbols(self):
        from tabseq.formula import formula_symbols

        ct = prove([parse(NESTED_NEG)])
        proof = translate(ct)
        for _, node in gs3.iter_nodes(proof):
            for f in node.sequent:
                assert not any(s.startswith("sko") for s in formula_symbols(f))
            if node.rule is not None and node.rule.witness is not None:
                assert not any(
                    t.is_skolem
                    for t in [node.rule.witness]
                    if isinstance(t, App)
                )

    def test_delta_witnesses_become_distinct_constants(self):
        ct = prove([parse(NESTED_NEG)])
        proof = translate(ct)
        witnesses = [
            n.rule.witness
            for _, n in gs3.iter_nodes(proof)
            if n.rule is not None and n.rule.name in ("exists", "not_forall")
        ]
        for w in witnesses:
            assert isinstance(w, App) and not w.args

    def test_audit_mode_accepts_whole_corpus_sample(self):
        from tabseq.problems import corpus

        for name, goal in corpus(generated=10):
            ct = prove([Not(goal)])
            assert isinstance(ct, ClosedTableau), name
            proof, _ = translate_detailed(ct, audit=True)
            assert gs3.check(proof).accepted, name

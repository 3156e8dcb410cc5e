import hashlib
import inspect
import json
import sys
from collections import Counter

import pytest

from tabseq import gs3
from tabseq.cli import main as cli_main
from tabseq.formula import App, Not, apply_subst, const, parse
from tabseq.gs3 import GsProof, GsRule
from tabseq.problems import HAND_GOALS, SKOLEM_GOALS, corpus, deep_tableau, growth_goal
from tabseq.tableau import (
    ClosedTableau,
    TableauNode,
    iter_nodes,
    prove,
    rule_count,
    tableau_from_json,
    tableau_to_json,
)
from tabseq.translate import (
    StepError,
    TranslateError,
    _Builder,
    build_step,
    delta_graft,
    parallel_extend,
    replace_skolem_terms,
    skolem_ranks,
    translate,
    translate_detailed,
)
from tabseq.tree import postorder

from conftest import (PathError, builder_records, node_at, random_tableau, rule_names,
                      spine_rule_names)
from reference_check import reference_check
from test_output_digest import proof_digest
from test_reference_check import MAX_UNFOLDED, unfolded_size

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
        assert spine_rule_names(proof, coalesce_weaken=True) == [
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
        assert list(proof.sequent) == [apply_subst(ct.unifier, f) for f in ct.root.formulas]


class TestSimpleCases:
    def test_propositional_needs_no_graft(self):
        ct = prove([parse("~(P => P)")])
        proof, stats = translate_detailed(ct)
        assert rule_names(proof) == ["not_implies", "axiom"]
        assert stats.grafts == 0
        assert gs3.check(proof).accepted

    def test_gamma_witness_is_the_unifier_image(self):
        ct = prove([parse("~((forall x. P(x)) => P(a))")])
        proof = translate(ct)
        names = rule_names(proof)
        assert names == ["not_implies", "forall", "axiom"]
        witness = node_at_rule(proof, "forall").rule.witness
        assert witness == const("a")

    def test_translating_a_loaded_proof_file_matches(self):
        ct = drinker_tableau()
        loaded = tableau_from_json(tableau_to_json(ct))
        assert gs3.proof_to_json(translate(loaded)) == gs3.proof_to_json(translate(ct))

    def test_a_node_object_under_two_parents_translates_as_its_unfolding(self):
        ct = prove([parse("~P"), parse("(P & Q) | (P & Q)")])
        unshared = gs3.proof_to_json(translate(ct))
        left, right = ct.root.children
        assert left.formulas == right.formulas
        right.children = left.children  # hand-built: the .tab reader refuses this
        assert gs3.proof_to_json(translate(ct)) == unshared


def node_at_rule(proof: GsProof, name: str) -> GsProof:
    for _, node in gs3.iter_nodes(proof):
        if node.rule is not None and node.rule.name == name:
            return node
    raise AssertionError(f"no {name} node")


def paths(root) -> dict:
    """The path of each node of a tree, by node."""
    return {n: p for p, n in iter_nodes(root)}


class Replay:
    """A translation's builder, for replaying a tableau's rules with
    ``parallel_extend`` one call at a time, with a path view of its link."""

    def __init__(self, ct: ClosedTableau):
        self.ct = ct
        self.builder = _Builder(ct)
        self.proof = self.builder.proof
        self.link = self.builder.link

    def extend(self, leaf):
        parallel_extend(node_at(self.ct.root, leaf), self.builder)

    def link_paths(self) -> dict:
        """The link as {sequent leaf path: tableau node path}."""
        leaf_path, node_path = paths(self.proof), paths(self.ct.root)
        return {leaf_path[s]: node_path[q] for q, leaves in self.link.items() for s in leaves}


class TestInitialPart:
    """The replayed rules form a prefix-closed set, the initial part, and
    each replay takes a rule on its fringe."""

    def test_first_extension_replays_the_root_rule(self):
        replay = Replay(drinker_tableau())
        replay.extend(())
        assert node_at(replay.ct.root, ()).rule.kind == "gamma"
        assert set(replay.link_paths().values()) == {(0,)}
        assert list(replay.link) == [node_at(replay.ct.root, (0,))]

    def test_final_extension_consumes_the_closure(self):
        replay = Replay(drinker_tableau())
        for leaf in [(), (0,), (0, 0), (0, 0, 0)]:
            replay.extend(leaf)
        # The closure is a leaf: the fringe is empty, with no sequent leaf.
        assert replay.link == {} and replay.link_paths() == {}
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            replay.extend((0, 0, 0))
        # An open leaf reaches the fringe, but has no rule to replay.
        replay = Replay(drinker_tableau())
        node_at(replay.ct.root, (0, 0, 0)).rule = None
        for leaf in [(), (0,), (0, 0)]:
            replay.extend(leaf)
        with pytest.raises(TranslateError, match="no rule to replay"):
            replay.extend((0, 0, 0))

    def test_errors(self):
        replay = Replay(drinker_tableau())
        replay.extend(())
        before = (gs3.proof_to_json(replay.proof), replay.link_paths(), set(replay.link))
        # A replayed node has left the fringe.
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            replay.extend(())
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            replay.extend((0, 0))
        # A refused replay changes nothing.
        assert (gs3.proof_to_json(replay.proof), replay.link_paths(), set(replay.link)) == before

    def test_fringe_needs_every_ancestor_replayed_and_the_node_to_exist(self):
        replay = Replay(drinker_tableau())
        with pytest.raises(TranslateError, match="not a fringe leaf"):
            replay.extend((0,))  # the root rule is not replayed
        replay.extend(())
        with pytest.raises(PathError, match="no node at path 5"):
            replay.extend((5,))


class TestParallelExtend:
    def test_drinker_first_three_steps_build_the_expected_leaf(self):
        replay = Replay(drinker_tableau())
        link = replay.link
        for leaf in [(), (0,)]:
            replay.extend(leaf)
        # The link is updated in place.
        assert replay.link is link
        [(open_leaf, target)] = list(replay.link_paths().items())
        assert target == (0, 0)
        sko = const("sko1")
        expected = [
            parse(DRINKER_NEG),
            parse("~(D(sko1) => forall y. D(y))", allow_generated=True),
            parse("D(sko1)", allow_generated=True),
            parse("~(forall y. D(y))"),
        ]
        assert list(node_at(replay.proof, open_leaf).sequent) == expected
        assert rule_names(replay.proof) == ["not_exists", "not_implies"]
        assert replay.proof.rule.witness == sko

    def test_closure_on_a_single_leaf_empties_the_link(self):
        replay = Replay(prove([parse("~(P => P)")]))
        replay.extend(())
        replay.extend((0,))
        assert replay.link_paths() == {}
        assert gs3.check(replay.proof).accepted

    def test_beta_replay_on_two_equal_linked_leaves_shares_one_step(self):
        ct = prove([parse(DRINKER_NEG), parse("P | (C | E)")])
        assert isinstance(ct, ClosedTableau)
        replay = Replay(ct)
        fanout_seen = False
        for leaf, node in iter_nodes(ct.root):
            if node.rule is None:
                continue
            fanned = list(replay.link[node])
            replay.extend(leaf)
            if node.rule.kind == "beta" and len(fanned) == 2:
                fanout_seen = True
                # The two linked leaves have one sequent, so the second
                # shares the first one's step and its two premises.
                first, second = fanned
                assert first.sequent == second.sequent
                assert second.children is first.children
                new_leaves = [s for child in node.children for s in replay.link[child]]
                assert len(set(new_leaves)) == len(new_leaves) == 2
                unfolded = [n for _, n in gs3.iter_nodes(replay.proof) if n in new_leaves]
                assert len(unfolded) == 4
        assert fanout_seen
        assert replay.link_paths() == {}
        assert gs3.check(replay.proof).accepted


class TestSharing:
    def test_a_leaf_shares_the_step_of_the_first_leaf_with_its_key(self):
        builder = _Builder(drinker_tableau())
        seq, other = (parse("P & Q"),), (parse("P & R"),)
        a, b, c, d = GsProof(seq), GsProof(seq), GsProof(seq), GsProof(other)
        first, open_before = {}, builder.open
        assert not builder.shares(first, seq, a)
        with pytest.raises(TranslateError, match="cannot share a step"):
            builder.shares(first, seq, b)  # the first leaf has not stepped yet
        builder.step(a, GsRule("and"), seq[0])
        assert builder.shares(first, seq, b)
        assert (b.rule, b.principal) == (a.rule, a.principal) and b.children is a.children
        assert builder.open == open_before - 1  # b is no longer an open leaf
        with pytest.raises(TranslateError, match="cannot share a step"):
            builder.shares(first, seq, b)  # no longer open
        with pytest.raises(TranslateError, match="cannot share a step"):
            builder.shares(first, seq, d)  # another sequent under the same key
        assert c.is_open and d.is_open


def graft(theta: GsProof, B, sko: App, delta_formula, principal):
    """``delta_graft`` over the leaves at the paths ``B`` of a tree that no
    graft has touched yet, with the state a translation would pass.  Returns
    the bilink as {leaf path: path of the leaf of theta it is linked to},
    and the paths of the held leaves."""
    empty = ClosedTableau(TableauNode(()), {})
    builder = _Builder(empty)
    builder.proof, builder.ranks = theta, {sko: 1}
    builder.nodes, builder.formulas, builder.witnesses = builder_records(theta)
    builder.open = sum(1 for _, n in gs3.iter_nodes(theta) if n.is_open)
    bilink, held = delta_graft(
        [node_at(theta, b) for b in sorted(B)], sko, delta_formula, principal, builder)
    at = paths(theta)
    return {at[s]: at[q] for q, leaves in bilink.items() for s in leaves}, {at[s] for s in held}


class TestDeltaGraft:
    def test_base_case_extends_by_weaken_delta_weaken_only(self):
        principal = parse("exists x. D(x)")
        root = (parse("P & (exists x. D(x))"),)
        theta = GsProof(root)
        build_step(theta, GsRule("and"), root[0])
        sko = App("sko1", ())
        d_sko = parse("D(sko1)", allow_generated=True)
        links, held = graft(theta, {(0,)}, sko, d_sko, principal)
        # The base graft weakens the B leaf down to the root sequent plus
        # the principal, applies the existential rule and drops the extra
        # principal; then theta's one rule is regrown on top.
        assert rule_names(theta) == ["and", "weaken", "exists", "weaken", "and"]
        # One leaf, linked to theta's one leaf: no leaf outside B.
        [(leaf, target)] = list(links.items())
        assert target == (0,)
        assert held == {leaf}
        expected = Counter(theta.children[0].sequent) + Counter([d_sko])
        assert Counter(node_at(theta, leaf).sequent) == expected

    def test_base_case_with_single_leaf_b(self):
        theta = GsProof((parse("~(forall y. D(y))"),))
        sko = App("sko1", ())
        links, _ = graft(
            theta, {()}, sko, parse("~D(sko1)", allow_generated=True), parse("~(forall y. D(y))"))
        # the principal is a root formula, so no weakenings are needed
        assert rule_names(theta) == ["not_forall"]
        assert list(links.values()) == [()]

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
        proof = translate(ct)
        # The graft on the P branch regrows the split of the pending (C | E)
        # branch as well, so the proof unfolds to more axioms than the
        # tableau has closures.
        closures = sum(1 for _, n in iter_nodes(ct.root) if n.rule.kind == "closure")
        axioms = sum(1 for _, n in gs3.iter_nodes(proof) if n.rule.name == "axiom")
        assert axioms > closures == 3


def grown_before_skolem_replacement(ct: ClosedTableau, monkeypatch) -> tuple[list, set, set]:
    """The builder's records of the proof ``translate`` grows, as
    ``replace_skolem_terms`` takes them, before its Skolem terms are
    replaced: the node objects, root first, the formulas and the
    witnesses."""
    records = []

    def keep(nodes, formulas, witnesses):
        records.extend((nodes, formulas, witnesses))
        return nodes[0]

    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["tabseq.translate"], "replace_skolem_terms", keep)
        translate_detailed(ct, audit=False)
    return tuple(records)


class TestInPlaceGrowth:
    @pytest.mark.parametrize("goal", [
        parse(DRINKER_NEG),
        parse(NESTED_NEG),
        parse("~((P | Q) => (Q | P))"),
    ], ids=["drinker", "nested", "or-commutes"])
    def test_no_node_object_appears_twice(self, goal, monkeypatch):
        ct = prove([goal])
        for proof in (grown_before_skolem_replacement(ct, monkeypatch)[0][0], translate(ct)):
            ids = [id(n) for _, n in gs3.iter_nodes(proof)]
            assert len(ids) == len(set(ids))

    def test_growth_3_shares_subproofs_and_unfolds_to_the_tree(self, monkeypatch):
        """Leaves with equal sequents share one step, so the 751-inference
        tree is built from at most two objects per node entry of its
        ``.gs3``: an entry's first object and the leaves that shared it."""
        ct = prove([Not(growth_goal(3))])
        for proof in (grown_before_skolem_replacement(ct, monkeypatch)[0][0], translate(ct)):
            entries = len(json.loads(gs3.proof_to_json(proof))["nodes"])
            objects = sum(1 for _ in postorder(proof))
            assert entries == 83 and objects <= 2 * entries
            assert gs3.inference_count(proof) == 751
            assert sum(1 for n in gs3.iter_nodes(proof) if n[1].rule is not None) == 751

    def test_growth_5_translates_checks_and_reads_back_as_the_shared_tree(self):
        ct = prove([Not(growth_goal(5))])
        proof = translate(ct, audit=True)
        text = gs3.proof_to_json(proof)
        back = gs3.proof_from_json(text)
        assert rule_count(ct.root) == 24 and len(json.loads(text)["nodes"]) == 373
        assert gs3.inference_count(proof) == gs3.inference_count(back) == 107_693_581
        assert gs3.check(back).accepted and gs3.proof_to_json(back) == text

    @pytest.mark.parametrize("text", [DRINKER_NEG, NESTED_NEG])
    def test_translating_twice_gives_the_same_file_and_keeps_the_tableau(self, text):
        ct = prove([parse(text)])
        tab = tableau_to_json(ct)
        first = gs3.proof_to_json(translate(ct))
        second = gs3.proof_to_json(translate(ct))
        assert first == second
        assert tableau_to_json(ct) == tab

    def test_delta_graft_grows_the_tree_it_was_given(self):
        root = (parse("P & Q"), parse("exists x. D(x)"))
        theta = GsProof(root)
        build_step(theta, GsRule("and"), root[0])
        (leaf,) = theta.children
        graft(theta, {(0,)}, App("sko1", ()), parse("D(sko1)", allow_generated=True), root[1])
        assert theta.children == (leaf,)
        assert leaf.rule == GsRule("weaken") and not leaf.is_open


class TestSkolemReplacement:
    def test_rewrites_in_place_and_keeps_formulas_without_skolem_terms(self):
        goal = parse("exists x. D(x)")
        proof = GsProof((goal,))
        build_step(proof, GsRule("exists", App("sko1", ())), goal)
        leaf = proof.children[0]
        assert replace_skolem_terms(*builder_records(proof)) is proof
        assert proof.children[0] is leaf
        assert proof.sequent[0] is goal and proof.principal is goal
        assert proof.rule.witness == const("c1")
        assert leaf.sequent == (goal, parse("D(c1)"))

    def test_a_shared_node_is_rewritten_once(self):
        # ``Q | Q`` splits into two equal premises, one object, which refutes
        # ``~forall y. D(y)`` and ``forall y. D(y)`` through a Skolem witness.
        sko = App("sko1", ())
        q, neg, pos = parse("Q | Q"), parse("~(forall y. D(y))"), parse("forall y. D(y)")
        proof = GsProof((q, neg, pos))
        build_step(proof, GsRule("or"), q)
        shared = proof.children[0]
        proof.children = (shared, shared)
        build_step(shared, GsRule("not_forall", sko), neg)
        (node,) = shared.children
        build_step(node, GsRule("forall", sko), pos)
        (node,) = node.children
        build_step(node, GsRule("axiom"), parse("D(sko1)", allow_generated=True))
        before = shared.sequent
        assert replace_skolem_terms(*builder_records(proof)) is proof
        assert proof.children == (shared, shared) and shared.sequent == before
        assert shared.rule == GsRule("not_forall", const("c1"))
        assert node.sequent[-2:] == (parse("~D(c1)"), parse("D(c1)"))
        assert gs3.check(proof).accepted

    def test_equal_formulas_share_one_replacement(self):
        a = parse("D(sko1)", allow_generated=True)
        assert parse("D(sko1)", allow_generated=True) is a
        proof = replace_skolem_terms(*builder_records(GsProof((a, a))))
        assert proof.sequent[0] is proof.sequent[1] is parse("D(c1)")

    def test_walk_visits_each_distinct_subnode_once(self, monkeypatch):
        # The symbols in use are read from the formulas' ``symbols`` slots:
        # with every slot cleared, one replacement makes each distinct
        # subnode's set at most once, and a replacement on the records of
        # the same proof grown again makes none.
        from conftest import count_symbol_sets, forget_symbols

        records = grown_before_skolem_replacement(prove([Not(growth_goal(3))]), monkeypatch)
        proof = records[0][0]
        nodes = list(postorder(proof))
        distinct = forget_symbols([f for node in nodes for f in node.sequent]
                                  + [n.rule.witness for n in nodes if n.rule and n.rule.witness])
        made = count_symbol_sets(monkeypatch)
        assert replace_skolem_terms(*records) is proof
        assert set(made.values()) == {1} and set(made) <= distinct
        assert any(isinstance(x, App) and x.is_skolem for x in made)
        again = grown_before_skolem_replacement(prove([Not(growth_goal(3))]), monkeypatch)
        made.clear()
        assert replace_skolem_terms(*again) is again[0][0] and not made

    def test_two_argument_vectors_are_refused(self):
        proof = GsProof((parse("P(sko1(a), sko1(b))", allow_generated=True),))
        with pytest.raises(TranslateError, match="two argument vectors"):
            replace_skolem_terms(*builder_records(proof))


def recorded_tableaux():
    """(name, closed tableau) for the records test: a corpus sample,
    growth k=1..4 and a one-branch tableau of 300 gamma steps."""
    for name, goal in corpus(300, seed=5):
        yield name, prove([Not(goal)])
    for k in range(1, 5):
        yield f"growth-{k}", prove([Not(growth_goal(k))])
    yield "deep_tableau(300)", deep_tableau(300)


class TestBuilderRecords:
    def test_records_agree_with_a_walk_of_the_proof(self, monkeypatch):
        """The grafts and the Skolem replacement read the builder's records
        in place of a walk; they must be what a walk finds."""
        for name, ct in recorded_tableaux():
            assert isinstance(ct, ClosedTableau), name
            nodes, formulas, witnesses = grown_before_skolem_replacement(ct, monkeypatch)
            proof = nodes[0]
            _, walked_formulas, walked_witnesses = builder_records(proof)
            assert (formulas, witnesses) == (walked_formulas, walked_witnesses), name
            assert replace_skolem_terms(nodes, formulas, witnesses) is proof
            assert gs3.check(proof).accepted, name
            # Each object of the finished proof once, after all its parents.
            finished = postorder(proof)
            assert len(nodes) == len(finished), name
            assert {id(n) for n in nodes} == {id(n) for n in finished}, name
            place = {id(n): i for i, n in enumerate(nodes)}
            assert all(place[id(c)] > place[id(n)] for n in nodes for c in n.children), name


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
        from tabseq.formula import symbols_of

        ct = prove([parse(NESTED_NEG)])
        proof = translate(ct)
        for _, node in gs3.iter_nodes(proof):
            for f in node.sequent:
                assert not any(s.startswith("sko") for s in symbols_of(f))
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


def outcomes_with_one_premise_cut(ct: ClosedTableau, monkeypatch) -> Counter:
    """For each k, the error of an audited translation whose k-th
    ``build_step`` drops the last formula of its first premise, or "ok";
    the count of each (exception class, message)."""
    module = sys.modules["tabseq.translate"]
    real = module.build_step
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(module, "build_step", lambda *a, **kw: (calls.append(1), real(*a, **kw))[1])
        translate_detailed(ct, audit=True)
    out: Counter = Counter()
    for k in range(1, len(calls) + 1):
        count = [0]

        def cut(node, *args, **kwargs):
            real(node, *args, **kwargs)
            count[0] += 1
            if count[0] == k and node.children:
                first = node.children[0]
                first.sequent = first.sequent[:-1]

        with monkeypatch.context() as patch:
            patch.setattr(module, "build_step", cut)
            try:
                translate_detailed(ct, audit=True)
            except (TranslateError, StepError) as e:
                out[type(e).__name__, str(e)] += 1
            else:
                out["ok", ""] += 1
    return out


def test_audits_catch_a_cut_premise_at_every_step(monkeypatch):
    """Pins which audit, or which later step, notices a premise that lost a
    formula, with the paths the messages name."""
    seen = Counter()
    for text in (DRINKER_NEG, NESTED_NEG):
        seen += outcomes_with_one_premise_cut(prove([parse(text)]), monkeypatch)
    missing = "schema-mismatch: principal ({}) not in sequent"
    containment = "containment invariant broken at sequent leaf {}"
    assert seen == Counter({
        ("ok", ""): 2,  # the cut step was an axiom, which has no premise
        ("TranslateError", "a held leaf does not carry exactly the Skolem side formula"): 16,
        ("TranslateError", "graft leaf does not contain the root sequent"): 3,
        ("TranslateError", containment.format("0")): 2,
        ("TranslateError", containment.format("00")): 2,
        ("TranslateError", containment.format("0" * 9)): 1,
        ("TranslateError", containment.format("0" * 10)): 1,
        ("TranslateError", containment.format("0" * 51)): 1,
        ("TranslateError", containment.format("0" * 52)): 1,
        ("TranslateError", containment.format("0" * 53)): 1,
        ("TranslateError", containment.format("0" * 54)): 1,
        ("StepError", missing.format(
            "~(D(k1) => (forall y. (exists z. (E(y, z) => (forall w. E(z, w))))))")): 6,
        ("StepError", missing.format("~(D(sko1) => (forall y. D(y)))")): 1,
        ("StepError", missing.format("~(E(sko1, sko1) => (forall w. E(sko1, w)))")): 2,
        ("StepError", missing.format("~(exists z. (E(sko1, z) => (forall w. E(z, w))))")): 3,
        ("StepError", missing.format("~(forall w. E(sko1, w))")): 12,
        ("StepError", missing.format(
            "~(forall y. (exists z. (E(y, z) => (forall w. E(z, w)))))")): 7,
        ("StepError", missing.format("~(forall y. D(y))")): 2,
    })


# ------------------------------------------------------ case-v branches


def lines_run(function, run) -> set[int]:
    """The line numbers of ``function``'s source that ran while ``run()``
    did, from a ``sys.settrace`` tracer that follows only that function."""
    code, ran = function.__code__, set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


@pytest.mark.parametrize("name,text", SKOLEM_GOALS, ids=[name for name, _ in SKOLEM_GOALS])
def test_skolem_goals_run_both_case_v_branches(tmp_path, capsys, name, text):
    """Each goal proves with ``--negate``, translates with the audits on
    from its ``.tab``, round-trips through its ``.gs3`` text and checks;
    and the body of each case-v branch of ``delta_graft``, under ``elif s
    in linked_to`` and ``elif s in old_clones``, runs."""
    source, first = inspect.getsourcelines(delta_graft)
    bodies = [first + i + 1 for i, line in enumerate(source)
              if line.strip() in ("elif s in linked_to:", "elif s in old_clones:")]
    assert len(bodies) == 2
    goal = tmp_path / f"{name}.p"
    goal.write_text(text + "\n", encoding="utf-8")
    assert run_cli(["prove", "--negate", str(goal)]) == 0
    ct = tableau_from_json((tmp_path / f"{name}.tab").read_text(encoding="utf-8"))
    proofs = []
    ran = lines_run(delta_graft, lambda: proofs.append(translate(ct, audit=True)))
    assert set(bodies) <= ran
    written = (tmp_path / f"{name}.gs3").read_text(encoding="utf-8")
    assert gs3.proof_to_json(proofs[0]) == written
    assert gs3.proof_to_json(gs3.proof_from_json(written)) == written
    assert run_cli(["check", str(tmp_path / f"{name}.gs3")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Accepted"


# ------------------------------------------------------ random rule orders

# sha256 over one line per closed tableau of the test below: its goal,
# gamma limit, seed and the ``proof_digest`` of its translation.
RANDOM_ORDER_DIGEST = "e380c9c23cff9072fb887d437f08a5bbc55f2eb2f304bf226b8c10771cc8a4ae"


def test_random_rule_orders_translate_and_check():
    """Each negated hand goal and Skolem goal, refuted in 10 seeded random
    rule orders per gamma limit 2 and 3: every closed tableau reads back
    from its ``.tab`` text, translates with the audits on and checks, and
    the reference checker agrees on each proof that unfolds to at most
    ``MAX_UNFOLDED`` nodes.  At least 100 translations reuse an equal
    existential step (case iv) and at least 100 graft recursively (case v)."""
    lines, reuse, recurse = [], 0, 0
    for name, text in HAND_GOALS + SKOLEM_GOALS:
        for gamma_limit in (2, 3):
            for seed in range(10):
                ct = random_tableau([Not(parse(text))], seed, gamma_limit=gamma_limit,
                                    max_steps=200)
                if ct is None:
                    continue
                proof, stats = translate_detailed(tableau_from_json(tableau_to_json(ct)),
                                                  audit=True)
                assert gs3.check(proof).accepted, (name, gamma_limit, seed)
                if unfolded_size(proof) <= MAX_UNFOLDED:
                    assert reference_check(proof) == (True, (), ""), (name, gamma_limit, seed)
                reuse += stats.graft_case_iv > 0
                recurse += stats.graft_case_v > 0
                lines.append(f"{name} {gamma_limit} {seed} {proof_digest(proof)}")
    assert len(lines) == 437
    assert reuse >= 100 and recurse >= 100
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RANDOM_ORDER_DIGEST


def run_cli(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    return exc.value.code

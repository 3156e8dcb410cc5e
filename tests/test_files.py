"""Proof files: byte-exact output, faithful read-back, and sharing of
equal formulas between the nodes of a proof read back from a file or
built by ``translate``."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tabseq
import tabseq.translate as translate_module
from tabseq import gs3, tableau
from tabseq.formula import Not, parse
from tabseq.gs3 import check, proof_from_json, proof_to_json
from tabseq.problems import HAND_GOALS, corpus, generated_goals, growth_goal
from tabseq.tableau import ClosedTableau, prove, tableau_from_json, tableau_to_json
from tabseq.translate import translate
from tabseq.tree import postorder

# sha256 of the concatenated .tab texts and of the concatenated .gs3 texts
# of each group, in goal order, as the version-4 tableau writer and the
# version-3 proof writer write them.
GOLDEN = {
    "hand": ("6fdfe314d26ea1217f0b44b588476cd7621feff2aacdd77bcfd6d09f62a235e9",
             "3300a48dd53259eb04b045a96d15ecc594bc5ba3572e180caed8ddef69d85ddd"),
    "growth": ("2acc770eb6d628e37cd5794b13dd4fbbd0ef927bdd53960f4cad755686711cea",
               "f828d6ac9ca589da136a69f28e9a220c92d88b44f6adbd6f68fa0d893fc1e091"),
    "generated": ("e33eaa3c6d439847eeecc51cd92a84967db758285fcc5967165a82ab9874f7a8",
                  "5ea69cfe818e54d92c75160b8daef5e804b6153c1076bdf2e5a2997ad5bcb057"),
}


def golden_goals(group):
    if group == "hand":
        return [parse(text) for _, text in HAND_GOALS]
    if group == "growth":
        return [growth_goal(k) for k in (1, 2, 3)]
    return [goal for _, goal in generated_goals(50, 0)]


def proved(goal) -> ClosedTableau:
    ct = prove([Not(goal)])
    assert isinstance(ct, ClosedTableau)
    return ct


def digests(group) -> tuple[str, str]:
    tab, seq = hashlib.sha256(), hashlib.sha256()
    for goal in golden_goals(group):
        ct = proved(goal)
        tab.update(tableau_to_json(ct).encode())
        seq.update(proof_to_json(translate(ct)).encode())
    return tab.hexdigest(), seq.hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_proof_files_are_byte_identical_to_the_seed(group):
    assert digests(group) == GOLDEN[group]


def test_golden_digests_hold_in_processes_with_other_hash_seeds():
    """Formula hashes are addresses and string hashes vary with
    ``PYTHONHASHSEED``, so set order differs between processes; the bytes
    written must not."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(tabseq.__file__).resolve().parent.parent)
    script = ("import json, test_files\n"
              "print(json.dumps({g: test_files.digests(g) for g in test_files.GOLDEN}))")
    for seed in ("1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            p for p in (tests, src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert {g: tuple(d) for g, d in json.loads(done.stdout).items()} == GOLDEN, seed


def test_corpus_tableaux_read_back_translate_and_check():
    for name, goal in corpus():
        ct = proved(goal)
        tab_text = tableau_to_json(ct)
        back = tableau_from_json(tab_text)
        assert tableau_to_json(back) == tab_text, name
        proof = translate(back)
        assert check(proof).accepted, name
        gs3_text = proof_to_json(proof)
        assert gs3_text == proof_to_json(translate(ct)), name
        assert proof_to_json(proof_from_json(gs3_text)) == gs3_text, name


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_growth_proof_parses_each_distinct_formula_once(monkeypatch):
    text = proof_to_json(translate(proved(growth_goal(3))))
    calls = counting(monkeypatch, gs3, "parse")
    proof = proof_from_json(text)
    assert len(calls) == len(set(calls)) <= 17
    by_text: dict[str, object] = {}
    for _, node in gs3.iter_nodes(proof):
        formulas = node.sequent + ((node.principal,) if node.principal is not None else ())
        for f in formulas:
            assert by_text.setdefault(gs3.print_formula(f), f) is f


def one_object_per_formula(proof) -> int:
    """The number of distinct formulas in the sequents and principals,
    asserting that each is one object."""
    by_text: dict[str, object] = {}
    for _, node in gs3.iter_nodes(proof):
        formulas = node.sequent + ((node.principal,) if node.principal is not None else ())
        for f in formulas:
            assert by_text.setdefault(gs3.print_formula(f), f) is f
    return len(by_text)


def test_translated_growth_proof_shares_each_distinct_formula():
    assert one_object_per_formula(translate(proved(growth_goal(3)))) == 17


def test_translated_hand_goals_share_each_distinct_formula():
    # Here premise formulas also equal instances of tableau formulas.
    for goal in golden_goals("hand"):
        one_object_per_formula(translate(proved(goal)))


def test_translate_computes_premise_additions_once_per_rule_and_principal(monkeypatch):
    # Without the audit: the final checker run recomputes every schema on
    # its own, as a checker should.
    ct = proved(growth_goal(3))
    calls = counting(monkeypatch, gs3, "premise_additions")
    proof = translate(ct, audit=False)
    pairs = {(n.rule, n.principal) for _, n in gs3.iter_nodes(proof)
             if n.rule is not None and n.rule.name not in ("axiom", "weaken")}
    # Every pair needs its additions once, and the Skolem replacement maps
    # pairs one to one, so equal counts mean no pair was computed twice.
    assert len(calls) == len(pairs) == 11


def test_check_computes_premise_additions_once_per_rule_and_principal(monkeypatch):
    """``check`` derives the additions of each distinct (rule, principal)
    pair once per call, however many node objects of the translator's
    shared DAG apply it."""
    proof = translate(proved(growth_goal(3)))
    decompositions = [n for n in postorder(proof)
                      if n.rule is not None and n.rule.name not in ("axiom", "weaken")]
    pairs = {(n.rule, n.principal) for n in decompositions}
    calls = counting(monkeypatch, gs3, "premise_additions")
    assert check(proof).accepted
    # The unfolded tree has 751 inferences, 377 of which need their
    # schema's additions, made by 62 node objects.
    assert len(decompositions) == 62
    assert len(calls) == len(pairs) == 11
    assert check(proof).accepted and len(calls) == 22  # the memo lives for one call


def test_translate_finds_outermost_skolem_terms_once_per_formula(monkeypatch):
    ct = proved(growth_goal(3))
    calls = counting(monkeypatch, translate_module, "outermost_skolem_terms")
    translate_module.skolem_ranks(ct)
    ranked = list(calls)
    calls.clear()
    translate(ct, audit=False)
    # ``translate`` ranks the Skolem terms first; every later call is for
    # a formula whose terms no earlier call of the builder found, and
    # ``build_step``, which shares this module's binding, falls back on
    # none of its own.
    assert calls[:len(ranked)] == ranked
    rest = calls[len(ranked):]
    assert len(rest) == len(set(rest)) == 6


def test_read_back_proofs_get_the_same_verdicts():
    # Read-back sequents are sorted by formula text, so the checker sees
    # the same inferences in a second order of formulas.
    stray = parse("Stray")
    for name, goal in corpus():
        proof = translate(proved(goal))
        back = proof_from_json(proof_to_json(proof))
        assert check(back) == check(proof) == gs3.CheckResult(True), name
        path, node = list(gs3.iter_nodes(proof))[-1]
        tampered = gs3.replace_at(proof, path, gs3.GsProof(
            node.sequent + (stray,), node.rule, node.principal, node.children))
        result = check(tampered)
        assert not result.accepted, name
        assert check(proof_from_json(proof_to_json(tampered))) == result, name


def test_tableau_parses_each_distinct_formula_once(monkeypatch):
    text = tableau_to_json(proved(growth_goal(3)))
    calls = counting(monkeypatch, tableau, "parse")
    ct = tableau_from_json(text)
    assert len(calls) == len(set(calls))
    by_text: dict[str, object] = {}
    for _, node in tableau.iter_nodes(ct.root):
        for f in node.formulas:
            assert by_text.setdefault(tableau.print_formula(f), f) is f


def test_writers_give_each_distinct_formula_one_table_entry(monkeypatch):
    ct = proved(growth_goal(3))
    proof = translate(ct)
    for module, write, value in ((gs3, proof_to_json, proof), (tableau, tableau_to_json, ct)):
        calls = counting(monkeypatch, module, "print_formula")
        table = json.loads(write(value))["table"]
        assert calls == [], module.__name__
        assert len({json.dumps(entry) for entry in table}) == len(table), module.__name__

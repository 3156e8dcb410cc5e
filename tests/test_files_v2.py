"""Proof files over a structured formula table: version-3 `.gs3` files, one
shared node DAG, each derived sequent written as its parent's rule, and
version-4 `.tab` files, each grown node written as its parent plus what its
rule introduced.  Older files are refused and upgraded by
`scripts/upgrade_files.py`, version-2 `.gs3` and version-2 and -3 `.tab`
files by the readers that moved there; deep proofs read back; the checker
on shared read-back proofs; hostile and mutated files."""

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import tabseq
import tabseq.translate as translate_module
from tabseq import gs3, tableau
from tabseq.cli import main
from tabseq.formula import (MAX_DEPTH, And, App, Atom, Forall, Implies, Not, Or, Var, parse,
                            print_formula)
from tabseq.gs3 import GsProof, GsRule, check, proof_from_json, proof_to_json
from tabseq.problems import HAND_GOALS, corpus, deep_tableau, generated_goals, growth_goal
from tabseq.tableau import (
    AuditError,
    ClosedTableau,
    audit_closed_tableau,
    prove,
    render_tableau,
    tableau_from_json,
    tableau_to_json,
)
from tabseq.translate import translate
from tabseq.tree import postorder

from conftest import UPGRADE_SCRIPT, node_at, run_upgrade, tableau_shape, upgrade_module

V1_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v1"
V2_FIXTURES = V1_FIXTURES.parent / "v2"
V3_FIXTURES = V1_FIXTURES.parent / "v3"
FIXTURE_GOALS = {
    "drinker": parse(dict(HAND_GOALS)["drinker"]),
    "growth-2": growth_goal(2),
    "gen001": dict(generated_goals(2, 0))["gen001"],
}


def proved(goal) -> ClosedTableau:
    ct = prove([Not(goal)])
    assert isinstance(ct, ClosedTableau)
    return ct


def run_cli(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def depth(root) -> int:
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in node.children)
    return deepest


# ------------------------------------------------------------ version 1


@pytest.mark.parametrize("name", sorted(FIXTURE_GOALS))
def test_v1_fixture_writes_the_fresh_text(tmp_path, capsys, name):
    """The upgrade script writes each version-1 fixture as the current
    writers write the fixture's goal, and the checker accepts the
    upgraded proof."""
    ct = proved(FIXTURE_GOALS[name])
    fresh_tab, fresh_gs3 = tableau_to_json(ct), proof_to_json(translate(ct))
    v1_tab, v1_gs3 = V1_FIXTURES / f"{name}.tab", V1_FIXTURES / f"{name}.gs3"
    assert all("version" not in json.loads(path.read_text(encoding="utf-8"))
               for path in (v1_tab, v1_gs3))
    assert run_upgrade([str(v1_tab), str(v1_gs3), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / f"{name}.tab").read_text(encoding="utf-8") == fresh_tab
    assert (tmp_path / f"{name}.gs3").read_text(encoding="utf-8") == fresh_gs3
    assert json.loads(fresh_tab)["version"] == 4 and json.loads(fresh_gs3)["version"] == 3
    assert check(proof_from_json(fresh_gs3)).accepted


@pytest.mark.parametrize("path", sorted(V1_FIXTURES.iterdir()), ids=lambda p: p.name)
def test_v1_file_is_refused_with_the_upgrade_hint(tmp_path, capsys, path):
    """``check`` and ``translate`` read no version-1 file: exit 2, with one
    message that names the upgrade script.  A top level that is no object
    has a message of its own."""
    command = "check" if path.suffix == ".gs3" else "translate"
    kind = "sequent proof" if path.suffix == ".gs3" else "tableau proof"
    out = ["--out", str(tmp_path / "o.gs3")] if command == "translate" else []
    assert run_cli([command, str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: malformed {kind}: no version field") and err.count("\n") == 1
    assert "scripts/upgrade_files.py" in err and "Traceback" not in err
    listed = tmp_path / f"list{path.suffix}"
    listed.write_text("[1, 2]\n", encoding="utf-8")
    assert run_cli([command, str(listed), *out]) == 2
    assert capsys.readouterr().err == f"{listed}: malformed {kind}: top level must be a JSON object\n"
    assert not (tmp_path / "o.gs3").exists()


@pytest.mark.parametrize("name", sorted(FIXTURE_GOALS))
def test_v2_fixture_reads_back_translates_and_checks(tmp_path, capsys, name):
    """The upgrade script writes each version-2 fixture as the current
    writers write the fixture's goal, and the upgraded tableau translates
    to the upgraded ``.gs3`` bytes."""
    ct = proved(FIXTURE_GOALS[name])
    fresh_tab, fresh_gs3 = tableau_to_json(ct), proof_to_json(translate(ct))
    v2_tab, v2_gs3 = V2_FIXTURES / f"{name}.tab", V2_FIXTURES / f"{name}.gs3"
    v2_gs3_text = v2_gs3.read_text(encoding="utf-8")
    assert (json.loads(v2_tab.read_text(encoding="utf-8"))["version"]
            == json.loads(v2_gs3_text)["version"] == 2)
    assert run_upgrade([str(v2_tab), str(v2_gs3), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    upgraded = (tmp_path / f"{name}.tab").read_text(encoding="utf-8")
    assert upgraded == fresh_tab and json.loads(fresh_tab)["version"] == 4
    upgraded_gs3 = (tmp_path / f"{name}.gs3").read_text(encoding="utf-8")
    assert upgraded_gs3 == fresh_gs3 and json.loads(fresh_gs3)["version"] == 3
    back = tableau_from_json(upgraded)
    assert tableau_shape(back) == tableau_shape(tableau_from_json(fresh_tab))
    proof = translate(back)
    assert proof_to_json(proof) == upgraded_gs3
    assert check(proof).accepted and check(proof_from_json(upgraded_gs3)).accepted


# sha256 of each committed old fixture as the upgrade script rewrites it,
# or None for a forged one it refuses with exit status 2.
UPGRADED = {
    "v1/drinker.gs3": "e6ca4cadd86214e134fe1f12fedf20c3b8fa254c7bd7992a10586ec3214a3cc7",
    "v1/drinker.tab": "d624f8669c8ceb2c7c0323ea0c9d4c2659fd13ee41ba07151cb2ccd57d350879",
    "v1/gen001.gs3": "eb7092bbc616db00d50e6a3589115c3b8cda3525502c2450d8c260b77cdbf08d",
    "v1/gen001.tab": "2c56d2c700e897fe8b265b72c73b9b724bdf9b975d1be5e8bf73c47c86826fdb",
    "v1/growth-2.gs3": "3bf52f78672f738ca2387d92ee9af8ee1bc692a7c5c0b0320a3d2ccccf46e50e",
    "v1/growth-2.tab": "ce47140474bec35fdd9247e3a49f286d8912b984a13ae98dc39c450da0637650",
    "v2/drinker.gs3": "e6ca4cadd86214e134fe1f12fedf20c3b8fa254c7bd7992a10586ec3214a3cc7",
    "v2/drinker.tab": "d624f8669c8ceb2c7c0323ea0c9d4c2659fd13ee41ba07151cb2ccd57d350879",
    "v2/gen001.gs3": "eb7092bbc616db00d50e6a3589115c3b8cda3525502c2450d8c260b77cdbf08d",
    "v2/gen001.tab": "2c56d2c700e897fe8b265b72c73b9b724bdf9b975d1be5e8bf73c47c86826fdb",
    "v2/growth-2.gs3": "3bf52f78672f738ca2387d92ee9af8ee1bc692a7c5c0b0320a3d2ccccf46e50e",
    "v2/growth-2.tab": "ce47140474bec35fdd9247e3a49f286d8912b984a13ae98dc39c450da0637650",
    "v3/closed-leaf-outside-closure.tab": None,
    "v3/closure-pair-on-gamma.tab": None,
    "v3/drinker-under-or.tab": "6277825e1ec76d41109a8cae6887f878f73b4776a86f4bd4e3a9cbd84af48742",
    "v3/drinker.tab": "d624f8669c8ceb2c7c0323ea0c9d4c2659fd13ee41ba07151cb2ccd57d350879",
}


def test_upgraded_fixtures_are_pinned(tmp_path, capsys):
    """Every committed v1, v2 and v3 fixture upgrades to its pinned bytes,
    or is refused with exit status 2 and nothing written."""
    fixtures = V1_FIXTURES.parent
    assert sorted(UPGRADED) == sorted(f"{v}/{path.name}" for v in ("v1", "v2", "v3")
                                      for path in (fixtures / v).iterdir())
    for name, digest in UPGRADED.items():
        out = tmp_path / name
        code = run_upgrade([str(fixtures / name), "--out", str(out.parent)])
        capsys.readouterr()
        assert code == (0 if digest else 2), name
        assert (hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None) == digest


def test_v1_sequent_counts_are_bounded(tmp_path):
    """A 31-byte v1 file that claims a billion occurrences of one formula
    makes the upgrade script exit 2 before any sequent is built.  It runs
    as a child process whose address space is capped at 2 GiB, so a script
    without the bound ends in a MemoryError there instead of taking the
    machine's memory."""
    path = tmp_path / "huge.gs3"
    path.write_text('{"sequent":[["P",1000000000]]}\n', encoding="utf-8")
    assert path.stat().st_size == 31

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(tabseq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, str(UPGRADE_SCRIPT), str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap_memory)
    assert done.returncode == 2, done.stderr
    assert f"more than {gs3.MAX_OCCURRENCES} formulas" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_writers_emit_no_formula_text_and_constant_nesting():
    for text in (tableau_to_json(proved(growth_goal(3))),
                 proof_to_json(translate(proved(growth_goal(3))))):
        record = json.loads(text)
        assert all(type(entry[0]) is str for entry in record["table"])
        # The file, its nodes, a node, its rule, the rule's introduced
        # lists, one of them: however deep the proof.
        assert max_nesting(record) <= 6


def max_nesting(value) -> int:
    deepest, stack = 0, [(value, 1)]
    while stack:
        item, d = stack.pop()
        if isinstance(item, (list, dict)):
            deepest = max(deepest, d)
            stack.extend((v, d + 1) for v in (item.values() if isinstance(item, dict) else item))
    return deepest


# ----------------------------------------------------------- deep proofs

FORALL_P = Forall("x", Atom("P", (Var("x"),)))
A = App("a", ())
P_A = Atom("P", (A,))


def deep_gs3_proof(rounds: int) -> GsProof:
    """``forall x. P(x), ~P(a) |-`` by ``rounds`` pairs of a forall step on
    ``a`` and the weakening of ``P(a)``, then one more forall step and an
    axiom: ``2 * rounds + 1`` inferences deep."""
    short = (FORALL_P, Not(P_A))
    node = GsProof(short + (P_A,), GsRule("axiom"), P_A)
    node = GsProof(short, GsRule("forall", A), FORALL_P, (node,))
    for _ in range(rounds):
        node = GsProof(short + (P_A,), GsRule("weaken"), P_A, (node,))
        node = GsProof(short, GsRule("forall", A), FORALL_P, (node,))
    return node


def test_deep_sequent_proof_reads_back_and_checks(tmp_path, capsys):
    assert sys.getrecursionlimit() <= 1000
    proof = deep_gs3_proof(1000)
    assert depth(proof) >= 2000 and check(proof).accepted
    text = proof_to_json(proof)
    back = proof_from_json(text)
    assert proof_to_json(back) == text and depth(back) == depth(proof)
    path = tmp_path / "deep.gs3"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Accepted"


def test_deep_tableau_reads_back():
    assert sys.getrecursionlimit() <= 1000
    ct = deep_tableau(1100)
    assert depth(ct.root) >= 1100
    text = tableau_to_json(ct)
    back = tableau_from_json(text)
    assert tableau_to_json(back) == text and depth(back.root) == depth(ct.root)


def test_deep_tableaux_compare_and_hash_by_identity():
    """Two copies of a tableau deeper than the recursion limit compare
    unequal, each equal to itself, without a structural walk."""
    assert sys.getrecursionlimit() <= 1000
    text = tableau_to_json(deep_tableau(1100))
    first, second = tableau_from_json(text), tableau_from_json(text)
    assert first != second and first == first
    assert len({first.root, second.root}) == 2


def test_deep_tableau_translates_and_checks_from_the_cli(tmp_path, capsys):
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "deep.tab"
    path.write_text(tableau_to_json(deep_tableau(1100)), encoding="utf-8")
    assert run_cli(["translate", str(path)]) == 0
    assert capsys.readouterr() == ("", f"wrote {tmp_path / 'deep.gs3'}\n")
    assert run_cli(["check", str(tmp_path / "deep.gs3")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Accepted"


def test_a_translation_with_audits_on_walks_no_proof_with_the_tree_helpers(monkeypatch):
    """Neither a replay, a graft, the Skolem replacement nor an audit walks
    the proof: each reads what the builder recorded as it stepped.  Every
    binding of the tree walkers in the package is watched; the tableau is
    still walked, the proof never."""
    walked = []

    def watched(walk):
        def watching(root):
            if isinstance(root, GsProof):
                walked.append(root)
            return walk(root)
        return watching

    for ct in (deep_tableau(600), proved(growth_goal(3))):
        with monkeypatch.context() as patch:
            for module in (tabseq.tree, gs3, tableau, translate_module):
                for name in ("postorder", "preorder", "iter_nodes"):
                    if hasattr(module, name):
                        patch.setattr(module, name, watched(getattr(module, name)))
            proof, _ = translate_module.translate_detailed(ct, audit=True)
        assert walked == [] and gs3.inference_count(proof) > 600


def test_pretty_renders_proofs_deeper_than_the_recursion_limit(tmp_path, capsys):
    """Both renderings walk the tree without recursion.  Under a recursion
    limit of 200, a 300-step tableau and its translation print in full, and
    ``translate --pretty`` exits 0 after writing the proof."""
    ct = deep_tableau(300)
    path = tmp_path / "deep.tab"
    path.write_text(tableau_to_json(ct), encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        text = render_tableau(ct)
        code = run_cli(["translate", str(path), "--pretty"])
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("-- gamma on") == 300 and text.count("-- closure on") == 1
    out, err = capsys.readouterr()
    assert code == 0 and err == f"wrote {tmp_path / 'deep.gs3'}\n"
    assert out.count("-- forall on") == 300 and out.count("-- axiom on") == 1


# ---------------------------------------------- the checker on shared nodes


def test_check_visits_each_node_entry_of_a_read_back_proof_once(monkeypatch):
    """``check`` checks each node object once, both on the translator's
    proof and on the one read back from its file, whose node entries are
    the distinct subproofs."""
    proof = translate(proved(growth_goal(3)))
    text = proof_to_json(proof)
    entries = len(json.loads(text)["nodes"])
    back = proof_from_json(text)
    calls = []
    original = gs3._check_node
    monkeypatch.setattr(gs3, "_check_node", lambda *args: (calls.append(1), original(*args))[1])
    for dag, objects in ((proof, 114), (back, 83)):
        calls.clear()
        assert check(dag).accepted
        assert len(calls) == len(list(postorder(dag))) == objects
        assert gs3.inference_count(dag) == 751
    assert entries == 83


class CountedProof(GsProof):
    """A proof node that counts the reads of its children."""

    reads = 0

    def __getattribute__(self, name):
        if name == "children":
            CountedProof.reads += 1
        return object.__getattribute__(self, name)


def shared_or_tower() -> CountedProof:
    """``P | P, ~P |-`` by an or step whose two premises are one node that
    weakens the new ``P`` and goes on the same way: 2 ** 16 leaves as a
    tree, 34 node objects."""
    p = Atom("P", ())
    short, long = (Or(p, p), Not(p)), (Or(p, p), Not(p), p)
    node = CountedProof(long, GsRule("axiom"), p)
    for _ in range(16):
        node = CountedProof(short, GsRule("or"), Or(p, p), (node, node))
        node = CountedProof(long, GsRule("weaken"), p, (node,))
    return CountedProof(short, GsRule("or"), Or(p, p), (node, node))


def test_check_and_the_writer_walk_a_shared_proof_once_per_node():
    proof = shared_or_tower()
    CountedProof.reads = 0
    text = proof_to_json(proof)
    assert check(proof).accepted
    assert CountedProof.reads <= 10 * 34
    assert len(json.loads(text)["nodes"]) == 34 and check(proof_from_json(text)).accepted


def test_inference_count_unfolds_a_shared_proof_in_one_pass():
    # Below the top or step, each weakening over an or step over the last
    # weakening holds 2 + 2 * n inferences where that one holds n, starting
    # from the axiom's 1: 3 * 2 ** 16 - 2, twice, plus the top step.
    proof = shared_or_tower()
    CountedProof.reads = 0
    assert gs3.inference_count(proof) == 1 + 2 * (3 * 2 ** 16 - 2) == 393_213
    assert CountedProof.reads <= 10 * 34


def object_paths(root: GsProof) -> dict[GsProof, list[tuple[int, ...]]]:
    """The paths, in preorder, at which each node object occurs."""
    found: dict[GsProof, list[tuple[int, ...]]] = {}
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        found.setdefault(node, []).append(path)
        stack.extend((path + (bit,), c) for bit, c in reversed(list(enumerate(node.children))))
    return found


def rename_rule(root, node):
    # The weakening named an axiom, which has no premise.
    node.rule, node.children = GsRule("axiom"), ()


def move_principal(root, node):
    # A compound formula of the proof that is not in the node's sequent.
    node.principal = next(f for n in postorder(root) for f in n.sequent
                          if type(f) in (And, Or, Implies, Not) and f not in node.sequent)


def drop_premise_formula(root, node):
    node.sequent = node.sequent[1:]


@pytest.mark.parametrize("fault", [rename_rule, move_principal, drop_premise_formula])
def test_a_fault_in_a_shared_node_is_reported_at_its_first_occurrence(fault):
    """A fault in a node entry that the read-back proof shares, written and
    read back, is rejected as the same fault at every copy of the subproof
    in the translator's tree."""
    proof = translate(proved(growth_goal(3)))
    back = proof_from_json(proof_to_json(proof))
    paths = object_paths(back)
    shared = [node for node, found in paths.items()
              if node.rule == GsRule("weaken") and len(found) > 1]
    target = shared[len(shared) // 2]
    fault(back, target)
    from_file = check(proof_from_json(proof_to_json(back)))
    tree = proof
    for path in paths[target]:
        tree = gs3.replace_at(tree, path, unshared(target, path, tree))
    in_memory = check(tree)
    assert not from_file.accepted and from_file == in_memory
    # At the first copy, or at its parent when the fault is in a premise.
    first = paths[target][0]
    assert first[:len(from_file.path)] == from_file.path >= first[:-1]


def unshared(node: GsProof, path, tree) -> GsProof:
    """``node`` with the subproof below it, if it has one, taken from
    ``tree`` at ``path``."""
    return GsProof(node.sequent, node.rule, node.principal,
                   node_at(tree, path).children if node.children else ())


# ------------------------------------------------------------ hostile files


def drinker_files(tab_version: int = 4) -> dict[str, dict]:
    """The drinker's fresh files, with, for ``tab_version`` 2 or 3, its
    committed version-2 or -3 ``.tab`` in place of the fresh one, and for
    version 2 its committed version-2 ``.gs3`` too."""
    ct = proved(FIXTURE_GOALS["drinker"])
    files = {".tab": json.loads(tableau_to_json(ct)),
             ".gs3": json.loads(proof_to_json(translate(ct)))}
    if tab_version < 4:
        fixtures = V2_FIXTURES if tab_version == 2 else V3_FIXTURES
        files[".tab"] = json.loads((fixtures / "drinker.tab").read_text(encoding="utf-8"))
    if tab_version == 2:
        files[".gs3"] = json.loads((V2_FIXTURES / "drinker.gs3").read_text(encoding="utf-8"))
    assert files[".tab"]["version"] == tab_version
    # The entries that HOSTILE below names by index.
    gs3_file, tab_file = files[".gs3"], files[".tab"]
    assert gs3_file["table"][:6] == [["f", "c1"], ["v", "x"], ["v", "y"], ["P", "D", 0],
                                     ["P", "D", 1], ["P", "D", 2]]
    if tab_version == 2:
        assert gs3_file["sequents"][0] == [None, [[13, 1]]]
        assert gs3_file["nodes"][0][:3] == [8, "axiom", 3] and gs3_file["nodes"][2][3] == 0
    else:
        assert gs3_file["nodes"][0] == [None, ["axiom", 3], []]
        assert gs3_file["nodes"][2][1] == [12, 0] and gs3_file["nodes"][8][0] == [12]
    assert tab_file["table"][:2] == [["f", "sko1"], ["m", "X1"]]
    assert tab_file["table"][6] == ["P", "D", 2]
    if tab_version < 4:
        assert [node[1] and node[1][0] for node in tab_file["nodes"]] == [
            None, "closure", "delta", "alpha", "gamma"]
    else:
        assert [node[1] for node in tab_file["nodes"]] == [
            ["closure", 5, 9], [12, 0], [14], [15, 1]]
    return files


def put(*steps):
    """A mutation that sets ``record[k1]...[kn] = value`` for each
    ``(k1, ..., kn, value)`` in ``steps``."""
    def mutate(record):
        for *keys, value in steps:
            target = record
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
    return mutate


def deep_entry(record):
    table = record["table"]
    table.append(["P", "Q"])
    for _ in range(MAX_DEPTH):
        table.append(["~", len(table) - 1])


# In the drinker .gs3: table 0 is the constant c1, 2 the bound variable
# y, 3 the atom D(c1), 4 D(x) with x free, 5 D(y) with y free, 6 forall
# y. D(y), 13 the root formula; sequent 0 is the root's; node 0 is an
# axiom on 3, node 2 a not_exists step with witness 0, node 8 the root.
# In the .tab: table 0 is the Skolem constant sko1, 1 the metavariable X1,
# 4 D(sko1), 5 D(X1), 6 D(x) with x free, 9 ~D(sko1), 15 the root
# formula; node 4 is the root's gamma step, 2 a delta step, 1 the closure
# and 0 the closed leaf.  These cases run against the version-2 fixtures,
# where every node lists its formulas, through the upgrade script, which
# holds the version-2 readers of both file kinds.
HOSTILE = {
    ".gs3": {
        "forward reference": put(("table", 7, ["~", 9])),
        "self reference": put(("table", 7, ["~", 7])),
        "reference out of range": put(("table", 8, ["=>", 3, 99])),
        "negative reference": put(("table", 8, ["=>", -1, 6])),
        "boolean reference": put(("table", 7, ["~", True])),
        "term where a formula belongs": put(("table", 7, ["~", 0])),
        "formula where a term belongs": put(("table", 4, ["P", "D", 3])),
        "unknown tag": put(("table", 7, ["not", 3])),
        "entry of the wrong length": put(("table", 7, ["~", 3, 3])),
        "entry that is no list": put(("table", 7, "(~D(c1))")),
        "constant the grammar refuses": put(("table", 0, ["f", "c-1"])),
        "keyword as a variable": put(("table", 2, ["v", "forall"])),
        "binder the grammar refuses": put(("table", 6, ["forall", "1y", 5])),
        "metavariable the grammar refuses": put(("table", 0, ["m", "Y1"])),
        "entry deeper than MAX_DEPTH": deep_entry,
        "free variable in a sequent formula": put(("sequents", 0, [None, [[5, 1]]])),
        "free variable in a principal": put(("nodes", 0, 2, 5)),
        "free variable in a witness": put(("nodes", 2, 3, 2)),
        "term as a sequent formula": put(("sequents", 0, [None, [[0, 1]]])),
        "term as a principal": put(("nodes", 0, 2, 0)),
        "formula as a witness": put(("nodes", 2, 3, 3)),
        "child that is not earlier": put(("nodes", 1, 4, [1])),
        "sequent out of range": put(("nodes", 0, 0, 9)),
        "root out of range": put(("root", 9)),
        "root that is no index": put(("root", "8")),
        "principal without a rule": put(("nodes", 0, 1, None)),
        "rule that is not its principal's": put(("nodes", 1, 1, "and")),
        "node of the wrong length": put(("nodes", 0, [8, "axiom", 3, None])),
        "negative count": put(("sequents", 0, [None, [[13, -1]]])),
        "count too large to hold": put(("sequents", 0, [None, [[13, 10**12]]])),
        "base sequent that is not earlier": put(("sequents", 1, 0, 1)),
        "sequent without a base": put(("sequents", 0, [[13, 1]])),
        "unknown version": put(("version", 3)),
        "version as text": put(("version", "2")),
        "table that is no list": put(("table", {})),
    },
    ".tab": {
        "forward reference": put(("table", 9, ["~", 10])),
        "term where a formula belongs": put(("table", 9, ["~", 0])),
        "unknown tag": put(("table", 9, ["!", 4])),
        "free variable in a node formula": put(("nodes", 4, 0, [6])),
        "node that is the child of two nodes": put(("nodes", 4, 2, [3, 3])),
        "root that is a child": put(("root", 3)),
        "child that is not earlier": put(("nodes", 3, 2, [4])),
        "unifier binding a non-metavariable": put(("unifier", [[0, 0]])),
        "meta field that is no metavariable": put(("nodes", 4, 1, 3, 0)),
        "skolem field that is no Skolem term": put(("nodes", 2, 1, 4, 1)),
        "closed flag that is no boolean": put(("nodes", 0, 3, 1)),
        "unknown rule class": put(("nodes", 4, 1, 0, "zeta")),
        "rule of the wrong length": put(("nodes", 4, 1, ["gamma", 15])),
        "store side that is a term": put(("store", [[5, 0]])),
        "closure pair that is no complementary pair": put(("nodes", 1, 1, 5, [5, 5])),
        "such a pair on a gamma step": put(("nodes", 4, 1, 5, [4, 4])),
        "closure without its closed child": put(("nodes", 1, 1, 2, []), ("nodes", 1, 2, [])),
        "unknown version": put(("version", 1)),
        "node without formulas in version 2": put(("nodes", 3, 0, None)),
    },
}

# In the committed version-3 drinker .tab only the root, node 4, lists its
# formulas; nodes 3 to 0 are each their parent's plus what its rule
# introduced.  Each case with the message it exits with: a ``.tab`` from
# the upgrade script, a fresh ``.gs3`` from ``check``.  The ``.gs3`` case
# marks the committed version-2 entries as version 3.
NO_INTRODUCED_LIST = "child 0 of node 4 lists no formulas, and its parent's rule has no " \
    "introduced list for it"
HOSTILE_V3 = {
    ".tab": {
        "root without formulas": (
            put(("nodes", 4, 0, None)), "node 4 lists no formulas and is no node's child"),
        "node without formulas that is no node's child": (
            put(("nodes", 4, 2, [])), "node 3 lists no formulas and is no node's child"),
        "parent without a rule": (
            put(("nodes", 4, 1, None)), NO_INTRODUCED_LIST),
        "parent whose rule introduces nothing for the child": (
            put(("nodes", 4, 1, 2, [])), NO_INTRODUCED_LIST),
        "formulas that are neither a list nor null": (
            put(("nodes", 3, 0, 14)), "a node must be [formulas, rule, [children], closed]"),
        "rule class that is a list": (
            put(("nodes", 4, 1, 0, ["gamma"])), "unknown rule class ['gamma']"),
        "unknown version": (put(("version", 5)), "unknown version 5"),
    },
    ".gs3": {
        "version 3": (lambda record: record.update({**json.loads(
            (V2_FIXTURES / "drinker.gs3").read_text(encoding="utf-8")), "version": 3}),
                      "a node must be [sequent, rule, [children]]"),
    },
}


def exit_code_and_error(tmp_path, capsys, suffix, record) -> tuple[int, str]:
    """``check`` on a ``.gs3`` record or ``translate`` on a ``.tab`` one."""
    path = tmp_path / f"hostile{suffix}"
    path.write_text(json.dumps(record), encoding="utf-8")
    command = "check" if suffix == ".gs3" else "translate"
    code = run_cli([command, str(path), *(["--out", str(tmp_path / "o.gs3")]
                                          if command == "translate" else [])])
    return code, capsys.readouterr().err


def upgrade_code_and_error(tmp_path, capsys, record, suffix=".tab") -> tuple[int, str]:
    """The upgrade script on a ``.tab`` record, or on a ``.gs3`` one."""
    path = tmp_path / f"hostile{suffix}"
    path.write_text(json.dumps(record), encoding="utf-8")
    code = run_upgrade([str(path), "--out", str(tmp_path / "upgraded")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("suffix,case", [(suffix, case) for suffix in HOSTILE
                                         for case in HOSTILE[suffix]])
def test_hostile_v2_file_exits_two(tmp_path, capsys, suffix, case):
    record = drinker_files(2)[suffix]
    HOSTILE[suffix][case](record)
    code, err = upgrade_code_and_error(tmp_path, capsys, record, suffix)
    assert code == 2 and "cannot upgrade: " in err and "Traceback" not in err
    assert not (tmp_path / "upgraded").exists()


@pytest.mark.parametrize("suffix,case", [(suffix, case) for suffix in HOSTILE_V3
                                         for case in HOSTILE_V3[suffix]])
def test_hostile_v3_file_exits_two(tmp_path, capsys, suffix, case):
    record = drinker_files(3)[suffix]
    mutation, message = HOSTILE_V3[suffix][case]
    mutation(record)
    if suffix == ".gs3":
        code, err = exit_code_and_error(tmp_path, capsys, suffix, record)
        expected = f"malformed sequent proof: {message}\n"
    else:
        code, err = upgrade_code_and_error(tmp_path, capsys, record)
        expected = f"cannot upgrade: FormatError: {message}\n"
    assert code == 2 and err.endswith(expected), err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter converts integer literals of any length")
@pytest.mark.parametrize("suffix", [".gs3", ".tab"])
def test_integer_literal_too_long_to_convert_exits_two(tmp_path, capsys, suffix):
    """``json.loads`` refuses an integer literal longer than
    ``sys.get_int_max_str_digits()`` with a plain ValueError, which the
    readers report as invalid JSON, with the path."""
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    text = json.dumps({**drinker_files(3)[suffix], "root": 0})
    text = text.replace('"root": 0', '"root": ' + digits)
    path = tmp_path / f"long{suffix}"
    path.write_text(text, encoding="utf-8")
    command = ["check", str(path)] if suffix == ".gs3" else [
        "translate", str(path), "--out", str(tmp_path / "o.gs3")]
    kind = "sequent proof" if suffix == ".gs3" else "tableau proof"
    assert run_cli(command) == 2
    assert capsys.readouterr().err.startswith(f"{path}: malformed {kind}: not valid JSON: ")


def test_v3_node_formulas_are_bounded(tmp_path, capsys):
    """A 102 kB version-3 chain of 1,000 nodes, each written as its parent
    plus 25 introduced formulas, would hold 12.5 million formula
    occurrences; the upgrade script exits 2 before they are built."""
    record = drinker_files(3)[".tab"]
    rule = ["alpha", 15, [[4] * 25], None, None, None]
    record["nodes"] = [[None, None, [], True]] + [[None, rule, [k], False] for k in range(999)]
    record["nodes"][-1][0] = [15]
    record["root"] = 999
    assert len(canonical(record)) < 102_000
    code, err = upgrade_code_and_error(tmp_path, capsys, record)
    assert code == 2 and err.endswith(f"more than {tableau.MAX_OCCURRENCES} formulas\n"), err


def test_the_unaltered_drinker_files_pass(tmp_path, capsys):
    """The fresh files translate and check, and so do the version-2 and -3
    fixtures once upgraded, with the ``.gs3`` beside them."""
    for tab_version in (2, 3, 4):
        for suffix, record in drinker_files(tab_version).items():
            path = tmp_path / f"drinker{suffix}"
            path.write_text(json.dumps(record), encoding="utf-8")
        tab, gs3_path = tmp_path / "drinker.tab", tmp_path / "drinker.gs3"
        if tab_version < 4:
            upgraded = tmp_path / "upgraded"
            assert run_upgrade([str(tab), str(gs3_path), "--out", str(upgraded)]) == 0
            tab, gs3_path = upgraded / "drinker.tab", upgraded / "drinker.gs3"
        assert run_cli(["translate", str(tab), "--out", str(tmp_path / "again.gs3")]) == 0
        assert run_cli(["check", str(gs3_path)]) == 0
    capsys.readouterr()


def canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# Version-3 drinker .tab nodes: 4 the root [15], 3 the alpha step's node
# [15, 14], 2 the delta step's node [15, 14, 5, 12]; 4 is D(sko1), a part
# of 9.  In the version-4 file these are nodes 3, 2 and 1.
@pytest.mark.parametrize("node,formulas,audit", [
    (3, [14, 15], None),  # reordered
    (2, [15, 14, 12, 5], None),  # introduced formulas reordered
    (3, [15, 14, 4], "child multiset is not parent plus introduced at (root)"),  # one extra
])
def test_children_that_are_not_parent_plus_introduced_write_back_as_read(node, formulas, audit):
    """Such a child in an old file is upgraded as read: the version-4
    writer lists it from its own formulas, and that file writes back as
    read.  The audit compares multisets, so a reordered child passes it."""
    record = drinker_files(3)[".tab"]
    record["nodes"][node][0] = formulas
    upgraded = upgrade_module().v3_tableau(record)
    text = tableau_to_json(upgraded)
    assert json.loads(text)["nodes"][node - 1][0] == formulas
    ct = tableau_from_json(text)
    assert tableau_to_json(ct) == text and tableau_shape(ct) == tableau_shape(upgraded)
    if audit is None:
        audit_closed_tableau(ct)
    else:
        with pytest.raises(AuditError, match=re.escape(audit)):
            audit_closed_tableau(ct)


@pytest.mark.parametrize("goal,formulas,message", [
    ("drinker", [15, True], "formula True is not the index of a table entry"),
    ("drinker", [15, -1], "formula -1 is not the index of a table entry"),
    ("drinker", [15, 0], "formula must be a formula"),
    ("drinker", [15, 6], "formula has the free bound variable x"),
    # Entry 0 of this file is P, read as a node formula before the root:
    # False, equal to 0 as a key, must not find it.
    ("~(P => P)", [3, False], "formula False is not the index of a table entry"),
])
def test_bad_node_formula_index_exits_two(tmp_path, capsys, goal, formulas, message):
    if goal == "drinker":
        record = drinker_files()[".tab"]
    else:
        record = json.loads(tableau_to_json(prove([parse(goal)])))
        assert record["table"][0] == ["P", "P"] and record["nodes"][0][0] is None
        record["nodes"][0][0] = [3, 0, 2]  # the closure node's formulas, listed
    record["nodes"][record["root"]][0] = formulas
    path = tmp_path / "bad.tab"
    path.write_text(canonical(record), encoding="utf-8")
    assert run_cli(["translate", str(path), "--out", str(tmp_path / "o.gs3")]) == 2
    assert capsys.readouterr().err == f"{path}: malformed tableau proof: {message}\n"


JUNK = (None, True, False, -1, 0, 1, 2, 7, 10**9, 0.5, "", "X1", "sko1", "forall", "~", "P",
        [], [0], [0, 0], ["~", 0], {}, {"version": 2})


def mutate(record, rng: random.Random) -> None:
    """One random change at a random place of a JSON value: another index
    in place of an index, a junk value, a copy of the value at another
    place, or a deletion."""
    places = []
    stack = [record]
    while stack:
        item = stack.pop()
        for key in (list(item) if isinstance(item, dict) else range(len(item))):
            places.append((item, key))
            if isinstance(item[key], (list, dict)):
                stack.append(item[key])
    container, key = rng.choice(places)
    roll = rng.random()
    if type(container[key]) is int and roll < 0.5:
        container[key] = rng.randrange(2 * abs(container[key]) + 2)
    elif roll < 0.6:
        container[key] = json.loads(json.dumps(rng.choice(JUNK)))
    elif roll < 0.85:
        other, other_key = rng.choice(places)
        container[key] = json.loads(json.dumps(other[other_key]))
    else:
        del container[key]


MUTANT_SEED = 20061007


def mutant_sources(tmp_path, capsys) -> list[tuple[str, str, str, int]]:
    """(name, suffix, text, mutants) of the files the seeded mutants are made
    from: the fresh files of the even-numbered corpus goals, 20 mutants
    each, and the committed v1 and v2 fixtures as the upgrade script
    rewrites them, 150 and 60 each.  (A mutant of an old file itself would
    stop at its version every time.)"""
    files = []
    for name, goal in corpus(generated=12)[::2]:
        ct = proved(goal)
        files.append((name, ".tab", tableau_to_json(ct), 20))
        files.append((name, ".gs3", proof_to_json(translate(ct)), 20))
    for fixtures, mutants in ((V1_FIXTURES, 150), (V2_FIXTURES, 60)):
        paths = sorted(fixtures.iterdir())
        upgraded = tmp_path / f"upgraded-{fixtures.name}"
        assert run_upgrade([*map(str, paths), "--out", str(upgraded)]) == 0
        capsys.readouterr()
        files += [(path.stem, path.suffix, (upgraded / path.name).read_text(encoding="utf-8"),
                   mutants) for path in paths]
    return files


def seeded_mutants(files):
    """(name, suffix, record) of each mutant of ``files``, in order, each
    one to three ``mutate`` changes of its file.  Each file kind draws from
    a generator of its own, so the mutants of one kind do not depend on
    the files of the other."""
    rngs = {suffix: random.Random(f"{MUTANT_SEED}{suffix}") for suffix in (".tab", ".gs3")}
    for name, suffix, text, mutants in files:
        rng = rngs[suffix]
        for _ in range(mutants):
            record = json.loads(text)
            for _ in range(rng.randint(1, 3)):
                mutate(record, rng)
            yield name, suffix, record


def test_mutated_proof_files_never_crash(tmp_path, capsys):
    """Every seeded mutant exits 0, 1 or 2, with no traceback."""
    for name, suffix, record in seeded_mutants(mutant_sources(tmp_path, capsys)):
        path = tmp_path / f"mutant{suffix}"
        path.write_text(json.dumps(record), encoding="utf-8")
        if suffix == ".gs3":
            code = run_cli(["check", str(path)])
        else:
            code = run_cli(["translate", str(path), "--out", str(tmp_path / "o.gs3")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (name, suffix, record)


def test_read_back_formulas_print_and_parse_back():
    seen = set()
    for name, goal in corpus() + generated_goals(50, 0):
        ct = proved(goal)
        back = tableau_from_json(tableau_to_json(ct))
        formulas = {side for c in tableau.closure_constraints(back.root) for side in c}
        for _, node in tableau.iter_nodes(back.root):
            formulas.update(node.formulas)
            if node.rule is not None:
                formulas.update(f for child in node.rule.introduced for f in child)
        proof = proof_from_json(proof_to_json(translate(ct)))
        for _, node in gs3.iter_nodes(proof):
            formulas.update(node.sequent)
        for f in formulas - seen:
            assert parse(print_formula(f), allow_generated=True) == f, name
        seen |= formulas
    assert len(seen) > 400

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import tabseq
import tabseq.translate as translate_module
from tabseq import gs3
from tabseq.cli import main
from tabseq.formula import MAX_DEPTH, Not, parse, print_formula
from tabseq.gs3 import proof_from_json
from tabseq.problems import growth_goal
from tabseq.tableau import (
    CLOSURE,
    AuditError,
    ClosedTableau,
    RuleInstance,
    TableauNode,
    audit_closed_tableau,
    closure_constraints,
    prove,
    tableau_from_json,
    tableau_to_json,
)
from tabseq.tree import format_path

from conftest import run_upgrade, v1_tableau_text

V3_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v3"

DRINKER = "exists x. (D(x) => forall y. D(y))"


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.fixture
def drinker_file(tmp_path):
    path = tmp_path / "drinker.p"
    path.write_text(DRINKER + "\n", encoding="utf-8")
    return path


class TestProve:
    def test_emit_both_writes_checked_proofs(self, tmp_path, drinker_file, capsys):
        code = run_cli(["prove", str(drinker_file), "--negate", "--emit", "both"])
        assert code == 0
        out = capsys.readouterr().out
        assert "proved with 4 tableau rules" in out
        tab = tmp_path / "drinker.tab"
        seq = tmp_path / "drinker.gs3"
        assert tab.exists() and seq.exists()
        ct = tableau_from_json(tab.read_text(encoding="utf-8"))
        assert len(closure_constraints(ct.root)) == 1
        proof = proof_from_json(seq.read_text(encoding="utf-8"))
        assert gs3.check(proof).accepted

    def test_output_is_byte_deterministic(self, tmp_path, drinker_file):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            assert run_cli(["prove", str(drinker_file), "--negate", "--out", str(out)]) == 0
        assert (out1 / "drinker.tab").read_bytes() == (out2 / "drinker.tab").read_bytes()
        assert (out1 / "drinker.gs3").read_bytes() == (out2 / "drinker.gs3").read_bytes()

    def test_emit_gs3_only(self, tmp_path, drinker_file):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "gs3"]) == 0
        assert not (tmp_path / "drinker.tab").exists()
        assert (tmp_path / "drinker.gs3").exists()

    def test_exhausted_exits_one(self, tmp_path, capsys):
        path = tmp_path / "sat.p"
        path.write_text("P & ~Q\n", encoding="utf-8")
        assert run_cli(["prove", str(path)]) == 1
        assert "Exhausted" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.p"
        path.write_text("P &&& Q\n", encoding="utf-8")
        assert run_cli(["prove", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli(["prove", str(tmp_path / "absent.p")]) == 2

    def test_pretty_prints_derivations(self, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--negate", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "closure on" in out
        assert "|-" in out

    def test_pretty_renders_a_shared_proof_by_its_nodes(self, tmp_path, capsys):
        """Growth k=5's proof unfolds to 107,693,581 inferences, and its
        .gs3 lists 373 node entries; the rendering stays within a few
        lines per entry, and each back-reference follows its subproof."""
        path = tmp_path / "growth5.p"
        path.write_text(print_formula(growth_goal(5)) + "\n", encoding="utf-8")
        assert run_cli(["prove", str(path), "--negate", "--pretty"]) == 0
        out = capsys.readouterr().out
        entries = len(json.loads((tmp_path / "growth5.gs3").read_text(encoding="utf-8"))["nodes"])
        assert entries == 373 and out.count("\n") < 5 * entries and len(out) < 1_000_000
        rendered = set()
        for line in out.splitlines():
            number, _, rest = line.strip().partition(" ")
            if number.startswith("[") and rest == "as above":
                assert number in rendered
            elif number.startswith("["):
                assert number not in rendered
                rendered.add(number)
        assert rendered

    def test_several_inputs_each_get_their_proof_files(self, tmp_path, capsys):
        files = []
        for i, text in enumerate(["P => P", "P | ~P", DRINKER]):
            p = tmp_path / f"goal{i}.p"
            p.write_text(text + "\n", encoding="utf-8")
            files.append(str(p))
        code = run_cli(["prove", *files, "--negate"])
        assert code == 0
        for i in range(3):
            assert (tmp_path / f"goal{i}.gs3").exists()

    def test_bad_limits_exit_two(self, drinker_file):
        assert run_cli(["prove", str(drinker_file), "--gamma-limit", "0"]) == 2

    def test_a_gamma_limit_beyond_any_index_proves(self, drinker_file, capsys):
        limit = "99999999999999999999"
        assert run_cli(["prove", str(drinker_file), "--negate", "--gamma-limit", limit]) == 0
        assert "proved with 4 tableau rules" in capsys.readouterr().out

    def test_depth_limit_below_one_exits_two(self, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--depth-limit", "0"]) == 2
        assert capsys.readouterr().err == "error: depth limit must be at least 1\n"

    def test_mixed_results_use_worst_status(self, tmp_path, drinker_file):
        sat = tmp_path / "sat.p"
        sat.write_text("P & ~Q\n", encoding="utf-8")
        assert run_cli(["prove", str(drinker_file), str(sat), "--negate"]) == 1

    def test_out_that_is_a_file_exits_two(self, tmp_path, drinker_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert run_cli(["prove", str(drinker_file), "--negate", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {taken / 'drinker.tab'}" in err and "Traceback" not in err

    def test_non_utf8_input_exits_two_and_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.p"
        bad.write_bytes("P(\u00e9)\n".encode("latin-1"))
        assert run_cli(["prove", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {bad}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("position", ["1", "2"])
    def test_non_utf8_input_does_not_stop_the_batch(self, tmp_path, drinker_file, capsys,
                                                    position):
        bad = tmp_path / "latin1.p"
        bad.write_bytes(b"P(\xe9)\n")
        inputs = [str(bad), str(drinker_file)]
        if position == "2":
            inputs.reverse()
        assert run_cli(["prove", *inputs, "--negate"]) == 2
        captured = capsys.readouterr()
        assert f"{bad}: error: cannot read" in captured.err
        assert f"{drinker_file}: proved" in captured.out
        assert (tmp_path / "drinker.gs3").exists()
        assert "drinker.p: proved" in captured.out
        assert (tmp_path / "drinker.gs3").exists()


class TestTranslate:
    def test_tableau_file_to_sequent_file(self, tmp_path, drinker_file):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"]) == 0
        tab = tmp_path / "drinker.tab"
        out = tmp_path / "compiled.gs3"
        assert run_cli(["translate", str(tab), "--out", str(out)]) == 0
        proof = proof_from_json(out.read_text(encoding="utf-8"))
        assert gs3.check(proof).accepted

    def test_default_output_path(self, tmp_path, drinker_file):
        run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"])
        assert run_cli(["translate", str(tmp_path / "drinker.tab")]) == 0
        assert (tmp_path / "drinker.gs3").exists()

    def test_out_under_a_file_exits_two(self, tmp_path, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"]) == 0
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken / "x.gs3"
        assert run_cli(["translate", str(tmp_path / "drinker.tab"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err and "Traceback" not in err

    def test_malformed_tableau_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tab"
        bad.write_text("{}", encoding="utf-8")
        assert run_cli(["translate", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_corrupted_tableau_fails_audit(self, tmp_path, drinker_file, capsys):
        run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"])
        tab = tmp_path / "drinker.tab"
        record = json.loads(tab.read_text(encoding="utf-8"))
        record["unifier"] = []
        tab.write_text(json.dumps(record), encoding="utf-8")
        assert run_cli(["translate", str(tab)]) == 2

    @staticmethod
    def upgrade_refuses(tmp_path, capsys, record, message: str) -> None:
        """The upgrade script exits 2 on a version-3 ``.tab`` record, with
        its path and ``message``, and writes nothing."""
        tab = tmp_path / "old.tab"
        tab.write_text(json.dumps(record), encoding="utf-8")
        capsys.readouterr()
        assert run_upgrade([str(tab), "--out", str(tmp_path / "upgraded")]) == 2
        assert capsys.readouterr().err == f"{tab}: cannot upgrade: {message}\n"
        assert not (tmp_path / "upgraded").exists()

    def test_a_store_side_that_is_no_literal_exits_two(self, tmp_path, capsys):
        # A version-3 store must be the closure pairs in preorder, so the
        # upgrade script refuses an extra pair, whatever its sides, with
        # the path; version 4 has no store.
        record = json.loads((V3_FIXTURES / "drinker.tab").read_text(encoding="utf-8"))
        goal = record["nodes"][record["root"]][0][0]
        record["store"].append([goal, goal])
        self.upgrade_refuses(tmp_path, capsys, record,
                             "FormatError: store is not the closure pairs in preorder")

    @pytest.mark.parametrize("forgery", {
        "pairs reordered": lambda store: store[::-1],
        "a pair lacking": lambda store: store[:-1],
        "an extra pair": lambda store: store + store[:1],
        "sides swapped": lambda store: [store[0][::-1], *store[1:]],
    }.items(), ids=lambda item: item[0])
    def test_a_store_that_is_not_the_closure_pairs_exits_two(self, tmp_path, capsys, forgery):
        # drinker-under-or closes three branches, each on two distinct
        # sides; its version-3 file upgrades only with its own store.
        record = json.loads((V3_FIXTURES / "drinker-under-or.tab").read_text(encoding="utf-8"))
        assert len(record["store"]) == 3
        _, forge = forgery
        record["store"] = forge(record["store"])
        self.upgrade_refuses(tmp_path, capsys, record,
                             "FormatError: store is not the closure pairs in preorder")

    @pytest.mark.parametrize("pair", ["P(a), P(a)", "P(a), ~~P(a)", "P(a) & P(a), ~P(a)"])
    def test_a_closure_pair_that_is_no_literal_pair_fails_the_audit(self, tmp_path, capsys,
                                                                    pair):
        # The writer derives the store from such a pair too, so the file
        # reads back and the audit refuses the pair.
        pos, neg = map(parse, pair.split(", "))
        root = TableauNode((pos, neg), RuleInstance(CLOSURE, None, (), closure_pair=(pos, neg)))
        tab = tmp_path / "forged.tab"
        tab.write_text(tableau_to_json(ClosedTableau(root, {})), encoding="utf-8")
        assert run_cli(["translate", str(tab)]) == 2
        assert capsys.readouterr().err == (f"{tab}: malformed tableau proof: closure pair is not "
                                           "an atom and a negated atom at (root)\n")

    def test_a_closure_pair_on_a_gamma_rule_exits_two(self, tmp_path, capsys):
        # The drinker tableau with its closure's pair copied onto the root
        # gamma rule: its version-3 file lists both pairs in its store and
        # reads back, but version 4 has no place for the pair, so the
        # upgrade script refuses it.  ``translate`` refuses the old file.
        tab = V3_FIXTURES / "closure-pair-on-gamma.tab"
        record = json.loads(tab.read_text(encoding="utf-8"))
        assert len(record["store"]) == 2
        out = tmp_path / "forged.gs3"
        assert run_cli(["translate", str(tab), "--out", str(out)]) == 2
        assert "upgrade it with scripts/upgrade_files.py" in capsys.readouterr().err
        assert not out.exists()
        self.upgrade_refuses(tmp_path, capsys, record, "TableauError: cannot write: gamma rule "
                             "is not the expansion of its principal at (root)")

    def test_alpha_rule_with_an_extra_introduced_formula_exits_two(self, tmp_path, capsys):
        # The alpha rule on P & Q introduces P, Q and S, and S is in its
        # child too, so every child is its parent plus the introduced
        # formulas; only the decomposition is wrong.  The audit refuses the
        # tree; version 4 derives the introduced formulas, so it cannot
        # hold it, and the upgrade script refuses its version-1 file.
        pq, not_p, p, q, s = (parse(t) for t in ("P & Q", "~P", "P", "Q", "S"))
        child = TableauNode((pq, not_p, p, q, s),
                            RuleInstance(CLOSURE, None, (), closure_pair=(p, not_p)))
        root = TableauNode((pq, not_p), RuleInstance("alpha", pq, ((p, q, s),)), (child,))
        ct = ClosedTableau(root, {})
        with pytest.raises(AuditError, match="^alpha rule is not the expansion of its principal "
                                             "at [(]root[)]$"):
            audit_closed_tableau(ct)
        tab = tmp_path / "forged.tab"
        tab.write_text(v1_tableau_text(ct), encoding="utf-8")
        assert run_upgrade([str(tab), "--out", str(tmp_path / "upgraded")]) == 2
        assert capsys.readouterr().err == (f"{tab}: cannot upgrade: TableauError: cannot write: "
                                           "alpha rule is not the expansion of its principal "
                                           "at (root)\n")
        assert not (tmp_path / "upgraded").exists()

    @pytest.mark.parametrize("forgery", ["dropped closure", "closed root"])
    def test_a_closed_leaf_outside_a_closure_rule_exits_two(self, tmp_path, capsys, forgery):
        # A version-1 file with a closure rule of (P | Q) => (P | Q)
        # dropped and its node marked closed, or a bare closed root.  A
        # closure is a leaf with a rule now, so neither tree has a place in
        # memory, and the upgrade script refuses both.
        if forgery == "dropped closure":
            ct = prove([Not(parse("(P | Q) => (P | Q)"))])
            node = ct.root.children[0].children[0].children[0]
            assert node.rule.kind == CLOSURE
            node.rule = None
            where = (0, 0, 0)
        else:
            ct = ClosedTableau(TableauNode((parse("~(P | ~P)"),)), {})
            where = ()
        record = json.loads(v1_tableau_text(ct))
        node = record["root"]
        for bit in where:
            node = node["children"][bit]
        node["closed"] = True
        tab = tmp_path / "forged.tab"
        tab.write_text(json.dumps(record), encoding="utf-8")
        assert run_upgrade([str(tab), "--out", str(tmp_path / "upgraded")]) == 2
        assert capsys.readouterr().err == (
            f"{tab}: cannot upgrade: FormatError: closed node {format_path(where)} is not a "
            "closure's only child\n")
        assert not (tmp_path / "upgraded").exists()

    # In the version-3 drinker file: node 4 is the root's gamma step, 3 the
    # alpha step, 2 the delta step, 1 the closure and 0 its closed leaf.
    @pytest.mark.parametrize("forgery", {
        "closed node with a rule": ((2, 3, True), "closed node 00 is not a closure's only child"),
        "closed root": ((4, 3, True), "closed node (root) is not a closure's only child"),
        "open leaf below a closure": ((0, 3, False), "closure at 000 has not one closed leaf "
                                                     "with its formulas as its only child"),
        "leaf with other formulas": ((0, 0, [15]), "closure at 000 has not one closed leaf "
                                                   "with its formulas as its only child"),
        "closure that introduces a formula": ((1, 1, 2, [[5]]), "closure at 000 has not one "
                                              "closed leaf with its formulas as its only child"),
        "delta witness in the meta field": ((2, 1, 3, 1),
                                            "delta rule has a witness in its meta field"),
        "gamma witness in the skolem field": ((4, 1, 4, 0),
                                              "gamma rule has a witness in its skolem field"),
    }.items(), ids=lambda item: item[0])
    def test_old_rule_shapes_are_refused(self, tmp_path, capsys, forgery):
        # The upgrade script drops each closure's closed leaf and reads each
        # witness from its class's field; it refuses a file where either
        # would lose what the file says.
        record = json.loads((V3_FIXTURES / "drinker.tab").read_text(encoding="utf-8"))
        _, ((*where, last, value), message) = forgery
        entry = record["nodes"]
        for key in where:
            entry = entry[key]
        entry[last] = value
        self.upgrade_refuses(tmp_path, capsys, record, f"FormatError: {message}")

    def test_tableau_is_audited_once(self, tmp_path, drinker_file, monkeypatch, capsys):
        run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"])
        tab = tmp_path / "drinker.tab"
        audit = translate_module.audit_closed_tableau
        calls = []
        monkeypatch.setattr(translate_module, "audit_closed_tableau",
                            lambda ct: (calls.append(ct), audit(ct)))
        assert run_cli(["translate", str(tab)]) == 0
        assert len(calls) == 1
        record = json.loads(tab.read_text(encoding="utf-8"))
        record["unifier"] = []
        tab.write_text(json.dumps(record), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["translate", str(tab)]) == 2
        assert len(calls) == 2
        assert "malformed tableau proof" in capsys.readouterr().err


class TestCheck:
    def test_accepted(self, tmp_path, drinker_file, capsys):
        run_cli(["prove", str(drinker_file), "--negate", "--emit", "gs3"])
        capsys.readouterr()
        assert run_cli(["check", str(tmp_path / "drinker.gs3")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "Accepted"

    def test_rejected_pseudo_proof(self, tmp_path, capsys):
        import test_gs3

        proof = test_gs3.naive_drinker_pseudo_proof()
        path = tmp_path / "fig4.gs3"
        path.write_text(gs3.proof_to_json(proof), encoding="utf-8")
        assert run_cli(["check", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "Rejected: freshness-violation at path 00")

    def test_malformed_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.gs3"
        path.write_text("{", encoding="utf-8")
        assert run_cli(["check", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_names_the_end_sequent_before_the_verdict(self, tmp_path, capsys):
        proof = gs3.GsProof((parse("P"), parse("~P")), gs3.GsRule("axiom"), parse("P"))
        path = tmp_path / "axiom.gs3"
        path.write_text(gs3.proof_to_json(proof), encoding="utf-8")
        assert run_cli(["check", str(path)]) == 0
        assert capsys.readouterr().out == "P, (~P) |-\nAccepted\n"


class TestCheckGoal:
    """``check --goal FILE [--negate]`` rejects an accepted proof whose
    end-sequent is not the formula in FILE, or its negation."""

    END = f"{print_formula(Not(parse(DRINKER)))} |-"

    @pytest.fixture
    def drinker_proof(self, tmp_path, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "gs3"]) == 0
        capsys.readouterr()
        return tmp_path / "drinker.gs3"

    def test_the_proved_goal_is_accepted(self, drinker_proof, drinker_file, capsys):
        argv = ["check", str(drinker_proof), "--goal", str(drinker_file), "--negate"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == f"{self.END}\nAccepted\n"

    @pytest.mark.parametrize("goal, negate, which", [
        ("P | ~P", True, "negated goal"),
        (DRINKER, False, "goal"),
    ], ids=["another-goal", "without-negate"])
    def test_another_end_sequent_exits_one(self, tmp_path, drinker_proof, capsys, goal, negate,
                                           which):
        goal_file = tmp_path / "goal.p"
        goal_file.write_text(goal + "\n", encoding="utf-8")
        argv = ["check", str(drinker_proof), "--goal", str(goal_file)] + ["--negate"] * negate
        assert run_cli(argv) == 1
        assert capsys.readouterr().out == (
            f"{self.END}\nRejected: the end-sequent is not the {which} in {goal_file}\n")

    def test_a_valid_proof_of_another_sequent_exits_one(self, tmp_path, drinker_file, capsys):
        p = parse("P")
        path = tmp_path / "axiom.gs3"
        path.write_text(gs3.proof_to_json(gs3.GsProof((p, Not(p)), gs3.GsRule("axiom"), p)),
                        encoding="utf-8")
        assert run_cli(["check", str(path)]) == 0
        capsys.readouterr()
        assert run_cli(["check", str(path), "--goal", str(drinker_file), "--negate"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["P, (~P) |-",
                       f"Rejected: the end-sequent is not the negated goal in {drinker_file}"]

    def test_a_rejected_proof_keeps_the_checker_verdict(self, tmp_path, drinker_file, capsys):
        import test_gs3

        path = tmp_path / "fig4.gs3"
        path.write_text(gs3.proof_to_json(test_gs3.naive_drinker_pseudo_proof()), encoding="utf-8")
        assert run_cli(["check", str(path), "--goal", str(drinker_file), "--negate"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "Rejected: freshness-violation at path 00")

    @pytest.mark.parametrize("text", [None, "P &", b"\xff"], ids=["missing", "parse", "utf8"])
    def test_a_bad_goal_file_exits_two_with_its_path(self, tmp_path, drinker_proof, capsys, text):
        goal_file = tmp_path / "goal.p"
        if isinstance(text, str):
            goal_file.write_text(text, encoding="utf-8")
        elif text is not None:
            goal_file.write_bytes(text)
        assert run_cli(["check", str(drinker_proof), "--goal", str(goal_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(goal_file) in captured.err

    def test_negate_without_goal_exits_two(self, drinker_proof, capsys):
        assert run_cli(["check", str(drinker_proof), "--negate"]) == 2
        assert capsys.readouterr().err == "error: --negate needs --goal\n"


def python_m_tabseq(*argv):
    """Run ``python -m tabseq`` on ``argv`` with this checkout's package,
    its stdout and stderr each through a pipe."""
    src = str(Path(tabseq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "tabseq", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


class TestWrite:
    """An output file that exists is written over in place and cut only if
    it was longer, so a rerun's files equal a first run's, and a device or
    a pipe as ``--out`` is written without a cut."""

    @pytest.mark.parametrize("junk", [bytes(range(256)) * 400, b"x"], ids=["longer", "shorter"])
    def test_rewritten_files_equal_fresh_ones(self, tmp_path, drinker_file, junk):
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        rerun.mkdir()
        names = ("drinker.tab", "drinker.gs3")
        for name in names:
            (rerun / name).write_bytes(junk)
        for out in (fresh, rerun):
            assert run_cli(["prove", str(drinker_file), "--negate", "--out", str(out)]) == 0
        for name in names:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_translate_to_dev_null(self, tmp_path, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"]) == 0
        assert run_cli(["translate", str(tmp_path / "drinker.tab"), "--out", "/dev/null"]) == 0
        assert capsys.readouterr().err == "wrote /dev/null\n"

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
    def test_translate_to_stdout_through_a_pipe(self, tmp_path, drinker_file):
        assert run_cli(["prove", str(drinker_file), "--negate"]) == 0
        done = python_m_tabseq("translate", str(tmp_path / "drinker.tab"), "--out", "/dev/stdout")
        assert done.returncode == 0, done.stderr
        text = (tmp_path / "drinker.gs3").read_text(encoding="utf-8")
        assert done.stdout == text and done.stderr == "wrote /dev/stdout\n"
        assert gs3.check(proof_from_json(done.stdout))

    def test_translate_makes_missing_directories(self, tmp_path, drinker_file):
        assert run_cli(["prove", str(drinker_file), "--negate"]) == 0
        out = tmp_path / "a" / "b" / "x.gs3"
        assert run_cli(["translate", str(tmp_path / "drinker.tab"), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "drinker.gs3").read_bytes()

    def test_new_file_mode_follows_the_umask(self, tmp_path, drinker_file):
        umask = os.umask(0o027)
        try:
            assert run_cli(["prove", str(drinker_file), "--negate", "--out",
                            str(tmp_path / "out")]) == 0
        finally:
            os.umask(umask)
        for name in ("drinker.tab", "drinker.gs3"):
            assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == 0o666 & ~0o027


class TestSwappedFiles:
    """Each reader refuses the other tree's file as malformed, through the
    one shared FormatError."""

    def test_translate_of_a_sequent_proof_exits_two(self, tmp_path, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "gs3"]) == 0
        capsys.readouterr()
        assert run_cli(["translate", str(tmp_path / "drinker.gs3"),
                        "--out", str(tmp_path / "out.gs3")]) == 2
        err = capsys.readouterr().err
        assert "malformed tableau proof" in err and "Traceback" not in err
        assert not (tmp_path / "out.gs3").exists()

    def test_check_of_a_tableau_exits_two(self, tmp_path, drinker_file, capsys):
        assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "tableau"]) == 0
        capsys.readouterr()
        assert run_cli(["check", str(tmp_path / "drinker.tab")]) == 2
        captured = capsys.readouterr()
        assert "malformed sequent proof" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


UNUSED_PREFIX = " ".join(f"forall x{i}." for i in range(1, 49))


class TestUnusedQuantifiedVariables:
    """A universal whose variable the body never uses still gets a ground
    witness, so the goal goes through prove, translate and check."""

    @pytest.mark.parametrize("goal", [
        "(forall x. forall y. P(x)) => P(a)",
        f"({UNUSED_PREFIX} P(x1)) => P(a)",
    ], ids=["two-quantifiers", "48-quantifiers"])
    def test_prove_negate_and_check(self, tmp_path, capsys, goal):
        path = tmp_path / "unused.p"
        path.write_text(goal + "\n", encoding="utf-8")
        assert run_cli(["prove", str(path), "--negate"]) == 0
        capsys.readouterr()
        assert run_cli(["check", str(tmp_path / "unused.gs3")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "Accepted"
        out = tmp_path / "again.gs3"
        assert run_cli(["translate", str(tmp_path / "unused.tab"), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "unused.gs3").read_bytes()


class TestPipeline:
    def test_prove_translate_check_agree(self, tmp_path, drinker_file):
        run_cli(["prove", str(drinker_file), "--negate", "--emit", "both"])
        direct = (tmp_path / "drinker.gs3").read_bytes()
        out = tmp_path / "again.gs3"
        run_cli(["translate", str(tmp_path / "drinker.tab"), "--out", str(out)])
        assert out.read_bytes() == direct


def first_rule_with(record, key):
    """The first rule object in a proof record (preorder) that has ``key``."""
    stack = [record["root"] if "root" in record else record]
    while stack:
        node = stack.pop()
        rule = node.get("rule")
        if rule is not None and key in rule:
            return rule
        stack.extend(reversed(node["children"]))
    raise AssertionError(f"no rule with {key}")


def set_in_rule(key, value):
    def mutate(record):
        first_rule_with(record, key)[key] = value
    return mutate


def set_top(key, value):
    def mutate(record):
        record[key] = value
    return mutate


def set_sequent_formula(record):
    record["sequent"][0][0] = 7


def set_formula(record):
    record["root"]["formulas"][0] = 7


V1_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "v1"


class TestMalformedFields:
    """Mistyped fields of a version-1 file: ``check`` and ``translate``
    refuse the file, and the upgrade script reports it, each with exit
    status 2, a message, and no traceback, never the Rejected/Exhausted
    status 1.  The files are the drinker proofs the version-1 writers
    wrote."""

    def assert_upgrade_refuses(self, tmp_path, capsys, path):
        out = tmp_path / "upgraded"
        assert run_upgrade([str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: cannot upgrade: ") and "Traceback" not in err
        assert not out.exists()

    def mutated(self, tmp_path, suffix, mutate):
        path = tmp_path / f"drinker{suffix}"
        record = json.loads((V1_FIXTURES / path.name).read_text(encoding="utf-8"))
        mutate(record)
        path.write_text(json.dumps(record), encoding="utf-8")
        return path

    @pytest.mark.parametrize("mutate", [
        set_in_rule("witness", 7),
        set_in_rule("witness", ["c1"]),
        set_in_rule("witness", "f("),
        set_in_rule("name", 3),
        set_in_rule("name", None),
        set_in_rule("principal", 5),
        set_sequent_formula,
    ])
    def test_check_exits_two(self, tmp_path, capsys, mutate):
        path = self.mutated(tmp_path, ".gs3", mutate)
        capsys.readouterr()
        assert run_cli(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed sequent proof" in err and "Traceback" not in err
        self.assert_upgrade_refuses(tmp_path, capsys, path)

    @pytest.mark.parametrize("mutate", [
        set_in_rule("meta", 7),
        set_in_rule("meta", "X1("),
        set_in_rule("skolem", 7),
        set_in_rule("skolem", {"sko": 1}),
        set_in_rule("class", 4),
        set_in_rule("introduced", [5]),
        set_in_rule("closure_pair", [1, 2]),
        set_top("store", [[1, 2]]),
        set_top("store", [7]),
        set_top("unifier", [7]),
        set_top("unifier", ["X1 := f("]),
        set_top("unifier", ["X1( := a"]),
        set_formula,
    ])
    def test_translate_exits_two(self, tmp_path, capsys, mutate):
        path = self.mutated(tmp_path, ".tab", mutate)
        capsys.readouterr()
        assert run_cli(["translate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed tableau proof" in err and "Traceback" not in err
        self.assert_upgrade_refuses(tmp_path, capsys, path)

    @pytest.mark.parametrize("store", [[["D(sko1)", "D(X1)"]], [], [["D(X1)", "D(sko1)"]] * 2])
    def test_a_store_that_contradicts_the_tree_is_not_upgraded(self, tmp_path, capsys, store):
        # The upgraded file's store is derived from the tree, so this one
        # would be lost without a word.
        path = self.mutated(tmp_path, ".tab", set_top("store", store))
        out = tmp_path / "upgraded"
        assert run_upgrade([str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"{path}: cannot upgrade: ValueError: the store is "
                                           "not the closure pairs in preorder\n")
        assert not out.exists()
        self.mutated(tmp_path, ".tab", lambda record: None)
        assert run_upgrade([str(path), "--out", str(out)]) == 0


class TestDeepInputs:
    def test_deep_json_array_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.gs3"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert run_cli(["check", str(path)]) == 2
        assert "malformed sequent proof" in capsys.readouterr().err
        path = path.with_suffix(".tab")
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert run_cli(["translate", str(path)]) == 2
        assert "malformed tableau proof" in capsys.readouterr().err

    def test_deep_proof_tree_exits_two(self, tmp_path, capsys):
        inner = '{"sequent": [["P", 1]], "rule": {"name": "weaken", "principal": "P"}, "children": ['
        leaf = '{"sequent": [["P", 1]], "rule": null, "children": []}'
        path = tmp_path / "tall.gs3"
        path.write_text(inner * 3000 + leaf + "]}" * 3000, encoding="utf-8")
        assert run_cli(["check", str(path)]) == 2
        assert "malformed sequent proof" in capsys.readouterr().err

    def test_deep_formula_exits_two(self, tmp_path, capsys):
        path = tmp_path / "chain.p"
        path.write_text(" => ".join(["P"] * 1200) + "\n", encoding="utf-8")
        assert run_cli(["prove", str(path), "--negate"]) == 2
        assert "nested deeper" in capsys.readouterr().err


def chain_goal(links, step):
    """A goal whose proof instantiates each link once, with a witness nested
    ``step`` levels deeper than the last: the proof files hold terms about
    ``links * step`` deep while the goal stays shallow."""
    deeper = "f(" * step + "x" + ")" * step
    chain = " & ".join(f"(forall x. P{i}(x) => P{i + 1}({deeper}))" for i in range(links))
    return f"({chain}) => P0(a) => exists z. P{links}(z)"


def deepest_in_proof(path):
    proof = proof_from_json(path.read_text(encoding="utf-8"))
    return max(f.height for _, node in gs3.iter_nodes(proof) for f in node.sequent)


class TestDepthBoundEndToEnd:
    """Every proof file the tool writes reads back, translates and checks."""

    def prove_translate_check(self, tmp_path, goal):
        path = tmp_path / "goal.p"
        path.write_text(goal + "\n", encoding="utf-8")
        assert run_cli(["prove", str(path), "--negate"]) == 0
        gs3_path = tmp_path / "goal.gs3"
        assert run_cli(["translate", str(tmp_path / "goal.tab"), "--out", str(gs3_path)]) == 0
        assert run_cli(["check", str(gs3_path)]) == 0
        return gs3_path

    def test_instances_deeper_than_the_goal(self, tmp_path, capsys):
        goal = chain_goal(4, 46)
        assert parse(goal).height < 60
        gs3_path = self.prove_translate_check(tmp_path, goal)
        assert deepest_in_proof(gs3_path) > 180
        assert "Traceback" not in capsys.readouterr().err

    def test_goal_at_the_bound(self, tmp_path):
        # Nested terms are the costliest shape for the recursive walks.  The
        # goal sits one level below the bound, so that the negated goal in
        # the proof files sits at it.
        deep = "f(" * (MAX_DEPTH - 4) + "a" + ")" * (MAX_DEPTH - 4)
        goal = f"P({deep}) => P({deep})"
        assert parse(goal).height == MAX_DEPTH - 1
        assert deepest_in_proof(self.prove_translate_check(tmp_path, goal)) == MAX_DEPTH

    def test_instances_deeper_than_the_bound_are_not_written(self, tmp_path, capsys):
        path = tmp_path / "goal.p"
        path.write_text(chain_goal(4, 50) + "\n", encoding="utf-8")
        assert run_cli(["prove", str(path), "--negate"]) == 2
        err = capsys.readouterr().err
        assert "cannot write the proof" in err and "nested deeper" in err
        assert "Traceback" not in err
        assert not (tmp_path / "goal.gs3").exists()

    def test_ground_instances_too_deep_to_build_exit_two(self, tmp_path, drinker_file, capsys):
        # The unifier binds x to a 190-deep term that sits under 190 more
        # levels: the goal and the tableau are within the bound, the ground
        # instances of the sequent proof are twice as deep.
        f_a = "f(" * 190 + "a" + ")" * 190
        g = "g(" * 190
        end = ")" * 190
        path = tmp_path / "goal.p"
        path.write_text(f"(forall x. D(x) => P({g}x{end})) => D({f_a}) => exists y. P({g}y{end})\n",
                        encoding="utf-8")
        assert parse(path.read_text(encoding="utf-8")).height <= MAX_DEPTH
        assert run_cli(["prove", str(path), str(drinker_file), "--negate"]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err
        assert not (tmp_path / "goal.gs3").exists()
        assert (tmp_path / "drinker.gs3").exists()
        tab = tmp_path / "goal.tab"
        assert run_cli(["translate", str(tab)]) == 2
        assert "nested too deeply" in capsys.readouterr().err


def test_python_m_tabseq_checks_a_proof(tmp_path, drinker_file):
    assert run_cli(["prove", str(drinker_file), "--negate", "--emit", "gs3"]) == 0
    done = python_m_tabseq("check", str(tmp_path / "drinker.gs3"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "Accepted"

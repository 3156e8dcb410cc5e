"""Version-4 `.tab` files, which hold only what the prover chose: each
expansion's principal and witness, each closure's pair and the ground
unifier.  They round-trip, the reader derives each rule as ``expand`` and
``close`` made it and refuses what it cannot derive, the writer refuses a
tree it cannot write faithfully and the audit refuses each such rule for
the same reason, older versions are refused with the upgrade hint, and
mutants never crash ``translate``."""

import contextlib
import functools
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tabseq import gs3, tableau
from tabseq.cli import main
from tabseq.formula import App, Meta, Not, parse
from tabseq.problems import HAND_GOALS, deep_tableau, growth_goal
from tabseq.tableau import (
    CLOSURE,
    AuditError,
    ClosedTableau,
    RuleInstance,
    TableauError,
    TableauNode,
    audit_closed_tableau,
    prove,
    render_tableau,
    tableau_from_json,
    tableau_to_json,
)
from tabseq.translate import translate
from tabseq.tree import MAX_OCCURRENCES, format_path, preorder

from conftest import node_at
from test_output_digest import inputs

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def proved(text: str) -> ClosedTableau:
    ct = prove([Not(parse(text))])
    assert isinstance(ct, ClosedTableau)
    return ct


def drinker() -> ClosedTableau:
    return proved(dict(HAND_GOALS)["drinker"])


# The closure pair of the drinker's tableau.
DRINKER_PAIR = (parse("D(X1)", allow_generated=True), parse("~D(sko1)", allow_generated=True))


def translate_exit(text: str, tmp_path: Path) -> tuple[int, str]:
    """``tabseq translate`` on a ``.tab`` text: its exit status and stderr."""
    path = tmp_path / "in.tab"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["translate", str(path), "--out", str(tmp_path / "out.gs3")])
    return exc.value.code, err.getvalue()


# ------------------------------------------------------------ round trip


def test_files_round_trip_and_translate_as_the_tree_they_hold():
    """Over the output digest's 2,033 goals and a tableau deeper than the
    recursion limit: write, read and write again gives the same text, the
    read-back tree renders as the prover's, and it translates to the same
    ``.gs3`` bytes."""
    goals = [(name, prove([Not(goal)])) for name, goal in inputs()]
    for name, ct in goals + [("deep-1100", deep_tableau(1100))]:
        text = tableau_to_json(ct)
        back = tableau_from_json(text)
        assert tableau_to_json(back) == text, name
        assert render_tableau(back) == render_tableau(ct), name
        assert (gs3.proof_to_json(translate(back, audit=False))
                == gs3.proof_to_json(translate(ct, audit=False))), name


def test_a_closure_is_a_leaf_in_the_file_and_in_memory():
    """The drinker's file lists four nodes, its closure with no child, and
    the reader's closure, as the prover's, is a leaf that introduces
    nothing."""
    ct = drinker()
    record = json.loads(tableau_to_json(ct))
    assert sorted(record) == ["nodes", "root", "table", "unifier", "version"]
    assert record["nodes"][0] == [None, [CLOSURE, 5, 9], []]
    for root in (ct.root, tableau_from_json(json.dumps(record)).root):
        closure = node_at(root, (0, 0, 0))
        assert closure.rule == RuleInstance(CLOSURE, None, (), None, DRINKER_PAIR)
        assert closure.children == ()


# ------------------------------------------------------- old versions


@pytest.mark.parametrize("path", [FIXTURES / "v2" / "drinker.tab", FIXTURES / "v3" / "drinker.tab"],
                         ids=["v2", "v3"])
def test_an_old_tab_is_refused_with_the_upgrade_hint(tmp_path, path):
    version = json.loads(path.read_text(encoding="utf-8"))["version"]
    code, err = translate_exit(path.read_text(encoding="utf-8"), tmp_path)
    assert code == 2 and err.endswith(
        f"malformed tableau proof: version-{version} tableau files are no longer read; "
        "upgrade it with scripts/upgrade_files.py\n")


# ---------------------------------------------------------- hostile files

# In the drinker's version-4 file: table 0 is sko1, 1 X1, 5 D(X1), 6 D(x)
# with x free, 9 ~D(sko1), 12 ~(forall y. D(y)), 14 its alpha principal
# and 15 the root formula; node 3 is the root's gamma step [15, 1], 2 the
# alpha step [14], 1 the delta step [12, 0] and 0 the closure.
HOSTILE_V4 = {
    "literal principal": ((1, 1, [5]), "the literal D(X1) is no principal"),
    "gamma without a witness": ((3, 1, [15]), "gamma rule takes a metavariable"),
    "gamma with a Skolem witness": ((3, 1, [15, 0]),
                                    "gamma rule takes a metavariable"),
    "delta without a witness": ((1, 1, [12]), "delta rule takes a Skolem term"),
    "delta with a metavariable witness": ((1, 1, [12, 1]),
                                          "delta rule takes a Skolem term"),
    "alpha with a witness": ((2, 1, [14, 1]), "alpha rule takes no witness"),
    "witness that is a formula": ((3, 1, [15, 5]), "witness must be a term"),
    "principal with a free variable": ((2, 1, [6]), "principal has the free bound variable x"),
    "rule of three fields": ((3, 1, [15, 1, 1]),
                             'a rule must be [principal], [principal, witness] '
                             'or ["closure", pos, neg]'),
    "closure of two fields": ((0, 1, [CLOSURE, 5]),
                              'a rule must be [principal], [principal, witness] '
                              'or ["closure", pos, neg]'),
    "rule that is no list": ((0, 1, CLOSURE),
                             'a rule must be [principal], [principal, witness] '
                             'or ["closure", pos, neg]'),
    "closure pair side that is a term": ((0, 1, [CLOSURE, 5, 0]),
                                         "closure pair must be a formula"),
    "expansion without its child": ((2, 2, []), "node 2 has 0 child entries, not 1"),
    "closure with a listed child": ((1, 1, [CLOSURE, 5, 9]), "node 1 has 1 child entries, not 0"),
    "rule-less node with a child": ((2, 1, None), "node 2 has 1 child entries, not 0"),
    "node with a closed flag": ((3, [[15], [15, 1], [2], False]),
                                "a node must be [formulas, rule, [children]]"),
    "root without formulas": ((3, 0, None), "node 3 lists no formulas and is no node's child"),
    "child that is not earlier": ((1, 2, [1]), "child 1 does not refer to an earlier entry"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_V4))
def test_hostile_v4_file_exits_two(tmp_path, case):
    *keys, value = HOSTILE_V4[case][0]
    record = json.loads(tableau_to_json(drinker()))
    target = record["nodes"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    code, err = translate_exit(json.dumps(record), tmp_path)
    assert code == 2 and err.endswith(f"malformed tableau proof: {HOSTILE_V4[case][1]}\n"), err


def skolem_term_without_arguments(monkeypatch) -> dict:
    """The invalid ``(forall x. exists y. R(x, y)) => exists y. forall x.
    R(x, y)`` closes when a delta step's Skolem term leaves out its
    principal's metavariables; the translator would find a cyclic Skolem
    dependency."""
    with monkeypatch.context() as patch:
        patch.setattr(tableau, "free_metas", lambda f: ())
        ct = proved("(forall x. exists y. R(x, y)) => exists y. forall x. R(x, y)")
    return json.loads(tableau_to_json(ct))


def gamma_witness_unbound(monkeypatch) -> dict:
    """A unifier cut to its first binding leaves the second gamma step's
    witness free; the translator's step builder would refuse it as a
    witness that is not ground."""
    record = json.loads(tableau_to_json(proved("(forall x. forall y. P(x)) => P(a)")))
    record["unifier"] = record["unifier"][:1]
    return record


def root_metavariable_unbound(monkeypatch) -> dict:
    """The drinker's root with a second formula ``Q(X9)``, whose X9 no
    rule binds."""
    record = json.loads(tableau_to_json(drinker()))
    record["table"] += [["m", "X9"], ["P", "Q", 16]]
    record["nodes"][record["root"]][0] = [15, 17]
    return record


# Trees whose every rule is one ``expand`` or ``close`` makes but which the
# audit refuses, each before it reaches the translator.
AUDIT_REFUSES = {
    skolem_term_without_arguments:
        "skolem term sko1 is not over its principal's metavariables at 00",
    gamma_witness_unbound: "metavariable X2 is not bound by the unifier",
    root_metavariable_unbound: "metavariable X9 is not bound by the unifier",
}


@pytest.mark.parametrize("build", list(AUDIT_REFUSES), ids=lambda build: build.__name__)
def test_tree_the_audit_refuses_exits_two(tmp_path, monkeypatch, build):
    code, err = translate_exit(json.dumps(build(monkeypatch)), tmp_path)
    assert code == 2 and err.endswith(f"malformed tableau proof: {AUDIT_REFUSES[build]}\n"), err


@pytest.mark.parametrize("version", [1, 5, "4", None, 2.0, 3.0, True])
def test_unknown_version_exits_two(tmp_path, version):
    record = {**json.loads(tableau_to_json(drinker())), "version": version}
    code, err = translate_exit(json.dumps(record), tmp_path)
    assert code == 2 and err.endswith(f"malformed tableau proof: unknown version {version!r}\n")


def test_node_formulas_are_bounded(tmp_path):
    """A 64 kB chain of 1,000 gamma steps below a root that lists 12,500
    formulas would hold 12.5 million formula occurrences; it exits 2
    before they are built."""
    record = json.loads(tableau_to_json(drinker()))
    record["nodes"] = [[None, None, []]] + [[None, [15, 1], [k]] for k in range(999)]
    record["nodes"][-1][0] = [15] * 12_500
    record["root"] = 999
    text = json.dumps(record, separators=(",", ":"))
    assert len(text) < 64_000
    code, err = translate_exit(text, tmp_path)
    assert code == 2 and err.endswith(f"more than {MAX_OCCURRENCES} formulas\n"), err


# --------------------------------------------------------------- mutants

@functools.cache
def mutant_sources() -> tuple[str, ...]:
    """The files to mutate: the drinker's, drinker-under-or's, which
    closes three branches, and growth k=2's, whose delta steps have
    metavariables in their Skolem terms."""
    return tuple(tableau_to_json(ct) for ct in (
        drinker(), proved(dict(HAND_GOALS)["drinker-under-or"]), prove([Not(growth_goal(2))])))


def places(value, out: list) -> list:
    """(container, key) of every list entry in a JSON value, preorder."""
    stack = [value]
    while stack:
        item = stack.pop()
        keys = list(item) if isinstance(item, dict) else range(len(item))
        for key in keys:
            if isinstance(item, list):
                out.append((item, key))
            if isinstance(item[key], (list, dict)):
                stack.append(item[key])
    return out


@st.composite
def mutants(draw):
    """A version-4 file with one to three changes: an index replaced by
    another, a rule field dropped or added, a witness of the other sort,
    or a child reused or dropped."""
    record = json.loads(draw(st.sampled_from(mutant_sources())))
    table = record["table"]
    metas = [i for i, e in enumerate(table) if e[0] == "m"]
    skolems = [i for i, e in enumerate(table) if e[0] == "f" and e[1].startswith("sko")]
    for _ in range(draw(st.integers(1, 3))):
        nodes = record["nodes"]
        kind = draw(st.sampled_from(["index", "drop field", "add field", "other sort",
                                     "reuse child", "drop child"]))
        n = draw(st.integers(0, len(nodes) - 1))
        rule = nodes[n][1]
        if kind == "index":
            ints = [(c, k) for c, k in places(record, []) if type(c[k]) is int]
            container, key = draw(st.sampled_from(ints))
            container[key] = draw(st.integers(-1, len(table) + 1))
        elif kind == "drop field" and rule:
            del rule[draw(st.integers(0, len(rule) - 1))]
        elif kind == "add field" and rule is not None:
            rule.append(draw(st.integers(0, len(table) - 1)))
        elif kind == "other sort" and rule and len(rule) == 2:
            rule[1] = draw(st.sampled_from((skolems if rule[1] in metas else metas) or [0]))
        elif kind == "reuse child":
            nodes[n][2].append(draw(st.integers(0, max(n - 1, 0))))
        elif kind == "drop child" and nodes[n][2]:
            del nodes[n][2][draw(st.integers(0, len(nodes[n][2]) - 1))]
    return json.dumps(record)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
def test_mutated_v4_files_exit_zero_or_two(tmp_path_factory, text):
    """``translate`` reads, audits and translates a mutant or refuses it:
    exit 0 or 2, never 1, which would be a translation the checker
    rejects, and never a traceback."""
    code, err = translate_exit(text, tmp_path_factory.mktemp("mutant"))
    assert code in (0, 2) and "Traceback" not in err, (text, err)


# ------------------------------------------------------- writer refusals


def refused(ct: ClosedTableau, message: str) -> None:
    with pytest.raises(TableauError, match=f"^cannot write: {re.escape(message)}$"):
        tableau_to_json(ct)


class TestWriterRefusals:
    """What the version-4 writer refuses is pinned, with the audit's
    refusal of the same tree, by ``test_the_audit_and_the_writer_agree``
    below; this is what it writes although the audit refuses it."""

    def test_a_closure_with_no_literal_pair_is_written(self):
        """A pair that is no literal pair can be written; the audit, not
        the writer, refuses it."""
        pos, neg = parse("P(a) & P(a)"), parse("~P(a)")
        root = TableauNode((pos, neg), RuleInstance(CLOSURE, None, (), closure_pair=(pos, neg)))
        ct = ClosedTableau(root, {})
        assert render_tableau(tableau_from_json(tableau_to_json(ct))) == render_tableau(ct)


# ------------------------------------------------- audit and writer agree


def _with_witness(rule: RuleInstance, witness) -> RuleInstance:
    """``rule`` with ``witness`` and the formulas that witness gives."""
    name = gs3.rule_name(rule.principal)
    return rule._replace(witness=witness, introduced=gs3.premise_additions(
        gs3.GsRule(name, witness), rule.principal))


def new_rule(change):
    """A change to a node that replaces its rule with ``change(rule)``."""
    return lambda node: setattr(node, "rule", change(node.rule))


# Per malformed rule: the path of the node it changes in the drinker's
# tableau (gamma at the root, then alpha, delta and closure down one
# branch), the change, and the reason both refusals give.
EXPANSION = "rule is not the expansion of its principal"
NOT_A_CLOSURE = "closure is not a pair with no children"
MALFORMED_RULES = {
    "wrong class": ((0,), new_rule(lambda r: r._replace(kind="beta")), f"beta {EXPANSION}"),
    "an extra introduced formula": ((0,), new_rule(lambda r: r._replace(
        introduced=(r.introduced[0] + (parse("S"),),))), f"alpha {EXPANSION}"),
    "introduced formulas reordered": ((0,), new_rule(lambda r: r._replace(
        introduced=(r.introduced[0][::-1],))), f"alpha {EXPANSION}"),
    "a gamma without a witness": ((), new_rule(lambda r: r._replace(witness=None)),
                                  f"gamma {EXPANSION}"),
    "a delta without a witness": ((0, 0), new_rule(lambda r: r._replace(witness=None)),
                                  f"delta {EXPANSION}"),
    "a gamma witness of the wrong sort": (
        (), new_rule(lambda r: _with_witness(r, App("sko9", ()))), f"gamma {EXPANSION}"),
    "a delta witness of the wrong sort": (
        (0, 0), new_rule(lambda r: r._replace(witness=Meta("X1"))), f"delta {EXPANSION}"),
    "an alpha with a witness": ((0,), new_rule(lambda r: r._replace(witness=Meta("X1"))),
                                f"alpha {EXPANSION}"),
    "a closure pair on an expansion": (
        (), new_rule(lambda r: r._replace(closure_pair=DRINKER_PAIR)), f"gamma {EXPANSION}"),
    "children that are not the premises": (
        (0,), lambda node: setattr(node, "children", node.children * 2), f"alpha {EXPANSION}"),
    "a closure without a pair": ((0, 0, 0), new_rule(lambda r: r._replace(closure_pair=None)),
                                 NOT_A_CLOSURE),
    "a closure pair of one formula": (
        (0, 0, 0), new_rule(lambda r: r._replace(closure_pair=r.closure_pair[:1])),
        NOT_A_CLOSURE),
    "a closure that introduces an empty list": (
        (0, 0, 0), new_rule(lambda r: r._replace(introduced=((),))), NOT_A_CLOSURE),
    "a closure with a child": (
        (0, 0, 0), lambda node: setattr(node, "children", (TableauNode(node.formulas),)),
        NOT_A_CLOSURE),
    "a rule-less node with children": ((0,), new_rule(lambda r: None),
                                       "rule-less node has children"),
}


@pytest.mark.parametrize("name", MALFORMED_RULES)
def test_the_audit_and_the_writer_agree(name):
    """Both ask ``tableau._rule_fault`` whether a rule is one that
    ``expand`` or ``close`` makes, so they refuse each rule that is not
    with the same reason and path."""
    path, change, reason = MALFORMED_RULES[name]
    ct = drinker()
    change(node_at(ct.root, path))
    expected = f"{reason} at {format_path(path)}"
    with pytest.raises(AuditError, match=f"^{re.escape(expected)}$"):
        audit_closed_tableau(ct)
    refused(ct, expected)

"""Tests of the benchmark's correctness gate, including negative controls:
a proof with one corrupted inference and a valid proof of the wrong
end-sequent must each count as failures, on the library pipeline and on
the command-line pipeline alike.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json

import pytest

import run
from gate import Repeats, proof_failure, ratio_failure
from spans import Tracer
from tabseq import cli, gs3, tableau
from tabseq.formula import Atom, Not, parse
from tabseq.gs3 import GsProof, GsRule

run.load_tabseq()
translate_module = importlib.import_module("tabseq.translate")

DRINKER = parse("exists x. (D(x) => forall y. D(y))")


def drinker_proof() -> GsProof:
    return translate_module.translate(tableau.prove([Not(DRINKER)]))


def corrupt_one_inference(proof: GsProof) -> GsProof:
    """Drop one formula from the first premise of the first inference that
    has a premise with more than one formula."""
    for path, node in gs3.iter_nodes(proof):
        if node.children and len(node.children[0].sequent) > 1:
            child = node.children[0]
            bad = dataclasses.replace(child, sequent=child.sequent[1:])
            return gs3.replace_at(proof, path + (0,), bad)
    raise AssertionError("no inference to corrupt")


def wrong_end_sequent_proof() -> GsProof:
    """A one-node proof of ``P, ~P |-``: the checker accepts it."""
    p = Atom("P", ())
    return GsProof((p, Not(p)), GsRule("axiom"), p, ())


def gate(goal, proof: GsProof) -> str | None:
    verdict = gs3.check(proof)
    text = gs3.proof_to_json(proof)
    return proof_failure(goal, verdict.accepted, verdict.describe(), gs3.proof_from_json(text),
                         text)


def test_valid_proof_passes_the_gate():
    assert gate(DRINKER, drinker_proof()) is None


def test_corrupted_inference_fails_the_gate():
    bad = corrupt_one_inference(drinker_proof())
    assert not gs3.check(bad)
    assert "checker did not accept" in gate(DRINKER, bad)


def test_wrong_end_sequent_fails_the_gate():
    wrong = wrong_end_sequent_proof()
    assert gs3.check(wrong)
    assert gate(DRINKER, wrong) == "root sequent is not the negated goal"


def test_read_back_mismatch_fails_the_gate():
    proof = drinker_proof()
    other = gs3.proof_to_json(translate_module.translate(tableau.prove([Not(parse("P | ~P"))])))
    failure = proof_failure(DRINKER, True, "Accepted", proof, other)
    assert failure == "proof read back differs from the proof written"


def test_size_change_between_passes_fails():
    repeats = Repeats()
    assert repeats.failure("g", (4, 9)) is None
    assert repeats.failure("g", (4, 9)) is None
    assert repeats.failure("g", (4, 10)) is not None


def test_ratio_must_rise_strictly():
    assert ratio_failure([2.25, 7.44, 53.64]) is None
    assert ratio_failure([2.25, 2.25]) is not None


@pytest.mark.parametrize("sabotage", ["corrupt", "wrong_end"])
@pytest.mark.parametrize("workload_name", ["corpus", "growth"])
def test_negative_controls_count_as_failures(tmp_path, monkeypatch, workload_name, sabotage):
    """The translator is replaced by one that returns a bad proof; the
    benchmark must count every goal as failed."""
    original = translate_module.translate

    def bad_translate(ct, *, audit=True):
        if sabotage == "corrupt":
            return corrupt_one_inference(original(ct, audit=False))
        return wrong_end_sequent_proof()

    monkeypatch.setattr(cli, "translate", bad_translate)
    monkeypatch.setattr(translate_module, "translate", bad_translate)
    kwargs = {"max_k": 2} if workload_name == "growth" else {}
    workload = run.WORKLOADS[workload_name](0, tmp_path, Tracer(), **kwargs)
    try:
        workload.inputs = workload.build_inputs()[:3]
        results = run.measure(workload, 0.0, 1, run.Reference())
    finally:
        workload.finish()
    expected = {"corrupt": "checker did not accept", "wrong_end": "root sequent is not"}[sabotage]
    assert results and all(expected in (r.failure or "") for r in results)


def test_corpus_goals_pass_and_repeat(tmp_path):
    workload = run.CorpusWorkload(3, tmp_path, Tracer())
    try:
        workload.inputs = workload.build_inputs()[:5]
        results = run.measure(workload, 0.0, 2, run.Reference())
    finally:
        workload.finish()
    assert len(results) == 10
    assert [r.failure for r in results] == [None] * 10
    assert all(r.gs3_bytes > 0 and r.tab_bytes > 0 and r.inferences >= r.rules
               for r in results)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "growth", "--seed", "0", "--seconds", "0",
                     "--max-k", "2"]) == 0
    out = last_json(capsys)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
    assert set(out["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "growth", "--seed", "0", "--seconds", "0", "--trace", "1",
                     "--max-k", "2"]) == 0
    metrics = last_json(capsys)["metrics"]
    expected = {name for name, *_ in run.LAYER_METRICS}
    expected |= {"translate.ratio", "trace.overhead_s", "trace.spans"}
    assert set(metrics) == expected
    for name in ("tableau.prove_s", "formula.parse_calls", "gs3.from_json_s", "translate.grafts",
                 "gs3.build_step_calls", "unify.solve_calls"):
        assert metrics[name]["value"] > 0, name
    assert metrics["translate.inferences"]["value"] == 9 + 67


def test_growth_sizes_match_the_paper_family():
    workload = run.GrowthWorkload(0, None, Tracer())
    workload.inputs = workload.build_inputs()
    results = run.measure(workload, 0.0, 1, run.Reference())
    assert [r.inferences for r in results] == [9, 67, 751]
    assert [r.rules for r in results] == [4, 9, 14]

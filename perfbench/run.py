"""Pipeline benchmark for tabseq: formula text in, an accepted and read-back
sequent proof out, timed end to end and, in a separate traced run, per
module.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus|growth|wide --seed N \
        --seconds S --trace 0|1 [--max-k K]

Every workload is a closed loop with one client in one process: the next
goal starts when the previous one has finished.  The loop runs whole passes
over the workload's inputs until ``--seconds`` have passed (corpus may stop
between goals once its first pass is complete).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the run spends half its time untraced and half traced,
and reports the per-module metrics and the tracing overhead instead.
Reported times are scaled to an unloaded machine by interleaved slices of
a reference task (see ``Reference``).  The full record (rows per input,
per-metric sample counts, Python version, ``nproc``, commit, spans) is
written to ``.perfbench/``.  Exit status: 0 when every goal passed the
correctness gate, 1 when one did not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
# One reference slice runs per REFERENCE_EVERY_S seconds of goals;
# REFERENCE_NOMINAL_S is its mean time on an unloaded 2-core machine.  A
# goal is scaled by the mean of the REFERENCE_WINDOW slices nearest to it.
REFERENCE_EVERY_S = 0.1
REFERENCE_NOMINAL_S = 0.0075
REFERENCE_WINDOW = 10
CORPUS_GENERATED = 2000
GROWTH_MAX_K = 3
WIDE_N = (8, 12, 16)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "goals_per_s": "1/s",
    "goal_latency_p50_ms": "ms",
    "goal_latency_p95_ms": "ms",
    "inferences_per_s": "1/s",
    "gs3_bytes": "B",
    "tab_bytes": "B",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit, how it is read from the traced phase).
# "incl"/"calls" read a span name, "count" a counter, "self" a layer's self
# time; "sum"/"max" aggregate a per-goal size.  Every value except the
# maxima is per pass over the workload's inputs.
LAYER_METRICS = (
    ("formula.parse_calls", "count", "calls", "formula.parse"),
    ("formula.parse_s", "s", "incl", "formula.parse"),
    ("formula.print_calls", "count", "calls", "formula.print"),
    ("formula.print_s", "s", "incl", "formula.print"),
    ("formula.self_s", "s", "self", "formula"),
    ("unify.solve_calls", "count", "calls", "unify.solve"),
    ("unify.solve_s", "s", "incl", "unify.solve"),
    ("unify.consistent_calls", "count", "calls", "unify.consistent"),
    ("unify.consistent_refused", "count", "count", "unify.consistent_refused"),
    ("unify.groundify_s", "s", "incl", "unify.groundify"),
    ("unify.self_s", "s", "self", "unify"),
    ("tableau.prove_s", "s", "incl", "tableau.prove"),
    ("tableau.rules", "count", "sum", "rules"),
    ("tableau.depth", "count", "max", "tab_depth"),
    ("tableau.expand_calls", "count", "calls", "tableau.expand"),
    ("tableau.close_calls", "count", "calls", "tableau.close"),
    ("tableau.open_leaves_calls", "count", "calls", "tableau.open_leaves"),
    ("tableau.open_leaves_s", "s", "incl", "tableau.open_leaves"),
    ("tableau.replace_at_s", "s", "incl", "tableau.replace_at"),
    ("tableau.to_json_s", "s", "incl", "tableau.to_json"),
    ("tableau.from_json_s", "s", "incl", "tableau.from_json"),
    ("tableau.audit_s", "s", "incl", "tableau.audit"),
    ("tableau.self_s", "s", "self", "tableau"),
    ("translate.translate_s", "s", "incl", "translate.translate"),
    ("translate.steps", "count", "count", "translate.steps"),
    ("translate.grafts", "count", "count", "translate.grafts"),
    ("translate.graft_case_iii", "count", "count", "translate.graft_case_iii"),
    ("translate.graft_case_iv", "count", "count", "translate.graft_case_iv"),
    ("translate.graft_case_v", "count", "count", "translate.graft_case_v"),
    ("translate.delta_graft_s", "s", "incl", "translate.delta_graft"),
    ("translate.replace_skolem_s", "s", "incl", "translate.replace_skolem"),
    ("translate.audit_s", "s", "count", "translate.audit_s"),
    ("translate.inferences", "count", "sum", "inferences"),
    ("translate.proof_depth", "count", "max", "proof_depth"),
    ("translate.self_s", "s", "self", "translate"),
    ("gs3.build_step_calls", "count", "calls", "gs3.build_step"),
    ("gs3.build_step_s", "s", "incl", "gs3.build_step"),
    ("gs3.replace_at_s", "s", "incl", "gs3.replace_at"),
    ("gs3.check_s", "s", "incl", "gs3.check"),
    ("gs3.check_nodes", "count", "count", "gs3.check_nodes"),
    ("gs3.to_json_s", "s", "incl", "gs3.to_json"),
    ("gs3.from_json_s", "s", "incl", "gs3.from_json"),
    ("gs3.self_s", "s", "self", "gs3"),
    ("cli.prove_cmd_s", "s", "incl", "cli.prove_cmd"),
    ("cli.check_cmd_s", "s", "incl", "cli.check_cmd"),
    ("cli.self_s", "s", "self", "cli"),
)


class SetupError(Exception):
    """The benchmark cannot run here; reported with exit status 2."""


@dataclass
class Input:
    goal_id: str
    text: str
    goal: object  # the parsed goal, for the root-sequent test
    path: Path | None = None


@dataclass
class GoalResult:
    goal_id: str
    latency: float
    stages: dict[str, float] = field(default_factory=dict)
    rules: int = 0
    inferences: int = 0
    tab_depth: int = 0
    proof_depth: int = 0
    tab_bytes: int = 0
    gs3_bytes: int = 0
    failure: str | None = None
    midpoint: float = 0.0  # perf_counter() halfway through the goal
    scale: float = 1.0  # the reference scale around ``midpoint``

    @property
    def scaled_latency(self) -> float:
        return self.latency * self.scale


def load_tabseq() -> float:
    """Import tabseq from this checkout's ``src``, with the benchmark modules
    that use it; returns the median import time in seconds.

    In a fresh process the modules are dropped and imported again
    SETUP_REPEATS times, so the first import's byte-code compilation does
    not set the figure.  Nothing else holds them yet at that point.
    """
    if not (SRC / "tabseq" / "__init__.py").is_file():
        raise SetupError(f"no tabseq package under {SRC}")
    sys.path.insert(0, str(SRC))
    repeats = SETUP_REPEATS if "tabseq" not in sys.modules else 1
    times = []
    for i in range(repeats):
        if i:
            for name in [m for m in sys.modules if m.split(".")[0] in ("tabseq", "gate", "spans")]:
                del sys.modules[name]
        start = time.perf_counter()
        for name in ("tabseq", "tabseq.cli", "tabseq.problems", "gate", "spans"):
            importlib.import_module(name)
        times.append(time.perf_counter() - start)
    origin = Path(sys.modules["tabseq"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"imported tabseq from {origin}, not from {SRC}")
    return statistics.median(times)


class Reference:
    """A fixed pure-Python task that shares no code with tabseq.

    On a 2-core virtual machine shared with other tenants the CPU speed
    drifts by up to a factor of two within minutes, and that drift swamps
    run-to-run comparisons.  Slices of this task are interleaved with the
    goals, one per REFERENCE_EVERY_S of goal time, so they see the same
    machine.  Each goal's time is scaled by ``REFERENCE_NOMINAL_S / mean
    time of the slices nearest to it``, which gives seconds on the unloaded
    machine; the speed changes within a run too, so the scale is taken
    locally.  Like tabseq it builds and walks small Python objects, builds
    strings and round-trips JSON.
    """

    def __init__(self) -> None:
        source = "\n".join(
            f"def f{i}(a, b=({i}, 'x{i}')):\n"
            f"    return [a * k + b[0] for k in range({i}) if k % 3] or {{'k': a}}\n"
            for i in range(60))
        self.tree = ast.parse(source)
        self.data = self._nest(6, 0)
        self.times: list[float] = []
        self.stamps: list[float] = []  # perf_counter() at the end of each slice

    def _nest(self, depth: int, i: int):
        if depth == 0:
            return [i, f"s{i}", i / 7, None]
        return {f"k{j}": self._nest(depth - 1, i * 3 + j) for j in range(3)}

    def run_slice(self) -> None:
        start = time.perf_counter()
        ast.unparse(self.tree)
        copy.deepcopy(self.data)
        json.loads(json.dumps(self.data, sort_keys=True))
        self.stamps.append(time.perf_counter())
        self.times.append(self.stamps[-1] - start)

    def scale(self) -> float:
        """Factor that turns this run's seconds into unloaded-machine seconds."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.times)

    def scale_at(self, moment: float) -> float:
        """The same factor, from the slices nearest to ``moment``."""
        i = bisect.bisect(self.stamps, moment)
        lo = max(0, min(i - REFERENCE_WINDOW // 2, len(self.times) - REFERENCE_WINDOW))
        return REFERENCE_NOMINAL_S / statistics.fmean(self.times[lo:lo + REFERENCE_WINDOW])


# ----------------------------------------------------------------- workloads


class Workload:
    """Inputs plus the pipeline one goal goes through."""

    stop_between_goals = False
    rising_ratio = False
    measure_audit = False
    print_rows = True

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        from gate import Repeats

        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.repeats = Repeats()
        self.inputs: list[Input] = []

    def build_inputs(self) -> list[Input]:
        raise NotImplementedError

    def run_goal(self, item: Input) -> GoalResult:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def run(self, item: Input) -> GoalResult:
        start = time.perf_counter()
        try:
            result = self.run_goal(item)
        except Exception:
            return GoalResult(item.goal_id, 0.0, failure=traceback.format_exc(), midpoint=start)
        result.midpoint = start + result.latency / 2
        if result.failure is None:
            sizes = (result.rules, result.inferences, result.tab_depth, result.proof_depth,
                     result.tab_bytes, result.gs3_bytes)
            result.failure = self.repeats.failure(item.goal_id, sizes)
        return result


class LibraryWorkload(Workload):
    """parse -> prove -> tableau_to_json -> tableau_from_json ->
    translate(audit=False) -> check -> proof_to_json -> proof_from_json."""

    def run_goal(self, item: Input) -> GoalResult:
        from gate import proof_failure, tree_depth
        from tabseq import formula, gs3, tableau

        # ``tabseq.translate`` as a package attribute is the function, which
        # shadows the module of the same name.
        translate = importlib.import_module("tabseq.translate")
        tracer = self.tracer
        stages: dict[str, float] = {}

        def timed(stage, fn, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            stages[stage] = time.perf_counter() - t0
            return out

        start = time.perf_counter()
        with tracer.goal(item.goal_id):
            with tracer.span("formula.parse"):
                goal = timed("parse", formula.parse, item.text)
            ct = timed("prove", tableau.prove, [formula.Not(goal)])
            if not isinstance(ct, tableau.ClosedTableau):
                return GoalResult(item.goal_id, time.perf_counter() - start, stages,
                                  failure=f"prover exhausted: {ct}")
            tab_text = timed("tab_write", tableau.tableau_to_json, ct)
            ct_back = timed("tab_read", tableau.tableau_from_json, tab_text)
            proof = timed("translate", translate.translate, ct_back, audit=False)
            verdict = timed("check", gs3.check, proof)
            gs3_text = timed("gs3_write", gs3.proof_to_json, proof)
            proof_back = timed("gs3_read", gs3.proof_from_json, gs3_text)
        latency = time.perf_counter() - start

        with tracer.paused():
            failure = proof_failure(item.goal, verdict.accepted, verdict.describe(),
                                    proof_back, gs3_text)
            if failure is None and tableau.tableau_to_json(ct_back) != tab_text:
                failure = "tableau read back differs from the tableau written"
        return GoalResult(
            item.goal_id, latency, stages,
            rules=tableau.rule_count(ct.root),
            inferences=gs3.inference_count(proof),
            tab_depth=tree_depth(ct.root),
            proof_depth=tree_depth(proof),
            tab_bytes=len(tab_text.encode()),
            gs3_bytes=len(gs3_text.encode()),
            failure=failure,
        )


class GrowthWorkload(LibraryWorkload):
    """The paper's result: every existential step clones the proof so far."""

    rising_ratio = True

    def __init__(self, seed, workdir, tracer, max_k: int = GROWTH_MAX_K) -> None:
        super().__init__(seed, workdir, tracer)
        self.max_k = max_k

    def build_inputs(self) -> list[Input]:
        from tabseq.formula import parse, print_formula
        from tabseq.problems import growth_goal

        inputs = []
        for k in range(1, self.max_k + 1):
            text = print_formula(growth_goal(k))
            inputs.append(Input(f"k{k}", text, parse(text)))
        return inputs


class WideWorkload(LibraryWorkload):
    """No existential steps, so no grafts: long formulas on few nodes."""

    def build_inputs(self) -> list[Input]:
        from tabseq.formula import parse

        inputs = []
        for n in WIDE_N:
            conj = " & ".join(f"P{i}" for i in range(n))
            text = f"({conj}) => ({conj})"
            inputs.append(Input(f"n{n}", text, parse(text)))
        return inputs


class CorpusWorkload(Workload):
    """The user's sweep: ``tabseq prove --negate --emit both`` then
    ``tabseq check`` per goal file, through ``tabseq.cli.main`` in-process."""

    stop_between_goals = True
    print_rows = False

    def __init__(self, seed, workdir, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.in_dir = workdir / "in"
        self.out_dir = workdir / "out"
        self.last: dict[str, object] = {}
        self._taps: list[tuple[object, str, object]] = []
        from tabseq import gs3, tableau

        # Taps keep the tableau the CLI proved and the proof `check` read
        # back, for the gate; they add one Python call per goal.
        for module, attr in ((tableau, "prove"), (gs3, "proof_from_json")):
            original = getattr(module, attr)
            self._taps.append((module, attr, original))
            setattr(module, attr, self._tap(attr, original))

    def _tap(self, key: str, fn):
        def tap(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.last[key] = result
            return result

        return tap

    def finish(self) -> None:
        while self._taps:
            module, attr, original = self._taps.pop()
            setattr(module, attr, original)

    def build_inputs(self) -> list[Input]:
        from tabseq.formula import parse, print_formula
        from tabseq.problems import corpus

        self.in_dir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for name, goal in corpus(generated=CORPUS_GENERATED, seed=self.seed):
            text = print_formula(goal) + "\n"
            path = self.in_dir / f"{name}.p"
            path.write_text(text, encoding="utf-8")
            inputs.append(Input(name, text, parse(text), path))
        # A seeded order makes the goals a traced run reaches before its
        # time is up a fair sample of the pass.
        random.Random(self.seed).shuffle(inputs)
        return inputs

    def run_goal(self, item: Input) -> GoalResult:
        from gate import proof_failure, tree_depth
        from tabseq import cli, gs3, tableau

        tracer = self.tracer
        gs3_path = self.out_dir / f"{item.path.stem}.gs3"
        tab_path = self.out_dir / f"{item.path.stem}.tab"
        prove_argv = ["prove", "--negate", "--emit", "both", "--out", str(self.out_dir),
                      str(item.path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        self.last.clear()
        stages: dict[str, float] = {}

        start = time.perf_counter()
        with tracer.goal(item.goal_id), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            with tracer.span("cli.prove_cmd"):
                prove_status = _cli_status(cli.main, prove_argv)
            stages["prove_cmd"] = time.perf_counter() - start
            check_start = time.perf_counter()
            with tracer.span("cli.check_cmd"):
                check_status = _cli_status(cli.main, ["check", str(gs3_path)])
            stages["check_cmd"] = time.perf_counter() - check_start
        latency = time.perf_counter() - start

        check_out = stdout.getvalue().rstrip("\n").rsplit("\n", 1)[-1]
        if prove_status != 0:
            return GoalResult(item.goal_id, latency, stages,
                              failure=f"prove exited {prove_status}: {stderr.getvalue().strip()}")
        accepted = check_status == 0 and check_out == "Accepted"
        verdict = f"check exited {check_status}: {check_out} {stderr.getvalue().strip()}"
        ct = self.last.get("prove")
        proof = self.last.get("proof_from_json")
        with tracer.paused():
            written = gs3_path.read_text(encoding="utf-8")
            failure = proof_failure(item.goal, accepted, verdict, proof, written)
            if self.measure_audit and ct is not None:
                self._measure_audit(ct)
        if failure is not None:
            return GoalResult(item.goal_id, latency, stages, failure=failure)
        return GoalResult(
            item.goal_id, latency, stages,
            rules=tableau.rule_count(ct.root),
            inferences=gs3.inference_count(proof),
            tab_depth=tree_depth(ct.root),
            proof_depth=tree_depth(proof),
            tab_bytes=tab_path.stat().st_size,
            gs3_bytes=gs3_path.stat().st_size,
        )

    def _measure_audit(self, ct) -> None:
        """Add the time ``audit=True`` costs over ``audit=False`` on this
        goal's tableau to the ``translate.audit_s`` counter."""
        translate = importlib.import_module("tabseq.translate")
        t0 = time.perf_counter()
        translate.translate(ct, audit=True)
        t1 = time.perf_counter()
        translate.translate(ct, audit=False)
        t2 = time.perf_counter()
        self.tracer.counts["translate.audit_s"] += (t1 - t0) - (t2 - t1)


def _cli_status(main, argv: list[str]) -> int:
    try:
        main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    return 0


WORKLOADS = {"corpus": CorpusWorkload, "growth": GrowthWorkload, "wide": WideWorkload}


# ------------------------------------------------------------------- measure


def measure(workload: Workload, budget: float, min_passes: int,
            reference: Reference) -> list[GoalResult]:
    """Closed loop over the inputs until ``budget`` seconds have passed and
    at least ``min_passes`` whole passes are done, with reference slices
    between goals; sets each result's reference scale."""
    from gate import ratio_failure

    results: list[GoalResult] = []
    start = time.perf_counter()
    passes = 0
    since_slice = 0.0
    reference.run_slice()
    done = False
    while not done:
        pass_results = []
        for item in workload.inputs:
            pass_results.append(workload.run(item))
            since_slice += pass_results[-1].latency
            while since_slice >= REFERENCE_EVERY_S:
                reference.run_slice()
                since_slice -= REFERENCE_EVERY_S
            if (workload.stop_between_goals and passes >= min_passes
                    and time.perf_counter() - start >= budget):
                done = True
                break
        else:
            if workload.rising_ratio and all(r.failure is None for r in pass_results):
                pass_results[-1].failure = ratio_failure(
                    [r.inferences / r.rules for r in pass_results])
            passes += 1
            done = passes >= min_passes and time.perf_counter() - start >= budget
        results.extend(pass_results)
    reference.run_slice()
    for r in results:
        r.scale = reference.scale_at(r.midpoint)
    return results


def by_goal(results: list[GoalResult]) -> dict[str, list[GoalResult]]:
    groups: dict[str, list[GoalResult]] = defaultdict(list)
    for r in results:
        groups[r.goal_id].append(r)
    return groups


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: Workload, results: list[GoalResult], setup_s: float,
               scaled: bool) -> dict:
    """End-to-end metrics over one pass, from scaled or measured goal times,
    plus the p99 latency, which goes to the record only: on corpus it moves
    by a third from seed to seed, because the 20 slowest of 2,022 goals are
    a different handful for each seed.

    A goal's latency is the median of its samples in the run, so a goal that
    the last, partial pass repeated is not counted twice in the percentiles.
    """
    groups = by_goal(results)
    first = [groups[item.goal_id][0] for item in workload.inputs]
    latencies = [statistics.median(r.scaled_latency if scaled else r.latency
                                   for r in groups[item.goal_id])
                 for item in workload.inputs]
    wall = sum(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "goals_per_s": len(latencies) / wall,
        "goal_latency_p50_ms": statistics.median(latencies) * 1000,
        "goal_latency_p95_ms": percentile(latencies, 95) * 1000,
        "goal_latency_p99_ms": percentile(latencies, 99) * 1000,
        "inferences_per_s": sum(r.inferences for r in first) / wall,
        "gs3_bytes": sum(r.gs3_bytes for r in first),
        "tab_bytes": sum(r.tab_bytes for r in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {**E2E_UNITS, "goal_latency_p99_ms": "ms"}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer(workload: Workload, untraced: list[GoalResult], traced: list[GoalResult],
              tracer, traced_scale: float) -> dict:
    """Per-layer metrics per pass; span times are multiplied by the traced
    phase's reference scale."""
    summary = tracer.summary()
    per_pass = len(workload.inputs) / len(traced)
    layer_self: dict[str, float] = defaultdict(float)
    for name, entry in summary.items():
        layer_self[name.split(".")[0]] += entry["self_s"]
    ok = [r for r in traced if r.failure is None]

    def read(how: str, key: str) -> float:
        if how == "incl":
            return summary.get(key, {}).get("inclusive_s", 0.0) * per_pass
        if how == "calls":
            return summary.get(key, {}).get("calls", 0) * per_pass
        if how == "count":
            return tracer.counts.get(key, 0) * per_pass
        if how == "self":
            return layer_self.get(key, 0.0) * per_pass
        if how == "sum":
            return sum(getattr(r, key) for r in ok) * per_pass
        return max((getattr(r, key) for r in ok), default=0)

    metrics = {name: {"value": read(how, key) * (traced_scale if unit == "s" else 1), "unit": unit}
               for name, unit, how, key in LAYER_METRICS}
    rules = sum(r.rules for r in ok)
    metrics["translate.ratio"] = {
        "value": sum(r.inferences for r in ok) / rules if rules else 0.0, "unit": "ratio"}
    # Tracing overhead: traced minus untraced time of the same inputs, per
    # pass; on corpus the phases cover a prefix of the inputs, so the
    # difference over the goals both phases ran is scaled to a pass.
    before, after = by_goal(untraced), by_goal(traced)
    common = [i.goal_id for i in workload.inputs if i.goal_id in before and i.goal_id in after]
    diff = sum(statistics.median(r.scaled_latency for r in after[g])
               - statistics.median(r.scaled_latency for r in before[g]) for g in common)
    metrics["trace.overhead_s"] = {
        "value": diff * len(workload.inputs) / len(common) if common else 0.0, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.spans) * per_pass, "unit": "count"}
    return metrics


# -------------------------------------------------------------------- record


def rows(workload: Workload, results: list[GoalResult]) -> list[dict]:
    """One row per input: sizes, and the median scaled latency and stage
    times."""
    groups = by_goal(results)
    out = []
    for item in workload.inputs:
        samples = [r for r in groups.get(item.goal_id, []) if r.failure is None]
        if not samples:
            continue
        r = samples[0]
        stages = {stage: statistics.median(s.stages[stage] * s.scale for s in samples)
                  for stage in r.stages}
        out.append({
            "input": item.goal_id, "samples": len(samples),
            "latency_s": statistics.median(s.scaled_latency for s in samples),
            "stages_s": stages, "rules": r.rules, "inferences": r.inferences,
            "ratio": r.inferences / r.rules, "tab_depth": r.tab_depth,
            "proof_depth": r.proof_depth, "tab_bytes": r.tab_bytes, "gs3_bytes": r.gs3_bytes,
        })
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tabseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def print_report(metrics: dict, table: list[dict], samples: dict) -> None:
    if table:
        stages = list(table[0]["stages_s"])
        print(f"{'input':>6} {'rules':>6} {'infs':>7} {'ratio':>8} {'gs3 B':>10} {'n':>4} "
              + " ".join(f"{s:>9}" for s in stages) + "   (median ms)")
        for row in table:
            print(f"{row['input']:>6} {row['rules']:>6} {row['inferences']:>7} "
                  f"{row['ratio']:>8.2f} {row['gs3_bytes']:>10} {row['samples']:>4} "
                  + " ".join(f"{row['stages_s'][s] * 1000:>9.2f}" for s in stages))
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:>16.6g} {m['unit']}")
    print("samples: " + ", ".join(f"{k} {v}" for k, v in samples.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-k", type=int, default=GROWTH_MAX_K,
                        help="largest growth input (k = 4 takes minutes per pass)")
    args = parser.parse_args(argv)

    try:
        import_s = load_tabseq()
    except (SetupError, ImportError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    from spans import Tracer

    workdir = WORK / f"work-{os.getpid()}"
    tracer = Tracer()
    kwargs = {"max_k": args.max_k} if args.workload == "growth" else {}
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer, **kwargs)
    reference = Reference()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            reference.run_slice()
            t0 = time.perf_counter()
            workload.inputs = workload.build_inputs()
            setups.append(time.perf_counter() - t0)
        setup_mid = time.perf_counter()
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            untraced = measure(workload, args.seconds / 2, 0, reference)
            traced_reference = Reference()
            tracer.install()
            tracer.active = True
            workload.measure_audit = True
            try:
                traced = measure(workload, args.seconds / 2, 0, traced_reference)
            finally:
                tracer.active = False
                tracer.uninstall()
            results = untraced + traced
            metrics = per_layer(workload, untraced, traced, tracer, traced_reference.scale())
            samples = {"goals_traced": len(traced), "goals_untraced": len(untraced)}
        else:
            results = measure(workload, args.seconds, 1, reference)
            metrics = end_to_end(workload, results, setup_s * reference.scale_at(setup_mid), True)
            p99 = metrics.pop("goal_latency_p99_ms")
            raw_metrics = end_to_end(workload, results, setup_s, False)
            samples = {"setup_s": SETUP_REPEATS, "goals": len(workload.inputs),
                       "samples_per_goal": min(len(v) for v in by_goal(results).values()),
                       "reference_slices": len(reference.times)}
    finally:
        workload.finish()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [{"input": r.goal_id, "failure": r.failure} for r in results if r.failure]
    table = rows(workload, untraced if args.trace else results)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": len(workload.inputs),
        "attempted": len(results), "failed": len(failures),
        "fail_ratio": len(failures) / len(results), "samples": samples,
        "metrics": metrics, "reference": {
            "slices": len(reference.times), "mean_s": statistics.fmean(reference.times),
            "nominal_s": REFERENCE_NOMINAL_S, "scale": reference.scale(),
            "times_s": reference.times, "stamps_s": reference.stamps},
        "rows": table, "failures": failures[:20],
    }
    if not args.trace:
        record["goal_latency_p99_ms"] = p99
        record["raw_metrics"] = raw_metrics
    if args.trace:
        record["span_fields"] = ["name", "start", "end", "parent", "goal"]
        record["spans"] = tracer.spans
    WORK.mkdir(exist_ok=True)
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print_report(metrics, table if workload.print_rows else [], samples)
    if not args.trace:
        print(f"goal_latency_p99_ms {p99['value']:.6g} ms (in the record only)")
    for f in failures[:5]:
        print(f"FAILED {f['input']}: {f['failure']}")
    print(f"record: {record_path.relative_to(ROOT)}; fail_ratio {record['fail_ratio']:.6g}")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span recorder and the wrappers that feed it.

Spans are recorded only by benchmark code: around the calls the benchmark
makes, and through wrappers installed on ``tabseq`` module attributes for
the run's duration.  A wrapper installed on an attribute catches the calls
that look the name up at call time: calls from inside the defining module
(module globals) and calls through ``module.name`` from other modules.  A
module that imported the name with ``from ... import`` holds its own
binding, so that binding is wrapped separately.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from gate import tree_size

# (module that holds the binding, attribute, span name).  Several bindings
# of one function share a span name.
WRAPPED = (
    ("tabseq.tableau", "prove", "tableau.prove"),
    ("tabseq.tableau", "expand", "tableau.expand"),
    ("tabseq.tableau", "close", "tableau.close"),
    ("tabseq.tableau", "open_leaves", "tableau.open_leaves"),
    ("tabseq.tableau", "replace_at", "tableau.replace_at"),
    ("tabseq.tableau", "tableau_to_json", "tableau.to_json"),
    ("tabseq.tableau", "tableau_from_json", "tableau.from_json"),
    ("tabseq.translate", "audit_closed_tableau", "tableau.audit"),
    ("tabseq.tableau", "solve", "unify.solve"),
    ("tabseq.unify", "solve", "unify.solve"),
    ("tabseq.tableau", "consistent", "unify.consistent"),
    ("tabseq.tableau", "groundify", "unify.groundify"),
    ("tabseq.tableau", "parse", "formula.parse"),
    ("tabseq.tableau", "parse_term", "formula.parse"),
    ("tabseq.gs3", "parse", "formula.parse"),
    ("tabseq.gs3", "parse_term", "formula.parse"),
    ("tabseq.cli", "parse", "formula.parse"),
    ("tabseq.tableau", "print_formula", "formula.print"),
    ("tabseq.tableau", "print_term", "formula.print"),
    ("tabseq.gs3", "print_formula", "formula.print"),
    ("tabseq.gs3", "print_term", "formula.print"),
    ("tabseq.translate", "translate", "translate.translate"),
    ("tabseq.cli", "translate", "translate.translate"),
    ("tabseq.translate", "translate_detailed", "translate.detailed"),
    ("tabseq.translate", "delta_graft", "translate.delta_graft"),
    ("tabseq.translate", "replace_skolem_terms", "translate.replace_skolem"),
    ("tabseq.translate", "build_step", "gs3.build_step"),
    ("tabseq.gs3", "replace_at", "gs3.replace_at"),
    ("tabseq.gs3", "check", "gs3.check"),
    ("tabseq.gs3", "proof_to_json", "gs3.to_json"),
    ("tabseq.gs3", "proof_from_json", "gs3.from_json"),
)

# Functions whose results carry counts; the wrapper adds them to the
# tracer's counters after the span has ended.
_COUNTED = {
    "unify.consistent": lambda args, result: {"unify.consistent_refused": int(not result)},
    "gs3.check": lambda args, result: {"gs3.check_nodes": tree_size(args[0])},
    "translate.detailed": lambda args, result: {
        f"translate.{field}": getattr(result[1], field)
        for field in ("steps", "grafts", "graft_case_iii", "graft_case_iv", "graft_case_v")
    },
}


class Tracer:
    """Records spans as ``[name, start, end, parent index, goal id]``.

    Inactive, every wrapper passes straight through to the wrapped
    function.  Spans of one goal share the goal id set by ``goal``.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._goal: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._goal])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def paused(self):
        """Run benchmark bookkeeping that calls wrapped functions untraced."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    @contextmanager
    def goal(self, goal_id: str):
        self._goal = goal_id
        try:
            with self.span("bench.goal"):
                yield
        finally:
            self._goal = None

    def wrap(self, name: str, fn):
        counted = _COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counted is not None:
                self.counts.update(counted(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding in WRAPPED; ``uninstall`` restores them."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursive calls are not counted twice.  Self time is a span's
        duration minus the time its child spans cover.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["inclusive_s"] += end - start
        return dict(out)

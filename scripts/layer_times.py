"""Time each stage of the pipeline in-process on inputs whose proofs are
long, and print one table row per input.

Stages: parse of the goal's text and its print (rows with a goal), prove,
translate with the translator's audits off, the same with the cyclic
garbage collector disabled (``no gc``, so that the collector's share is
the difference), translate with the audits on, check on the
translator's proof and on the one read back from its ``.gs3`` text (the
shared DAG that ``tabseq check`` checks), ``.gs3`` write and read, ``.tab``
write and read; each time is the best of ``--repeats`` runs, in
milliseconds, measured with ``time.perf_counter``.
The last column gives the ``.gs3`` and ``.tab`` sizes in bytes.  Inputs:

- growth k=5: the paper's growth family, a shared proof DAG that unfolds to
  about 10^8 inferences;
- wide n=30, n=60 and n=120: ``(P0 & ... & Pn-1) => (P0 & ... & Pn-1)``,
  proved with ``depth_limit=1000``, one long branch of long sequents; the
  three rows show how each stage grows as n doubles;
- balanced wide n=240, n=480 and n=960: ``bal(0..n) => bal(0..n)``, with
  ``bal(0..n)`` the balanced ``&``-tree of ``P0 ... Pn-1``, proved with
  ``depth_limit=2000``: n closures on branches of about n formulas each,
  so the rows show how ``prove`` grows with many closures;
- ``problems.deep_tableau(n)`` for n=1,100, 2,200 and 4,400: one branch of
  n gamma steps, given as a tableau, so it has no goal to parse or print
  and no prove time; a layer whose cost is linear in the proof's height
  doubles from row to row.

The script reports and gates nothing; it exits 1 only if a goal does not
parse back from its printed text, or a proof it made is rejected or does
not read back to the same text.  For end-to-end
throughput run ``python3 perfbench/run.py``.

Usage: python scripts/layer_times.py [--repeats N]
"""

import argparse
import gc
import time

from tabseq import gs3
from tabseq.formula import Not, parse, print_formula
from tabseq.problems import deep_tableau, growth_goal
from tabseq.tableau import prove, tableau_from_json, tableau_to_json
from tabseq.translate import translate


def best(repeats: int, run):
    """The result of ``run()`` and its best time over ``repeats`` calls, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return result, 1000 * min(times)


def without_gc(run):
    """``run`` with the cyclic garbage collector disabled while it runs,
    and left enabled or disabled after as it was before."""
    def uncollected():
        enabled = gc.isenabled()
        gc.disable()
        try:
            return run()
        finally:
            if enabled:
                gc.enable()
    return uncollected


def inputs():
    """(name, the goal or None, function that returns the closed tableau)."""
    def wide(n: int):
        conj = " & ".join(f"P{i}" for i in range(n))
        goal = parse(f"({conj}) => ({conj})")
        return f"wide n={n}", goal, lambda: prove([Not(goal)], depth_limit=1000)

    def bal(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return f"P{lo}"
        mid = (lo + hi) // 2
        return f"({bal(lo, mid)} & {bal(mid, hi)})"

    def balanced(n: int):
        goal = parse(f"{bal(0, n)} => {bal(0, n)}")
        return f"balanced n={n}", goal, lambda: prove([Not(goal)], depth_limit=2000)

    def deep(n: int):
        return f"deep_tableau({n})", None, lambda: deep_tableau(n)

    growth = growth_goal(5)
    return [
        ("growth k=5", growth, lambda: prove([Not(growth)])),
        wide(30),
        wide(60),
        wide(120),
        balanced(240),
        balanced(480),
        balanced(960),
        deep(1100),
        deep(2200),
        deep(4400),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    print(f"{'input':<20} {'parse':>7} {'print':>7} {'prove':>7} {'tr off':>7} {'no gc':>7} "
          f"{'tr on':>7} {'check':>7} {'check r':>7} {'gs3 w':>7} {'gs3 r':>7} {'tab w':>7} "
          f"{'tab r':>7}  gs3 / tab bytes")
    failures = 0
    for name, goal, make in inputs():
        ct, prove_ms = best(args.repeats, make)
        front, back_goal = f"{'—':>7} {'—':>7} {'—':>7}", goal
        if goal is not None:
            text, print_ms = best(args.repeats, lambda: print_formula(goal))
            back_goal, parse_ms = best(args.repeats, lambda: parse(text))
            front = f"{parse_ms:7.2f} {print_ms:7.2f} {prove_ms:7.1f}"
        _, off = best(args.repeats, lambda: translate(ct, audit=False))
        _, off_no_gc = best(args.repeats, without_gc(lambda: translate(ct, audit=False)))
        proof, on = best(args.repeats, lambda: translate(ct, audit=True))
        verdict, check_ms = best(args.repeats, lambda: gs3.check(proof))
        gs3_text, gs3_w = best(args.repeats, lambda: gs3.proof_to_json(proof))
        back, gs3_r = best(args.repeats, lambda: gs3.proof_from_json(gs3_text))
        back_verdict, check_r = best(args.repeats, lambda: gs3.check(back))
        tab_text, tab_w = best(args.repeats, lambda: tableau_to_json(ct))
        tab_back, tab_r = best(args.repeats, lambda: tableau_from_json(tab_text))
        if (back_goal is not goal or not verdict or not back_verdict
                or gs3.proof_to_json(back) != gs3_text or tableau_to_json(tab_back) != tab_text):
            failures += 1
            name += " FAILED"
        print(f"{name:<20} {front} {off:7.1f} {off_no_gc:7.1f} {on:7.1f} {check_ms:7.1f} "
              f"{check_r:7.1f} {gs3_w:7.1f} {gs3_r:7.1f} {tab_w:7.1f} {tab_r:7.1f}  "
              f"{len(gs3_text.encode()):,} / {len(tab_text.encode()):,}")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()

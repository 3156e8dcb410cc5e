"""Run the whole pipeline over the bundled corpus and print a result table:
sizes, grafts and the checker's verdict per goal, then the total bytes of
the ``.tab`` and ``.gs3`` texts of the proved goals.  For times run
``python3 perfbench/run.py --workload corpus --seed 1 --seconds 20``.

Usage: python scripts/run_corpus.py [--generated N] [--seed S]
"""

import argparse

from tabseq import gs3
from tabseq.formula import Not
from tabseq.problems import corpus
from tabseq.tableau import Exhausted, prove, rule_count, tableau_to_json
from tabseq.translate import translate_detailed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generated", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    goals = corpus(generated=args.generated, seed=args.seed)
    print(f"{'name':24} {'tableau':>8} {'sequent':>8} {'grafts':>7} {'verdict':>9}")
    failures = tab_bytes = gs3_bytes = 0
    for name, goal in goals:
        ct = prove([Not(goal)])
        if isinstance(ct, Exhausted):
            failures += 1
            print(f"{name:24} {'-':>8} {'-':>8} {'-':>7} {'exhausted':>9}")
            continue
        proof, stats = translate_detailed(ct)
        tab_bytes += len(tableau_to_json(ct).encode())
        gs3_bytes += len(gs3.proof_to_json(proof).encode())
        verdict = gs3.check(proof)
        word = "accepted" if verdict else "REJECTED"
        if not verdict:
            failures += 1
        print(f"{name:24} {rule_count(ct.root):>8} {gs3.inference_count(proof):>8} "
              f"{stats.grafts:>7} {word:>9}")
    print(f"\n{len(goals) - failures}/{len(goals)} accepted")
    print(f".tab {tab_bytes} B, .gs3 {gs3_bytes} B")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()

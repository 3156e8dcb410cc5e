"""Measure how much larger the compiled sequent proof is than its tableau
on the family of conjoined existential-instance goals.

Every existential step clones the sequent proof built so far, so the ratio
climbs steeply with the number of conjuncts, while the clones repeat the
same few subproofs.  The translator builds each repeated subproof once, so
``sequent`` counts the inferences of the tree the proof unfolds to, and the
``entries`` column counts the node entries of the written ``.gs3``, which
lists each distinct subproof once; ``tab B`` is the size of the tableau's
``.tab`` text.  Each proof is translated with audits on
and read back from its ``.gs3`` text.  This script prints sizes and the
checker's verdict only; for times per stage run
``python3 perfbench/run.py --workload growth --seed 1 --seconds 0 --max-k 4``.

Usage: python scripts/growth_curve.py [--max-k K]
"""

import argparse
import json

from tabseq import gs3
from tabseq.formula import Not
from tabseq.problems import growth_goal
from tabseq.tableau import prove, rule_count, tableau_to_json
from tabseq.translate import translate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=5)
    args = parser.parse_args()

    print(f"{'k':>3} {'tableau':>8} {'sequent':>9} {'ratio':>10} {'entries':>8} {'tab B':>7} "
          f"{'verdict':>9}")
    failures = 0
    for k in range(1, args.max_k + 1):
        ct = prove([Not(growth_goal(k))])
        text = gs3.proof_to_json(translate(ct, audit=True))
        proof = gs3.proof_from_json(text)
        verdict = gs3.check(proof)
        if not verdict:
            failures += 1
        word = "accepted" if verdict else "REJECTED"
        t, g = rule_count(ct.root), gs3.inference_count(proof)
        entries = len(json.loads(text)["nodes"])
        tab_bytes = len(tableau_to_json(ct).encode())
        print(f"{k:>3} {t:>8} {g:>9} {g / t:>10.2f} {entries:>8} {tab_bytes:>7} {word:>9}")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()

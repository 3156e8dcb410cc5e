"""Time whole ``tabseq`` processes, as a sweep that runs one process per
goal pays for them, and print one table row per command and input.

Commands: ``python -c pass`` (the interpreter alone), ``python -m tabseq
prove --negate`` and ``python -m tabseq check`` on the ``.gs3`` that prove
wrote.  Inputs: the drinker and growth k=3.  Each time is the median of
``--repeats`` runs, in milliseconds, measured with ``time.perf_counter``
around the subprocess, in two columns:

- ``cached``: with a bytecode cache, ``PYTHONPYCACHEPREFIX`` set to a
  temporary directory that one unmeasured run of each command fills first;
- ``uncached``: with ``PYTHONDONTWRITEBYTECODE=1`` and no prefix, so each
  run compiles tabseq's modules from source, while the standard library
  reads the installation's own cache, as in a fresh checkout.

The package is run from a copy of ``src/tabseq`` in a temporary directory,
so no ``__pycache__`` of the source tree is read.  The subprocesses run one
at a time, each command and input in turn within a repeat.  The script
reports and gates nothing; it exits 1 only if a command fails.  For times
within one process run ``scripts/layer_times.py``.

Usage: python scripts/process_times.py [--repeats N]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tabseq.formula import print_formula
from tabseq.problems import growth_goal

SRC = Path(__file__).resolve().parents[1] / "src" / "tabseq"
GOALS = {"drinker": "exists x. (D(x) => forall y. D(y))",
         "growth k=3": print_formula(growth_goal(3))}


def commands(work: Path) -> list[tuple[str, str, list[str]]]:
    """(command, input, argv) per row; the goals are written to ``work``."""
    rows = [("python -c pass", "", ["-c", "pass"])]
    for name, text in GOALS.items():
        goal = work / f"{name.replace(' ', '-').replace('=', '')}.p"
        goal.write_text(text + "\n", encoding="utf-8")
        rows.append(("tabseq prove --negate", name,
                     ["-m", "tabseq", "prove", "--negate", "--out", str(work), str(goal)]))
        rows.append(("tabseq check", name,
                     ["-m", "tabseq", "check", str(goal.with_suffix(".gs3"))]))
    return rows


def run(argv: list[str], env: dict[str, str]) -> float:
    """Seconds that ``python argv`` took; exits 1 if it fails."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"python {' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(SRC, tmp / "src" / "tabseq",
                        ignore=shutil.ignore_patterns("__pycache__"))
        work = tmp / "work"
        work.mkdir()
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(tmp / "src")
        modes = {"cached": {**base, "PYTHONPYCACHEPREFIX": str(tmp / "pycache")},
                 "uncached": {**base, "PYTHONDONTWRITEBYTECODE": "1"}}
        rows = commands(work)
        for _, _, argv in rows:  # prove before check; fills the cache
            run(argv, modes["cached"])
        times: dict[tuple[int, str], list[float]] = {}
        for _ in range(args.repeats):
            for i, (_, _, argv) in enumerate(rows):
                for mode, env in modes.items():
                    times.setdefault((i, mode), []).append(run(argv, env))

    print(f"{'command':<22} {'input':<11} {'cached ms':>10} {'uncached ms':>12}")
    for i, (command, name, _) in enumerate(rows):
        cached, uncached = (1000 * statistics.median(times[i, mode]) for mode in modes)
        print(f"{command:<22} {name:<11} {cached:>10.1f} {uncached:>12.1f}")


if __name__ == "__main__":
    main()

"""Pin what both proof-file readers make of malformed input: the seeded
mutants that ``test_files_v2.test_mutated_proof_files_never_crash`` feeds
to the CLI, each read with ``tableau_from_json`` or ``proof_from_json``.
Per mutant, the digest takes the FormatError's message, or the canonical
text the writer gives for what the reader returned, so a changed message,
a changed order of the readers' checks, or a changed reading of a file
they accept fails this test."""

import hashlib
import json
import random

from tabseq.gs3 import proof_from_json, proof_to_json
from tabseq.problems import corpus
from tabseq.tableau import tableau_from_json, tableau_to_json
from tabseq.translate import translate
from tabseq.tree import FormatError

from conftest import run_upgrade
from test_files_v2 import V1_FIXTURES, V2_FIXTURES, mutate, proved

# sha256 over one line per mutant, in the order the mutants are made.  Nine
# ``.tab`` mutants make a ``store`` that is not the tree's closure pairs in
# preorder, which the reader refuses: five edit the store, two a closure
# pair, one the table entry of a pair's negated side, and one cuts the
# closure node off the tree.
DIGEST = "6ec8ccd6274a82e64be0a71038bb12bac751caa7745a3fb216325adead0014f4"


def mutants(tmp_path, capsys):
    """(suffix, text) of every mutant, made from the same files, with the
    same seed and in the same order as in the crash test."""
    rng = random.Random(20061007)
    files = []  # (suffix, text, mutants)
    for _, goal in corpus(generated=12)[::2]:
        ct = proved(goal)
        files.append((".tab", tableau_to_json(ct), 20))
        files.append((".gs3", proof_to_json(translate(ct)), 20))
    upgraded = tmp_path / "upgraded"
    v1_paths = sorted(V1_FIXTURES.iterdir())
    assert run_upgrade([*map(str, v1_paths), "--out", str(upgraded)]) == 0
    capsys.readouterr()
    for path in v1_paths:
        files.append((path.suffix, (upgraded / path.name).read_text(encoding="utf-8"), 150))
    for path in sorted(V2_FIXTURES.iterdir()):
        files.append((path.suffix, path.read_text(encoding="utf-8"), 60))
    for suffix, text, count in files:
        for _ in range(count):
            record = json.loads(text)
            for _ in range(rng.randint(1, 3)):
                mutate(record, rng)
            yield suffix, json.dumps(record)


def reading(suffix: str, text: str) -> str:
    """The reader's FormatError message, or the writer's text for what it read."""
    read, write = ((tableau_from_json, tableau_to_json) if suffix == ".tab"
                   else (proof_from_json, proof_to_json))
    try:
        back = read(text)
    except FormatError as e:
        return f"error {e}"
    return "read " + hashlib.sha256(write(back).encode()).hexdigest()


def test_reader_outcomes_on_mutated_files_are_pinned(tmp_path, capsys):
    lines = [f"{suffix} {reading(suffix, text)}" for suffix, text in mutants(tmp_path, capsys)]
    assert len(lines) == 1940
    assert sum(line.split()[1] == "read" for line in lines) == 111
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST

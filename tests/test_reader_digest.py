"""Pin what both proof-file readers make of malformed input: the seeded
mutants that ``test_files_v2.test_mutated_proof_files_never_crash`` feeds
to the CLI, each read with ``tableau_from_json`` or ``proof_from_json``.
Per mutant, the digest of its file kind takes the FormatError's message,
or the canonical text the writer gives for what the reader returned, so a
changed message, a changed order of the readers' checks, or a changed
reading of a file they accept fails this test."""

import hashlib
import json

from tabseq.gs3 import proof_from_json, proof_to_json
from tabseq.tableau import tableau_from_json, tableau_to_json
from tabseq.tree import FormatError

from test_files_v2 import mutant_sources, seeded_mutants
import test_gs3_v3

# sha256 over one line per mutant of each file kind, in the order the
# mutants are made.
DIGEST_TAB = "166aa324ed17b1a776376cddb3ca9b681654c3ddc0f581cd48abc797398dd73f"
DIGEST_GS3 = "3cb180e86a5c52a0d11e3ff7de34be4c2f76dce8ee0313f4a9c3e0339c649b1d"
# The same over ``test_gs3_v3.seeded_mutants(400, 1)``, of which 212 read.
DIGEST_GS3_WELL_FORMED = "21c833fdff54e84df7ee1ba1fab03a04aab5ebac5d3a081361f79aae284c708d"


def reading(suffix: str, text: str) -> str:
    """The reader's FormatError message, or the writer's text for what it read."""
    read, write = ((tableau_from_json, tableau_to_json) if suffix == ".tab"
                   else (proof_from_json, proof_to_json))
    try:
        back = read(text)
    except FormatError as e:
        return f"error {e}"
    return "read " + hashlib.sha256(write(back).encode()).hexdigest()


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_reader_outcomes_on_mutated_files_are_pinned(tmp_path, capsys):
    lines: dict[str, list[str]] = {".tab": [], ".gs3": []}
    for _, suffix, record in seeded_mutants(mutant_sources(tmp_path, capsys)):
        lines[suffix].append(reading(suffix, json.dumps(record)))
    gs3_lines, tab_lines = lines[".gs3"], lines[".tab"]
    assert len(gs3_lines) == len(tab_lines) == 970
    assert sum(line.startswith("read ") for line in gs3_lines) == 25
    assert digest(gs3_lines) == DIGEST_GS3
    assert sum(line.startswith("read ") for line in tab_lines) == 16
    assert digest(tab_lines) == DIGEST_TAB


def test_reader_outcomes_on_well_formed_gs3_mutants_are_pinned():
    lines = [reading(".gs3", text) for text in test_gs3_v3.seeded_mutants(400, 1)]
    read = sum(line.startswith("read ") for line in lines)
    assert read >= len(lines) // 2, read
    assert digest(lines) == DIGEST_GS3_WELL_FORMED

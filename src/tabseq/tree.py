"""Helpers shared by the tableau and sequent-proof trees and their readers.

Both trees are dataclasses whose nodes hold their subtrees in a
``children`` tuple and compare and hash by identity, so node maps and
sets are keyed by the node.  Paths address nodes as 0/1 sequences, the
root the empty sequence; the package names a node by its path in messages
and in altered copies, and the tests look one up with ``conftest.node_at``.
This module imports nothing from the package, so the independent checker
may use it.  It also holds what the proof-file readers and writers share:
their error, JSON writing and loading, version check and entry references.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Iterator, TypeVar

Path = tuple[int, ...]
N = TypeVar("N")

# Formula occurrences a reader builds from one file: a file can ask for many
# more occurrences than it has bytes, since a sequent or tableau node is
# written as a change to another.
MAX_OCCURRENCES = 10_000_000


class FormatError(ValueError):
    """A serialized proof file is malformed."""


def format_path(path: Path) -> str:
    return "".join(str(b) for b in path) or "(root)"


def replace_at(root: N, path: Path, new: N) -> N:
    """A copy of the tree with ``new`` at ``path``, sharing every subtree
    off that path.  Trees grow in place; this serves callers that need an
    altered copy, such as tests that tamper with one node."""
    if not path:
        return new
    spine = [root]
    for bit in path[:-1]:
        spine.append(spine[-1].children[bit])
    node = new
    for parent, bit in zip(reversed(spine), reversed(path)):
        children = list(parent.children)
        children[bit] = node
        node = dataclasses.replace(parent, children=tuple(children))
    return node


def iter_nodes(root: N) -> Iterator[tuple[Path, N]]:
    """Preorder traversal, left child before right."""
    stack: list[tuple[Path, N]] = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for bit in reversed(range(len(node.children))):
            stack.append((path + (bit,), node.children[bit]))


def path_of(root: N, node: N) -> str:
    """The first path of ``node`` below ``root`` in preorder, formatted, or
    "?" if it is not there, for an error message; a node object reached
    again, which hashes by identity, is not walked again."""
    met: set[N] = set()
    stack: list[tuple[Path, N]] = [((), root)]
    while stack:
        path, n = stack.pop()
        if n is node:
            return format_path(path)
        if n not in met:
            met.add(n)
            stack.extend((path + (bit,), c) for bit, c in reversed(list(enumerate(n.children))))
    return "?"


def preorder(root: N) -> Iterator[N]:
    """Each node in preorder, left child before right, without its path."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def indented(root: N, key: Callable[[N], object] = lambda n: n) -> Iterator[tuple[str, N, bool]]:
    """Preorder traversal for a stacked rendering, each node with its
    indent and whether a node with its ``key`` was met before: the children
    of a node with two or more children sit four spaces further in than
    their parent.  A node met again, by default the same node object as in
    a shared proof, is yielded again but its children are not."""
    seen: set = set()
    stack: list[tuple[str, N]] = [("", root)]
    while stack:
        indent, node = stack.pop()
        again = key(node) in seen
        yield indent, node, again
        if not again:
            seen.add(key(node))
            inner = indent + "    " if len(node.children) > 1 else indent
            stack.extend((inner, child) for child in reversed(node.children))


def postorder(root: N) -> list[N]:
    """Each node object once, after its children, left to right, without
    recursion; a node object, which hashes by identity, reached again through
    another parent, as in a proof read back from a file, is not walked again."""
    out: list[N] = []
    done: set[N] = set()
    stack: list[tuple[N, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if node in done:
            continue
        if ready:
            done.add(node)
            out.append(node)
        else:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
    return out


# The writers' records are freshly built acyclic lists and dicts, so the
# encoder's circular-reference check, a third of its time, cannot fire.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dump_json(record) -> str:
    """The compact text of a proof file's record, its keys sorted; the text
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` gives."""
    return _ENCODER.encode(record)


def load_json(text: str, what: str):
    """The JSON value of a proof file; invalid JSON, JSON nested too deeply
    to decode, or an integer literal longer than the interpreter converts
    (``sys.get_int_max_str_digits``) is a FormatError."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError is one
        raise FormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise FormatError(f"{what} nested too deeply") from None


def file_version(record, versions: tuple[int, ...], kind: str = "") -> int:
    """The ``version`` of a proof file's top-level object, one of the
    ``versions`` its reader accepts.  A top level that is no object, an old
    ``kind`` file (no version, or an int one from 2 below ``versions``),
    whose error names ``scripts/upgrade_files.py``, which rewrites it, and
    any other version are FormatErrors."""
    if not isinstance(record, dict):
        raise FormatError("top level must be a JSON object")
    if "version" not in record:
        raise FormatError("no version field: version-1 files are no longer read; "
                          "upgrade it with scripts/upgrade_files.py")
    version = record["version"]
    if type(version) is int and 2 <= version < min(versions):
        raise FormatError(f"version-{version} {kind} files are no longer read; "
                          "upgrade it with scripts/upgrade_files.py")
    if type(version) is not int or version not in versions:
        raise FormatError(f"unknown version {version!r}")
    return version


def entry_index(raw, bound: int, what: str) -> int:
    """``raw`` itself if it is an integer in ``range(bound)``; anything
    else is a FormatError.  A version-2 or later file refers to its entries this way,
    each only to entries before it."""
    if type(raw) is not int or not 0 <= raw < bound:
        raise FormatError(f"{what} {raw!r} does not refer to an earlier entry")
    return raw

"""Helpers shared by the tableau and sequent-proof trees and their readers.

Both trees are dataclasses whose nodes hold their subtrees in a
``children`` tuple.  Paths address nodes as 0/1 sequences, the root being
the empty sequence.  This module imports nothing from the package, so the
independent checker may use it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, TypeVar

Path = tuple[int, ...]
N = TypeVar("N")
T = TypeVar("T")


class FormatError(ValueError):
    """A serialized proof file is malformed."""


class PathError(IndexError):
    """A path names no node of the tree."""


def format_path(path: Path) -> str:
    return "".join(str(b) for b in path) or "(root)"


def node_at(root: N, path: Path) -> N:
    node = root
    for bit in path:
        try:
            node = node.children[bit]
        except IndexError:
            raise PathError(f"no node at path {format_path(path)}") from None
    return node


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


def parse_field(read: Callable[[str], T], raw, what: str) -> T:
    """``read`` applied to a string field of a file record; a field of
    another type, or one ``read`` refuses, is a FormatError."""
    if not isinstance(raw, str):
        raise FormatError(f"{what} must be a string")
    try:
        return read(raw)
    except ValueError as e:
        raise FormatError(f"bad {what}: {e}") from None

r"""Flat-file formats: code files and family files.

Code file: a ``q=<int> n=<int>`` header, then words separated by whitespace
(``format_code`` writes one per line).
Family file: a ``q=<int> k=<int>`` header and ``L<i>:`` / ``R<i>:`` lines.
In both, a comment runs from ``#`` to the end of its line, where lines end
at every break that ``str.splitlines`` recognises (``\n``, ``\r\n``, ``\r``,
``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028``, ``\u2029``); the
header is the first line that is not blank once comments are removed.
A parsed family is built by the strict ``families.family`` constructor,
so an invalid family file raises FormatError and never enters the system.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from .families import PartitionFamily, family
from .words import CodeSet, code


class FormatError(ValueError):
    """A malformed code or family file."""


def _split_header(line: str, keys: tuple[str, str], path: str) -> tuple[int, int]:
    parts = line.split()
    values = {}
    for part in parts:
        if "=" not in part:
            raise FormatError(f"{path}: bad header field {part!r}")
        key, _, raw = part.partition("=")
        if key in values:
            raise FormatError(f"{path}: header field {key!r} given twice")
        try:
            values[key] = int(raw)
        except ValueError:
            raise FormatError(f"{path}: non-integer header value {part!r}") from None
    if set(values) != set(keys):
        raise FormatError(f"{path}: header must declare exactly {keys[0]}= and {keys[1]}=")
    return values[keys[0]], values[keys[1]]


_COMMENT = re.compile("#.*")


def _uncommented(text: str) -> str:
    r"""text with every comment removed and every line break written as
    ``\n``, the one break that ``.`` in the comment pattern does not match."""
    return _COMMENT.sub("", "\n".join(text.splitlines()))


def parse_code(text: str, path: str = "<string>") -> CodeSet:
    header, _, rest = _uncommented(text).lstrip().partition("\n")
    if not header:
        raise FormatError(f"{path}: missing header line")
    q, n = _split_header(header.strip(), ("q", "n"), path)
    words = rest.split()
    if not set(map(len, words)) <= {n}:
        word = next(w for w in words if len(w) != n)
        raise FormatError(f"{path}: word {word!r} does not have length {n}")
    try:
        return code(q, n, words)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_code(path: str | Path) -> CodeSet:
    return parse_code(Path(path).read_text(), str(path))


def format_code(c: CodeSet, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {row}" for row in comment.splitlines())
    lines.append(f"q={c.q} n={c.n}")
    lines.extend(c.sorted_words())
    return "\n".join(lines) + "\n"


def write_code(c: CodeSet, path: str | Path, comment: str | None = None) -> None:
    Path(path).write_text(format_code(c, comment))


def parse_family(text: str, path: str = "<string>") -> PartitionFamily:
    lines = [line for line in map(str.strip, _uncommented(text).split("\n"))
             if line]
    if not lines:
        raise FormatError(f"{path}: missing header line")
    q, k = _split_header(lines[0], ("q", "k"), path)
    if k < 1:
        raise FormatError(f"{path}: depth must be >= 1")
    sets: dict[str, set[str]] = {}
    for line in lines[1:]:
        if ":" not in line:
            raise FormatError(f"{path}: expected 'L<i>:' or 'R<i>:' line, got {line!r}")
        tag, _, rest = line.partition(":")
        tag = tag.strip()
        if not tag or tag[0] not in "LR" or not tag[1:].isdigit():
            raise FormatError(f"{path}: bad level tag {tag!r}")
        level = int(tag[1:])
        if not 1 <= level <= k:
            raise FormatError(f"{path}: level {level} outside [1, {k}]")
        sets.setdefault(tag, set()).update(rest.split())
    # a valid family has no empty level, so stop at the first one, where
    # validation fails: a declared depth k is not walked k times
    levels = []
    for i in range(1, k + 1):
        levels.append((sets.get(f"L{i}", set()), sets.get(f"R{i}", set())))
        if not any(levels[-1]):
            break
    try:
        return family(q, levels)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_family(path: str | Path) -> PartitionFamily:
    return parse_family(Path(path).read_text(), str(path))


def format_family(f: PartitionFamily) -> str:
    lines = [f"q={f.q} k={f.depth}"]
    for i in range(1, f.depth + 1):
        lines.append(f"L{i}: " + " ".join(sorted(f.left(i))) if f.left(i)
                     else f"L{i}:")
        lines.append(f"R{i}: " + " ".join(sorted(f.right(i))) if f.right(i)
                     else f"R{i}:")
    return "\n".join(lines) + "\n"


def write_family(f: PartitionFamily, path: str | Path) -> None:
    Path(path).write_text(format_family(f))


def sha256_digest(path: str | Path) -> str:
    """The file's sha256, read in fixed-size blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()

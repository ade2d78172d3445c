"""Insertion/deletion burst channel and the aligned-window decoder.

The decoder re-reads the stream in aligned blocks and reports the first
block that is not a codeword.  It never resynchronizes: the artifact under
test is detection latency, not correction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .words import DIGITS, CodeSet


@dataclass(frozen=True)
class SymbolStream:
    symbols: str
    q: int


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str  # "delete" | "insert"
    position: int
    burst_length: int
    seed: int | None = None
    inserted: str | None = None  # overrides the seeded draw (exhaustive mode)


@dataclass(frozen=True)
class DecodeEvent:
    kind: str  # "match" | "desync"
    position: int  # symbols consumed when the event fired
    word: str | None = None


def burst_range(n: int, t1: int, t2: int) -> tuple[int, int]:
    """Burst lengths with guaranteed detection for a (t1, t2) code."""
    return min(t1, n - t2), min(n - t1, t2)


def encode_stream(c: CodeSet, message: Sequence[int]) -> SymbolStream:
    words = c.sorted_words()
    for idx in message:
        if not 0 <= idx < len(words):
            raise ValueError(f"codeword index {idx} out of range")
    symbols = "".join(words[idx] for idx in message)
    return SymbolStream(symbols=symbols, q=c.q)


def corrupt(s: SymbolStream, spec: CorruptionSpec) -> SymbolStream:
    if spec.burst_length < 1:
        raise ValueError("burst length must be >= 1")
    pos, b = spec.position, spec.burst_length
    if spec.kind == "delete":
        if spec.inserted is not None:
            raise ValueError("a deletion takes no inserted symbols")
        if not 0 <= pos or pos + b > len(s.symbols):
            raise ValueError("deletion burst out of range")
        symbols = s.symbols[:pos] + s.symbols[pos + b:]
    elif spec.kind == "insert":
        if not 0 <= pos <= len(s.symbols):
            raise ValueError("insertion position out of range")
        if spec.inserted is not None:
            if len(spec.inserted) != b:
                raise ValueError("inserted symbols must match the burst length")
            # what strip leaves starts at the first foreign symbol
            foreign = spec.inserted.strip(DIGITS[: s.q])
            if foreign:
                raise ValueError(f"inserted symbol {foreign[0]!r} not in "
                                 f"alphabet of size {s.q}")
            junk = spec.inserted
        else:
            rng = random.Random(spec.seed)
            junk = "".join(rng.choice(DIGITS[: s.q]) for _ in range(b))
        symbols = s.symbols[:pos] + junk + s.symbols[pos:]
    else:
        raise ValueError(f"unknown corruption kind {spec.kind!r}")
    return SymbolStream(symbols=symbols, q=s.q)


def scan_decode(s: SymbolStream, c: CodeSet) -> list[DecodeEvent]:
    """Aligned decoding: read n symbols at a time; stop at the first block
    that is not a codeword (or at a short tail)."""
    events: list[DecodeEvent] = []
    n = c.n
    pos = 0
    total = len(s.symbols)
    while pos + n <= total:
        block = s.symbols[pos: pos + n]
        if block in c.words:
            pos += n
            events.append(DecodeEvent(kind="match", position=pos, word=block))
        else:
            events.append(DecodeEvent(kind="desync", position=pos + n))
            return events
    if pos < total:
        events.append(DecodeEvent(kind="desync", position=total))
    return events


def detection_offset(events: Sequence[DecodeEvent], edit_position: int) -> int | None:
    """Symbols read past the edit before the first desync; None if decoding
    ended cleanly."""
    for ev in events:
        if ev.kind == "desync":
            return ev.position - edit_position
    return None

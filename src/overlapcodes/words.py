"""Alphabet and word primitives: overlaps, periodicity, and counting.

Words are plain strings of base-36 digits; symbol ``i`` is written as
``"0123456789abcdefghijklmnopqrstuvwxyz"[i]``.  All functions treat the
alphabet as the canonical symbols ``0 .. q-1``.

The public constructors ``CodeSet(...)`` and ``code()`` are strict: they
check every word's length and symbols.  Word sets built from checked parts
(family level sets, checked codes, ``all_words``) go through
``_trusted_code``, which keeps only the O(1) checks on q, n and the window;
it and ``families._trusted_family`` bypass their constructor by ``_unchecked``.

``prefix_suffix_levels`` is the one prefix/suffix level kernel: it slices
the words once, at the top level, and derives each lower level from the one
above.  Verification, ``families.family_from_code`` and the realization
checks of ``search`` all read their prefix and suffix sets from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(DIGITS)


def check_alphabet(q: int) -> None:
    if not 2 <= q <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {q}")


def check_word(w: str, q: int) -> None:
    check_alphabet(q)
    if not w:
        raise ValueError("empty word")
    for ch in w:
        if ch not in DIGITS[:q]:
            raise ValueError(f"symbol {ch!r} not in alphabet of size {q}")


def all_words(q: int, n: int) -> Iterator[str]:
    """All words of length n, lexicographically."""
    check_alphabet(q)
    for tup in product(DIGITS[:q], repeat=n):
        yield "".join(tup)


def check_window(n: int, t1: int, t2: int) -> None:
    if not 1 <= t1 <= t2 <= n - 1:
        raise ValueError(f"overlap window must satisfy 1 <= t1 <= t2 <= n-1, "
                         f"got t1={t1}, t2={t2}, n={n}")


def _check_block(q: int, n: int) -> None:
    check_alphabet(q)
    if n < 1:
        raise ValueError("block length must be positive")


@dataclass(frozen=True)
class CodeSet:
    """A set of equal-length words with the overlap window it claims to satisfy."""

    q: int
    n: int
    words: frozenset[str]
    window: tuple[int, int] | None = None

    def __post_init__(self):
        _check_block(self.q, self.n)
        if not set(map(len, self.words)) <= {self.n}:
            w = min(w for w in self.words if len(w) != self.n)
            raise ValueError(f"word {w!r} does not have length {self.n}")
        bad = set("".join(self.words)) - set(DIGITS[: self.q])
        if bad:
            raise ValueError(f"symbol {min(bad)!r} not in alphabet of size "
                             f"{self.q}")
        if self.window is not None:
            check_window(self.n, *self.window)

    def __len__(self) -> int:
        return len(self.words)

    def sorted_words(self) -> list[str]:
        return sorted(self.words)


def code(q: int, n: int, words, window: tuple[int, int] | None = None) -> CodeSet:
    return CodeSet(q=q, n=n, words=frozenset(words), window=window)


def _unchecked(cls: type, **fields):
    """A frozen dataclass instance built without its ``__post_init__``."""
    obj = object.__new__(cls)
    for name in fields:
        object.__setattr__(obj, name, fields[name])
    return obj


def _trusted_code(q: int, n: int, words: Iterable[str],
                  window: tuple[int, int] | None = None) -> CodeSet:
    """A CodeSet of words already known to have length n over the first q
    symbols, built without the per-word length and symbol scans of
    ``CodeSet.__post_init__``; the O(1) checks on q, n and window stay.
    Only for word sets made from checked parts."""
    _check_block(q, n)
    if window is not None:
        check_window(n, *window)
    return _unchecked(CodeSet, q=q, n=n, words=frozenset(words), window=window)


@dataclass(frozen=True)
class OverlapWitness:
    """A forbidden overlap: the t-prefix of u equals the t-suffix of v."""

    u: str
    v: str
    t: int

    def __str__(self) -> str:
        return f"prefix of {self.u!r} is a suffix of {self.v!r} at t={self.t}"


def overlap_lengths(u: str, v: str) -> set[int]:
    """All t with prefix_t(u) = suffix_t(v).  Directional: callers that need
    the symmetric notion must also test the swapped pair."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    n = len(u)
    return {t for t in range(1, n) if u[:t] == v[n - t:]}


def prefix_suffix_levels(words: Iterable[str], n: int, t1: int, t2: int,
                         ) -> Iterator[tuple[int, set[str], set[str]]]:
    """(t, the words' t-prefixes, their t-suffixes) for t = t2 down to t1.

    The words of length n are sliced once, into their t2-prefixes and
    t2-suffixes; each lower level is derived from the level above (``p[:t]``
    of the prefixes, ``s[1:]`` of the suffixes), so a level costs one pass
    over the distinct strings of the level above it."""
    prefixes = set(map(itemgetter(slice(t2)), words))
    suffixes = set(map(itemgetter(slice(n - t2, None)), words))
    yield t2, prefixes, suffixes
    for t in range(t2 - 1, t1 - 1, -1):
        prefixes = set(map(itemgetter(slice(t)), prefixes))
        suffixes = set(map(itemgetter(slice(1, None)), suffixes))
        yield t, prefixes, suffixes


def _overlap_scan(c: CodeSet, t1: int, t2: int,
                  ) -> tuple[OverlapWitness | None, dict[int, set[str]]]:
    """The witness of ``verify_overlap_free``, and c's t-prefixes for every
    t in [t1, t2].  Each level of ``prefix_suffix_levels`` is tested as one
    set disjointness; only the lowest failing level runs the ordered scan
    that names the witness."""
    check_window(c.n, t1, t2)
    prefixes_at: dict[int, set[str]] = {}
    failed = None
    for t, prefixes, suffixes in prefix_suffix_levels(c.words, c.n, t1, t2):
        if not prefixes.isdisjoint(suffixes):
            failed = t
        prefixes_at[t] = prefixes
    if failed is None:
        return None, prefixes_at
    words = c.sorted_words()
    first: dict[str, str] = {}
    for u in words:
        first.setdefault(u[:failed], u)
    cut = c.n - failed
    return next(OverlapWitness(u=first[v[cut:]], v=v, t=failed)
                for v in words if v[cut:] in first), prefixes_at


def verify_overlap_free(c: CodeSet, t1: int, t2: int) -> OverlapWitness | None:
    """None if no ordered pair of codewords (u = v included) has a t-overlap
    for t in [t1, t2]; otherwise the first witness in (t, v, u) order."""
    return _overlap_scan(c, t1, t2)[0]


def self_compatible(w: str, t1: int, t2: int) -> bool:
    """True if w has no t-overlap with itself for t in [t1, t2]."""
    n = len(w)
    return all(w[:t] != w[n - t:] for t in range(t1, min(t2, n - 1) + 1))


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def least_period(w: str) -> int:
    """Smallest i with w = (w_1..w_i)^(|w|/i).  Periods are required to divide
    |w| (the repetition reading of periodicity), so this returns |w| unless a
    proper divisor works."""
    n = len(w)
    # divisors(n) ends at n, which always works; '' has none, period 0
    return next((d for d in divisors(n) if w == w[:d] * (n // d)), n)


def is_primitive(w: str) -> bool:
    return least_period(w) == len(w)


def mobius(d: int) -> int:
    if d < 1:
        raise ValueError("mobius is defined for positive integers")
    if d == 1:
        return 1
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    if d > 1:
        result = -result
    return result


def primitive_count(q: int, n: int) -> int:
    """Number of primitive words of length n over q symbols."""
    check_alphabet(q)
    if n < 1:
        raise ValueError("length must be positive")
    return sum(mobius(d) * q ** (n // d) for d in divisors(n))

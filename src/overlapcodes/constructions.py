"""Code constructions driven by partition families, with exact size formulas.

Each construction materializes a union of concatenation terms
``L_{a1} ... L_j R_{s-j} ... R_{ap}`` (possibly padded by free symbols) and
attaches the overlap window the result is guaranteed to satisfy.  Where the
underlying theory asserts the union terms are disjoint, ``strict=True`` turns
a duplicate into an error instead of a silent dedup.

One generator, ``_t1t2_terms``, yields the layered terms; the (1, k) code is
its t1 = 1 case and the non-overlapping code is the (1, n-1) code.  Each
size formula is an independent oracle that shares its builder's argument
checks.  ``KINDS`` gives each spec kind its fields, builder, windows and the
builder's argument check; ``ConstructionSpec`` checks itself against it
once, when it is built.
``table_rows`` runs the (1, k) size kernel ``_size_1k`` on the level counts
of ``families.count_vectors``; it builds no family and runs no search.

Every derived word set, ``lift_code`` and the ``search.max_code`` witnesses
included, is a list of terms filled by ``_materialize``, which raises
``CodeTooLarge`` before filling when the term sizes sum past ``MAX_WORDS``.
Its factors are family level sets (valid by construction), checked codes
or the alphabet, so it builds the code with ``words._trusted_code``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from itertools import product as iproduct
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .families import PartitionFamily, compositions, count_vectors
from .words import (DIGITS, CodeSet, _trusted_code, check_alphabet,
                    check_window, verify_overlap_free)

MAX_WORDS = 10_000_000


class CodeTooLarge(RuntimeError):
    """A word set or graph would exceed its size cap."""


class DisjointnessViolation(RuntimeError):
    """Union terms produced the same word twice in strict mode."""


def _alphabet_factors(q: int, count: int) -> tuple[frozenset[str], ...]:
    sigma = frozenset(DIGITS[:q])
    return (sigma,) * count


def _materialize(terms: Iterable[Sequence[frozenset[str]]], *, q: int, n: int,
                 window: tuple[int, int] | None, strict: bool,
                 label: str) -> CodeSet:
    """The union of the terms' concatenation products.  The term sizes are
    summed against MAX_WORDS before any term is filled; each term is filled
    at C level by joining its ``itertools.product`` tuples into the word
    set, and a word count below the summed sizes means the terms overlap."""
    terms = list(terms)
    generated = sum(prod(map(len, factors)) for factors in terms)
    if generated > MAX_WORDS:
        raise CodeTooLarge(f"{label}: more than {MAX_WORDS} words would be "
                           "generated")
    words: set[str] = set()
    for factors in terms:
        words.update(map("".join, iproduct(*factors)))
    if generated != len(words):
        message = (f"{label}: union terms are not disjoint "
                   f"({generated} generated, {len(words)} distinct)")
        if strict:
            raise DisjointnessViolation(message)
        warnings.warn(message)
    return _trusted_code(q, n, words, window)


def _require_depth(f: PartitionFamily, needed: int, label: str) -> None:
    if f.depth < needed:
        raise ValueError(f"{label}: family depth {f.depth} < required {needed}")


def _check_terms(f: PartitionFamily, n: int, t1: int, t2: int,
                 label: str) -> None:
    check_window(n, t1, t2)
    if t1 + t2 > n:
        raise ValueError(f"{label}: requires t1 + t2 <= n")
    # composition parts reach n-t1-t2, so the family must be that deep too
    _require_depth(f, max(t2, n - t1 - t2), label)


def _t1t2_terms(f: PartitionFamily, n: int, t1: int, t2: int,
                ) -> Iterator[tuple[frozenset[str], ...]]:
    """For pad in [0, t1-1], the terms of the (1, t2) code of length n - pad
    whose central block ``L_j R_{s-j}`` has s in [t1 + t2 - pad, n - pad],
    each followed by pad free symbols.  Only pad = t1-1 starts at s = t2 + 1
    and takes the whole (1, t2) code; t1 = 1 gives that code alone."""
    left = (None, *(l for l, _ in f.levels))  # left[i] = L_i
    right = (None, *(r for _, r in f.levels))
    for pad in range(0, t1):
        sigma = _alphabet_factors(f.q, pad)
        for s in range(t1 + t2 - pad, n - pad + 1):
            j_lo, j_hi = s - t2, t2
            if j_lo > j_hi:
                continue
            for alpha in compositions(n - pad - s):
                for i in range(0, len(alpha) + 1):
                    head = tuple(map(left.__getitem__, alpha[:i]))
                    tail = tuple(map(right.__getitem__, alpha[i:])) + sigma
                    for j in range(j_lo, j_hi + 1):
                        yield head + (left[j], right[s - j]) + tail


def _check_length(n: int) -> None:
    if n < 2:
        raise ValueError("block length must be >= 2")


def non_overlapping(f: PartitionFamily, n: int, *,
                    strict: bool = False) -> CodeSet:
    """The layered code ``union(L_i R_{n-i} for i in [1, n-1])``; it is
    overlap-free on the whole window (1, n-1)."""
    _check_length(n)
    return overlap_free_1k(f, n, n - 1, strict=strict)


def non_overlapping_size(f: PartitionFamily, n: int) -> int:
    _check_length(n)
    return code_size_1k(f, n, n - 1)


def overlap_free_1k(f: PartitionFamily, n: int, k: int, *,
                    strict: bool = False) -> CodeSet:
    """The (1, k)-overlap-free code built from all compositions of the slack
    n - s around a central block ``L_j R_{s-j}`` with s in [k+1, n]."""
    _check_terms(f, n, 1, k, "overlap_free_1k")
    return _materialize(_t1t2_terms(f, n, 1, k), q=f.q, n=n, window=(1, k),
                        strict=strict, label="overlap_free_1k")


def _composition_weights(sizes: Sequence[int], m: int) -> list[int]:
    """W[0..m] with W[0] = 1 and W[x] = sum_{a <= x} sizes[a] W[x-a]: W[x]
    is the sum over the compositions (a_1, ..., a_p) of x of
    prod_i sizes[a_i], split by the first part a = a_1."""
    weights = [1]
    for x in range(1, m + 1):
        weights.append(sum(sizes[a] * weights[x - a] for a in range(1, x + 1)))
    return weights


def code_size_1k(f: PartitionFamily, n: int, k: int) -> int:
    """Size of overlap_free_1k, without listing its terms."""
    _check_terms(f, n, 1, k, "code_size_1k")
    return _size_1k([0, *(len(l) for l, _ in f.levels)],
                    [0, *(len(r) for _, r in f.levels)], n, k)


def _size_1k(left: Sequence[int], right: Sequence[int], n: int, k: int) -> int:
    """``code_size_1k`` from the counts left[a] = |L_a|, right[a] = |R_a|.

    The terms are disjoint, so the size is the sum of their products.  A
    term is a block ``L_j R_{s-j}`` (s in [k+1, n], j in [s-k, k]) inside a
    composition alpha of n - s cut at an index i, with heads L_{alpha_1} ..
    L_{alpha_i} and tails R_{alpha_{i+1}} .. R_{alpha_p}.  Cutting alpha at
    i gives a composition of some m (the head) and one of n - s - m (the
    tail), and every such pair of compositions is exactly one (alpha, i).
    A term's product is the head's product of |L_a|, times |L_j| |R_{s-j}|,
    times the tail's product of |R_a|.  With A[m] and B[m] the composition
    sums of the |L_a| and |R_a| (``_composition_weights``), the size is

        sum_s (sum_j |L_j| |R_{s-j}|) * sum_{m <= n-s} A[m] B[n-s-m].
    """
    a = _composition_weights(left, n - k - 1)
    b = _composition_weights(right, n - k - 1)
    return sum(sum(left[j] * right[s - j] for j in range(s - k, k + 1))
               * sum(a[m] * b[n - s - m] for m in range(n - s + 1))
               for s in range(k + 1, n + 1))


def table_rows(which: str, q: int, n_max: int) -> Iterator[dict]:
    """Rows (n, base_max, families_at_max, value, bold) of the
    layered-construction tables.

    table1: expand maximum non-overlapping codes of length n-1 to window
    (1, n-2) codes of length n; bold marks value > q * base_max.
    table2: length n-2 codes to window (1, n-3) at length n; bold marks
    value > q^2 * base_max.

    Every maximal (1, k)-overlap-free code of length m with k >= m/2 is the
    layered code on the family derived from its prefixes.  A base code is
    the case k = m-1 >= m/2, m >= 2 (Blackburn 2015), so base_max is the
    largest non-overlapping size over the depth-(m-1) level-count vectors;
    families_at_max counts the families reaching it and value is their
    largest (1, k) size.
    """
    check_alphabet(q)  # before the first row, even when there is none
    if which == "table1":
        n_lo, gap = 5, 1
    elif which == "table2":
        n_lo, gap = 6, 2
    else:
        raise ValueError("which must be table1 or table2")
    for n in range(n_lo, n_max + 1):
        k = n - gap - 1  # the base codes have length k + 1
        base_max, families, best = 0, 0, 0
        for left, right, shared in count_vectors(q, k):
            size = _size_1k(left, right, k + 1, k)
            if size > base_max:
                base_max, families, best = size, 0, 0
            if size == base_max:
                families += shared
                best = max(best, _size_1k(left, right, n, k))
        yield {"n": n, "base_max": base_max, "families_at_max": families,
               "value": best, "bold": best > q ** gap * base_max}


def _check_wmu(f: PartitionFamily, n: int, k: int, label: str) -> None:
    if not 0 <= k <= n - 2:
        raise ValueError(f"{label}: k must satisfy 0 <= k <= n-2")
    _require_depth(f, n - 1, label)


def wmu_expanded(f: PartitionFamily, n: int, k: int, *,
                 strict: bool = False) -> CodeSet:
    """Expand a depth-(n-1) family into a weakly-mutually-uncorrelated code of
    length n + k: ``union(L_i R_j Sigma^(n+k-i-j) for n <= i+j <= n+k)`` with
    i, j in [1, n-1].  The result is (k+1, n+k-1)-overlap-free."""
    _check_wmu(f, n, k, "wmu_expanded")
    terms = [(f.left(i), f.right(j)) + _alphabet_factors(f.q, n + k - i - j)
             for i in range(1, n)
             for j in range(1, n)
             if n <= i + j <= n + k]
    return _materialize(terms, q=f.q, n=n + k, window=(k + 1, n + k - 1),
                        strict=strict, label="wmu_expanded")


def wmu_size(f: PartitionFamily, n: int, k: int) -> int:
    _check_wmu(f, n, k, "wmu_size")
    return sum(len(f.left(i)) * len(f.right(j)) * f.q ** (n + k - i - j)
               for i in range(1, n)
               for j in range(1, n)
               if n <= i + j <= n + k)


def _check_pad_base(x: CodeSet, t2: int) -> None:
    """Refuse a pad base that is not (1, min(t2, x.n - 1))-overlap-free."""
    base_t2 = min(t2, x.n - 1)
    witness = verify_overlap_free(x, 1, base_t2)
    if witness is not None:
        raise ValueError(f"pad_t1t2: base code is not "
                         f"(1,{base_t2})-overlap-free: {witness}")


def pad_t1t2(x: CodeSet, t1: int, t2: int) -> CodeSet:
    """Append t1-1 free symbols to a (1, t2)-overlap-free code (a fully
    non-overlapping one when t2 reaches past the base length); the result is
    (t1, t2)-overlap-free at length ``x.n + t1 - 1``."""
    n = x.n + t1 - 1
    check_window(n, t1, t2)
    _check_pad_base(x, t2)
    terms = [(frozenset(x.words),) + _alphabet_factors(x.q, t1 - 1)]
    return _materialize(terms, q=x.q, n=n, window=(t1, t2), strict=True,
                        label="pad_t1t2")


def t1t2_expanded(f: PartitionFamily, n: int, t1: int, t2: int, *,
                  strict: bool = False) -> CodeSet:
    """The (t1, t2)-overlap-free expansion that layers free tails of every
    length below t1 over the (1, t2) construction.  Requires t1 + t2 <= n."""
    _check_terms(f, n, t1, t2, "t1t2_expanded")
    return _materialize(_t1t2_terms(f, n, t1, t2), q=f.q, n=n, window=(t1, t2),
                        strict=strict, label="t1t2_expanded")


def _check_simultaneous(f: PartitionFamily, n: int, k: int, label: str) -> None:
    if not 1 <= k or not 2 * k < n:
        raise ValueError(f"{label}: requires 1 <= k < n/2")
    _require_depth(f, k, label)


def simultaneous(f: PartitionFamily, n: int, k: int, *,
                 strict: bool = False) -> CodeSet:
    """A code that is both (1, k)- and (n-k, n-1)-overlap-free: the length
    k+1 layered code, a free middle, and every composition of k as an R-tail.
    Requires k < n/2."""
    _check_simultaneous(f, n, k, "simultaneous")
    middle = _alphabet_factors(f.q, n - 2 * k - 1)
    terms = [head + middle + tuple(f.right(a) for a in alpha)
             for head in _t1t2_terms(f, k + 1, 1, k)
             for alpha in compositions(k)]
    return _materialize(terms, q=f.q, n=n, window=(1, k), strict=strict,
                        label="simultaneous")


def simultaneous_size(f: PartitionFamily, n: int, k: int) -> int:
    _check_simultaneous(f, n, k, "simultaneous_size")
    base = code_size_1k(f, k + 1, k)
    right = [0, *(len(r) for _, r in f.levels)]  # right[a] = |R_a|
    tails = _composition_weights(right, k)[k]
    return base * f.q ** (n - 2 * k - 1) * tails


def _lift_terms(words: Iterable[str], t2: int, free: int, q: int,
                ) -> list[tuple[frozenset[str], ...]]:
    """One term per word: its first t2 symbols, free symbols, its rest."""
    sigma = _alphabet_factors(q, free)
    return [(frozenset((w[:t2],)), *sigma, frozenset((w[t2:],)))
            for w in words]


def lift_code(c: CodeSet, n: int) -> CodeSet:
    """Insert all free middles into a code of length 2*t2, preserving its
    window; the size multiplies by q^(n - 2 t2)."""
    if c.window is None:
        raise ValueError("lift_code: code must declare its overlap window")
    t1, t2 = c.window
    if c.n != 2 * t2:
        raise ValueError(f"lift_code: base length must be 2*t2 = {2 * t2}, got {c.n}")
    if n <= c.n:
        raise ValueError("lift_code: target length must exceed the base length")
    return _materialize(_lift_terms(c.words, t2, n - c.n, c.q), q=c.q, n=n,
                        window=c.window, strict=True, label="lift_code")


def project_code(c: CodeSet) -> CodeSet:
    """Delete the middle positions t2+1 .. n-t2 from every word, t2 from the
    code's window, which holds on the (maybe fewer) words left; inverse of
    lift_code on lifted codes."""
    if c.window is None:
        raise ValueError("project_code: code must declare its overlap window")
    t2 = c.window[1]
    if c.n <= 2 * t2:
        raise ValueError("project_code: requires block length > 2*t2")
    words = {w[:t2] + w[c.n - t2:] for w in c.words}
    return _trusted_code(c.q, 2 * t2, words, c.window)


@dataclass(frozen=True)
class ConstructionSpec:
    """One construction to run; the fields are the keys of a
    construction_spec.v1.json file, with family and code read.  An invalid
    spec raises ValueError here, so a spec that exists sets every field its
    kind needs, no field its kind does not read, and arguments its builder
    accepts (the builder's own check, with its text)."""

    kind: str
    n: int
    family: PartitionFamily | None = None
    code: CodeSet | None = None
    k: int | None = None
    t1: int | None = None
    t2: int | None = None

    def __post_init__(self) -> None:
        # a str first: a kind read from JSON may be an unhashable list
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"kind must be one of {sorted(KINDS)}, "
                             f"got {self.kind!r}")
        reads = KINDS[self.kind].fields
        missing = [name for name in reads if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{self.kind} requires {', '.join(missing)}")
        if self.kind == "PadT1T2":
            # pads one base: the given code, or one built from the family
            base = self.code
            if (self.family is None) == (base is None):
                raise ValueError("PadT1T2 requires a family or a base code, "
                                 "not both")
            if base is not None and self.n != base.n + self.t1 - 1:
                raise ValueError(f"PadT1T2 n must be the base code length + "
                                 f"t1 - 1 = {base.n + self.t1 - 1}, got {self.n}")
            reads += ("family", "code")
        unread = [f.name for f in fields(self) if f.name not in
                  ("kind", "n", *reads) and getattr(self, f.name) is not None]
        if unread:
            raise ValueError(f"{self.kind} does not read {', '.join(unread)}")
        KINDS[self.kind].check(self)


def _check_non_overlapping_spec(s: ConstructionSpec) -> None:
    _check_length(s.n)
    _check_terms(s.family, s.n, 1, s.n - 1, "overlap_free_1k")


def _pad_base_window(s: ConstructionSpec) -> tuple[int, int]:
    """(n, t2) of the (1, t2) base a PadT1T2 spec builds from its family."""
    base_n = s.n - s.t1 + 1
    return base_n, min(s.t2, base_n - 1)


def _check_pad_spec(s: ConstructionSpec) -> None:
    check_window(s.n, s.t1, s.t2)  # the spec's window, not the base's
    if s.code is not None:
        _check_pad_base(s.code, s.t2)
    else:
        base_n, base_t2 = _pad_base_window(s)
        _check_terms(s.family, base_n, 1, base_t2, "overlap_free_1k")


def _pad_spec(s: ConstructionSpec, **kw) -> CodeSet:
    base = s.code
    if base is None:
        base = overlap_free_1k(s.family, *_pad_base_window(s), **kw)
    return pad_t1t2(base, s.t1, s.t2)


class Kind(NamedTuple):
    fields: tuple[str, ...]  # spec fields that must not be None
    build: Callable[..., CodeSet]  # (spec, *, strict)
    windows: Callable[[ConstructionSpec], list[tuple[int, int]]]
    check: Callable[[ConstructionSpec], None]  # the builder's argument check


KINDS: dict[str, Kind] = {
    "NonOverlapping": Kind(
        ("family",), lambda s, **kw: non_overlapping(s.family, s.n, **kw),
        lambda s: [(1, s.n - 1)], _check_non_overlapping_spec),
    "OneK": Kind(
        ("family", "k"), lambda s, **kw: overlap_free_1k(s.family, s.n, s.k, **kw),
        lambda s: [(1, s.k)],
        lambda s: _check_terms(s.family, s.n, 1, s.k, "overlap_free_1k")),
    "WMU": Kind(
        ("family", "k"), lambda s, **kw: wmu_expanded(s.family, s.n, s.k, **kw),
        lambda s: [(s.k + 1, s.n + s.k - 1)],
        lambda s: _check_wmu(s.family, s.n, s.k, "wmu_expanded")),
    "PadT1T2": Kind(("t1", "t2"), _pad_spec, lambda s: [(s.t1, s.t2)],
                    _check_pad_spec),
    "ExpandedT1T2": Kind(
        ("family", "t1", "t2"),
        lambda s, **kw: t1t2_expanded(s.family, s.n, s.t1, s.t2, **kw),
        lambda s: [(s.t1, s.t2)],
        lambda s: _check_terms(s.family, s.n, s.t1, s.t2, "t1t2_expanded")),
    "Simultaneous": Kind(
        ("family", "k"), lambda s, **kw: simultaneous(s.family, s.n, s.k, **kw),
        lambda s: [(1, s.k), (s.n - s.k, s.n - 1)],
        lambda s: _check_simultaneous(s.family, s.n, s.k, "simultaneous")),
}


def claimed_windows(spec: ConstructionSpec) -> list[tuple[int, int]]:
    """The overlap windows the construction output is guaranteed to satisfy."""
    return KINDS[spec.kind].windows(spec)


def run_construction(spec: ConstructionSpec) -> CodeSet:
    """Strict for every kind but ExpandedT1T2, whose layers may overlap."""
    return KINDS[spec.kind].build(spec, strict=spec.kind != "ExpandedT1T2")

"""Layered partition families (L_i, R_i) and the l/r decomposition sequence.

A family of depth k is a list of pairs of disjoint word sets.  Level 1
splits the alphabet into two non-empty parts; level i >= 2 splits the
concatenation layer ``union(L_j R_{i-j} for j in [1, i-1])``.  Families
generate every code construction in this package.

``count_vectors`` walks level-count vectors in place of families: every size
formula reads only the counts |L_i|, so one family stands for each vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import itemgetter
from typing import Iterator, Literal, Sequence

from .words import DIGITS, CodeSet, check_alphabet, check_word, verify_overlap_free


@dataclass(frozen=True)
class PartitionFamily:
    q: int
    levels: tuple[tuple[frozenset[str], frozenset[str]], ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def left(self, i: int) -> frozenset[str]:
        """L_i (1-based level index)."""
        return self.levels[i - 1][0]

    def right(self, i: int) -> frozenset[str]:
        """R_i (1-based level index)."""
        return self.levels[i - 1][1]

    @cached_property
    def _problem(self) -> str | None:
        return validate(self)  # the family is immutable: validate it once


def family(q: int, levels: Sequence[tuple]) -> PartitionFamily:
    """Build a PartitionFamily from any iterables of words; does not validate."""
    return PartitionFamily(
        q=q,
        levels=tuple((frozenset(l), frozenset(r)) for l, r in levels),
    )


def concat_layer(f: PartitionFamily, i: int) -> set[str]:
    """The set union(L_j R_{i-j} for j in [1, i-1]) that level i must split."""
    out: set[str] = set()
    for j in range(1, i):
        lj, rij = f.left(j), f.right(i - j)
        for l in lj:
            for r in rij:
                out.add(l + r)
    return out


def validate(f: PartitionFamily) -> str | None:
    """None if the family satisfies all level constraints, else a message
    naming the first failing level and clause."""
    try:
        check_alphabet(f.q)
    except ValueError as exc:
        return str(exc)
    if f.depth < 1:
        return "family must have depth >= 1"
    for i in range(1, f.depth + 1):
        # comparing against the alphabet or the concatenation layer also
        # checks each word's length and symbols
        li, ri = f.left(i), f.right(i)
        if li & ri:
            return f"level {i}: L{i} and R{i} intersect in {sorted(li & ri)}"
        if i == 1:
            if not li:
                return "level 1: L1 is empty"
            if not ri:
                return "level 1: R1 is empty"
            if li | ri != set(DIGITS[: f.q]):
                return "level 1: L1 and R1 do not partition the alphabet"
        else:
            ground = concat_layer(f, i)
            if li | ri != ground:
                missing = sorted(ground - (li | ri))
                extra = sorted((li | ri) - ground)
                return (f"level {i}: L{i} union R{i} != concatenation layer "
                        f"(missing {missing}, extra {extra})")
    return None


def checked(f: PartitionFamily) -> PartitionFamily:
    """f itself if it is valid, else ValueError; validates f at most once."""
    problem = f._problem
    if problem is not None:
        raise ValueError(f"invalid partition family: {problem}")
    return f


def enumerate_families(q: int, k: int) -> Iterator[PartitionFamily]:
    """All valid families of depth k, deterministically.

    Levels are filled left to right; within a level the left set runs through
    subsets of the sorted ground set in binary-counter order (bit j of the
    counter = membership of the j-th ground element).
    """
    check_alphabet(q)
    if k < 1:
        raise ValueError("depth must be >= 1")
    alphabet = sorted(DIGITS[:q])

    def extend(levels: list) -> Iterator[PartitionFamily]:
        i = len(levels) + 1
        if i > k:
            yield PartitionFamily(q=q, levels=tuple(levels))
            return
        if i == 1:
            ground = alphabet
            lo, hi = 1, 2 ** q - 1  # both parts non-empty
        else:
            ground = sorted(concat_layer(PartitionFamily(q, tuple(levels)), i))
            lo, hi = 0, 2 ** len(ground)
        for bits in range(lo, hi):
            left = frozenset(ground[j] for j in range(len(ground)) if bits >> j & 1)
            right = frozenset(ground) - left
            levels.append((left, right))
            yield from extend(levels)
            levels.pop()

    yield from extend([])


def count_vectors(q: int, k: int) -> Iterator[tuple[PartitionFamily, int]]:
    """(family, shared) for each level-count vector (|L_1|, ..., |L_k|) of
    the valid depth-k families.  Level i splits g_i = sum_j |L_j| |R_{i-j}|
    words (g_1 = q, 1 <= |L_1| <= q-1), so shared = prod_i C(g_i, |L_i|)
    families have the vector; the family given takes the first |L_i| words
    of each sorted ground set."""
    check_alphabet(q)
    if k < 1:
        raise ValueError("depth must be >= 1")

    def extend(levels: tuple, shared: int):
        if len(levels) == k:
            yield PartitionFamily(q=q, levels=levels), shared
            return
        ground = sorted(concat_layer(PartitionFamily(q, levels), len(levels) + 1))
        for m in range(len(ground) + 1):
            yield from extend(levels + ((frozenset(ground[:m]),
                                         frozenset(ground[m:])),),
                              shared * comb(len(ground), m))

    for m in range(1, q):
        yield from extend(((frozenset(DIGITS[:m]), frozenset(DIGITS[m:q])),),
                          comb(q, m))


Side = Literal["R_empty", "L_empty"]


def balanced_family(q: int, x: int, k: int, side: Side) -> PartitionFamily:
    """The one-sided family behind the closed-form lower bounds.

    side="R_empty": R1 gets the x lowest symbols, R_i = {} for i > 1, so
    L_i = L1 R1^(i-1).  side="L_empty": L1 gets the x lowest symbols,
    L_i = {} for i > 1, so R_i = L1^(i-1) R1.
    """
    check_alphabet(q)
    if not 1 <= x <= q - 1:
        raise ValueError(f"x must be in [1, q-1], got x={x} for q={q}")
    if k < 1:
        raise ValueError("depth must be >= 1")
    low = frozenset(DIGITS[:x])
    high = frozenset(DIGITS[x:q])
    levels: list[tuple[frozenset[str], frozenset[str]]] = []
    if side == "R_empty":
        l1, r1 = high, low
        levels.append((l1, r1))
        for i in range(2, k + 1):
            prev_left = levels[-1][0]
            levels.append((frozenset(l + r for l in prev_left for r in r1),
                           frozenset()))
    elif side == "L_empty":
        l1, r1 = low, high
        levels.append((l1, r1))
        for i in range(2, k + 1):
            prev_right = levels[-1][1]
            levels.append((frozenset(),
                           frozenset(l + r for l in l1 for r in prev_right)))
    else:
        raise ValueError(f"side must be 'R_empty' or 'L_empty', got {side!r}")
    return PartitionFamily(q=q, levels=tuple(levels))


@dataclass(frozen=True)
class DecompositionTrace:
    """The sequence of l/r decompositions of a word under a family.

    steps[m] is the m-th l/r string; spans[m][j] is the (start, end) subword
    of the original word covered by token j of steps[m].
    """

    word: str
    steps: tuple[str, ...]
    spans: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def final(self) -> str:
        return self.steps[-1]


def decompose(w: str, f: PartitionFamily) -> DecompositionTrace:
    """Run the l/r reduction: each step simultaneously rewrites every ``lr``
    occurrence whose combined subword has length <= depth, replacing it by l
    or r according to which side of its level the subword lies on.  Stops
    when every remaining ``lr`` occurrence spans a subword longer than the
    family depth.
    """
    checked(f)
    check_word(w, f.q)
    k = f.depth
    l1, r1 = f.left(1), f.right(1)
    if w[0] not in l1 or w[-1] not in r1:
        raise ValueError(
            f"decomposition undefined: word must start in L1 and end in R1, got {w!r}")

    tokens = ["l" if ch in l1 else "r" for ch in w]
    spans = [(i, i + 1) for i in range(len(w))]
    steps = ["".join(tokens)]
    all_spans = [tuple(spans)]

    while True:
        new_tokens: list[str] = []
        new_spans: list[tuple[int, int]] = []
        changed = False
        j = 0
        while j < len(tokens):
            if (j + 1 < len(tokens) and tokens[j] == "l" and tokens[j + 1] == "r"
                    and spans[j + 1][1] - spans[j][0] <= k):
                start, end = spans[j][0], spans[j + 1][1]
                sub = w[start:end]
                level = end - start
                if sub in f.left(level):
                    new_tokens.append("l")
                elif sub in f.right(level):
                    new_tokens.append("r")
                else:
                    raise AssertionError(
                        f"family invariant broken: {sub!r} missing from level {level}")
                new_spans.append((start, end))
                j += 2
                changed = True
            else:
                new_tokens.append(tokens[j])
                new_spans.append(spans[j])
                j += 1
        if not changed:
            break
        tokens, spans = new_tokens, new_spans
        steps.append("".join(tokens))
        all_spans.append(tuple(spans))

    return DecompositionTrace(word=w, steps=tuple(steps), spans=tuple(all_spans))


def family_from_code(c: CodeSet, k: int) -> PartitionFamily:
    """Derive the depth-k family whose left sets are the realized prefixes of c.

    c must verify the window (1, k); otherwise the level sets need not be
    disjoint and the derivation is refused.
    """
    if k < 1:
        raise ValueError("depth must be >= 1")
    witness = verify_overlap_free(c, 1, min(k, c.n - 1))
    if witness is not None:
        raise ValueError(
            f"code is not (1,{k})-overlap-free: prefix of {witness.u!r} is a "
            f"suffix of {witness.v!r} at t={witness.t}")
    prefixes = set().union(*(map(itemgetter(slice(t)), c.words)
                             for t in range(1, min(k, c.n) + 1)))
    l1 = frozenset(ch for ch in DIGITS[: c.q] if ch in prefixes)
    levels = [(l1, frozenset(DIGITS[: c.q]) - l1)]
    for i in range(2, k + 1):
        ground = concat_layer(PartitionFamily(c.q, tuple(levels)), i)
        li = frozenset(x for x in ground if x in prefixes)
        levels.append((li, frozenset(ground) - li))
    return checked(PartitionFamily(q=c.q, levels=tuple(levels)))


def compositions(m: int) -> Iterator[tuple[int, ...]]:
    """All compositions of m in lexicographic order; the empty composition
    for m = 0.  There are 2^(m-1) compositions for m >= 1."""
    if m < 0:
        raise ValueError("compositions are defined for non-negative integers")
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first,) + rest

"""Layered partition families (L_i, R_i) and the l/r decomposition sequence.

A family of depth k is a list of pairs of disjoint word sets.  Level 1
splits the alphabet into two non-empty parts; level i >= 2 splits the
concatenation layer ``union(L_j R_{i-j} for j in [1, i-1])``.  Families
generate every code construction in this package.

Validity is a constructor invariant: ``PartitionFamily`` raises on the
first level ``validate`` rejects, so no consumer checks a family again.
``_trusted_family`` skips ``validate`` and has two callers, each of which
proves every level constraint.  ``_grow`` is the one loop that derives a
family level by level, taking each L_i inside its ground set, and holds the
validity proof of ``representative_family``, ``balanced_family`` and
``family_from_code``.  ``enumerate_families`` is the other caller.

``enumerate_families`` fills levels left to right, computing each next
level's sorted ground set once per parent.  Each split of a ground set is
read from a table of the ground's subsets built by doubling (binary-counter
order, the complement of entry b is entry full ^ b).  No table holds more
than 2^SUBSET_TABLE_BITS subsets: a wider ground pairs the table with the
splits of its remaining words, enumerated lazily.

``count_vectors`` walks level-count vectors as integer lists and builds no
family: every size formula reads only the counts |L_i| and |R_i|.
``representative_family`` builds one family of a vector, for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .words import (DIGITS, CodeSet, _overlap_scan, _unchecked,
                    check_alphabet, check_word)

# the widest ground whose 2^w subsets one table holds; wider grounds are
# split into a table part and lazily enumerated higher words
SUBSET_TABLE_BITS = 10


@dataclass(frozen=True)
class PartitionFamily:
    """A valid family; the constructor raises on any invalid level."""

    q: int
    levels: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def __post_init__(self):
        problem = validate(self)
        if problem is not None:
            raise ValueError(f"invalid partition family: {problem}")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def left(self, i: int) -> frozenset[str]:
        """L_i (1-based level index)."""
        return self.levels[i - 1][0]

    def right(self, i: int) -> frozenset[str]:
        """R_i (1-based level index)."""
        return self.levels[i - 1][1]


Pair = tuple[frozenset[str], frozenset[str]]


def family(q: int, levels: Sequence[tuple]) -> PartitionFamily:
    """Build a PartitionFamily from any iterables of words; validates it."""
    return PartitionFamily(
        q=q,
        levels=tuple((frozenset(l), frozenset(r)) for l, r in levels),
    )


def _trusted_family(q: int, levels: Sequence[Pair]) -> PartitionFamily:
    """A family built without ``validate``, for builders that prove it."""
    return _unchecked(PartitionFamily, q=q, levels=tuple(levels))


def concat_layer(levels: Sequence[Pair], i: int) -> set[str]:
    """The set union(L_j R_{i-j} for j in [1, i-1]) that level i must split."""
    out: set[str] = set()
    for j in range(1, i):
        lj, rij = levels[j - 1][0], levels[i - j - 1][1]
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
            ground = concat_layer(f.levels, i)
            if li | ri != ground:
                missing = sorted(ground - (li | ri))
                extra = sorted((li | ri) - ground)
                return (f"level {i}: L{i} union R{i} != concatenation layer "
                        f"(missing {missing}, extra {extra})")
    return None


def _subset_splits(ground: list[str]) -> Iterable[Pair]:
    """(left, ground - left) for every subset left of ground, in
    binary-counter order (bit j of the counter = ground[j]).

    The subsets of the first SUBSET_TABLE_BITS words are built by doubling,
    so entry b of the table has bits b and its complement is entry full ^ b,
    the table read backwards.  A wider ground pairs every table split with
    each split of the remaining words, taken the same way and lazily, as the
    high bits of the counter."""
    low = [frozenset()]
    for x in ground[:SUBSET_TABLE_BITS]:
        low += [s | {x} for s in low]
    pairs = list(zip(low, reversed(low)))
    if len(ground) <= SUBSET_TABLE_BITS:
        return pairs
    return ((l | hl, r | hr)
            for hl, hr in _subset_splits(ground[SUBSET_TABLE_BITS:])
            for l, r in pairs)


def _check_depth(q: int, k: int) -> None:
    check_alphabet(q)
    if k < 1:
        raise ValueError("depth must be >= 1")


def enumerate_families(q: int, k: int) -> Iterator[PartitionFamily]:
    """All valid families of depth k, deterministically.

    Levels are filled left to right; within a level the left set runs through
    subsets of the sorted ground set in binary-counter order (bit j of the
    counter = membership of the j-th ground element).  Sibling families
    share their level sets.
    """
    _check_depth(q, k)

    def extend(levels: tuple, pairs: Iterable[Pair]) -> Iterator[PartitionFamily]:
        if len(levels) + 1 == k:
            for pair in pairs:
                yield _trusted_family(q, levels + (pair,))
            return
        for pair in pairs:
            grown = levels + (pair,)
            ground = concat_layer(grown, len(grown) + 1)
            yield from extend(grown, _subset_splits(sorted(ground)))

    return extend((), (pair for pair in _subset_splits(sorted(DIGITS[:q]))
                       if pair[0] and pair[1]))


def count_vectors(q: int, k: int) -> Iterator[tuple[list[int], list[int], int]]:
    """(left, right, shared) per level-count vector of the valid depth-k
    families, in lexicographic order: left[i] = |L_i|, right[i] = |R_i|
    and left[0] = right[0] = 0.  Level i splits g_i = sum_{j<i} |L_j|
    |R_{i-j}| words (g_1 = q, 1 <= |L_1| <= q-1), so shared = prod_i
    C(g_i, |L_i|) families have the vector (``test_count_vectors_*``)."""
    _check_depth(q, k)

    def extend(left: list[int], right: list[int], shared: int,
               ) -> Iterator[tuple[list[int], list[int], int]]:
        i = len(left)
        if i > k:
            yield left, right, shared
            return
        g = sum(left[j] * right[i - j] for j in range(1, i))
        for m in range(g + 1):
            yield from extend(left + [m], right + [g - m], shared * comb(g, m))

    return (vector for m in range(1, q)
            for vector in extend([0, m], [0, q - m], comb(q, m)))


def _grow(q: int, k: int, take: Callable[[int, set[str]], Iterable[str]],
          ) -> PartitionFamily:
    """The depth-k family whose level i is (L_i, ground - L_i) for
    L_i = take(i, ground), which must be a subset of level i's ground set:
    the alphabet at level 1, ``concat_layer`` of the levels before it after.

    This is the one validity proof of the derived families.  The caller
    checked q and k (``_check_depth``).  At every level L_i and R_i split
    the ground set, so they are disjoint and their union is the alphabet or
    the concatenation layer.  The one clause of ``validate`` left is that
    L_1 and R_1 are non-empty, tested here: a family with both is built
    without ``validate``, any other goes through the strict constructor,
    which raises ``invalid partition family: level 1: ...``."""
    levels: list[Pair] = []
    for i in range(1, k + 1):
        ground = concat_layer(levels, i) if i > 1 else set(DIGITS[:q])
        left = frozenset(take(i, ground))
        levels.append((left, frozenset(ground - left)))
    l1, r1 = levels[0]
    return (_trusted_family if l1 and r1 else PartitionFamily)(q, tuple(levels))


def representative_family(q: int, left: Sequence[int]) -> PartitionFamily:
    """The family of the count vector left (left[0] = 0, left[i] = |L_i|,
    as ``count_vectors`` yields it) whose L_i is the first left[i] words of
    level i's sorted ground set; 1 <= left[1] <= q-1 and
    0 <= left[i] <= |ground| are checked level by level."""
    _check_depth(q, len(left) - 1)

    def take(i: int, ground: set[str]) -> list[str]:
        lo, hi = (1, q - 1) if i == 1 else (0, len(ground))
        if not lo <= left[i] <= hi:
            raise ValueError(f"|L{i}| must be in [{lo}, {hi}], "
                             f"got {left[i]}")
        return sorted(ground)[:left[i]]

    return _grow(q, len(left) - 1, take)


Side = Literal["R_empty", "L_empty"]


def balanced_family(q: int, x: int, k: int, side: Side) -> PartitionFamily:
    """The one-sided family behind the closed-form lower bounds.

    side="R_empty": R1 gets the x lowest symbols, R_i = {} for i > 1, so
    L_i = L1 R1^(i-1).  side="L_empty": L1 gets the x lowest symbols,
    L_i = {} for i > 1, so R_i = L1^(i-1) R1.
    """
    _check_depth(q, k)
    if not 1 <= x <= q - 1:
        raise ValueError(f"x must be in [1, q-1], got x={x} for q={q}")
    if side == "R_empty":
        return _grow(q, k, lambda i, ground: DIGITS[x:q] if i == 1 else ground)
    if side == "L_empty":
        return _grow(q, k, lambda i, ground: DIGITS[:x] if i == 1 else ())
    raise ValueError(f"side must be 'R_empty' or 'L_empty', got {side!r}")


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
    disjoint and the derivation is refused.  The prefixes are read from the
    same level sets that the (1, k) test ran on (``words._overlap_scan``),
    and level i is ``L_i = ground & prefixes`` (``_grow``).  An empty code
    has an empty L_1 and is refused by the strict constructor."""
    _check_depth(c.q, k)
    witness, realized = _overlap_scan(c, 1, min(k, c.n - 1))
    if witness is not None:
        raise ValueError(f"code is not (1,{k})-overlap-free: {witness}")
    if k >= c.n:
        realized[c.n] = c.words
    return _grow(c.q, k,
                 lambda i, ground: ground.intersection(realized.get(i, ())))


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

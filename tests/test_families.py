import time
from itertools import islice
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import families
from overlapcodes.constructions import (_size_1k, code_size_1k,
                                        non_overlapping_size, overlap_free_1k)
from overlapcodes.families import (PartitionFamily, balanced_family,
                                   compositions, concat_layer, count_vectors,
                                   decompose, enumerate_families, family,
                                   family_from_code, representative_family,
                                   validate)
from overlapcodes.search import enumerate_maximal_codes, maximality_certificate
from overlapcodes.words import DIGITS, code, verify_overlap_free


EXAMPLE_FAMILY = family(3, [({"0", "1"}, {"2"}), ({"02"}, {"12"})])


def test_validate_example_family():
    assert validate(EXAMPLE_FAMILY) is None


def test_validate_names_failing_level():
    with pytest.raises(ValueError, match=r"level 2.*12"):
        family(3, [({"0", "1"}, {"2"}), ({"02"}, set())])


def count_level_checks(monkeypatch):
    calls = []
    real = families.concat_layer

    def counting(levels, i):
        calls.append(i)
        return real(levels, i)

    monkeypatch.setattr(families, "concat_layer", counting)
    return calls


def test_family_is_validated_once_at_construction(monkeypatch):
    calls = count_level_checks(monkeypatch)
    f = family(3, [({"0", "1"}, {"2"}), ({"02"}, {"12"})])
    assert calls == [2]
    # consumers take the family's validity from its type
    overlap_free_1k(f, 4, 2)
    code_size_1k(f, 4, 2)
    decompose("02122", f)
    maximality_certificate(f, 4, 2)
    assert calls == [2]
    with pytest.raises(ValueError,
                       match="^invalid partition family: level 2"):
        family(3, [({"0", "1"}, {"2"}), ({"02"}, set())])


def test_validate_empty_side_level_one():
    with pytest.raises(ValueError, match="level 1"):
        family(2, [(set(), {"0", "1"})])


def test_validate_names_level_of_foreign_word():
    with pytest.raises(ValueError, match="level 1"):
        family(2, [({"0"}, {"1", "2"})])
    with pytest.raises(ValueError, match="level 1"):
        family(2, [({"0"}, {"1", "11"})])
    with pytest.raises(ValueError, match=r"level 2.*'02'"):
        family(2, [({"0"}, {"1"}), ({"02"}, {"01"})])
    with pytest.raises(ValueError, match=r"level 2.*'1'"):
        family(2, [({"0"}, {"1"}), (set(), {"01", "1"})])


def test_validate_rejects_overlap():
    with pytest.raises(ValueError, match="intersect"):
        family(2, [({"0", "1"}, {"1"})])


def nested_enumeration(q, k):
    """The level recursion enumerate_families replaced: each left set is
    read off the counter bits, each right set is a set difference."""
    alphabet = sorted(DIGITS[:q])

    def extend(levels):
        i = len(levels) + 1
        if i > k:
            yield families.PartitionFamily(q=q, levels=tuple(levels))
            return
        if i == 1:
            ground = alphabet
            lo, hi = 1, 2 ** q - 1
        else:
            ground = sorted(concat_layer(levels, i))
            lo, hi = 0, 2 ** len(ground)
        for bits in range(lo, hi):
            left = frozenset(ground[j] for j in range(len(ground))
                             if bits >> j & 1)
            levels.append((left, frozenset(ground) - left))
            yield from extend(levels)
            levels.pop()

    yield from extend([])


ORDER_CASES = ([(2, k) for k in range(1, 6)] + [(3, k) for k in range(1, 5)]
               + [(4, k) for k in range(1, 4)])


@pytest.mark.parametrize("table_bits", [families.SUBSET_TABLE_BITS, 2])
@pytest.mark.parametrize("q,k", ORDER_CASES)
def test_enumeration_order_matches_nested_recursion(monkeypatch, q, k,
                                                    table_bits):
    # 2 bits sends every ground wider than two words down the chunked path
    monkeypatch.setattr(families, "SUBSET_TABLE_BITS", table_bits)
    assert list(enumerate_families(q, k)) == list(nested_enumeration(q, k))


def test_enumeration_is_lazy_on_wide_grounds():
    start = time.perf_counter()
    first = next(enumerate_families(36, 2))
    head = list(islice(enumerate_families(4, 5), 1000))
    assert time.perf_counter() - start < 0.5
    assert validate(first) is None and len(head) == 1000


def test_arguments_are_checked_at_call_time():
    with pytest.raises(ValueError, match="alphabet"):
        enumerate_families(1, 2)
    with pytest.raises(ValueError, match="depth"):
        count_vectors(3, 0)


def test_enumerate_depth_one():
    fams = list(enumerate_families(2, 1))
    assert [(sorted(f.left(1)), sorted(f.right(1))) for f in fams] == [
        (["0"], ["1"]), (["1"], ["0"])]
    assert len(list(enumerate_families(3, 1))) == 6


def test_enumerate_depth_two_extensions():
    fams = [f for f in enumerate_families(2, 2)
            if f.left(1) == frozenset("0")]
    levels = {(frozenset(f.left(2)), frozenset(f.right(2))) for f in fams}
    assert levels == {(frozenset(), frozenset({"01"})),
                      (frozenset({"01"}), frozenset())}


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3)])
def test_enumerated_families_are_valid_with_consistent_counts(q, k):
    seen = set()
    for f in enumerate_families(q, k):
        assert validate(f) is None
        for i in range(2, k + 1):
            assert len(f.left(i)) + len(f.right(i)) == sum(
                len(f.left(j)) * len(f.right(i - j)) for j in range(1, i))
        seen.add(f.levels)
    assert len(seen) == len(set(seen))  # exactly-once enumeration


def test_balanced_family_examples():
    f = balanced_family(2, 1, 3, "L_empty")
    assert sorted(f.left(1)) == ["0"]
    assert sorted(f.right(2)) == ["01"]
    assert sorted(f.right(3)) == ["001"]
    assert validate(f) is None

    g = balanced_family(3, 2, 2, "R_empty")
    assert sorted(g.right(1)) == ["0", "1"]
    assert sorted(g.left(1)) == ["2"]
    assert sorted(g.left(2)) == ["20", "21"]
    assert not g.right(2)
    assert validate(g) is None

    with pytest.raises(ValueError):
        balanced_family(2, 2, 3, "L_empty")


@pytest.mark.parametrize("q,x,k,side", [
    (2, 1, 4, "L_empty"), (3, 1, 3, "R_empty"), (3, 2, 4, "L_empty"),
    (4, 2, 3, "R_empty"),
])
def test_balanced_families_validate(q, x, k, side):
    assert validate(balanced_family(q, x, k, side)) is None


def test_decompose_worked_example():
    # the two short pairs rewrite simultaneously; the surviving pair spans a
    # subword longer than the depth, so the trace stops
    trace = decompose("02122", EXAMPLE_FAMILY)
    assert trace.steps[0] == "lrlrr"
    assert trace.final == "lrr"
    assert trace.spans[-1] == ((0, 2), (2, 4), (4, 5))


def test_decompose_trivial_depth_one():
    f = family(2, [({"0"}, {"1"})])
    trace = decompose("01", f)
    assert trace.steps == ("lr",)


def test_decompose_stops_on_long_span():
    f = family(2, [({"0"}, {"1"}), (set(), {"01"})])
    trace = decompose("0011", f)
    assert trace.steps == ("llrr", "lrr")


def test_decompose_rejects_bad_boundary():
    with pytest.raises(ValueError):
        decompose("2012", EXAMPLE_FAMILY)
    with pytest.raises(ValueError):
        decompose("010", family(2, [({"0"}, {"1"})]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_decompose_steps_strictly_shrink(data):
    fams = list(enumerate_families(2, 3))
    f = data.draw(st.sampled_from(fams))
    n = data.draw(st.integers(2, 7))
    first = data.draw(st.sampled_from(sorted(f.left(1))))
    last = data.draw(st.sampled_from(sorted(f.right(1))))
    middle = data.draw(st.text(alphabet="01", min_size=n - 2, max_size=n - 2))
    trace = decompose(first + middle + last, f)
    lengths = [len(s) for s in trace.steps]
    assert lengths[0] == n
    assert all(a > b for a, b in zip(lengths, lengths[1:]))
    assert len(trace.steps) <= n
    for step, spans in zip(trace.steps, trace.spans):
        assert len(step) == len(spans)
        assert spans[0][0] == 0 and spans[-1][1] == n


def test_family_from_code_examples():
    # level i draws from the concatenation layer, so "00" (a realized prefix
    # but not in L1 R1) stays out; the construction still rebuilds the code
    f = family_from_code(code(2, 4, {"0001", "0011"}), 2)
    assert sorted(f.left(1)) == ["0"]
    assert sorted(f.left(2)) == []
    assert sorted(f.right(2)) == ["01"]

    g = family_from_code(code(2, 3, {"001"}), 1)
    assert sorted(g.left(1)) == ["0"]
    assert sorted(g.right(1)) == ["1"]

    h = family_from_code(code(3, 4, {"0212"}), 2)
    assert sorted(h.left(1)) == ["0"]
    assert sorted(h.right(1)) == ["1", "2"]
    assert sorted(h.left(2)) == ["02"]
    assert sorted(h.right(2)) == ["01"]


def test_family_from_code_refuses_overlapping_code():
    with pytest.raises(ValueError):
        family_from_code(code(2, 4, {"0111", "0011"}), 3)


def oracle_family_from_code(c, k):
    """family_from_code as it was before the level kernel: verify, take the
    union of every word's prefixes, split each ground set per word, and
    validate the result."""
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
        ground = concat_layer(levels, i)
        li = frozenset(x for x in ground if x in prefixes)
        levels.append((li, frozenset(ground) - li))
    return PartitionFamily(q=c.q, levels=tuple(levels))


@pytest.mark.parametrize("q,n,k", [(3, 5, 4), (3, 6, 4), (3, 6, 5)])
def test_family_from_code_matches_oracle_on_maximal_codes(q, n, k):
    for c in islice(enumerate_maximal_codes(q, n, 1, k), 1500):
        f = family_from_code(c, k)
        assert f == oracle_family_from_code(c, k)
        assert validate(f) is None


@pytest.mark.parametrize("q,n,words,k", [
    (2, 4, set(), 2),  # the empty code: L1 is empty
    (3, 3, set(), 5),
    (2, 4, {"0111", "0011"}, 3),  # overlapping at t = 3
    (2, 4, {"0111", "0011"}, 9),
    (3, 5, {"01212", "12001", "20002"}, 4),
    (2, 1, {"0"}, 1),  # no window at n = 1
    (2, 4, {"0001"}, 0),
])
def test_family_from_code_errors_match_oracle(q, n, words, k):
    c = code(q, n, words)
    with pytest.raises(ValueError) as expected:
        oracle_family_from_code(c, k)
    with pytest.raises(ValueError) as got:
        family_from_code(c, k)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_family_from_code_matches_oracle_beyond_block_length(q, k):
    # k >= n adds the whole words as prefixes; levels past n stay empty
    for n in range(2, 5):
        for c in islice(enumerate_maximal_codes(q, n, 1, n - 1), 50):
            f = family_from_code(c, k)
            assert f == oracle_family_from_code(c, k)
            assert validate(f) is None


def test_compositions_examples():
    assert list(compositions(0)) == [()]
    assert list(compositions(1)) == [(1,)]
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    with pytest.raises(ValueError, match="non-negative integers"):
        list(compositions(-1))


def test_validation_names_the_failing_clause():
    with pytest.raises(ValueError, match="alphabet size must be in"):
        family(1, [({"0"}, set())])
    with pytest.raises(ValueError, match="family must have depth >= 1"):
        family(2, [])
    with pytest.raises(ValueError, match="level 1: R1 is empty"):
        family(2, [({"0", "1"}, set())])


@given(st.integers(1, 11))
def test_compositions_count_and_order(m):
    comps = list(compositions(m))
    assert len(comps) == 2 ** (m - 1)
    assert all(sum(c) == m for c in comps)
    assert comps == sorted(comps)
    assert len(set(comps)) == len(comps)


def test_concat_layer():
    assert concat_layer(EXAMPLE_FAMILY.levels, 2) == {"02", "12"}
    f = family(3, [({"0", "1"}, {"2"}), ({"02"}, {"12"})])
    # level 3 layer: L1 R2 + L2 R1
    assert concat_layer(f.levels, 3) == {"012", "112", "022"}


def _sizes(f, k):
    return (non_overlapping_size(f, k + 1),
            *(code_size_1k(f, n, k) for n in range(k + 1, 2 * k + 2)))


@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (3, 3), (3, 4)])
def test_count_vectors_match_enumeration_groups(q, k):
    groups = {}
    for f in enumerate_families(q, k):
        vector = ((0, *(len(l) for l, _ in f.levels)),
                  (0, *(len(r) for _, r in f.levels)))
        groups.setdefault(vector, []).append(_sizes(f, k))
    walked = {}
    for left, right, shared in count_vectors(q, k):
        vector = (tuple(left), tuple(right))
        assert vector not in walked
        walked[vector] = (shared, (_size_1k(left, right, k + 1, k),
                                   *(_size_1k(left, right, n, k)
                                     for n in range(k + 1, 2 * k + 2))))
    assert list(walked) == sorted(walked)
    assert walked.keys() == groups.keys()
    for vector, (shared, sizes) in walked.items():
        assert shared == len(groups[vector])
        assert set(groups[vector]) == {sizes}


# vector counts and share sums of the word-set walk that built one
# representative family per vector; these depths are too deep to enumerate
@pytest.mark.parametrize("q,k,vectors,shares", [
    (3, 5, 1_816, 120_569_688),
    (4, 5, 83_963, 17_756_571_962_415_870_152_841_860_928),
    (3, 6, 47_826, 149_830_114_721_388_120),
    (2, 10, 385_312, 384_361_688_416_176),
])
def test_count_vectors_pinned_past_enumeration(q, k, vectors, shares):
    count = total = 0
    for _, _, shared in count_vectors(q, k):
        count += 1
        total += shared
    assert (count, total) == (vectors, shares)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_representative_family_is_the_strict_build_of_its_vector(k):
    for left, right, _ in count_vectors(3, k):
        rep = representative_family(3, left)
        assert PartitionFamily(3, rep.levels) == rep  # the strict build
        assert [0, *(len(l) for l, _ in rep.levels)] == left
        assert [0, *(len(r) for _, r in rep.levels)] == right
        # L_i is a prefix of the sorted ground set: the first |L_i| words
        assert all(x < y for i in range(1, k + 1)
                   for x in rep.left(i) for y in rep.right(i))


@pytest.mark.parametrize("left,complaint", [
    ([0, 0], r"^\|L1\| must be in \[1, 2\], got 0$"),
    ([0, 3], r"^\|L1\| must be in \[1, 2\], got 3$"),
    ([0, 1, 3], r"^\|L2\| must be in \[0, 2\], got 3$"),
    ([0], "depth must be >= 1"),
])
def test_representative_family_refuses_counts_outside_the_ground(left,
                                                                 complaint):
    with pytest.raises(ValueError, match=complaint):
        representative_family(3, left)

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes.constructions import lift_code, project_code
from overlapcodes.search import (build_graph, enumerate_maximal_codes,
                                 greedy_complete, max_code)
from overlapcodes.words import (DIGITS, CodeSet, OverlapWitness, _trusted_code,
                                all_words, check_alphabet, check_window,
                                check_word, code, divisors, is_primitive,
                                least_period, mobius, overlap_lengths,
                                prefix_suffix_levels, primitive_count,
                                self_compatible, verify_overlap_free)
from test_acceptance import construction_suite

DESK_WINDOWS = [(q, n, t1, t2) for q in (2, 3) for n in range(3, 7)
                for t1 in range(1, n) for t2 in range(t1, n)]


def naive_overlap_free(words, n, t1, t2):
    """Quadratic re-implementation used as the verification oracle."""
    for u in words:
        for v in words:
            for t in range(t1, t2 + 1):
                if u[:t] == v[n - t:]:
                    return (u, v, t)
    return None


words_q2 = st.integers(2, 3).flatmap(
    lambda q: st.integers(1, 8).flatmap(
        lambda n: st.text(alphabet="012"[:q], min_size=n, max_size=n)))


def test_overlap_lengths_examples():
    assert overlap_lengths("0110", "1001") == {2}
    assert overlap_lengths("000", "000") == {1, 2}
    assert overlap_lengths("010", "010") == {1}


def test_overlap_lengths_rejects_length_mismatch():
    with pytest.raises(ValueError):
        overlap_lengths("01", "011")


@given(words_q2, st.data())
def test_overlap_lengths_matches_slicing(u, data):
    v = data.draw(st.text(alphabet="012", min_size=len(u), max_size=len(u)))
    got = overlap_lengths(u, v)
    for t in range(1, len(u)):
        assert (t in got) == (v[len(v) - t:] == u[:t])


def test_verify_examples():
    c = code(2, 4, {"0111", "0011"})
    witness = verify_overlap_free(c, 1, 3)
    assert witness == OverlapWitness(u="0111", v="0011", t=3)
    assert str(witness) == "prefix of '0111' is a suffix of '0011' at t=3"
    assert verify_overlap_free(c, 1, 2) is None
    assert verify_overlap_free(code(2, 4, set()), 1, 3) is None


@given(st.integers(2, 3), st.integers(3, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_matches_naive(q, n, data):
    alphabet = "012"[:q]
    pool = ["".join(w) for w in __import__("itertools").product(alphabet, repeat=n)]
    words = data.draw(st.sets(st.sampled_from(pool), max_size=8))
    t1 = data.draw(st.integers(1, n - 1))
    t2 = data.draw(st.integers(t1, n - 1))
    c = code(q, n, words)
    fast = verify_overlap_free(c, t1, t2)
    slow = naive_overlap_free(words, n, t1, t2)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast.u[:fast.t] == fast.v[n - fast.t:]
        assert t1 <= fast.t <= t2


def ordered_scan_witness(c, t1, t2):
    """The first witness in (t, v, u) order by the scan that ran at every
    level before the per-level disjointness test."""
    words = c.sorted_words()
    for t in range(t1, t2 + 1):
        prefixes = {}
        for u in words:
            prefixes.setdefault(u[:t], u)
        for v in words:
            u = prefixes.get(v[c.n - t:])
            if u is not None:
                return OverlapWitness(u=u, v=v, t=t)
    return None


@given(st.integers(2, 4), st.integers(2, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_witness_matches_ordered_scan(q, n, data):
    pool = list(all_words(q, n))
    words = data.draw(st.sets(st.sampled_from(pool), max_size=12))
    t1 = data.draw(st.integers(1, n - 1))
    t2 = data.draw(st.integers(t1, n - 1))
    c = code(q, n, words)
    assert verify_overlap_free(c, t1, t2) == ordered_scan_witness(c, t1, t2)


def test_least_period_examples():
    assert least_period("0101") == 2
    assert least_period("0110") == 4  # 3 is a classical period but not a divisor
    assert least_period("000") == 1
    assert least_period("") == 0  # no divisor of 0, so no repetition works


@given(words_q2)
def test_least_period_divides_length(w):
    d = least_period(w)
    assert len(w) % d == 0
    assert w == w[:d] * (len(w) // d)


def test_self_overlap_of_periodic_words():
    # least period d < |w| with d | |w| forces a d-overlap with itself
    for q in (2, 3):
        for n in range(2, 9):
            for w in all_words(q, n):
                d = least_period(w)
                if d < n:
                    assert w[:d] == w[n - d:]
                    assert not self_compatible(w, d, d)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(2) == -1
    assert mobius(30) == -1
    assert mobius(12) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_primitive_count_examples():
    assert primitive_count(2, 2) == 2
    assert primitive_count(2, 4) == 12
    assert primitive_count(3, 2) == 6
    with pytest.raises(ValueError, match="length must be positive"):
        primitive_count(2, 0)


def test_check_word_refuses_empty_words_and_foreign_symbols():
    with pytest.raises(ValueError, match="empty word"):
        check_word("", 2)
    with pytest.raises(ValueError, match="symbol '2' not in alphabet"):
        check_word("012", 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_primitive_count_matches_enumeration(q):
    limit = {2: 10, 3: 8, 4: 6}[q]
    for n in range(1, limit + 1):
        brute = sum(1 for w in all_words(q, n) if is_primitive(w))
        assert primitive_count(q, n) == brute


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_codeset_validation():
    with pytest.raises(ValueError, match="'2' not in alphabet"):
        code(2, 3, {"012"})  # symbol 2 outside binary alphabet
    with pytest.raises(ValueError):
        code(2, 3, {"01"})  # wrong length
    with pytest.raises(ValueError):
        CodeSet(q=1, n=3, words=frozenset())
    c = code(2, 3, {"001", "011"}, window=(1, 2))
    assert len(c) == 2
    assert c.sorted_words() == ["001", "011"]


def loop_codeset_error(q, n, words, window):
    """The CodeSet checks as a per-word loop: the reference for the error
    texts of CodeSet.__post_init__."""
    try:
        check_alphabet(q)
        if n < 1:
            raise ValueError("block length must be positive")
        for w in sorted(words):
            if len(w) != n:
                raise ValueError(f"word {w!r} does not have length {n}")
        bad = set().union(*words) - set(DIGITS[:q])
        if bad:
            raise ValueError(f"symbol {min(bad)!r} not in alphabet of size {q}")
        if window is not None:
            check_window(n, *window)
    except ValueError as exc:
        return str(exc)
    return None


@given(st.integers(1, 4), st.integers(0, 4),
       st.frozensets(st.text(alphabet="0123", max_size=5), max_size=8),
       st.none() | st.tuples(st.integers(0, 4), st.integers(0, 4)))
@settings(max_examples=300, deadline=None)
def test_codeset_errors_match_word_loop(q, n, words, window):
    expected = loop_codeset_error(q, n, words, window)
    try:
        CodeSet(q=q, n=n, words=words, window=window)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_codeset_length_error_is_the_same_under_every_hash_seed():
    # the smallest wrong-length word is named, not the first in set order
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("from overlapcodes.words import code\n"
              "try:\n    code(2, 3, {'01', '0', '1', '11'})\n"
              "except ValueError as exc:\n    print(exc)\n")
    messages = {subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src),
                         "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "5")}
    assert messages == {"word '0' does not have length 3\n"}


@given(st.integers(2, 3), st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_prefix_suffix_levels_slice_every_word(q, n, data):
    words = data.draw(st.sets(st.sampled_from(list(all_words(q, n))),
                              max_size=10))
    t1 = data.draw(st.integers(1, n))
    t2 = data.draw(st.integers(t1, n))
    levels = list(prefix_suffix_levels(words, n, t1, t2))
    assert [t for t, _, _ in levels] == list(range(t2, t1 - 1, -1))
    for t, prefixes, suffixes in levels:
        assert prefixes == {w[:t] for w in words}
        assert suffixes == {w[n - t:] for w in words}


def assert_strict(c):
    """c is exactly the code that the strict public constructor builds."""
    assert type(c) is CodeSet
    strict = code(c.q, c.n, c.words, c.window)
    assert c == strict and hash(c) == hash(strict)


def test_trusted_builds_equal_strict_builds():
    # every construction of the criterion-6 suite (q = 3 only to depth 3)
    labels = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # expanded-t1t2 layers may overlap
        for q, depths in ((2, range(1, 5)), (3, range(1, 4))):
            for depth in depths:
                for label, c, _, _, _ in construction_suite(q, depth):
                    labels.add(label)
                    assert_strict(c)
    assert labels == {"layered", "one-k", "wmu", "padded", "padded-full",
                      "expanded", "simultaneous"}
    # max_code witnesses of every engine, lifted and projected back
    methods = set()
    for window in DESK_WINDOWS:
        r = max_code(*window, node_budget=1000)
        methods.add(r.method)
        assert_strict(r.code)
        q, n, t1, t2 = window
        if n == 2 * t2:
            lifted = lift_code(r.code, n + 1)
            assert_strict(lifted)
            assert_strict(project_code(lifted))
            assert project_code(lifted) == r.code
    assert methods == {"quotient", "rectangle", "classcount", "family"}
    # maximal codes of the Bron-Kerbosch walk, and greedy completion
    graph = build_graph(3, 4, 1, 2)
    for c in enumerate_maximal_codes(3, 4, 1, 2, graph=graph):
        assert_strict(c)
    assert_strict(greedy_complete(code(3, 4, {"0012"}), 1, 2, graph))


def test_trusted_builds_keep_the_constant_checks():
    with pytest.raises(ValueError, match="alphabet size"):
        _trusted_code(1, 3, [])
    with pytest.raises(ValueError, match="block length"):
        _trusted_code(2, 0, [])
    with pytest.raises(ValueError, match="overlap window"):
        _trusted_code(2, 3, [], (1, 3))
    with pytest.raises(ValueError, match="overlap window"):
        next(enumerate_maximal_codes(2, 4, 3, 2, graph=build_graph(2, 4, 1, 3)))

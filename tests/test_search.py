import random
import sys
import time
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes.families import (balanced_family, count_vectors,
                                   enumerate_families, family)
from overlapcodes.constructions import _size_1k, lift_code, overlap_free_1k
from overlapcodes.search import (DEFAULT_NODE_BUDGET, _CLASSCOUNT_CAP,
                                 _best_split, _classcount_feasible,
                                 _classcount_max,
                                 _family_max, _max_clique,
                                 _rectangle_levels_feasible,
                                 _rectangle_max,
                                 all_maximal_from_construction,
                                 binary_edge_check, build_graph,
                                 CompatibilityGraph,
                                 enumerate_maximal_codes, extension_word,
                                 greedy_complete, is_maximal, max_code,
                                 maximality_certificate)
from overlapcodes.words import (DIGITS, all_words, code, overlap_lengths,
                                self_compatible, verify_overlap_free)


def flip(x, m):
    """x with bit i moved to bit m-1-i: a library mask, whose vertex i sits
    at bit m-1-i, in the bit i = vertex i convention of the oracles here,
    and back."""
    return int(format(x, f"0{m}b")[::-1], 2)


def flip_rows(adjacency):
    return tuple(flip(a, len(adjacency)) for a in adjacency)


def brute_max_size(q, n, t1, t2):
    """Independent exhaustive max-clique over candidate masks (tiny scale).

    A clique holds at most one end of each non-adjacent pair, so |cand|
    minus a greedy matching of such pairs bounds what cand can still add.
    """
    g = build_graph(q, n, t1, t2)
    adj = flip_rows(g.adjacency)
    best = 0

    def bound(cand):
        pairs = 0
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            missing = rest & ~adj[v]
            if missing:
                rest &= ~(missing & -missing)
                pairs += 1
        return cand.bit_count() - pairs

    def grow(cand, size):
        nonlocal best
        if size + bound(cand) <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        grow(cand & adj[v], size + 1)
        grow(cand & ~(1 << v), size)

    grow((1 << len(g.vertices)) - 1, 0)
    return best


def clique_search(q, n, t1, t2, budget=DEFAULT_NODE_BUDGET):
    """The branch and bound on the graph at n itself: (size, witness words,
    nodes, exact)."""
    g = build_graph(q, n, t1, t2)
    size, mask, nodes, exact = _max_clique(g, budget)
    return size, g.words(mask), nodes, exact


def quotient_size(q, n, t1, t2, budget=DEFAULT_NODE_BUDGET):
    """The free-middle reduction by hand: the search at min(n, 2*t2) times
    q^(n - base), and its exact flag."""
    base = min(n, 2 * t2)
    size, _, _, exact = clique_search(q, base, t1, t2, budget)
    return size * q ** (n - base), exact


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (3, 5), (4, 3)])
def test_adjacency_matches_overlap_oracle(q, n):
    words = list(all_words(q, n))
    clash = {(u, v): overlap_lengths(u, v) | overlap_lengths(v, u)
             for u in words for v in words}
    for t1 in range(1, n):
        for t2 in range(t1, n):
            window = set(range(t1, t2 + 1))
            g = build_graph(q, n, t1, t2)
            assert list(g.vertices) == [w for w in words
                                        if not clash[w, w] & window]
            m = len(g.vertices)
            adj = flip_rows(g.adjacency)
            for i, u in enumerate(g.vertices):
                assert g.words(1 << (m - 1 - i)) == {u}
                row = adj[i]
                assert not row >> i & 1
                for j, v in enumerate(g.vertices):
                    edge = bool(row >> j & 1)
                    assert edge == bool(adj[j] >> i & 1)
                    if i != j:
                        assert edge == (not clash[u, v] & window), (u, v)


def test_max_code_examples():
    assert max_code(2, 4, 1, 2).size == 2
    assert max_code(2, 4, 1, 3).size == 1
    size, _, _, exact = clique_search(2, 6, 1, 2)
    assert size == 8 and exact


def test_reduction_consistency_direct_search():
    # the n > 2*t2 free-middle identity, checked against an unreduced search
    direct, _, _, _ = clique_search(2, 6, 1, 2)
    base, _, _, _ = clique_search(2, 4, 1, 2)
    assert direct == 2 ** 2 * base


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 3), (3, 4)])
def test_methods_agree_with_brute_force(q, n):
    for t1 in range(1, n):
        for t2 in range(t1, n):
            expect = brute_max_size(q, n, t1, t2)
            auto = max_code(q, n, t1, t2)
            assert auto.size == expect and auto.exact
            assert clique_search(q, n, t1, t2)[0] == expect
            assert quotient_size(q, n, t1, t2)[0] == expect


def test_witness_always_verifies():
    for (q, n, t1, t2) in [(2, 5, 1, 2), (3, 4, 2, 3), (2, 6, 2, 4)]:
        r = max_code(q, n, t1, t2)
        assert verify_overlap_free(r.code, t1, t2) is None
        assert len(r.code.words) == r.size


def test_witness_images_under_symbol_permutation_and_reversal():
    # symbol permutations and word reversal map overlap-free codes to
    # overlap-free codes of the same size; one window per engine
    for window, method in [((3, 5, 3, 3), "classcount"),
                           ((3, 6, 2, 2), "rectangle"),
                           ((3, 5, 2, 3), "quotient"),
                           ((3, 6, 1, 5), "family")]:
        r = max_code(*window)
        assert (r.method, len(r.code)) == (method, r.size)
        for perm in permutations("012"):
            table = str.maketrans("012", "".join(perm))
            for step in (1, -1):
                image = {w.translate(table)[::step] for w in r.code.words}
                assert len(image) == r.size, (window, perm, step)
                assert verify_overlap_free(code(3, window[1], image),
                                           *window[2:]) is None, \
                    (window, perm, step)


def test_budget_exhaustion_flags_inexact():
    r = max_code(3, 5, 2, 3, node_budget=10)
    assert r.method == "quotient" and not r.exact
    assert verify_overlap_free(r.code, 2, 3) is None


@pytest.mark.parametrize("window,size", [((3, 6, 5, 5), 293),
                                         ((3, 5, 4, 4), 96),
                                         ((3, 6, 2, 5), 53)])
def test_search_tree_is_pinned(window, size):
    # values of the first-fit colouring engine this one replaced
    r = max_code(*window, node_budget=1000)
    assert (r.size, r.nodes, r.exact, r.method) == (size, 1001, False,
                                                    "quotient")
    assert verify_overlap_free(r.code, *window[2:]) is None


@pytest.mark.parametrize("q,n,t1,t2", [(2, 9, 1, 4), (2, 10, 1, 4),
                                       (3, 9, 1, 4), (4, 8, 1, 3)])
def test_quotient_is_raw_search_at_2t2_lifted(q, n, t1, t2):
    for budget in (20, 500):
        quo = max_code(q, n, t1, t2, node_budget=budget)
        size, words, nodes, exact = clique_search(q, 2 * t2, t1, t2, budget)
        base = code(q, 2 * t2, words, (t1, t2))
        assert quo.method == "quotient"
        assert quo.size == size * q ** (n - 2 * t2)
        assert quo.code.words == lift_code(base, n).words
        assert (quo.nodes, quo.exact) == (nodes, exact)


def test_free_middle_window_answers_without_the_full_graph():
    # the full graph at n = 8 has 65,536 candidate words; the search runs
    # at n = 2*t2 = 6 and lifts
    r = max_code(4, 8, 1, 3, node_budget=1000)
    assert (r.size, r.exact, r.method) == (6256, False, "quotient")
    assert len(r.code.words) == 6256
    assert verify_overlap_free(r.code, 1, 3) is None


FAMILY_WINDOWS = [(q, n, 1, k) for q, n_max in ((2, 7), (3, 6))
                  for n in range(3, n_max + 1) for k in range(n // 2 + 1, n)]


def test_family_equals_exact_clique_search():
    # every t1 = 1, n < 2*t2 window with q = 2, n <= 7 or q = 3, n <= 6
    assert len(FAMILY_WINDOWS) == 15
    for window in FAMILY_WINDOWS:
        r = max_code(*window)
        size, _, _, exact = clique_search(*window)
        assert exact, window
        assert (r.method, r.exact, r.size) == ("family", True, size), window


def full_vector_max(q, n, k):
    """The first maximum of _size_1k over every depth-k count vector, each
    value of the deepest count included: the walk the endpoint closure
    replaced.  (size, left counts)."""
    best, best_left = -1, None
    for left, right, _ in count_vectors(q, k):
        size = _size_1k(left, right, n, k)
        if size > best:
            best, best_left = size, left
    return best, best_left


@pytest.mark.parametrize("q,k", [(q, k) for q, k_max in ((2, 6), (3, 4), (4, 3))
                                 for k in range(2, k_max + 1)])
def test_endpoint_walk_equals_the_full_vector_walk(q, k):
    vectors = sum(1 for _ in count_vectors(q, k - 1))
    for n in range(k + 1, 2 * k):
        size, left, nodes, exact = _family_max(q, n, k, DEFAULT_NODE_BUDGET)
        assert (nodes, exact) == (vectors, True)
        assert (size, left) == full_vector_max(q, n, k), n


@pytest.mark.parametrize("window,size", [((2, 11, 1, 10), 44),
                                         ((3, 7, 1, 5), 140),
                                         ((3, 7, 1, 6), 99),
                                         ((4, 6, 1, 5), 251)])
def test_family_is_exact_beyond_the_search(window, size):
    # the branch and bound stops short of every one at 50k nodes
    r = max_code(*window)
    assert (r.method, r.exact, r.size, len(r.code)) == ("family", True, size,
                                                        size)
    assert verify_overlap_free(r.code, *window[2:]) is None


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_family_budget_exhaustion_flags_inexact(budget):
    # (3, 6, 1, 5) walks 146 depth-4 vectors; budget 0 walks none
    r = max_code(3, 6, 1, 5, node_budget=budget)
    assert (r.method, r.exact, r.nodes) == ("family", False, budget + 1)
    assert len(r.code) == r.size <= 41
    assert (r.size == 0) == (budget == 0)
    assert verify_overlap_free(r.code, 1, 5) is None


def brute_split(u, shared, v):
    """The first j in [0, shared] maximizing (u + j) * (v + shared - j), and
    that value, by trying every j."""
    vals = [(u + j) * (v + shared - j) for j in range(shared + 1)]
    j = vals.index(max(vals))
    return j, vals[j]


def test_best_split_matches_brute_force():
    for u, shared, v in product(range(13), repeat=3):
        assert _best_split(u, shared, v) == brute_split(u, shared, v)


def dict_walk_rectangle_max(q, t1, t2):
    """The rectangle value and sides by the walk the mask tables replaced:
    a dict of claimed strings, every side word re-classified at each leaf."""
    side = list(all_words(q, t2))
    lower = list(range(t1, t2))
    level_words = {t: list(all_words(q, t)) for t in lower}
    best = (-1, [], [])

    def close_top(claimed):
        nonlocal best
        u_only, shared, v_only = [], [], []
        for x in side:
            in_u = all(claimed.get(x[:t], False) for t in lower)
            in_v = all(not claimed.get(x[len(x) - t:], False) for t in lower)
            if in_u and in_v:
                shared.append(x)
            elif in_u:
                u_only.append(x)
            elif in_v:
                v_only.append(x)
        j, val = brute_split(len(u_only), len(shared), len(v_only))
        if val > best[0]:
            p_side = sorted(u_only) + sorted(shared)[:j]
            s_side = sorted(v_only) + sorted(shared)[j:]
            best = (val, sorted(p_side), sorted(s_side))

    def assign(level_idx, claimed):
        if level_idx == len(lower):
            close_top(claimed)
            return
        words_t = level_words[lower[level_idx]]
        for bits in range(2 ** len(words_t)):
            for pos, wt in enumerate(words_t):
                claimed[wt] = bool(bits >> pos & 1)
            assign(level_idx + 1, claimed)
        for wt in words_t:
            del claimed[wt]

    assign(0, {})
    return best


RECTANGLE_LEVELS = [(q, t1, t2) for q in (2, 3, 4) for t2 in range(1, 8)
                    for t1 in range(1, t2 + 1)
                    if _rectangle_levels_feasible(q, t1, t2)]


@pytest.mark.parametrize("q,t1,t2", RECTANGLE_LEVELS)
def test_rectangle_masks_match_dict_walk(q, t1, t2):
    assert _rectangle_max(q, t1, t2) == dict_walk_rectangle_max(q, t1, t2)


RECTANGLE_WINDOWS = [(q, n, t1, t2) for q, n_max in ((2, 8), (3, 5))
                     for n in range(2, n_max + 1) for t2 in range(1, n)
                     for t1 in range(1, t2 + 1)
                     if n >= 2 * t2 and _rectangle_levels_feasible(q, t1, t2)
                     and (q, n, t1, t2) != (2, 8, 4, 4)]


def test_rectangle_equals_exact_quotient():
    # (2, 8, 4, 4) is left out: quotient does not finish it within budget
    assert len(RECTANGLE_WINDOWS) == 36
    for window in RECTANGLE_WINDOWS:
        rect = max_code(*window)
        quo, exact = quotient_size(*window, budget=100_000)
        assert exact, window
        assert (rect.method, rect.exact) == ("rectangle", True)
        assert rect.size == quo, window


def count_vector_max(q, n, t):
    """The classcount value by the walk the row-sum engine replaced: every
    matrix of prefix-side counts per (head key, tail key) class."""
    head = 2 * t - n
    keys = q ** head
    mult = q ** (t - 2 * head)
    cap = keys * mult
    best = -1
    for flat in product(range(mult + 1), repeat=keys * keys):
        row = [sum(flat[a * keys:(a + 1) * keys]) for a in range(keys)]
        col = [sum(flat[b::keys]) for b in range(keys)]
        best = max(best, sum(col[k] * (cap - row[k]) for k in range(keys)))
    return best


@pytest.mark.parametrize("q,n,t", [(2, 3, 2), (2, 5, 3), (2, 6, 4),
                                   (2, 7, 4), (2, 9, 5), (3, 3, 2),
                                   (3, 5, 3), (4, 3, 2)])
def test_classcount_row_sums_match_count_vector_walk(q, n, t):
    expect = count_vector_max(q, n, t)
    value, _ = _classcount_max(q, n, t)
    assert value == expect
    r = max_code(q, n, t, t)
    assert r.method == "classcount"
    assert (r.size, len(r.code), r.exact) == (expect, expect, True)
    assert verify_overlap_free(r.code, t, t) is None


@pytest.mark.parametrize("window,size", [((2, 8, 5, 5), 84),
                                         ((3, 7, 4, 4), 708),
                                         ((5, 3, 2, 2), 40)])
def test_classcount_closes_windows_beyond_the_count_vector_walk(window, size):
    r = max_code(*window, node_budget=1000)
    assert (r.method, r.size, r.exact) == ("classcount", size, True)
    assert verify_overlap_free(r.code, *window[2:]) is None


@pytest.mark.parametrize("window", [(2, 44, 28, 28), (2, 40, 26, 26),
                                    (36, 2 * 10 ** 7 - 1, 10 ** 7, 10 ** 7)])
def test_classcount_applicability_is_bounded(window):
    started = time.perf_counter()
    assert not _classcount_feasible(*window)
    assert time.perf_counter() - started < 0.1


def looped_classcount_feasible(q, n, t1, t2):
    """_classcount_feasible with C(cap + keys, keys) built term by term and
    an exit once it passes the cap: the reference for the closed form."""
    if t1 != t2 or n >= 2 * t2:
        return False
    head = 2 * t2 - n
    if 2 * head > t2 or t2 - head >= _CLASSCOUNT_CAP.bit_length():
        return False
    keys, cap = q ** head, q ** (t2 - head)
    walk = 1
    for i in range(1, keys + 1):
        walk = walk * (cap + i) // i
        if walk > _CLASSCOUNT_CAP:
            return False
    return True


def test_classcount_applicability_matches_term_by_term_walk():
    windows = [(q, n, t, t) for q in range(2, 37) for n in range(2, 40)
               for t in range(1, n)]
    assert len(windows) == 25935
    assert [w for w in windows if _classcount_feasible(*w)] == \
        [w for w in windows if looped_classcount_feasible(*w)]


def test_classcount_applies_on_five_desk_windows():
    desk = [(q, n, t1, t2) for q in (2, 3) for n in range(3, 7)
            for t1 in range(1, n) for t2 in range(t1, n)]
    assert len(desk) == 68
    assert [w for w in desk if _classcount_feasible(*w)] == [
        (2, 3, 2, 2), (2, 5, 3, 3), (2, 6, 4, 4), (3, 3, 2, 2), (3, 5, 3, 3)]


def test_is_maximal_examples():
    assert is_maximal(code(2, 4, {"0001"}), 1, 3)
    assert is_maximal(code(2, 4, {"0001", "0011"}), 1, 2)
    ext = extension_word(code(2, 4, set()), 1, 2)
    assert ext == "0001"


def test_greedy_complete_examples():
    c = greedy_complete(code(2, 4, set()), 1, 2)
    assert c.sorted_words() == ["0001", "0011"]
    again = greedy_complete(c, 1, 2)
    assert again.words == c.words
    sup = greedy_complete(code(2, 4, {"0011"}), 1, 2)
    assert len(sup) == 2 and "0011" in sup.words


def scan_complete(c, t1, t2):
    """The words a lexicographic scan adds to c, each kept when the code
    still verifies: the greedy completion without masks."""
    words = set(c.words)
    added = []
    for w in all_words(c.q, c.n):
        if w not in words and verify_overlap_free(
                code(c.q, c.n, words | {w}), t1, t2) is None:
            words.add(w)
            added.append(w)
    return added


SMALL_WINDOWS = [(q, n, t1, t2) for q, n_max in ((2, 6), (3, 4))
                 for n in range(2, n_max + 1) for t1 in range(1, n)
                 for t2 in range(t1, n)]


def test_extension_and_greedy_completion_match_the_scan():
    rng = random.Random(16)
    for q, n, t1, t2 in SMALL_WINDOWS:
        graph = build_graph(q, n, t1, t2)
        for _ in range(4):
            # a seeded starting code: a random order of the words, each kept
            # while the code verifies, up to a random size
            order = list(all_words(q, n))
            rng.shuffle(order)
            start, limit = set(), rng.randrange(4)
            for w in order:
                if len(start) < limit and verify_overlap_free(
                        code(q, n, start | {w}), t1, t2) is None:
                    start.add(w)
            c = code(q, n, start)
            added = scan_complete(c, t1, t2)
            window = (q, n, t1, t2, sorted(start))
            assert extension_word(c, t1, t2, graph) == \
                (added[0] if added else None), window
            assert greedy_complete(c, t1, t2, graph).words == \
                start | set(added), window


def test_enumerate_maximal_codes_small():
    codes = list(enumerate_maximal_codes(2, 4, 1, 3))
    assert all(is_maximal(c, 1, 3) for c in codes)
    words = {frozenset(c.words) for c in codes}
    assert len(words) == len(codes)
    # every self-compatible singleton extends to some enumerated maximal code
    assert any("0001" in c.words for c in codes)


def test_maximality_certificate_positive():
    f = family(2, [({"0"}, {"1"}), (set(), {"01"})])
    cert = maximality_certificate(f, 4, 2)
    assert cert.verdict == "certified-maximal"
    assert is_maximal(overlap_free_1k(f, 4, 2), 1, 2)


def test_maximality_certificate_failure_is_nonmaximal():
    # an unrealized suffix-side word at level 2: the word 01 never ends a
    # codeword, so the certificate fails and the code must be expandable
    f = family(3, [({"0"}, {"1", "2"}), (set(), {"01", "02"}),
                   (set(), {"001", "002"}), ({"0001"}, {"0002"})])
    cert = maximality_certificate(f, 5, 4)
    assert cert.verdict == "condition-failure"
    assert (cert.level, cert.word) == (2, "01")
    assert not is_maximal(overlap_free_1k(f, 5, 4), 1, 4)


def test_certificate_agrees_with_direct_test_across_families():
    from overlapcodes.search import build_graph

    graph = build_graph(3, 4, 1, 2)
    for f in enumerate_families(3, 2):
        cert = maximality_certificate(f, 4, 2)
        c = overlap_free_1k(f, 4, 2)
        m = is_maximal(c, 1, 2, graph)
        if cert.verdict == "certified-maximal":
            assert m
        elif cert.verdict == "condition-failure":
            assert not m


def test_maximality_certificate_inconclusive_binary_only():
    seen = set()
    for f in enumerate_families(2, 4):
        cert = maximality_certificate(f, 6, 4)
        seen.add(cert.verdict)
        if cert.verdict == "inconclusive":
            assert len(f.left(3) | f.right(3)) == 1
    assert "inconclusive" in seen


def test_maximality_certificate_requires_wide_window():
    with pytest.raises(ValueError):
        maximality_certificate(family(2, [({"0"}, {"1"})]), 4, 1)


def test_binary_edge_check_on_maximal_inconclusive_families():
    graph = build_graph(2, 6, 1, 5)
    exercised = 0
    for f in enumerate_families(2, 5):
        cert = maximality_certificate(f, 6, 5)
        if cert.verdict != "inconclusive":
            continue
        c = overlap_free_1k(f, 6, 5)
        if not is_maximal(c, 1, 5, graph):
            continue
        report = binary_edge_check(f, 6, 5)
        assert report.applicable
        assert report.all_hold(), report
        exercised += 1
    assert exercised == 8


def test_binary_edge_check_odd_length_not_applicable():
    f = family(2, [({"0"}, {"1"}), (set(), {"01"}), (set(), {"001"})])
    report = binary_edge_check(f, 5, 3)
    assert not report.applicable


def test_binary_edge_check_rejects_ternary():
    # a valid ternary family: its n/2 level {01, 02} has two words
    f = family(3, [({"0"}, {"1", "2"}), ({"01"}, {"02"})])
    with pytest.raises(ValueError, match="requires a singleton n/2 level"):
        binary_edge_check(f, 4, 2)


def test_binary_edge_check_refuses_short_windows_and_non_maximal_codes():
    with pytest.raises(ValueError, match="requires k >= n/2"):
        binary_edge_check(family(2, [({"0"}, {"1"}), (set(), {"01"})]), 6, 2)
    # the n/2 level {001} is a singleton, but the code is not maximal
    f = family(2, [({"0"}, {"1"}), (set(), {"01"}), (set(), {"001"}),
                   ({"0001"}, set())])
    with pytest.raises(ValueError, match="requires a maximal code"):
        binary_edge_check(f, 6, 4)


def test_round_trip_refuses_short_windows():
    with pytest.raises(ValueError, match="requires k >= n/2"):
        all_maximal_from_construction(2, 6, 2)


def test_extension_and_completion_refuse_codes_failing_their_window():
    bad = code(2, 3, {"010"})  # its 1-prefix is its 1-suffix
    with pytest.raises(ValueError, match="does not verify its window"):
        extension_word(bad, 1, 2)
    with pytest.raises(ValueError, match="does not verify its window"):
        greedy_complete(bad, 1, 2)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 3), (3, 4, 2)])
def test_all_maximal_codes_come_from_the_construction(q, n, k):
    assert all_maximal_from_construction(q, n, k) is None


# -- the graph build against its one-pass-per-level oracle -------------------

def oracle_build_graph(q, n, t1, t2):
    """The graph build the level-derived masks replaced: every level t in
    the window makes its own two passes over the vertices.  Its rows have
    bit i = vertex i."""
    verts = [w for w in all_words(q, n) if self_compatible(w, t1, t2)]
    conflict = [1 << i for i in range(len(verts))]
    for t in range(t1, t2 + 1):
        by_prefix = {}
        by_suffix = {}
        cut = n - t
        for i, w in enumerate(verts):
            bit = 1 << i
            by_prefix[w[:t]] = by_prefix.get(w[:t], 0) | bit
            by_suffix[w[cut:]] = by_suffix.get(w[cut:], 0) | bit
        for i, w in enumerate(verts):
            conflict[i] |= by_suffix.get(w[:t], 0) | by_prefix.get(w[cut:], 0)
    full = (1 << len(verts)) - 1
    return CompatibilityGraph(tuple(verts),
                              tuple(full ^ mask for mask in conflict))


def low_bit(graph):
    return CompatibilityGraph(graph.vertices, flip_rows(graph.adjacency))


@pytest.mark.parametrize("q,n_max", [(2, 6), (3, 6), (4, 6), (5, 5)])
def test_graph_matches_per_level_oracle_on_every_window(q, n_max):
    for n in range(2, n_max + 1):
        for t1 in range(1, n):
            for t2 in range(t1, n):
                assert low_bit(build_graph(q, n, t1, t2)) == \
                    oracle_build_graph(q, n, t1, t2), (q, n, t1, t2)


def test_graph_matches_per_level_oracle_on_the_wide_binary_window():
    # the sweep above holds the other wide-search window, (5, 5, 1, 4), and
    # the maximal workload's four graphs (3, 5, 1, 4) and (3, 6, 1, 3..5)
    assert low_bit(build_graph(2, 12, 2, 10)) == \
        oracle_build_graph(2, 12, 2, 10)


# -- the clique engines against their bit i = vertex i oracles ---------------

class OracleBudgetExceeded(Exception):
    """LowBitMaxClique's node budget ran out mid-search."""


class LowBitMaxClique:
    """The colouring branch and bound on bit i = vertex i masks, each step
    finding its vertex with mask & -mask: the engine the top-bit masks
    replaced, kept as the reference for node-for-node equality."""

    def __init__(self, adjacency, node_budget):
        self.adj = adjacency
        self.m = len(adjacency)
        full = (1 << self.m) - 1
        self.non_adj = [full ^ a ^ (1 << v) for v, a in enumerate(adjacency)]
        self.budget = node_budget
        self.nodes = 0
        self.best_size = 0
        self.best_mask = 0

    def _greedy_seed(self):
        mask, size, cand = 0, 0, (1 << self.m) - 1
        while cand:
            low = cand & -cand
            mask |= low
            size += 1
            cand &= self.adj[low.bit_length() - 1]
        self.best_size, self.best_mask = size, mask

    def _expand(self, r_mask, r_size, cand):
        self.nodes += 1
        if self.nodes > self.budget:
            raise OracleBudgetExceeded
        kmin = self.best_size - r_size
        order = []
        rest = cand
        k = 0
        while rest:
            k += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                rest ^= low
                avail &= self.non_adj[v]
                if k > kmin:
                    order.append((v, k))
        for v, k in reversed(order):
            if r_size + k <= self.best_size:
                return
            bit = 1 << v
            new_cand = cand & self.adj[v]
            if new_cand:
                self._expand(r_mask | bit, r_size + 1, new_cand)
            elif r_size + 1 > self.best_size:
                self.best_size = r_size + 1
                self.best_mask = r_mask | bit
            cand ^= bit

    def solve(self):
        if self.m == 0:
            return 0, 0, 0, True
        self._greedy_seed()
        exact = True
        try:
            self._expand(0, 0, (1 << self.m) - 1)
        except OracleBudgetExceeded:
            exact = False
        return self.best_size, self.best_mask, self.nodes, exact


def oracle_solve(adjacency, budget):
    """LowBitMaxClique on library rows, its witness in the library's bits."""
    size, mask, nodes, exact = LowBitMaxClique(flip_rows(adjacency),
                                               budget).solve()
    return size, flip(mask, len(adjacency)), nodes, exact


def low_bit_maximal_cliques(adj):
    """Bron-Kerbosch with pivoting on bit i = vertex i masks, in the order
    enumerate_maximal_codes must reproduce."""

    def bk(r, p, x):
        if p == 0 and x == 0:
            yield r
            return
        pivot, pivot_deg = -1, -1
        scan = p | x
        while scan:
            low = scan & -scan
            scan &= ~low
            u = low.bit_length() - 1
            deg = (p & adj[u]).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = u, deg
        ext = p & ~adj[pivot]
        while ext:
            low = ext & -ext
            ext &= ~low
            v = low.bit_length() - 1
            yield from bk(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low

    if adj:
        yield from bk(0, (1 << len(adj)) - 1, 0)


DESK_QUOTIENT_GRAPHS = [
    (q, min(n, 2 * t2), t1, t2)
    for q in (2, 3) for n in range(3, 7)
    for t1 in range(1, n) for t2 in range(t1, n)
    if not _classcount_feasible(q, n, t1, t2)
    and not (n >= 2 * t2 and _rectangle_levels_feasible(q, t1, t2))]


@pytest.mark.parametrize("budget", [20, 1000])
def test_clique_engine_matches_low_bit_oracle_on_desk_graphs(budget):
    assert len(DESK_QUOTIENT_GRAPHS) == 37
    for window in DESK_QUOTIENT_GRAPHS:
        graph = build_graph(*window)
        assert _max_clique(graph, budget) == \
            oracle_solve(graph.adjacency, budget), window


def test_clique_engine_matches_low_bit_oracle_on_raw_graphs():
    for q, n in product((2, 3), range(2, 6)):
        for t1 in range(1, n):
            for t2 in range(t1, n):
                graph = build_graph(q, n, t1, t2)
                for budget in (20, 1000):
                    assert _max_clique(graph, budget) == \
                        oracle_solve(graph.adjacency, budget), \
                        (q, n, t1, t2, budget)


@pytest.mark.parametrize("q,n,k", [(3, 5, 4), (3, 6, 4), (3, 6, 5)])
def test_maximal_code_order_matches_low_bit_oracle(q, n, k):
    graph = build_graph(q, n, 1, k)
    got = [c.words for c in
           islice(enumerate_maximal_codes(q, n, 1, k, graph=graph), 300)]
    m = len(graph.vertices)
    want = [graph.words(flip(mask, m)) for mask in
            islice(low_bit_maximal_cliques(flip_rows(graph.adjacency)), 300)]
    assert len(got) == 300
    assert got == want


def random_graph(m, density, seed):
    rng = random.Random(seed)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


@given(m=st.integers(0, 130), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32), budget=st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_clique_engines_match_low_bit_oracles_on_random_graphs(
        m, density, seed, budget):
    adj = random_graph(m, density, seed)
    top = flip_rows(adj)
    # any m distinct words of one length stand for the vertices
    graph = CompatibilityGraph(tuple(f"{i:08b}" for i in range(m)), top)
    assert _max_clique(graph, budget) == oracle_solve(top, budget)
    got = [c.words for c in
           islice(enumerate_maximal_codes(2, 8, 1, 1, graph=graph), 100)]
    want = [graph.words(flip(mask, m)) for mask in
            islice(low_bit_maximal_cliques(adj), 100)]
    assert got == want


# -- dives deeper than the interpreter's recursion limit ---------------------

def test_clique_search_dives_past_the_recursion_limit():
    graph = build_graph(5, 6, 1, 3)
    size, mask, nodes, exact = _max_clique(graph, 1500)
    assert size > sys.getrecursionlimit()
    assert (nodes, exact) == (1501, False)
    words = graph.words(mask)
    assert len(words) == size
    assert verify_overlap_free(code(5, 6, words), 1, 3) is None


def test_maximal_code_walk_dives_past_the_recursion_limit():
    # the first maximal (1, 1) code: every word that starts with 0 and ends
    # with 1
    first = next(enumerate_maximal_codes(2, 12, 1, 1))
    assert len(first) == 1024 > sys.getrecursionlimit()
    assert first.words == {w for w in all_words(2, 12)
                           if w[0] == "0" and w[-1] == "1"}

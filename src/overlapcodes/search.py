"""Exhaustive ground truth: exact maximum codes, maximality tests, and the
family-level maximality certificate.

A (t1, t2)-overlap-free code is exactly a clique in the compatibility graph
whose vertices are the self-compatible words.  Four exact engines cover the
desk-scale parameter space, and ``max_code`` takes the first that applies:

* ``family``     - for t1 = 1 and n < 2*t2 = 2k, a closed form: every
                   maximal (1, k)-overlap-free code with k >= n/2 is the
                   layered construction on the family derived from its
                   prefixes (the paper's characterisation, completing Cai,
                   Wang and Feng 2023), so the maximum is the largest
                   ``_size_1k`` over the depth-k level-count vectors.  For
                   n < 2k the composition weights stop at n-k-1 < k and the
                   deepest count l_k appears only in |L_k| |R_{s-k}| and
                   |L_{s-k}| (g_k - l_k): the size is affine in l_k, so each
                   depth-(k-1) vector of ``families.count_vectors`` is
                   closed at l_k = 0 and l_k = g_k.  One node is one
                   depth-(k-1) vector; the witness is the layered code on
                   ``families.representative_family`` of the best vector.
* ``classcount`` - for t1 = t2 = t and n < 2t a code is a split of Sigma^t
                   into prefix and suffix sides; once the number of prefix
                   strings per head key is fixed, each head key fills the
                   tail keys with the fewest prefix strings first, so walk
                   the non-decreasing row-sum tuples.
* ``rectangle``  - for n >= 2*t2 a maximum code is a product P x Sigma^(n-2t2)
                   x S with the prefix sets of P disjoint from the suffix sets
                   of S level by level; enumerate the claim sets of the
                   lower levels, each side word one bit, with precomputed
                   mask tables per level giving the words a claim set
                   leaves on each side.
* ``quotient``   - ``_max_clique``, bit-parallel branch and bound on the
                   compatibility graph, bounded by greedy colour classes
                   (San Segundo et al., BBMC, Comput. Oper. Res. 2011).
                   Compatibility only depends on the first and last t2
                   symbols, so for n > 2*t2 the search runs at n = 2*t2 and
                   every middle is inserted into the witness (size times
                   q^(n-2t2)).

Each engine's witness is a list of concatenation terms of length n, which
``max_code`` fills with ``constructions._materialize`` (capped at
``MAX_WORDS``); ``build_graph`` and the family engine cap the universe
Sigma^n at ``VERTEX_CAP`` words.  Both caps raise ``CodeTooLarge``.
``build_graph`` slices each vertex once, at level t2, and derives the lower
levels' prefix and suffix masks from the level above, as
``words.prefix_suffix_levels`` does for sets; its docstring shows why the
rows equal one pass over the vertices per level.

Bit convention.  A mask over a ``CompatibilityGraph`` with m vertices puts
vertex i at bit m-1-i, in ``build_graph``'s rows and in every mask a
function here takes or returns.  The lowest-numbered vertex of a mask is then
v = m-i = ``mask.bit_length()``, which is the vertex both clique engines
(``_max_clique`` and the Bron-Kerbosch walk of ``enumerate_maximal_codes``)
visit first; their tables are indexed by that v.  Both keep their nodes on
explicit stacks, so no recursion limit caps the size of a clique they reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import comb
from typing import Iterable, Iterator

from .constructions import (CodeTooLarge, _alphabet_factors, _lift_terms,
                            _materialize, _size_1k, _t1t2_terms,
                            overlap_free_1k)
from .families import (PartitionFamily, count_vectors, family_from_code,
                       representative_family)
from .words import (CodeSet, _trusted_code, all_words, check_alphabet,
                    check_window, prefix_suffix_levels, verify_overlap_free)

DEFAULT_NODE_BUDGET = 2_000_000
VERTEX_CAP = 1 << 20
_RECTANGLE_ASSIGNMENT_CAP = 1 << 13
_RECTANGLE_SIDE_CAP = 1 << 12
_CLASSCOUNT_CAP = 1 << 12


def _greedy(adj: list[int], bit: list[int], cand: int) -> int:
    """The clique that takes the lowest-numbered vertex of cand, keeps its
    neighbours in cand, and repeats; adj and bit as
    ``CompatibilityGraph._view``."""
    mask = 0
    while cand:
        v = cand.bit_length()
        mask |= bit[v]
        cand &= adj[v]
    return mask


@dataclass(frozen=True)
class CompatibilityGraph:
    """The self-compatible words of one window and their compatibility
    rows.  Every mask, the rows included, puts vertex i (``vertices[i]``) at
    bit m-1-i, where m is the number of vertices."""

    vertices: tuple[str, ...]
    adjacency: tuple[int, ...]

    def words(self, mask: int) -> set[str]:
        """The vertices whose bits are set in mask."""
        _, bit, names = self._view
        words = set()
        while mask:
            v = mask.bit_length()
            mask ^= bit[v]
            words.add(names[v])
        return words

    @cached_property
    def _index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vertices)}

    @cached_property
    def _view(self) -> tuple[list[int], list[int], tuple[str, ...]]:
        """The adj, bit = 1 << (v-1) and word names tables indexed by
        v = m-i for vertex i (module docstring); index 0 is unused."""
        bit = [0] + [1 << j for j in range(len(self.vertices))]
        return ([0, *reversed(self.adjacency)], bit,
                ("", *reversed(self.vertices)))

    def extensions(self, words: Iterable[str]) -> int:
        """Mask of the vertices adjacent to every one of words."""
        index = self._index
        cand = (1 << len(self.vertices)) - 1
        for w in words:
            cand &= self.adjacency[index[w]]
        return cand


def _check_vertex_cap(q: int, n: int) -> None:
    """Raise CodeTooLarge when Sigma^n holds more than VERTEX_CAP words; an
    n past the cap's bit length is over it for every q >= 2."""
    if n >= VERTEX_CAP.bit_length() or q ** n > VERTEX_CAP:
        raise CodeTooLarge(f"universe of {q}^{n} words exceeds vertex cap "
                           f"{VERTEX_CAP}")


def build_graph(q: int, n: int, t1: int, t2: int) -> CompatibilityGraph:
    """Vertices: self-compatible words in lexicographic order.  Edge absent
    iff some t in [t1, t2] makes a prefix of one word a suffix of the other,
    in either direction.

    The levels are derived as in ``words.prefix_suffix_levels``.  One pass
    over the vertices ORs the bit of w_i into pre[x] for x = pre_t2(w_i) and
    into suf[y] for y = suf_t2(w_i); each lower level merges the masks of the
    level above by x[:-1] and y[1:], one step per distinct string.  Then,
    from t1 up to t2, a[x] = a[x[:-1]] | suf_t[x] over the t-prefixes x is
    the mask of the words whose s-suffix equals x[:s] for some s in [t1, t],
    and b[y] = b[y[1:]] | pre_t[y] over the t-suffixes y is its mirror.
    For t <= t2, pre_t(w) is the t-prefix of pre_t2(w) and suf_t(w) the
    t-suffix of suf_t2(w), so the conflicts of w summed over the window are
    a[pre_t2(w)] | b[suf_t2(w)], and row i is the complement of those and
    the bit of w_i: the same rows as one pass over the vertices per level."""
    check_alphabet(q)
    check_window(n, t1, t2)
    _check_vertex_cap(q, n)
    verts = list(all_words(q, n))
    for t in range(t1, t2 + 1):
        verts = [w for w in verts if w[:t] != w[n - t:]]
    cut, top = n - t2, len(verts) - 1
    pre: dict[str, int] = {}
    suf: dict[str, int] = {}
    for i, w in enumerate(verts):
        bit, x, y = 1 << (top - i), w[:t2], w[cut:]
        pre[x] = pre.get(x, 0) | bit
        suf[y] = suf.get(y, 0) | bit
    levels = [(pre, suf)]
    for _ in range(t2 - t1):
        lower_pre: dict[str, int] = {}
        lower_suf: dict[str, int] = {}
        for x, mask in pre.items():
            lower_pre[x[:-1]] = lower_pre.get(x[:-1], 0) | mask
        for y, mask in suf.items():
            lower_suf[y[1:]] = lower_suf.get(y[1:], 0) | mask
        pre, suf = lower_pre, lower_suf
        levels.append((pre, suf))
    a: dict[str, int] = {}
    b: dict[str, int] = {}
    while levels:  # t = t1 up to t2; each level is dropped once it is read
        pre, suf = levels.pop()
        a = {x: a.get(x[:-1], 0) | suf.get(x, 0) for x in pre}
        b = {y: b.get(y[1:], 0) | pre.get(y, 0) for y in suf}
    full = (1 << len(verts)) - 1
    adj = tuple(full ^ (1 << (top - i) | a[w[:t2]] | b[w[cut:]])
                for i, w in enumerate(verts))
    return CompatibilityGraph(tuple(verts), adj)


def _max_clique(graph: CompatibilityGraph, node_budget: int,
                ) -> tuple[int, int, int, bool]:
    """(size, witness mask, nodes, exact) of a maximum clique by bit-parallel
    branch and bound from the ``_greedy`` clique, bounded at each node by the
    number of greedy colour classes of its candidates (BBMC).  The nodes are
    [r_mask, r_size, cand, order] frames on an explicit stack, so a dive is
    as deep as memory allows; a frame branches on order from its end, the
    highest colour first.  Past node_budget nodes the search returns the
    best clique so far, inexact."""
    m = len(graph.vertices)
    if m == 0:
        return 0, 0, 0, True
    adj, bit, _ = graph._view
    full = (1 << m) - 1
    non_adj = [full ^ a ^ b for a, b in zip(adj, bit)]
    best_mask = _greedy(adj, bit, full)
    best, nodes = best_mask.bit_count(), 0
    stack: list[list] = []
    r_mask, r_size, cand = 0, 0, full  # the next node to colour and push
    while True:
        nodes += 1
        if nodes > node_budget:
            return best, best_mask, nodes, False
        # Colour classes: each takes the lowest-numbered remaining vertex,
        # then the lowest-numbered vertex not adjacent to any taken one, and
        # so on.  A vertex in class k bounds its branch by r_size + k, so
        # classes up to best - r_size are only taken out of rest, and the
        # later ones are listed for branching.
        kmin = best - r_size
        rest = cand
        k = 0
        while rest and k < kmin:
            k += 1
            avail = rest
            while avail:
                v = avail.bit_length()
                rest ^= bit[v]
                avail &= non_adj[v]
        order: list[tuple[int, int]] = []
        append = order.append
        while rest:
            k += 1
            avail = rest
            while avail:
                v = avail.bit_length()
                rest ^= bit[v]
                avail &= non_adj[v]
                append((v, k))
        stack.append([r_mask, r_size, cand, order])
        # Branch from the top frame until a vertex leaves candidates, the
        # next node; a frame whose next bound cannot beat best is dropped.
        while stack:
            frame = stack[-1]
            r_mask, r_size, cand, order = frame
            if not order or r_size + order[-1][1] <= best:
                stack.pop()
                continue
            v, _ = order.pop()
            b = bit[v]
            frame[2] = cand ^ b
            cand &= adj[v]
            if cand:
                r_mask, r_size = r_mask | b, r_size + 1
                break
            if r_size + 1 > best:
                best, best_mask = r_size + 1, r_mask | b
        else:
            return best, best_mask, nodes, True


def _rectangle_levels_feasible(q: int, t1: int, t2: int) -> bool:
    assignments = 1
    for t in range(t1, t2):
        assignments *= 2 ** (q ** t)
        if assignments > _RECTANGLE_ASSIGNMENT_CAP:
            return False
    return q ** t2 <= _RECTANGLE_SIDE_CAP


def _best_split(u: int, shared: int, v: int) -> tuple[int, int]:
    """The first j in [0, shared] maximizing f(j) = (u + j) * (v + shared - j),
    and f(j).  With d = v + shared - u, f(j+1) - f(j) = d - 1 - 2j is > 0 for
    j < (d-1)/2, 0 only at j = (d-1)/2 (d odd) and < 0 after, so d // 2 is
    the first maximizer over the integers; f is concave, so d // 2 clamped
    into [0, shared] is the first maximizer over [0, shared]."""
    j = max(0, min(shared, (v + shared - u) // 2))
    return j, (u + j) * (v + shared - j)


def _rectangle_max(q: int, t1: int, t2: int) -> tuple[int, list[str], list[str]]:
    """Maximum |P| * |S| with P, S subsets of Sigma^t2 such that no prefix of
    P at any level t in [t1, t2] equals a suffix of S at the same level.

    Enumerates the claimed prefix sets for levels t1 .. t2-1 and closes the
    top level in closed form.  Each side word of Sigma^t2 is one bit, in
    lexicographic order.  For each lower level t, bit pos of a claim set
    claims the pos-th string of Sigma^t, and two tables indexed by the claim
    set give the side words that may still be prefixes (every one starts
    with a claimed string) and suffixes (none ends in one).  A leaf splits
    the words that may be both: the first j of them go to P.
    """
    side = list(all_words(q, t2))
    full = (1 << len(side)) - 1
    tables = []
    for t in range(t1, t2):
        index = {w: pos for pos, w in enumerate(all_words(q, t))}
        prefix, suffix = [0] * len(index), [0] * len(index)
        for i, x in enumerate(side):
            prefix[index[x[:t]]] |= 1 << i
            suffix[index[x[t2 - t:]]] |= 1 << i
        claimed, free = [0], [full]
        for bits in range(1, 1 << len(index)):
            rest, pos = bits & (bits - 1), (bits & -bits).bit_length() - 1
            claimed.append(claimed[rest] | prefix[pos])
            free.append(free[rest] & ~suffix[pos])
        tables.append(list(zip(claimed, free)))
    best = (-1, 0, 0, 0)
    for claims in product(*tables):
        in_u = in_v = full
        for claimed, free in claims:
            in_u &= claimed
            in_v &= free
        both = (in_u & in_v).bit_count()
        j, val = _best_split(in_u.bit_count() - both, both,
                             in_v.bit_count() - both)
        if val > best[0]:
            best = (val, in_u, in_v, j)
    val, in_u, in_v, j = best
    shared = in_u & in_v
    p_mask = in_u ^ shared
    for _ in range(j):
        low = shared & -shared
        p_mask |= low
        shared ^= low
    s_mask = in_v & ~p_mask
    return (val, [x for i, x in enumerate(side) if p_mask >> i & 1],
            [x for i, x in enumerate(side) if s_mask >> i & 1])


def _classcount_feasible(q: int, n: int, t1: int, t2: int) -> bool:
    if t1 != t2 or n >= 2 * t2:
        return False
    head = 2 * t2 - n
    if 2 * head > t2:
        return False  # head and tail regions overlap inside a word
    if t2 - head >= _CLASSCOUNT_CAP.bit_length():
        return False  # the walk has over cap >= 2^(t2 - head) tuples
    keys, cap = q ** head, q ** (t2 - head)
    # the walk visits C(cap + keys, keys) row-sum tuples
    return keys <= _CLASSCOUNT_CAP and comb(cap + keys, keys) <= _CLASSCOUNT_CAP


def _classcount_max(q: int, n: int, t: int,
                    ) -> tuple[int, list[tuple[frozenset[str], ...]]]:
    """Exact maximum for a single-level window t1 = t2 = t with n < 2t.

    A code is a pair (P, S) of disjoint subsets of Sigma^t (realized prefixes
    and suffixes); its size is the number of words gluing some x in P to some
    y in S over their shared length-(2t - n) key, and S takes everything P
    leaves behind.  With r_k strings of P under head key k, the size is
    sum_k col_k * (cap - r_k), where col_k counts the strings of P under
    tail key k: linear in the class counts once r is fixed, so each head key
    fills the tail keys with the smallest r first.  Relabelling the keys
    permutes r, so only non-decreasing r are walked.  The witness is one
    term per key k: the strings of P ending in k, then the strings of S
    starting with k with k dropped.
    """
    head = 2 * t - n
    mult = q ** (t - 2 * head)  # strings per (head-key, tail-key) class
    keys = list(all_words(q, head))
    cap = len(keys) * mult  # strings per head key (= per tail key)

    def counts(rows: tuple[int, ...]) -> list[list[int]]:
        return [[min(mult, max(0, r - b * mult)) for b in range(len(keys))]
                for r in rows]

    best_val, best_rows = -1, ()
    for rows in combinations_with_replacement(range(cap + 1), len(keys)):
        val = sum(c * (cap - rows[b])
                  for row in counts(rows) for b, c in enumerate(row))
        if val > best_val:
            best_val, best_rows = val, rows

    middles = list(all_words(q, t - 2 * head))
    p_side: dict[str, set[str]] = {k: set() for k in keys}
    s_side: dict[str, set[str]] = {k: set() for k in keys}
    for ka, row in zip(keys, counts(best_rows)):
        for kb, taken in zip(keys, row):
            rests = [mid + kb for mid in middles]
            p_side[kb].update(ka + x for x in rests[:taken])
            s_side[ka].update(rests[taken:])
    return best_val, [(frozenset(p_side[k]), frozenset(s_side[k]))
                      for k in keys]


def _family_max(q: int, n: int, k: int, node_budget: int,
                ) -> tuple[int, list[int] | None, int, bool]:
    """(size, left counts, nodes, exact) of the largest (1, k) layered code
    at length n < 2k: each depth-(k-1) vector is one node, closed at both
    ends of l_k (module docstring).  The first maximum in walk order is
    kept.  Past node_budget nodes the walk stops inexact with the best so
    far, which is no vector (size 0) at budget 0."""
    best, best_left, nodes = 0, None, 0
    for left, right, _ in count_vectors(q, k - 1):
        nodes += 1
        if nodes > node_budget:
            return best, best_left, nodes, False
        g = sum(left[j] * right[k - j] for j in range(1, k))
        for top in (0, g):
            size = _size_1k(left + [top], right + [g - top], n, k)
            if best_left is None or size > best:
                best, best_left = size, left + [top]
    return best, best_left, nodes, True


@dataclass(frozen=True)
class SearchResult:
    size: int
    code: CodeSet
    exact: bool
    nodes: int
    method: str


def max_code(q: int, n: int, t1: int, t2: int, *,
             node_budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """A maximum (t1, t2)-overlap-free code, exact unless the node budget is
    exhausted.  Takes family (t1 = 1, n < 2*t2), then classcount, then
    rectangle, where they apply, and else quotient.  Raises CodeTooLarge
    when the universe, the graph or the witness would pass its cap."""
    check_alphabet(q)
    check_window(n, t1, t2)
    nodes, exact, base_n = 0, True, n
    if t1 == 1 and n < 2 * t2:
        _check_vertex_cap(q, n)
        value, left, nodes, exact = _family_max(q, n, t2, node_budget)
        terms = ([] if left is None else
                 _t1t2_terms(representative_family(q, left), n, 1, t2))
        used = "family"
    elif _classcount_feasible(q, n, t1, t2):
        value, terms = _classcount_max(q, n, t2)
        used = "classcount"
    elif n >= 2 * t2 and _rectangle_levels_feasible(q, t1, t2):
        value, p_side, s_side = _rectangle_max(q, t1, t2)
        base_n, used = 2 * t2, "rectangle"
        terms = [(frozenset(p_side), *_alphabet_factors(q, n - base_n),
                  frozenset(s_side))]
    else:
        # Compatibility only reads the first and last t2 symbols, so beyond
        # n = 2*t2 the graph is the 2*t2 graph with every middle inserted.
        base_n, used = min(n, 2 * t2), "quotient"
        graph = build_graph(q, base_n, t1, t2)
        value, mask, nodes, exact = _max_clique(graph, node_budget)
        terms = _lift_terms(graph.words(mask), t2, n - base_n, q)
    size = value * q ** (n - base_n)
    witness = _materialize(terms, q=q, n=n, window=(t1, t2), strict=True,
                           label=used)
    if len(witness) != size:
        raise AssertionError(f"{used} witness disagrees with its size")
    if verify_overlap_free(witness, t1, t2) is not None:
        raise AssertionError(f"{used} witness failed verification")
    return SearchResult(size=size, code=witness, exact=exact, nodes=nodes,
                        method=used)


def extension_word(c: CodeSet, t1: int, t2: int,
                   graph: CompatibilityGraph | None = None) -> str | None:
    """Lexicographically first word whose addition keeps c overlap-free, or
    None when c is maximal."""
    if verify_overlap_free(c, t1, t2) is not None:
        raise ValueError("code does not verify its window")
    if graph is None:
        graph = build_graph(c.q, c.n, t1, t2)
    cand = graph.extensions(c.words)
    if cand == 0:
        return None
    return graph.vertices[len(graph.vertices) - cand.bit_length()]


def is_maximal(c: CodeSet, t1: int, t2: int,
               graph: CompatibilityGraph | None = None) -> bool:
    return extension_word(c, t1, t2, graph) is None


def greedy_complete(c: CodeSet, t1: int, t2: int,
                    graph: CompatibilityGraph | None = None) -> CodeSet:
    """Deterministic maximal superset: scan candidate words lexicographically.
    A graph given must be ``build_graph(c.q, c.n, t1, t2)``: its words are
    added without re-checking."""
    if verify_overlap_free(c, t1, t2) is not None:
        raise ValueError("code does not verify its window")
    if graph is None:
        graph = build_graph(c.q, c.n, t1, t2)
    adj, bit, _ = graph._view
    picked = _greedy(adj, bit, graph.extensions(c.words))
    return _trusted_code(c.q, c.n, c.words | graph.words(picked), (t1, t2))


def enumerate_maximal_codes(q: int, n: int, t1: int, t2: int, *,
                            graph: CompatibilityGraph | None = None,
                            ) -> Iterator[CodeSet]:
    """All maximal (t1, t2)-overlap-free codes (maximal cliques), via
    Bron-Kerbosch with pivoting; deterministic order.  A graph given must be
    ``build_graph(q, n, t1, t2)``: the codes are built from its words
    without re-checking them."""
    if graph is None:
        graph = build_graph(q, n, t1, t2)
    m = len(graph.vertices)
    if m == 0:
        return
    adj, bit, _ = graph._view
    # Frames [r, p, x, ext] on an explicit stack: clique, candidates,
    # excluded, and the untried candidates not adjacent to the pivot.
    stack: list[list[int]] = []
    r, p, x = 0, (1 << m) - 1, 0  # the next node to report or push
    while True:
        if p == 0 and x == 0:
            yield _trusted_code(q, n, graph.words(r), (t1, t2))
        else:
            pivot, pivot_deg = 0, -1
            scan = p | x
            while scan:
                u = scan.bit_length()
                scan ^= bit[u]
                deg = (p & adj[u]).bit_count()
                if deg > pivot_deg:
                    pivot, pivot_deg = u, deg
            stack.append([r, p, x, p & ~adj[pivot]])
        while stack:
            frame = stack[-1]
            r, p, x, ext = frame
            if ext:
                v = ext.bit_length()
                b = bit[v]
                frame[1:] = p ^ b, x | b, ext ^ b
                r, p, x = r | b, p & adj[v], x & adj[v]
                break
            stack.pop()
        else:
            return


@dataclass(frozen=True)
class MaximalityCertificate:
    """Outcome of the realized-prefix/suffix condition on a family's code."""

    verdict: str  # "certified-maximal" | "condition-failure" | "inconclusive"
    level: int | None = None
    word: str | None = None


def _realized(c: CodeSet, k: int) -> tuple[set[str], set[str]]:
    """Every t-prefix and every t-suffix of c's words for t in [1, k]."""
    prefixes: set[str] = set()
    suffixes: set[str] = set()
    for _, pre, suf in prefix_suffix_levels(c.words, c.n, 1, k):
        prefixes |= pre
        suffixes |= suf
    return prefixes, suffixes


def _realization_failure(f: PartitionFamily, prefixes: set[str],
                         suffixes: set[str], k: int,
                         skip_level: int | None = None,
                         ) -> tuple[int, str] | None:
    for t in range(1, k + 1):
        if t == skip_level:
            continue
        for x in sorted(f.left(t)):
            if x not in prefixes:
                return t, x
        for x in sorted(f.right(t)):
            if x not in suffixes:
                return t, x
    return None


def maximality_certificate(f: PartitionFamily, n: int, k: int,
                           ) -> MaximalityCertificate:
    """Certify maximality of the (1, k) construction: every element of L_t
    must appear as a codeword prefix and every element of R_t as a suffix.
    For an even split point n/2 with a singleton level the converse direction
    is not available and the verdict is inconclusive."""
    if 2 * k < n:
        raise ValueError("maximality_certificate: requires k >= n/2")
    c = overlap_free_1k(f, n, k)
    failure = _realization_failure(f, *_realized(c, k), k)
    if failure is None:
        return MaximalityCertificate(verdict="certified-maximal")
    level, word = failure
    if n % 2 == 0:
        half = n // 2
        if len(f.left(half) | f.right(half)) == 1:
            return MaximalityCertificate(verdict="inconclusive",
                                         level=level, word=word)
    return MaximalityCertificate(verdict="condition-failure",
                                 level=level, word=word)


@dataclass(frozen=True)
class EdgeCaseClause:
    clause: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class EdgeCaseReport:
    applicable: bool
    clauses: tuple[EdgeCaseClause, ...] = ()

    def all_hold(self) -> bool:
        return all(cl.holds for cl in self.clauses)


def binary_edge_check(f: PartitionFamily, n: int, k: int) -> EdgeCaseReport:
    """Check the singleton-midpoint statements on a maximal code whose n/2
    level holds exactly one word (a binary-alphabet phenomenon).

    (i)  every other level is prefix/suffix realized;
    (ii) if the midpoint word u sits in L_{n/2} and is not a prefix, the
         words in L_j L_{n/2} (and the L_1-chain variants) are prefixes;
    (iii) the mirror image of (ii) on the R side.
    """
    if 2 * k < n:
        raise ValueError("binary_edge_check: requires k >= n/2")
    if n % 2 == 1:
        return EdgeCaseReport(applicable=False)
    half = n // 2
    mid = f.left(half) | f.right(half)
    if len(mid) != 1:
        raise ValueError("binary_edge_check: requires a singleton n/2 level")
    c = overlap_free_1k(f, n, k)
    if not is_maximal(c, 1, k):
        raise ValueError("binary_edge_check: requires a maximal code")

    prefixes, suffixes = _realized(c, k)
    clauses: list[EdgeCaseClause] = []

    failure = _realization_failure(f, prefixes, suffixes, k, skip_level=half)
    clauses.append(EdgeCaseClause(
        clause="i", holds=failure is None,
        detail="" if failure is None else f"level {failure[0]}: {failure[1]!r}"))

    (u,) = mid
    # (clause, label, level accessor, realized set, concatenation order)
    sides = (("ii", "L", f.left, prefixes, lambda y, z: y + z),
             ("iii", "R", f.right, suffixes, lambda y, z: z + y))
    for clause, label, level, realized, join in sides:
        if u not in level(half) or u in realized:
            continue
        for j in range(2, k - half + 1):
            for y in sorted(level(j)):
                word = join(y, u)
                clauses.append(EdgeCaseClause(
                    clause=clause, holds=word in realized,
                    detail=f"{label}{j} with {label}{half} word {word!r}"))
        if k > half:
            one_words = [join(y, u) for y in sorted(level(1))]
            if all(word in realized for word in one_words):
                clauses.append(EdgeCaseClause(
                    clause=clause, holds=True,
                    detail=f"{label}1 with {label}{half} realized"))
            else:
                ok = len(level(half - 1)) == 0 and all(
                    join(y, z) in realized
                    for j in range(1, k - half)
                    for y in level(j)
                    for z in one_words)
                clauses.append(EdgeCaseClause(
                    clause=clause, holds=ok,
                    detail=f"{label}1 with {label}{half} unrealized; "
                           "checking the chain"))
    return EdgeCaseReport(applicable=True, clauses=tuple(clauses))


@dataclass(frozen=True)
class RoundTripCounterexample:
    code: CodeSet
    rebuilt: CodeSet


def all_maximal_from_construction(q: int, n: int, k: int, *,
                                  max_codes: int | None = None,
                                  ) -> RoundTripCounterexample | None:
    """Check that every maximal (1, k)-overlap-free code is rebuilt exactly
    by the layered construction on the family derived from its prefixes.
    Returns the first counterexample, or None.  max_codes caps the
    enumeration (in its deterministic order) where the full population is
    too large to sweep."""
    if 2 * k < n:
        raise ValueError("all_maximal_from_construction: requires k >= n/2")
    for i, c in enumerate(enumerate_maximal_codes(q, n, 1, k)):
        if max_codes is not None and i >= max_codes:
            break
        f = family_from_code(c, k)
        rebuilt = overlap_free_1k(f, n, k)
        if rebuilt.words != c.words:
            return RoundTripCounterexample(code=c, rebuilt=rebuilt)
    return None

from math import prod

import pytest

from overlapcodes.constructions import (KINDS, CodeTooLarge, ConstructionSpec,
                                        DisjointnessViolation, _t1t2_terms,
                                        claimed_windows, code_size_1k, lift_code,
                                        non_overlapping, non_overlapping_size,
                                        overlap_free_1k, pad_t1t2,
                                        project_code, run_construction,
                                        simultaneous, simultaneous_size,
                                        t1t2_expanded, wmu_expanded, wmu_size)
from overlapcodes.families import (balanced_family, compositions,
                                   enumerate_families, family)
from overlapcodes.search import max_code
from overlapcodes.words import DIGITS, code, verify_overlap_free

EXAMPLE_FAMILY = family(3, [({"0", "1"}, {"2"}), ({"02"}, {"12"})])
PAD_FAMILY = family(2, [({"0"}, {"1"}), (set(), {"01"})])


def assert_window(c, t1, t2):
    witness = verify_overlap_free(c, t1, t2)
    assert witness is None, witness


class TestNonOverlapping:
    def test_balanced(self):
        f = balanced_family(2, 1, 2, "L_empty")
        c = non_overlapping(f, 3, strict=True)
        assert c.sorted_words() == ["001"]

    def test_bipartite_q4(self):
        f = family(4, [({"0", "1"}, {"2", "3"})])
        c = non_overlapping(f, 2, strict=True)
        assert c.sorted_words() == ["02", "03", "12", "13"]
        assert non_overlapping_size(f, 2) == 4

    def test_minimal(self):
        f = family(2, [({"0"}, {"1"})])
        assert non_overlapping(f, 2).sorted_words() == ["01"]

    def test_depth_check(self):
        with pytest.raises(ValueError):
            non_overlapping(family(2, [({"0"}, {"1"})]), 4)

    def test_length_one_rejected_alike(self):
        f = family(2, [({"0"}, {"1"})])
        for build in (non_overlapping, non_overlapping_size):
            with pytest.raises(ValueError,
                               match=r"^block length must be >= 2$"):
                build(f, 1)


class TestOneK:
    def test_binary_example(self):
        c = overlap_free_1k(PAD_FAMILY, 4, 2, strict=True)
        assert c.sorted_words() == ["0001", "0011"]
        assert code_size_1k(PAD_FAMILY, 4, 2) == 2

    def test_ternary_example(self):
        c = overlap_free_1k(EXAMPLE_FAMILY, 4, 2, strict=True)
        assert "0212" in c.words
        assert len(c) == code_size_1k(EXAMPLE_FAMILY, 4, 2) == 10
        assert_window(c, 1, 2)

    def test_reduces_to_layered_at_minimum_length(self):
        c = overlap_free_1k(EXAMPLE_FAMILY, 3, 2, strict=True)
        assert c.words == non_overlapping(EXAMPLE_FAMILY, 3).words

    def test_size_formula_across_families(self):
        for q, depth in [(2, 3), (3, 2)]:
            for f in enumerate_families(q, depth):
                k = depth
                for n in range(k + 1, min(2 * k + 1, 7) + 1):
                    c = overlap_free_1k(f, n, k, strict=True)
                    assert len(c) == code_size_1k(f, n, k)
                    assert_window(c, 1, k)


    @pytest.mark.parametrize("q,depth", [(2, 5), (3, 3), (4, 2)])
    def test_size_formula_matches_term_sum(self, q, depth):
        # the term sum is what the closed form replaces: it is the oracle
        for k in range(1, depth + 1):
            for f in enumerate_families(q, k):
                for n in range(k + 1, 2 * k + 2):
                    assert code_size_1k(f, n, k) == sum(
                        prod(map(len, factors))
                        for factors in _t1t2_terms(f, n, 1, k))


class TestWmu:
    def test_example(self):
        f = family(2, [({"0"}, {"1"}), (set(), {"01"})])
        c = wmu_expanded(f, 3, 1, strict=True)
        assert c.sorted_words() == ["0010", "0011"]
        assert wmu_size(f, 3, 1) == 2
        assert_window(c, 2, 3)

    def test_left_heavy_family(self):
        f = family(2, [({"0"}, {"1"}), ({"01"}, set())])
        c = wmu_expanded(f, 3, 1, strict=True)
        assert c.sorted_words() == ["0110", "0111"]
        assert_window(c, 2, 3)

    def test_zero_padding_equals_layered(self):
        f = family(2, [({"0"}, {"1"}), (set(), {"01"})])
        assert wmu_expanded(f, 3, 0).words == non_overlapping(f, 3).words


class TestPad:
    def test_example(self):
        c = pad_t1t2(code(2, 3, {"001"}), 2, 3)
        assert c.sorted_words() == ["0010", "0011"]
        assert_window(c, 2, 3)

    def test_identity_when_t1_is_one(self):
        x = code(2, 3, {"001"})
        assert pad_t1t2(x, 1, 2).words == x.words

    def test_window_2_2(self):
        x = code(2, 4, {"0001", "0011"})
        c = pad_t1t2(x, 2, 2)
        assert len(c) == 4 and c.n == 5
        assert_window(c, 2, 2)

    def test_refuses_bad_base(self):
        with pytest.raises(ValueError, match="not"):
            pad_t1t2(code(2, 4, {"0111", "0011"}), 2, 3)


class TestExpandedT1T2:
    def test_ternary_example(self):
        c = t1t2_expanded(EXAMPLE_FAMILY, 4, 2, 2)
        expected = {"0212"} | {w + s for w in ("012", "112", "022")
                               for s in "012"}
        assert c.words == expected and len(c) == 10
        assert_window(c, 2, 2)

    def test_binary_example(self):
        c = t1t2_expanded(PAD_FAMILY, 4, 2, 2)
        assert c.sorted_words() == ["0010", "0011"]

    def test_reduces_to_one_k(self):
        c = t1t2_expanded(EXAMPLE_FAMILY, 4, 1, 2)
        assert c.words == overlap_free_1k(EXAMPLE_FAMILY, 4, 2).words

    def test_contains_padded_base(self):
        # the expansion keeps everything the simple padding construction has
        for f in enumerate_families(2, 2):
            for n in (4, 5):
                for t1 in (2,):
                    t2 = 2
                    if t1 + t2 > n:
                        continue
                    base = overlap_free_1k(f, n - t1 + 1, t2)
                    padded = pad_t1t2(base, t1, t2)
                    expanded = t1t2_expanded(f, n, t1, t2)
                    assert padded.words <= expanded.words


class TestSimultaneous:
    def test_minimal(self):
        f = family(2, [({"0"}, {"1"})])
        c = simultaneous(f, 4, 1, strict=True)
        assert c.sorted_words() == ["0101", "0111"]
        assert_window(c, 1, 1)
        assert_window(c, 3, 3)

    def test_balanced(self):
        f = balanced_family(2, 1, 2, "L_empty")
        c = simultaneous(f, 5, 2, strict=True)
        assert c.sorted_words() == ["00101", "00111"]
        assert_window(c, 1, 2)
        assert_window(c, 3, 4)
        assert simultaneous_size(f, 5, 2) == 2

    def test_no_middle_at_boundary(self):
        f = family(3, [({"0"}, {"1", "2"})])
        c = simultaneous(f, 3, 1, strict=True)
        assert c.n == 3
        assert_window(c, 1, 1)
        assert_window(c, 2, 2)

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            simultaneous(balanced_family(2, 1, 2, "L_empty"), 4, 2)


class TestLiftProject:
    def test_example(self):
        c = code(2, 4, {"0011"}, window=(1, 2))
        lifted = lift_code(c, 5)
        assert lifted.sorted_words() == ["00011", "00111"]
        assert_window(lifted, 1, 2)

    def test_round_trip(self):
        c = code(2, 4, {"0011", "0001"}, window=(1, 2))
        assert project_code(lift_code(c, 6)).words == c.words

    def test_size_multiplier(self):
        c = code(3, 4, {"0012", "0112"}, window=(1, 2))
        assert len(lift_code(c, 6)) == 2 * 3 ** 2

    def test_requires_window(self):
        with pytest.raises(ValueError):
            lift_code(code(2, 4, {"0011"}), 5)

    def test_projection_keeps_the_window(self):
        # t2 comes from the window: a (1, 3) code projects to length 6, where
        # the window still holds, and lifts back to itself
        c = max_code(2, 8, 1, 3).code
        projected = project_code(c)
        assert (projected.n, len(projected), projected.window) == (6, 6, (1, 3))
        assert_window(projected, 1, 3)
        assert lift_code(projected, 8) == c
        with pytest.raises(ValueError, match="must declare its overlap window"):
            project_code(code(2, 8, c.words))


def test_unique_index_within_layered_code():
    # each generated word lands in exactly one L_i R_(n-i) slice
    for f in enumerate_families(3, 2):
        n = 3
        slices = [(f.left(i), f.right(n - i)) for i in range(1, n)]
        c = non_overlapping(f, n, strict=True)
        for w in c.words:
            hits = sum(1 for i, (li, ri) in enumerate(slices, start=1)
                       if w[:i] in li and w[i:] in ri)
            assert hits == 1


def test_no_proper_prefix_crosses_sides():
    # over the pooled family-plus-code word set, no proper prefix of one
    # element appears as a proper suffix of another
    for f in enumerate_families(2, 3):
        n = 4
        c = non_overlapping(f, n, strict=True)
        pool = set(c.words)
        for i in range(1, f.depth + 1):
            pool |= set(f.left(i)) | set(f.right(i))
        for u in pool:
            for v in pool:
                for t in range(1, min(len(u), len(v))):
                    assert u[:t] != v[len(v) - t:], (u, v, t)


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_d1_d2_expansion_identities(q, k):
    for f in enumerate_families(q, k):
        base = non_overlapping_size(f, k + 1)
        d1 = code_size_1k(f, k + 2, k)
        cross1 = sum(len(f.left(i)) * len(f.right(k + 2 - i))
                     for i in range(2, k + 1))
        assert d1 == q * base + cross1
        assert d1 >= q * base
        if k >= 2:
            d2 = code_size_1k(f, k + 3, k)
            cross2 = sum(len(f.left(i)) * len(f.right(k + 3 - i))
                         for i in range(3, k + 1))
            assert d2 == q ** 2 * base + q * cross1 + cross2
            assert d2 >= q ** 2 * base


def test_strict_mode_flags_duplicates():
    # two of this family's (2, 3) terms at n = 6 both give 001011
    f = family(2, [({"0"}, {"1"}), (set(), {"01"}), ({"001"}, set())])
    with pytest.raises(DisjointnessViolation, match=r"8 generated, 7 distinct"):
        t1t2_expanded(f, 6, 2, 3, strict=True)
    with pytest.warns(UserWarning, match=r"not disjoint"):
        assert len(t1t2_expanded(f, 6, 2, 3)) == 7


def test_size_cap():
    # 36^5 words predicted: the cap raises before any word is filled
    with pytest.raises(CodeTooLarge, match="more than 10000000 words"):
        pad_t1t2(code(36, 2, {"01"}), 6, 6)


def test_run_construction_dispatch():
    spec = ConstructionSpec(kind="OneK", n=4, family=PAD_FAMILY, k=2)
    c = run_construction(spec)
    assert len(c) == 2
    assert claimed_windows(spec) == [(1, 2)]

    spec = ConstructionSpec(kind="Simultaneous", n=4,
                            family=family(2, [({"0"}, {"1"})]), k=1)
    assert claimed_windows(spec) == [(1, 1), (3, 3)]
    c = run_construction(spec)
    assert len(c) == 2

    with pytest.raises(ValueError):
        run_construction(ConstructionSpec(kind="Bogus", n=3))


DEPTH3 = family(2, [({"0"}, {"1"}), (set(), {"01"}), (set(), {"001"})])
KIND_EXAMPLES = {
    "NonOverlapping": dict(n=4, family=DEPTH3),
    "OneK": dict(n=5, family=DEPTH3, k=2),
    "WMU": dict(n=4, family=DEPTH3, k=1),
    "PadT1T2": dict(n=5, family=DEPTH3, t1=2, t2=2),
    "ExpandedT1T2": dict(n=5, family=DEPTH3, t1=2, t2=2),
    "Simultaneous": dict(n=5, family=DEPTH3, k=2),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_verifies_its_claimed_windows(kind):
    spec = ConstructionSpec(kind=kind, **KIND_EXAMPLES[kind])
    c = run_construction(spec)
    assert len(c) > 0
    windows = claimed_windows(spec)
    assert windows
    for t1, t2 in windows:
        assert_window(c, t1, t2)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_missing_field_is_named(kind):
    for field in KINDS[kind].fields:
        with pytest.raises(ValueError, match=f"{kind} requires {field}"):
            ConstructionSpec(kind=kind, **{**KIND_EXAMPLES[kind], field: None})


# a value of the right type for each optional spec field
FIELD_VALUES = dict(family=DEPTH3, code=code(2, 4, {"0001"}), k=1, t1=1, t2=1)


@pytest.mark.parametrize("kind,field", [
    (kind, field) for kind in sorted(KINDS) for field in FIELD_VALUES
    if field not in KIND_EXAMPLES[kind]
    and not (kind == "PadT1T2" and field in ("family", "code"))])
def test_unread_field_is_refused(kind, field):
    with pytest.raises(ValueError, match=f"^{kind} does not read {field}$"):
        ConstructionSpec(kind=kind, **KIND_EXAMPLES[kind],
                         **{field: FIELD_VALUES[field]})


def test_pad_needs_family_or_code():
    neither = {}
    both = dict(family=DEPTH3, code=code(2, 4, {"0001"}))
    for sources in (neither, both):
        with pytest.raises(ValueError, match="family or a base code, "
                                             "not both"):
            ConstructionSpec(kind="PadT1T2", n=5, t1=2, t2=2, **sources)


# specs on PAD_FAMILY whose builder refuses their arguments, each with that
# builder call and its text; claimed_windows once answered for all of them
BUILDER_REFUSALS = [
    (dict(kind="OneK", n=4, k=7), lambda f: overlap_free_1k(f, 4, 7),
     "overlap window must satisfy 1 <= t1 <= t2 <= n-1, got t1=1, t2=7, n=4"),
    (dict(kind="Simultaneous", n=4, k=3), lambda f: simultaneous(f, 4, 3),
     "simultaneous: requires 1 <= k < n/2"),
    (dict(kind="WMU", n=3, k=5), lambda f: wmu_expanded(f, 3, 5),
     "wmu_expanded: k must satisfy 0 <= k <= n-2"),
    (dict(kind="ExpandedT1T2", n=4, t1=3, t2=2),
     lambda f: t1t2_expanded(f, 4, 3, 2),
     "overlap window must satisfy 1 <= t1 <= t2 <= n-1, got t1=3, t2=2, n=4"),
    (dict(kind="NonOverlapping", n=1), lambda f: non_overlapping(f, 1),
     "block length must be >= 2"),
    (dict(kind="NonOverlapping", n=5), lambda f: non_overlapping(f, 5),
     "overlap_free_1k: family depth 2 < required 4"),
    # the base of a padded length-7 code is the (1, 2) code of length 6
    (dict(kind="PadT1T2", n=7, t1=2, t2=2),
     lambda f: overlap_free_1k(f, 6, 2),
     "overlap_free_1k: family depth 2 < required 3"),
    # a given base code must pass its own (1, min(t2, n - 1)) window
    (dict(kind="PadT1T2", n=4, t1=2, t2=2, family=None,
          code=code(2, 3, {"010"})),
     lambda f: pad_t1t2(code(2, 3, {"010"}), 2, 2),
     "pad_t1t2: base code is not (1,2)-overlap-free: "
     "prefix of '010' is a suffix of '010' at t=1"),
]


@pytest.mark.parametrize("spec,build,complaint", BUILDER_REFUSALS,
                         ids=[f"{s['kind']}-n{s['n']}"
                              for s, _, _ in BUILDER_REFUSALS])
def test_spec_refuses_what_its_builder_refuses(spec, build, complaint):
    # claimed_windows cannot answer for a spec that run_construction refuses
    with pytest.raises(ValueError) as built:
        build(PAD_FAMILY)
    with pytest.raises(ValueError) as refused:
        ConstructionSpec(**{"family": PAD_FAMILY, **spec})
    assert str(refused.value) == str(built.value) == complaint


def test_pad_length_must_follow_the_base_code():
    base = code(2, 3, {"001"})
    with pytest.raises(ValueError, match="= 4, got 9"):
        ConstructionSpec(kind="PadT1T2", n=9, t1=2, t2=3, code=base)
    assert run_construction(ConstructionSpec(
        kind="PadT1T2", n=4, t1=2, t2=3, code=base)).n == 4


@pytest.mark.parametrize("n,t", [(3, 3), (2, 2)])
def test_pad_from_family_names_the_spec_window(n, t):
    # the base built from the family would have length n - t + 1 = 1; the
    # spec refuses its own window when it is built
    with pytest.raises(ValueError, match=f"^overlap window must satisfy "
                                         f"1 <= t1 <= t2 <= n-1, got t1={t}, "
                                         f"t2={t}, n={n}$"):
        ConstructionSpec(kind="PadT1T2", n=n, family=DEPTH3, t1=t, t2=t)


def test_valid_spec_is_checked_once_at_construction(monkeypatch):
    calls = []
    real = ConstructionSpec.__post_init__

    def counting(spec):
        calls.append(spec.kind)
        return real(spec)

    monkeypatch.setattr(ConstructionSpec, "__post_init__", counting)
    for kind in sorted(KINDS):
        spec = ConstructionSpec(kind=kind, **KIND_EXAMPLES[kind])
        assert calls == [kind]
        # consumers take the spec's validity from its type
        claimed_windows(spec)
        run_construction(spec)
        assert calls == [kind]
        calls.clear()


def test_pad_from_family_matches_layered_base():
    # a window reaching past the base length pads the non-overlapping code
    spec = ConstructionSpec(kind="PadT1T2", n=5, family=DEPTH3, t1=2, t2=3)
    assert run_construction(spec).words == pad_t1t2(
        non_overlapping(DEPTH3, 4), 2, 3).words


def looped_t1t2_terms(f, n, t1, t2):
    """_t1t2_terms with every factor looked up per term: the reference for
    its term order."""
    for pad in range(0, t1):
        sigma = (frozenset(DIGITS[:f.q]),) * pad
        for s in range(t1 + t2 - pad, n - pad + 1):
            j_lo, j_hi = s - t2, t2
            if j_lo > j_hi:
                continue
            for alpha in compositions(n - pad - s):
                for i in range(0, len(alpha) + 1):
                    for j in range(j_lo, j_hi + 1):
                        yield (tuple(f.left(a) for a in alpha[:i])
                               + (f.left(j), f.right(s - j))
                               + tuple(f.right(a) for a in alpha[i:])
                               + sigma)


TERM_FAMILIES = (list(enumerate_families(2, 4))[::3]
                 + list(enumerate_families(3, 4))[::2500]
                 + [balanced_family(3, 1, 4, "R_empty")])


@pytest.mark.parametrize("n,t1,t2", [(2, 1, 1), (4, 1, 2), (5, 1, 4),
                                     (5, 2, 2), (6, 2, 3), (7, 1, 3),
                                     (7, 3, 4), (8, 2, 4)])
def test_t1t2_terms_match_looped_generator(n, t1, t2):
    for f in TERM_FAMILIES:
        assert (list(_t1t2_terms(f, n, t1, t2))
                == list(looped_t1t2_terms(f, n, t1, t2)))

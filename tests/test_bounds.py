import re
from dataclasses import replace
from fractions import Fraction

import pytest

from overlapcodes.bounds import (BoundInconsistency, bound_report,
                                 exact_values, lower_bounds, round_nearest,
                                 simultaneous_lower, upper_bounds)
from overlapcodes.search import max_code
from overlapcodes.words import primitive_count


def rule_value(entries, rule):
    got = [e.value for e in entries if e.rule == rule]
    assert got, f"rule {rule} did not fire"
    return got[0]


def rules_fired(entries):
    return {e.rule for e in entries}


class TestUpper:
    def test_full_window_rules(self):
        entries = upper_bounds(2, 4, 1, 3)
        assert rule_value(entries, "classic-ratio") == 1
        assert rule_value(entries, "primitive-words") == 3
        assert min(e.value for e in entries) == 1

    def test_primitive_rule(self):
        entries = upper_bounds(2, 5, 1, 3)
        assert rule_value(entries, "primitive-words") == 6
        assert primitive_count(2, 5) == 30

    def test_placement_count(self):
        # floor((2n - t1 - t2)/(n - t2)) pairwise-conflicting slots
        entries = upper_bounds(2, 6, 2, 4)
        assert rule_value(entries, "placement-count") == \
            -(-2 ** 6 // 3) - 1  # divisor floor(6/2) = 3, strict
        entries = upper_bounds(2, 6, 1, 5)
        assert rule_value(entries, "placement-count") == \
            -(-2 ** 6 // 6) - 1

    def test_long_window_range_qualifier(self):
        # the cyclic count behind the full-right-window rule needs
        # 2 t1 <= n + 1; at (3, 4, 3, 3) a 30-word code exists, above the
        # unqualified value floor(81/3) = 27
        assert "long-window" in rules_fired(upper_bounds(3, 4, 2, 3))
        assert "long-window" not in rules_fired(upper_bounds(3, 4, 3, 3))
        assert max_code(3, 4, 3, 3).size == 30

    def test_short_window(self):
        entries = upper_bounds(2, 6, 1, 3)
        assert rule_value(entries, "short-window") == (2 ** 6 - 2 ** 3) // 6

    def test_reduction(self):
        entries = upper_bounds(2, 6, 1, 2)
        inner = min(e.value for e in upper_bounds(2, 4, 1, 2))
        assert rule_value(entries, "reduce-to-2t2") == 4 * inner


class TestLower:
    def test_window2(self):
        assert rule_value(lower_bounds(3, 4, 1, 2), "balanced-partition") == 12

    def test_small_alphabet_fallback(self):
        # q < k + 1 forces the split x = q - 1, which balanced-partition
        # reports on its own: one entry, value (q-1)^k q^(n-k-1)
        assert rule_value(lower_bounds(2, 4, 1, 3), "balanced-partition") == 1
        for q in range(2, 7):
            for n in range(2, 11):
                for t1 in range(1, n):
                    for t2 in range(t1, n):
                        k = t2 if t1 + t2 <= n else n - t1
                        if q >= k + 1:
                            continue
                        entries = lower_bounds(q, n, t1, t2)
                        assert "small-alphabet" not in rules_fired(entries)
                        assert rule_value(entries, "balanced-partition") == \
                            (q - 1) ** k * q ** (n - k - 1)

    def test_overfull_window_switches_k(self):
        # t1 + t2 > n re-pads from a fully non-overlapping base: k = n - t1
        entries = lower_bounds(3, 4, 2, 3)
        assert rule_value(entries, "balanced-partition") == \
            (3 - 2 * 3 // 3) * (2 * 3 // 3) ** 2 * 3 ** 1

    def test_general_window(self):
        assert rule_value(lower_bounds(3, 4, 2, 2), "balanced-partition") == 12

    def test_e_bound_diagnostic_runs(self):
        # (t2 + 1) | q branch: value must clear q^n / (e (t2+1))
        entries = lower_bounds(4, 6, 1, 3)
        value = rule_value(entries, "balanced-partition")
        e_hi = Fraction(2718281828459045236, 10 ** 18)
        assert Fraction(value) >= Fraction(4 ** 6) / (e_hi * 6)


class TestExact:
    def test_window2_closed_form(self):
        assert exact_values(2, 4, 1, 2).value == 2
        assert exact_values(3, 5, 1, 2).value == 36
        assert exact_values(2, 4, 1, 3) is None
        assert exact_values(2, 8, 1, 3) is None

    def test_rounding_helper(self):
        assert round_nearest(2, 3) == 1
        assert round_nearest(4, 3) == 1
        assert round_nearest(5, 3) == 2
        with pytest.raises(ArithmeticError):
            round_nearest(1, 2)


class TestSimultaneous:
    def test_values(self):
        assert simultaneous_lower(4, 5, 2) == 64
        assert simultaneous_lower(2, 6, 2) == 4
        assert simultaneous_lower(3, 4, 1) == 12

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            simultaneous_lower(3, 4, 2)


class TestReport:
    def test_pinched_bracket_is_exact(self):
        report = bound_report(2, 4, 1, 2)
        assert report.best_lower == report.best_upper == report.exact == 2
        report = bound_report(2, 4, 1, 3)
        assert report.best_lower == report.best_upper == report.exact == 1

    def test_entries_carry_rules(self):
        report = bound_report(3, 5, 1, 2)
        kinds = {(e.rule, e.kind) for e in report.entries}
        assert ("window2-exact", "exact") in kinds
        assert ("balanced-partition", "lower") in kinds

    def test_monotone_in_t2_for_fixed_rule(self):
        # widening the window cannot raise the balanced-partition value
        for q in (2, 3):
            for n in (5, 6):
                values = [rule_value(lower_bounds(q, n, 1, t2),
                                     "balanced-partition")
                          for t2 in range(1, n)]
                assert all(a >= b for a, b in zip(values, values[1:]))


class TestFatal:
    """Each BoundInconsistency names its rules or bracket and the window.
    No correct rule set trips them, so each is forced by patching a rule
    or the rational e."""

    WINDOW = (3, 5, 1, 2)
    WHERE = "(q=3, n=5, t1=1, t2=2)"

    def test_e_bound_below_its_floor(self, monkeypatch):
        # (t2 + 1) | q runs the check; a zero e puts every value below it
        monkeypatch.setattr("overlapcodes.bounds._E_LOWER", Fraction(0))
        with pytest.raises(BoundInconsistency, match=re.escape(
                "balanced-partition value 432 fell below q^n/(e*6) "
                "at q=4, n=6")):
            bound_report(4, 6, 1, 3)

    def test_lower_above_upper(self, monkeypatch):
        raised = [replace(e, value=e.value + 1000)
                  for e in lower_bounds(*self.WINDOW)]
        monkeypatch.setattr("overlapcodes.bounds.lower_bounds",
                            lambda *window: raised)
        hi = min(upper_bounds(*self.WINDOW), key=lambda e: e.value)
        with pytest.raises(BoundInconsistency, match=re.escape(
                f"lower rule balanced-partition={raised[0].value} exceeds "
                f"upper rule {hi.rule}={hi.value} at {self.WHERE}")):
            bound_report(*self.WINDOW)

    def test_exact_outside_the_bracket(self, monkeypatch):
        exact = exact_values(*self.WINDOW)
        monkeypatch.setattr("overlapcodes.bounds.exact_values",
                            lambda *window: replace(exact, value=10 ** 6))
        lo = max(e.value for e in lower_bounds(*self.WINDOW))
        hi = min(e.value for e in upper_bounds(*self.WINDOW))
        with pytest.raises(BoundInconsistency, match=re.escape(
                f"exact rule window2-exact=1000000 escapes the bracket "
                f"[{lo}, {hi}] at {self.WHERE}")):
            bound_report(*self.WINDOW)


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 4)])
def test_exact_rules_match_search(q, n):
    for t1 in range(1, n):
        for t2 in range(t1, n):
            report = bound_report(q, n, t1, t2)
            if report.exact is not None:
                assert max_code(q, n, t1, t2).size == report.exact

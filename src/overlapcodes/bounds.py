"""Upper bounds, lower bounds, and exact values for the maximum size of a
(t1, t2)-overlap-free code, with rule attribution.

Every rule is evaluated in exact integer/rational arithmetic.  Strict real
bounds ``S < v`` are reported as ``ceil(v) - 1``, which equals ``floor(v)``
unless v is attained exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import check_alphabet, check_window, primitive_count

# rational lower enclosure of e; exact comparisons only, never floats
_E_LOWER = Fraction(2718281828459045235, 10 ** 18)


class BoundInconsistency(RuntimeError):
    """A lower bound exceeded an upper bound, or an exact value escaped the
    bracket; names both rules."""


@dataclass(frozen=True)
class BoundEntry:
    rule: str
    kind: str  # "upper" | "lower" | "exact"
    value: int
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    q: int
    n: int
    t1: int
    t2: int
    entries: tuple[BoundEntry, ...]
    best_lower: int
    best_upper: int
    exact: int | None


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def round_nearest(num: int, den: int) -> int:
    """Round num/den to the nearest integer, rejecting exact halves (the
    formulas using this never produce them)."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    if (2 * num) % (2 * den) == den:
        raise ArithmeticError(f"{num}/{den} is an exact half; rounding ambiguous")
    return (2 * num + den) // (2 * den)


def _check(q: int, n: int, t1: int, t2: int) -> None:
    check_alphabet(q)
    check_window(n, t1, t2)


def upper_bounds(q: int, n: int, t1: int, t2: int) -> list[BoundEntry]:
    """Every applicable upper-bound rule for S(q, n, t1, t2)."""
    _check(q, n, t1, t2)
    entries: list[BoundEntry] = []

    if t1 == 1 and t2 == n - 1:
        value = ((n - 1) ** (n - 1) * q ** n) // n ** n
        entries.append(BoundEntry("classic-ratio", "upper", value,
                                  "((n-1)/n)^(n-1) q^n / n, non-overlapping case"))

    if t2 == n - 1 and 2 * t1 <= n + 1:
        # cyclic placement count; needs cyclic length 2n-2t1+1 >= n, i.e.
        # t1 <= (n+1)/2 (a 30-word witness at q=3, n=4, window (3,3) breaks
        # the unqualified form)
        value = q ** n // (2 * n - 2 * t1 + 1)
        entries.append(BoundEntry("long-window", "upper", value,
                                  "q^n / (2n - 2 t1 + 1), full right window"))

    if t1 == 1 and 2 * t2 <= n:
        value = (q ** n - q ** (n - t2)) // (2 * t2)
        entries.append(BoundEntry("short-window", "upper", value,
                                  "(q^n - q^(n-t2)) / (2 t2), short left window"))

    # linear placement count: floor((n-t1)/(n-t2)) + 1 pairwise-conflicting
    # codeword slots at (n-t2)-steps in a word of length 2n-t1
    divisor = (2 * n - t1 - t2) // (n - t2)
    value = _ceil_div(q ** n, divisor) - 1
    entries.append(BoundEntry("placement-count", "upper", value,
                              f"strict bound q^n / {divisor} from codeword "
                              "placements at (n-t2)-steps"))

    if t1 == 1 and 2 * t2 >= n:
        value = primitive_count(q, n) // n
        entries.append(BoundEntry("primitive-words", "upper", value,
                                  "distinct primitive cyclic shifts"))

    if n > 2 * t2:
        inner = min(e.value for e in upper_bounds(q, 2 * t2, t1, t2)
                    if e.kind == "upper")
        value = q ** (n - 2 * t2) * inner
        entries.append(BoundEntry("reduce-to-2t2", "upper", value,
                                  f"q^(n-2t2) times the bound at n={2 * t2}"))
    return entries


def _assert_e_bound(value: int, q: int, n: int, divisor: int) -> None:
    # certified check value >= q^n / (e * divisor) using a rational e
    if Fraction(value) * _E_LOWER * divisor < q ** n:
        raise BoundInconsistency(
            f"balanced-partition value {value} fell below q^n/(e*{divisor}) "
            f"at q={q}, n={n}")


def lower_bounds(q: int, n: int, t1: int, t2: int) -> list[BoundEntry]:
    """The lower-bound rule: the padded balanced-partition construction,
    (q - x) x^k q^(n-k-1) with x = floor(kq/(k+1)).  On small alphabets
    this is the split x = q - 1: q < k + 1 gives 0 < q/(k+1) < 1, so
    floor(kq/(k+1)) = floor(q - q/(k+1)) = q - 1."""
    _check(q, n, t1, t2)
    k = t2 if t1 + t2 <= n else n - t1
    x = k * q // (k + 1)
    value = (q - x) * x ** k * q ** (n - k - 1)
    if q % (k + 1) == 0:
        _assert_e_bound(value, q, n, n)
        if t1 + t2 <= n:
            _assert_e_bound(value, q, n, t2 + 1)
    return [BoundEntry("balanced-partition", "lower", value,
                       f"k={k}, split x={x}, padded construction")]


def exact_values(q: int, n: int, t1: int, t2: int) -> BoundEntry | None:
    """The exact rule: the closed form for window (1, 2) at n >= 4."""
    _check(q, n, t1, t2)
    if t1 == 1 and t2 == 2 and n >= 4:
        r = round_nearest(q, 3)
        return BoundEntry("window2-exact", "exact", r * (q - r) ** 2 * q ** (n - 3),
                          "closed form for window (1,2)")
    return None


def simultaneous_lower(q: int, n: int, k: int) -> int:
    """Lower bound on the maximum size of a code that is both (1, k)- and
    (n-k, n-1)-overlap-free, for k < n/2.  k = 1 has its own closed form."""
    check_alphabet(q)
    if not 1 <= k or not 2 * k < n:
        raise ValueError("simultaneous_lower: requires 1 <= k < n/2")
    if k == 1:
        return (q - 1) ** 2 * q ** (n - 3)
    x = q * k // (k + 2)
    return x ** k * (q - x) ** 2 * q ** (n - k - 2)


def bound_report(q: int, n: int, t1: int, t2: int) -> BoundReport:
    """Aggregate all rules; flags any lower/upper inversion as fatal."""
    uppers = upper_bounds(q, n, t1, t2)
    lowers = lower_bounds(q, n, t1, t2)
    exact = exact_values(q, n, t1, t2)
    entries = tuple(lowers + uppers + ([exact] if exact else []))

    best_lower = max(e.value for e in lowers)
    best_upper = min(e.value for e in uppers)
    if best_lower > best_upper:
        lo = max(lowers, key=lambda e: e.value)
        hi = min(uppers, key=lambda e: e.value)
        raise BoundInconsistency(
            f"lower rule {lo.rule}={lo.value} exceeds upper rule "
            f"{hi.rule}={hi.value} at (q={q}, n={n}, t1={t1}, t2={t2})")
    if exact is not None:
        if not best_lower <= exact.value <= best_upper:
            raise BoundInconsistency(
                f"exact rule {exact.rule}={exact.value} escapes the bracket "
                f"[{best_lower}, {best_upper}] at (q={q}, n={n}, t1={t1}, t2={t2})")
        best_lower = best_upper = exact.value
    exact_value = exact.value if exact else None
    if exact_value is None and best_lower == best_upper:
        exact_value = best_lower  # the bracket pinches
    return BoundReport(q=q, n=n, t1=t1, t2=t2, entries=entries,
                       best_lower=best_lower, best_upper=best_upper,
                       exact=exact_value)

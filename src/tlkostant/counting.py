"""Closed-form counts, their recursions, and exact ratio tables.

Four families are tabulated by a-value: ki (positive involutions), mi
(all involutions), k (all positive elements), m (all elements), where
"positive" means the classifier accepts.  Every formula here is mirrored
by a brute-force counter so the two can be diffed entrywise.  mi is the
ballot number f^(n-a,a) = C(n,a) - C(n,a-1); ``hook_length_count`` is
the general formula it agrees with.

All arithmetic is exact: integers throughout, fractions for ratios.
``fractions`` is imported only by ``ratio_report``, the one place that
builds a Fraction, so importing the package does not load it.
"""

from __future__ import annotations

from math import comb, factorial

from .diagrams import arc_count, diagram_of_fc
from .kostant import _separated
from .laurent import LaurentPoly
from .permutations import _Record, _fc_elements


def catalan(n: int) -> int:
    """The n-th Catalan number.

    >>> [catalan(k) for k in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise ValueError(f"expected n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


def fibonacci_polynomial(n: int) -> LaurentPoly:
    """F_0 = 1, F_1 = x, F_n = x F_(n-1) + F_(n-2).

    >>> fibonacci_polynomial(4)
    LaurentPoly('q^4 + 3*q^2 + 1')
    >>> fibonacci_polynomial(10).evaluate_at_one()
    89
    """
    if n < 0:
        raise ValueError(f"expected n >= 0, got {n}")
    prev, cur = LaurentPoly.one(), LaurentPoly.monomial(1, 1)
    if n == 0:
        return prev
    x = LaurentPoly.monomial(1, 1)
    for _ in range(n - 1):
        prev, cur = cur, x * cur + prev
    return cur


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Standard fillings of a partition shape, by the hook formula.

    >>> hook_length_count((3, 2))
    5
    """
    if not shape or list(shape) != sorted(shape, reverse=True) \
            or any(r <= 0 for r in shape):
        raise ValueError(f"not a partition: {shape}")
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    product = 1
    for i, row in enumerate(shape):
        for j in range(row):
            product *= (row - j) + (cols[j] - i) - 1
    return factorial(sum(shape)) // product


def ki_of(n: int, a: int) -> int:
    """Positive involutions of rank n with a arcs."""
    return comb(n - a, a)


def mi_of(n: int, a: int) -> int:
    """Involutions of rank n with a arcs: fillings of (n-a, a).

    By the ballot-number identity f^(n-a,a) = C(n,a) - C(n,a-1), which is
    the hook formula for a two-row shape.
    """
    if a == 0:
        return 1
    if 2 * a > n:
        return 0
    return comb(n, a) - comb(n, a - 1)


class CountTable(_Record):
    """Counts of rank n bucketed by a-value.

    by_a maps a to (ki, mi, k, m); totals holds the four column sums.
    """

    __slots__ = ("n", "by_a", "totals")
    n: int
    by_a: dict[int, tuple[int, int, int, int]]
    totals: tuple[int, int, int, int]


def _table(n: int, rows: dict) -> CountTable:
    clean = {a: rows[a] for a in sorted(rows)}
    totals = tuple(sum(r[c] for r in clean.values()) for c in range(4))
    return CountTable(n, clean, totals)


def counts_by_formula(n: int) -> CountTable:
    """All four families from closed formulas.

    >>> counts_by_formula(4).totals
    (5, 6, 12, 14)
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    rows = {}
    for a in range(n // 2 + 1):
        ki, mi = ki_of(n, a), mi_of(n, a)
        rows[a] = (ki, mi, ki * mi, mi * mi)
    return _table(n, rows)


def counts_by_bruteforce(n: int) -> CountTable:
    """The same table by enumerating and classifying every element.

    Each element's diagram is built once and gives both numbers: its arc
    count is the a-value, and ``kostant._separated`` of it is the verdict,
    the same predicate ``is_kostant`` decides with.  Only the verdict is
    read, so no witness is built.  Elements are streamed, not listed.

    >>> counts_by_bruteforce(4) == counts_by_formula(4)
    True
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    rows = {a: [0, 0, 0, 0] for a in range(n // 2 + 1)}
    for w in _fc_elements(n):
        diagram = diagram_of_fc(w)
        positive = _separated(diagram)
        involution = w.is_involution()
        row = rows[arc_count(diagram)]
        row[0] += positive and involution
        row[1] += involution
        row[2] += positive
        row[3] += 1
    return _table(n, {a: tuple(r) for a, r in rows.items()})


class RecursionReport(_Record):
    __slots__ = ("n_max", "checks", "failures")
    n_max: int
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def recursion_checks(n_max: int) -> RecursionReport:
    """Exercise the two counting recursions and the polynomial identity.

    For each n up to n_max: ki_n^a = ki_(n-1)^a + ki_(n-2)^(a-1); the
    involution total satisfies mi_n = mi_(n-1) + sum of C_(i-1) mi_(n-2i);
    and sum_a ki_n^a x^(n-2a) is the n-th Fibonacci polynomial.  F_n is
    carried forward, F_n = x F_(n-1) + F_(n-2), so each n costs one
    Laurent step; ``fibonacci_polynomial`` is the reference it is tested
    against.
    """
    if n_max < 3:
        raise ValueError(f"expected n_max >= 3, got {n_max}")
    failures = []
    checks = 0
    mi_total = lambda n: comb(n, n // 2)  # noqa: E731
    x = LaurentPoly.monomial(1, 1)
    fib_prev, fib = x, x * x + LaurentPoly.one()  # F_1, F_2
    for n in range(3, n_max + 1):
        fib_prev, fib = fib, x * fib + fib_prev
        for a in range(n // 2 + 1):
            checks += 1
            if ki_of(n, a) != ki_of(n - 1, a) + (ki_of(n - 2, a - 1) if a else 0):
                failures.append(f"ki recursion at n={n} a={a}")
        checks += 1
        recursed = mi_total(n - 1) + sum(
            catalan(i - 1) * mi_total(n - 2 * i) for i in range(1, n // 2 + 1)
        )
        if mi_total(n) != recursed:
            failures.append(f"mi recursion at n={n}")
        checks += 1
        poly = LaurentPoly.zero()
        for a in range(n // 2 + 1):
            poly = poly + LaurentPoly.monomial(n - 2 * a, ki_of(n, a))
        if poly != fib:
            failures.append(f"polynomial identity at n={n}")
    return RecursionReport(n_max, checks, tuple(failures))


class RatioRow(_Record):
    __slots__ = ("n", "ki_over_mi", "k_over_m", "fixed_a")
    n: int
    ki_over_mi: Fraction
    k_over_m: Fraction
    fixed_a: dict[int, Fraction]


class RatioReport(_Record):
    __slots__ = ("rows", "totals_decreasing_from_4", "fixed_a_nondecreasing")
    rows: tuple[RatioRow, ...]
    totals_decreasing_from_4: bool
    fixed_a_nondecreasing: dict[int, bool]


def ratio_report(n_max: int) -> RatioReport:
    """Exact ratio table with trend flags.

    Each row carries ki_n/mi_n, k_n/m_n and ki_n^a/mi_n^a for a up to 3.
    """
    from fractions import Fraction

    if n_max < 2:
        raise ValueError(f"expected n_max >= 2, got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        table = counts_by_formula(n)
        ki, mi, k, m = table.totals
        fixed = {}
        for a in (1, 2, 3):
            if mi_of(n, a):
                fixed[a] = Fraction(ki_of(n, a), mi_of(n, a))
        rows.append(RatioRow(n, Fraction(ki, mi), Fraction(k, m), fixed))
    decreasing = all(
        later.ki_over_mi < earlier.ki_over_mi
        for earlier, later in zip(rows, rows[1:])
        if earlier.n >= 4
    )
    nondecreasing = {}
    for a in (1, 2, 3):
        seq = [r.fixed_a[a] for r in rows if a in r.fixed_a and r.n >= 2 * a + 1]
        nondecreasing[a] = all(p <= q for p, q in zip(seq, seq[1:]))
    return RatioReport(tuple(rows), decreasing, nondecreasing)


def counts_json_dict(table: CountTable) -> dict:
    return {
        "n": table.n,
        "by_a": {
            str(a): {"ki": r[0], "mi": r[1], "k": r[2], "m": r[3]}
            for a, r in table.by_a.items()
        },
        "totals": {
            "ki": table.totals[0],
            "mi": table.totals[1],
            "k": table.totals[2],
            "m": table.totals[3],
        },
    }


def counts_csv_rows(table: CountTable) -> list[list]:
    rows = [["n", "a", "ki", "mi", "k", "m"]]
    for a, r in table.by_a.items():
        rows.append([table.n, a, *r])
    rows.append([table.n, "total", *table.totals])
    return rows


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def ratios_json_dict(report: RatioReport) -> dict:
    return {
        "rows": [
            {
                "n": r.n,
                "ki_over_mi": _frac_str(r.ki_over_mi),
                "k_over_m": _frac_str(r.k_over_m),
                "fixed_a": {str(a): _frac_str(f) for a, f in r.fixed_a.items()},
            }
            for r in report.rows
        ],
        "totals_decreasing_from_4": report.totals_decreasing_from_4,
        "fixed_a_nondecreasing": {
            str(a): flag for a, flag in report.fixed_a_nondecreasing.items()
        },
    }


def ratios_csv_rows(report: RatioReport) -> list[list]:
    rows = [["n", "ki/mi", "k/m", "ki1/mi1", "ki2/mi2", "ki3/mi3"]]
    for r in report.rows:
        rows.append([
            r.n,
            _frac_str(r.ki_over_mi),
            _frac_str(r.k_over_m),
            *(
                _frac_str(r.fixed_a[a]) if a in r.fixed_a else ""
                for a in (1, 2, 3)
            ),
        ])
    return rows


if __name__ == "__main__":
    import doctest

    doctest.testmod()

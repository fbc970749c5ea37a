"""Exact counting: closed forms against brute classification."""

import math
from fractions import Fraction

import pytest

from tlkostant import (
    LaurentPoly,
    a_value,
    arc_count,
    catalan,
    counts_by_bruteforce,
    counts_by_formula,
    diagram_of_fc,
    enumerate_fc,
    fibonacci_polynomial,
    hook_length_count,
    is_kostant,
    ki_of,
    mi_of,
    ratio_report,
    recursion_checks,
)
from tlkostant import kostant
from tlkostant.counting import CountTable
from tlkostant.permutations import _two_row_tableaux


def reference_counts(n):
    # reference for counts_by_bruteforce: the full classifier, which builds
    # a certificate per element, and a second RS pass for the a-value
    rows = {a: [0, 0, 0, 0] for a in range(n // 2 + 1)}
    for w in enumerate_fc(n):
        positive = is_kostant(w).positive
        involution = w.is_involution()
        row = rows[a_value(w)]
        row[0] += positive and involution
        row[1] += involution
        row[2] += positive
        row[3] += 1
    by_a = {a: tuple(r) for a, r in rows.items()}
    totals = tuple(sum(r[c] for r in by_a.values()) for c in range(4))
    return CountTable(n, by_a, totals)


def ratio_summand_form(n):
    # per-a summand shape: (n+1) ki^2 C(n,a) / (C(n-a+1,a) C(2n,n));
    # algebraically equal to summing k_n^a over the total element count
    total = Fraction(0)
    for a in range(n // 2 + 1):
        total += Fraction(
            (n + 1) * math.comb(n - a, a) ** 2 * math.comb(n, a),
            math.comb(n - a + 1, a) * math.comb(2 * n, n),
        )
    return total


def fixed_a_closed_form(n, a):
    num = den = 1
    for t in range(a):
        num *= n - a + 1 - t
        den *= n - t
    return Fraction(num, den)


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796


def test_fibonacci_polynomial_values():
    q = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    assert fibonacci_polynomial(1) == q
    assert fibonacci_polynomial(2) == q ** 2 + one
    assert fibonacci_polynomial(5) == (
        q ** 5 + LaurentPoly.monomial(3, 4) + LaurentPoly.monomial(1, 3)
    )
    assert [fibonacci_polynomial(n).evaluate_at_one()
            for n in range(1, 9)] == [1, 2, 3, 5, 8, 13, 21, 34]


def test_hook_length_examples():
    assert hook_length_count((5,)) == 1
    assert hook_length_count((2, 2)) == 2
    assert hook_length_count((2, 2, 1)) == 5
    assert hook_length_count((3, 3)) == 5


def test_hook_length_validation():
    with pytest.raises(ValueError):
        hook_length_count(())
    with pytest.raises(ValueError):
        hook_length_count((1, 2))
    with pytest.raises(ValueError):
        hook_length_count((2, 0))


@pytest.mark.parametrize("n", range(1, 11))
def test_hook_formula_matches_brute_tableau_enumeration(n):
    by_shape: dict[tuple[int, ...], int] = {}
    for t in _two_row_tableaux(n):
        by_shape[t.shape] = by_shape.get(t.shape, 0) + 1
    for a in range(n // 2 + 1):
        shape = (n - a, a) if a else (n,)
        assert hook_length_count(shape) == by_shape[shape]
        assert mi_of(n, a) == by_shape[shape]


def test_mi_ballot_number_matches_the_hook_formula():
    # mi_of's fast path against the general hook-length product
    for n in range(1, 201):
        for a in range(1, n // 2 + 1):
            assert mi_of(n, a) == hook_length_count((n - a, a)), (n, a)
        assert mi_of(n, 0) == 1
        assert mi_of(n, n // 2 + 1) == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_ki_is_binomial(n):
    for a in range(n // 2 + 1):
        assert ki_of(n, a) == math.comb(n - a, a)


@pytest.mark.parametrize("n", range(1, 11))
def test_formula_matches_bruteforce(n):
    assert counts_by_formula(n) == counts_by_bruteforce(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_bruteforce_matches_the_certificate_building_reference(n):
    assert counts_by_bruteforce(n) == reference_counts(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_arc_count_of_the_diagram_is_the_a_value(n):
    for w in enumerate_fc(n):
        assert arc_count(diagram_of_fc(w)) == a_value(w), w.images


def test_bruteforce_builds_no_witness(monkeypatch):
    def unreachable(d):
        raise AssertionError(f"witness built for {d.images}")

    monkeypatch.setattr(kostant, "negative_witness", unreachable)
    assert counts_by_bruteforce(6) == counts_by_formula(6)


@pytest.mark.parametrize("n", range(1, 13))
def test_column_totals(n):
    table = counts_by_formula(n)
    ki, mi, _, m = table.totals
    assert m == catalan(n)
    assert mi == math.comb(n, n // 2)
    assert ki == fibonacci_polynomial(n).evaluate_at_one()


def test_small_positive_counts():
    # total Kostant-positive elements, all of FC, at ranks 4, 5, 6
    assert counts_by_formula(4).totals[2] == 12
    assert counts_by_formula(5).totals[2] == 32
    assert counts_by_formula(6).totals[2] == 85


@pytest.mark.parametrize("n", range(1, 11))
def test_fc_count_is_catalan(n):
    assert len(enumerate_fc(n)) == catalan(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_fc_involution_count_is_central_binomial(n):
    assert len(enumerate_fc(n, involutions_only=True)) == \
        math.comb(n, n // 2)


def test_recursions_up_to_twelve():
    report = recursion_checks(12)
    assert report.ok
    assert report.failures == ()
    assert report.checks > 0
    with pytest.raises(ValueError):
        recursion_checks(2)


def test_recursions_to_sixty_match_the_fibonacci_reference():
    # the carried F_n against fibonacci_polynomial, rebuilt from F_0
    report = recursion_checks(60)
    assert report.ok
    assert report.checks == sum(k // 2 + 3 for k in range(3, 61))
    for n in range(3, 61):
        poly = LaurentPoly.zero()
        for a in range(n // 2 + 1):
            poly = poly + LaurentPoly.monomial(n - 2 * a, ki_of(n, a))
        assert poly == fibonacci_polynomial(n), n


def test_ratio_trends_and_pins():
    report = ratio_report(60)
    by_n = {row.n: row for row in report.rows}

    assert report.totals_decreasing_from_4
    assert report.fixed_a_nondecreasing == {1: True, 2: True, 3: True}

    # involution ratio first dips below 1/10 at n = 18
    assert by_n[17].ki_over_mi >= Fraction(1, 10)
    assert by_n[18].ki_over_mi < Fraction(1, 10)

    # one arc: always every involution is positive
    assert all(row.fixed_a[1] == 1 for row in report.rows if 1 in row.fixed_a)

    # two arcs: crosses 9/10 at n = 21; three arcs: at n = 59
    assert by_n[20].fixed_a[2] <= Fraction(9, 10) < by_n[21].fixed_a[2]
    assert by_n[58].fixed_a[3] <= Fraction(9, 10) < by_n[59].fixed_a[3]

    # the all-elements ratio decreases strictly from rank 4 on
    ks = [row.k_over_m for row in report.rows if row.n >= 4]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert by_n[30].k_over_m < Fraction(1, 100)


def test_ratio_rows_match_the_closed_forms():
    for row in ratio_report(60).rows:
        assert row.k_over_m == ratio_summand_form(row.n)
        for a, value in row.fixed_a.items():
            assert value == fixed_a_closed_form(row.n, a)


def test_ratio_report_rejects_tiny_bound():
    with pytest.raises(ValueError):
        ratio_report(1)


def test_ratio_row_values_match_the_tables():
    report = ratio_report(8)
    for row in report.rows:
        table = counts_by_formula(row.n)
        ki, mi, k, m = table.totals
        assert row.ki_over_mi == Fraction(ki, mi)
        assert row.k_over_m == Fraction(k, m)
        for a, value in row.fixed_a.items():
            ki_a, mi_a, _, _ = table.by_a[a]
            assert value == Fraction(ki_a, mi_a)

"""The positivity classifier: factorizations, witnesses, separation."""

import itertools

import pytest

from tlkostant import (
    Permutation,
    SpecialFactor,
    a_value,
    bottom_arcs,
    cells,
    decompose_into_specials,
    diagram_of_fc,
    enumerate_fc,
    flip,
    is_distant,
    is_kostant,
    left_cell_involution,
    maximal_parabolic_element,
    negative_witness,
    special_involution,
    theta_nonzero,
    top_arcs,
    word_to_permutation,
)
from tlkostant.algebra import leq_L, leq_R


def s(i, n):
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def test_special_factor_validation():
    SpecialFactor(1, 0, 2)
    SpecialFactor(2, 1, 4)
    with pytest.raises(ValueError):
        SpecialFactor(0, 0, 2)
    with pytest.raises(ValueError):
        SpecialFactor(2, 2, 4)  # j must leave room on both sides
    with pytest.raises(ValueError):
        SpecialFactor(1, 1, 4)
    with pytest.raises(ValueError):
        SpecialFactor(3, 0, 3)


def test_special_factor_word():
    f = SpecialFactor(2, 1, 4)
    assert f.word().letters == (2, 1, 3, 2)
    assert len(SpecialFactor(3, 2, 6).word().letters) == 9


@pytest.mark.parametrize("n,i,j", [
    (2, 1, 0), (4, 2, 1), (5, 2, 1), (6, 3, 2), (8, 4, 3), (8, 5, 2),
])
def test_special_involution_one_line(n, i, j):
    p = special_involution(i, j, n)
    assert p == word_to_permutation(SpecialFactor(i, j, n).word())
    for k in range(1, n + 1):
        if i - j <= k <= i:
            assert p(k) == k + j + 1
        elif i + 1 <= k <= i + j + 1:
            assert p(k) == k - j - 1
        else:
            assert p(k) == k
    assert p.is_involution()
    assert a_value(p) == j + 1


@pytest.mark.parametrize("n,i,j", [(4, 2, 1), (6, 3, 2), (7, 4, 2)])
def test_special_involution_diagram_is_a_nested_chain(n, i, j):
    d = diagram_of_fc(special_involution(i, j, n))
    chain = {(i - k, i + 1 + k) for k in range(j + 1)}
    assert top_arcs(d) == chain
    assert bottom_arcs(d) == chain
    assert flip(d) == d


def test_support_and_extended_support():
    f = SpecialFactor(3, 1, 6)
    assert f.support == frozenset({2, 3, 4, 5})
    assert f.extended_support == frozenset({1, 2, 3, 4, 5, 6})


def test_is_distant_examples():
    # in rank 4 the two simple arcs overlap in extended support
    assert not is_distant(SpecialFactor(1, 0, 4), SpecialFactor(3, 0, 4))
    assert is_distant(SpecialFactor(1, 0, 5), SpecialFactor(4, 0, 5))
    assert not is_distant(SpecialFactor(2, 1, 6), SpecialFactor(5, 0, 6))
    assert is_distant(SpecialFactor(2, 1, 7), SpecialFactor(6, 0, 7))
    with pytest.raises(ValueError):
        is_distant(SpecialFactor(1, 0, 4), SpecialFactor(1, 0, 5))


def test_decompose_examples():
    assert decompose_into_specials(Permutation.identity(4)) == ()
    assert decompose_into_specials(s(1, 3)) == (SpecialFactor(1, 0, 3),)
    assert decompose_into_specials(Permutation((2, 1, 4, 3))) is None
    assert decompose_into_specials(Permutation((2, 1, 3, 5, 4))) == (
        SpecialFactor(1, 0, 5), SpecialFactor(4, 0, 5),
    )
    assert decompose_into_specials(Permutation((3, 4, 1, 2))) == (
        SpecialFactor(2, 1, 4),
    )


def test_decompose_rejects_non_involutions():
    with pytest.raises(ValueError):
        decompose_into_specials(Permutation((2, 3, 1)))
    with pytest.raises(ValueError):
        decompose_into_specials(Permutation((3, 2, 1)))


@pytest.mark.parametrize("n", range(1, 9))
def test_factorization_rebuilds_the_involution(n):
    for d in enumerate_fc(n, involutions_only=True):
        factors = decompose_into_specials(d)
        if factors is None:
            continue
        acc = Permutation.identity(n)
        for f in factors:
            acc = acc * f.permutation()
        assert acc == d
        assert all(
            is_distant(f, g) for f, g in itertools.combinations(factors, 2)
        )
        assert a_value(d) == sum(f.j + 1 for f in factors)


@pytest.mark.parametrize("n", range(1, 9))
def test_classifier_equals_factorizability_on_involutions(n):
    for d in enumerate_fc(n, involutions_only=True):
        verdict = is_kostant(d)
        assert verdict.positive == (decompose_into_specials(d) is not None)
        if verdict.positive:
            assert verdict.factors is not None and verdict.witness is None
        else:
            assert verdict.factors is None
            x, y = verdict.witness
            assert x != y


def test_is_kostant_rejects_non_fc():
    with pytest.raises(ValueError):
        is_kostant(Permutation((3, 2, 1)))


@pytest.mark.parametrize("n", range(2, 8))
def test_verdict_is_constant_on_left_cells(n):
    for cell in cells(n, "left"):
        verdicts = {is_kostant(w).positive for w in cell}
        assert len(verdicts) == 1
        d = left_cell_involution(next(iter(cell)))
        assert verdicts == {is_kostant(d).positive}


def test_simplest_negative_witness():
    x, y = negative_witness(Permutation((2, 1, 4, 3)))
    assert x == s(1, 4)
    assert y == Permutation((4, 1, 2, 3))


def test_negative_witness_on_non_involution_goes_through_its_cell():
    w = Permutation((3, 1, 4, 2))  # FC, not an involution, negative
    assert not w.is_involution()
    verdict = is_kostant(w)
    assert not verdict.positive
    d = left_cell_involution(w)
    assert verdict.witness == negative_witness(d)


def test_negative_witness_rejects_positives():
    with pytest.raises(ValueError):
        negative_witness(Permutation((3, 4, 1, 2)))


@pytest.mark.parametrize("n", range(2, 8))
def test_witness_elements_are_nonvanishing_and_share_arc_counts(n):
    for d in enumerate_fc(n, involutions_only=True):
        if is_kostant(d).positive:
            continue
        x, y = negative_witness(d)
        assert x != y
        assert a_value(x) == a_value(y)
        assert theta_nonzero(x, d) and theta_nonzero(y, d)
        assert top_arcs(diagram_of_fc(x)) == top_arcs(diagram_of_fc(y))


@pytest.mark.parametrize("n", range(2, 9))
def test_maximal_parabolic_elements_are_positive(n):
    for i in range(n // 2 + 1):
        w = maximal_parabolic_element(n, i)
        assert a_value(w) == i
        assert is_kostant(w).positive
    with pytest.raises(ValueError):
        maximal_parabolic_element(n, n // 2 + 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_maximal_parabolic_middle_case_is_special(n):
    i = n // 2
    assert maximal_parabolic_element(n, i) == special_involution(i, i - 1, n)


def test_maximal_parabolic_length():
    # longest element of the parabolic quotient: i(n - i) inversions
    for n in range(2, 9):
        for i in range(n // 2 + 1):
            w = maximal_parabolic_element(n, i)
            assert w.inversions() == i * (n - i)


@pytest.mark.parametrize("n", range(3, 6))
def test_non_fc_input_is_rejected_with_the_same_message(n):
    fc = set(enumerate_fc(n))
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    bad = [p for p in perms if p not in fc]
    good = Permutation.identity(n)
    worst = Permutation(tuple(range(n, 0, -1)))  # never FC from rank 3

    def message(call):
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)

    for p in bad:
        expected = f"{p.images} is not fully commutative"
        for binary in (theta_nonzero, leq_L, leq_R):
            assert message(lambda: binary(p, good)) == expected
            assert message(lambda: binary(good, p)) == expected
            # both arguments bad: the first one is named
            assert message(lambda: binary(p, worst)) == expected
        for unary in (is_kostant, a_value, left_cell_involution,
                      decompose_into_specials, negative_witness):
            assert message(lambda: unary(p)) == expected
    for p in fc:
        if not p.is_involution():
            expected = f"{p.images} is not an involution"
            assert message(lambda: decompose_into_specials(p)) == expected
            assert message(lambda: negative_witness(p)) == expected

"""Permutations, words, full commutativity, and Robinson-Schensted."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from tlkostant import (
    Permutation,
    Word,
    a_value,
    enumerate_fc,
    is_fully_commutative,
    reduced_word,
    rs_inverse,
    rs_tableaux,
    word_to_permutation,
)
from tlkostant.permutations import _fc_elements

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(lambda images: Permutation(tuple(images)))


def brute_avoids_321(p):
    idx = range(p.n)
    return not any(
        p.images[i] > p.images[j] > p.images[k]
        for i, j, k in itertools.combinations(idx, 3)
    )


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert [e(k) for k in range(1, 5)] == [1, 2, 3, 4]


def test_validation_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


def test_product_applies_left_factor_first():
    s1 = Permutation((2, 1, 3))
    s2 = Permutation((1, 3, 2))
    # (u * v)(k) = v(u(k)): first swap positions 1,2 then 2,3.
    assert (s1 * s2).images == (3, 1, 2)
    assert (s2 * s1).images == (2, 3, 1)


@given(perms)
def test_inverse(p):
    e = Permutation.identity(p.n)
    assert p * p.inverse() == e
    assert p.inverse() * p == e


@given(perms)
def test_inversions_match_reduced_word_length(p):
    assert p.inversions() == len(reduced_word(p).letters)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(3, (3,))
    with pytest.raises(ValueError):
        Word(3, (0,))
    with pytest.raises(ValueError):
        Word(1, (1,))


@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=1, max_value=n - 1), max_size=10),
    )
))
def test_word_to_permutation_agrees_with_generator_product(nw):
    n, letters = nw
    by_word = word_to_permutation(Word(n, tuple(letters)))
    acc = Permutation.identity(n)
    for i in letters:
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        acc = acc * Permutation(tuple(images))
    assert by_word == acc


@given(perms)
def test_reduced_word_round_trip(p):
    assert word_to_permutation(reduced_word(p)) == p


@pytest.mark.parametrize("n", range(1, 7))
def test_fully_commutative_is_321_avoidance(n):
    for images in itertools.permutations(range(1, n + 1)):
        p = Permutation(images)
        assert is_fully_commutative(p) == brute_avoids_321(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_fc_matches_filter(n):
    expected = sorted(
        Permutation(images).images
        for images in itertools.permutations(range(1, n + 1))
        if brute_avoids_321(Permutation(images))
    )
    got = [p.images for p in enumerate_fc(n)]
    assert got == sorted(got)
    assert got == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_fc_enumerator_yields_checked_permutations(n):
    # _fc_elements builds its words unchecked; Permutation(...) must accept
    # each one as an equal value
    for w in _fc_elements(n):
        checked = Permutation(w.images)
        assert type(w) is Permutation and type(w.images) is tuple
        assert checked == w and hash(checked) == hash(w)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_fc_involutions_only(n):
    expected = [p.images for p in enumerate_fc(n) if p.is_involution()]
    got = [p.images for p in enumerate_fc(n, involutions_only=True)]
    assert got == expected
    assert len(got) == math.comb(n, n // 2)


def test_rs_tableaux_example():
    p = Permutation((3, 1, 4, 2))
    p_tab, q_tab = rs_tableaux(p)
    assert p_tab.rows == ((1, 2), (3, 4))
    assert q_tab.rows == ((1, 3), (2, 4))


@given(perms)
def test_rs_round_trip_and_shape(p):
    p_tab, q_tab = rs_tableaux(p)
    assert p_tab.shape == q_tab.shape
    assert rs_inverse(p_tab, q_tab) == p


@given(perms)
def test_rs_inverse_swaps_tableaux(p):
    p_tab, q_tab = rs_tableaux(p)
    assert rs_tableaux(p.inverse()) == (q_tab, p_tab)


def test_rs_involutions_have_equal_tableaux():
    for p in enumerate_fc(6, involutions_only=True):
        p_tab, q_tab = rs_tableaux(p)
        assert p_tab == q_tab


def test_a_value_examples():
    assert a_value(Permutation.identity(5)) == 0
    assert a_value(Permutation((2, 1, 3))) == 1
    assert a_value(Permutation((3, 4, 1, 2))) == 2
    with pytest.raises(ValueError):
        a_value(Permutation((3, 2, 1)))


@pytest.mark.parametrize("n", range(2, 8))
def test_fc_shapes_have_at_most_two_rows(n):
    for p in enumerate_fc(n):
        assert len(rs_tableaux(p)[0].shape) <= 2

"""Planar diagrams: composition, loops, and the bijection with FC elements."""

import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from tlkostant import (
    Permutation,
    Tableau,
    TLDiagram,
    a_value,
    arc_count,
    arcs,
    bottom_arcs,
    catalan,
    compose,
    diagram_of_fc,
    enumerate_fc,
    fc_of_diagram,
    flip,
    generator,
    identity_diagram,
    is_fully_commutative,
    is_kostant,
    left_cell_involution,
    render_ascii,
    render_svg,
    reduced_word,
    rs_inverse,
    top_arcs,
    witness_postconditions,
)
from tlkostant.diagrams import from_json_dict, through_tops, to_json_dict


def all_diagrams(n):
    return [diagram_of_fc(p) for p in enumerate_fc(n)]


def noncrossing_matchings(points):
    """Every noncrossing perfect matching of points listed in cyclic order."""
    if not points:
        yield []
        return
    for k in range(1, len(points), 2):
        for inside in noncrossing_matchings(points[1:k]):
            for outside in noncrossing_matchings(points[k + 1:]):
                yield [(points[0], points[k])] + inside + outside


def all_planar_matchings(n):
    # planar diagrams are the noncrossing matchings of the boundary cycle
    # T1..Tn, Bn..B1; built here without going through any permutation
    cycle = list(range(n)) + list(range(2 * n - 1, n - 1, -1))
    for matching in noncrossing_matchings(cycle):
        pairs = [0] * (2 * n)
        for a, b in matching:
            pairs[a], pairs[b] = b, a
        yield TLDiagram(n, pairs)


def reference_compose(top, bottom):
    """The checked stacking that ``compose`` replaced: the same strand
    walk, but the product goes through the public constructor, so it is
    rejected unless it is a planar matching."""
    n = top.n
    tp, bp = top.pairs, bottom.pairs
    visited = [False] * n
    result = [-1] * (2 * n)

    def trace(in_top, slot):
        while True:
            if in_top:
                p = tp[slot]
                if p < n:
                    return p
                j = p - n
                visited[j] = True
                in_top, slot = False, j
            else:
                q = bp[slot]
                if q >= n:
                    return q
                visited[q] = True
                in_top, slot = True, n + q

    for k in range(n):
        if result[k] == -1:
            other = trace(True, k)
            result[k] = other
            result[other] = k
    for k in range(n, 2 * n):
        if result[k] == -1:
            other = trace(False, k)
            result[k] = other
            result[other] = k

    loops = 0
    for j0 in range(n):
        if visited[j0]:
            continue
        loops += 1
        j, via_top = j0, True
        while True:
            visited[j] = True
            j = tp[n + j] - n if via_top else bp[j]
            via_top = not via_top
            if j == j0 and via_top:
                break
    return TLDiagram(n, tuple(result)), loops


def all_reduced_words(p):
    # Appending letter i to a word swaps the values i, i+1, so a word can
    # end in i exactly when value i+1 sits left of value i.
    if p == Permutation.identity(p.n):
        yield ()
        return
    inv = p.inverse()
    for i in range(1, p.n):
        if inv(i) > inv(i + 1):
            images = list(range(1, p.n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            shorter = p * Permutation(tuple(images))
            for word in all_reduced_words(shorter):
                yield word + (i,)


def test_identity_diagram_is_all_throughs():
    d = identity_diagram(3)
    assert top_arcs(d) == frozenset()
    assert bottom_arcs(d) == frozenset()
    assert through_tops(d) == (1, 2, 3)


def test_generator_shape():
    d = generator(2, 4)
    assert top_arcs(d) == {(2, 3)}
    assert bottom_arcs(d) == {(2, 3)}
    assert through_tops(d) == (1, 4)
    with pytest.raises(ValueError):
        generator(0, 4)
    with pytest.raises(ValueError):
        generator(4, 4)


def test_planarity_is_enforced():
    # T1-T3 and T2-T4 cross.
    with pytest.raises(ValueError):
        TLDiagram(4, ((0, 2), (1, 3), (4, 5), (6, 7)))
    # Pairing must be a fixed-point-free involution on the 2n slots.
    with pytest.raises(ValueError):
        TLDiagram(2, ((0, 0), (1, 2), (3, 3)))


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_relations(n):
    delta_loops = 1
    for i in range(1, n):
        ei = generator(i, n)
        assert compose(ei, ei) == (ei, delta_loops)
        for j in range(1, n):
            ej = generator(j, n)
            if abs(i - j) == 1:
                once = compose(ei, ej)[0]
                assert compose(once, ei) == (ei, 0)
            elif i != j:
                assert compose(ei, ej) == compose(ej, ei)


@pytest.mark.parametrize("n", range(2, 5))
def test_composition_is_associative_with_loop_count(n):
    basis = all_diagrams(n)
    for a, b, c in itertools.product(basis, repeat=3):
        ab, l_ab = compose(a, b)
        left, l_left = compose(ab, c)
        bc, l_bc = compose(b, c)
        right, l_right = compose(a, bc)
        assert left == right
        assert l_ab + l_left == l_bc + l_right


@pytest.mark.parametrize("n", range(2, 8))
def test_diagram_is_independent_of_reduced_word(n):
    for p in enumerate_fc(n):
        expected = diagram_of_fc(p)
        for word in all_reduced_words(p):
            d = identity_diagram(n)
            loops = 0
            for i in word:
                d, new = compose(d, generator(i, n))
                loops += new
            assert d == expected
            assert loops == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_fc_diagram_round_trip(n):
    seen = set()
    for p in enumerate_fc(n):
        d = diagram_of_fc(p)
        assert fc_of_diagram(d) == p
        seen.add(d)
    assert len(seen) == len(enumerate_fc(n))


@pytest.mark.parametrize("n", range(1, 10))
def test_every_planar_matching_is_an_fc_diagram(n):
    # Catalan(n) planar matchings, each the diagram of its preimage: the
    # map from FC elements to diagrams is onto, so fc_of_diagram needs no
    # rebuild check
    matchings = list(all_planar_matchings(n))
    assert len(set(matchings)) == len(matchings) == catalan(n)
    for d in matchings:
        assert diagram_of_fc(fc_of_diagram(d)) == d


def test_diagram_of_fc_rejects_non_fc():
    with pytest.raises(ValueError):
        diagram_of_fc(Permutation((3, 2, 1)))


def assert_passes_public_checks(d):
    checked = TLDiagram(d.n, d.pairs)
    assert type(d) is TLDiagram and type(d.pairs) is tuple
    assert checked == d and hash(checked) == hash(d)


@pytest.mark.parametrize("n", range(1, 10))
def test_diagram_of_fc_passes_the_public_checks(n):
    # diagram_of_fc builds its result unchecked; TLDiagram(...) must accept it
    for p in enumerate_fc(n):
        assert_passes_public_checks(diagram_of_fc(p))


large_ranks = st.integers(min_value=20, max_value=200)


@st.composite
def large_fc_elements(draw, n=None):
    # a two-row shape (n - a, a), two standard tableaux of it drawn as
    # ballot sequences, and the FC element inverse RS makes of them; the
    # rank is drawn from large_ranks unless given
    if n is None:
        n = draw(large_ranks)
    a = draw(st.integers(min_value=0, max_value=n // 2))

    def tableau():
        first, second = [], []
        wishes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        for k, wants_second in enumerate(wishes, start=1):
            # row 2 stays shorter than row 1 and at most a long; row 1 at
            # most n - a long
            if len(first) == n - a or (
                wants_second and len(second) < min(a, len(first))
            ):
                second.append(k)
            else:
                first.append(k)
        return Tableau((first, second) if second else (first,))

    return rs_inverse(tableau(), tableau())


@settings(deadline=None)
@given(large_fc_elements())
def test_diagram_of_fc_passes_the_public_checks_at_large_rank(w):
    d = diagram_of_fc(w)
    assert_passes_public_checks(d)
    assert arc_count(d) == a_value(w)
    assert fc_of_diagram(d) == w


@st.composite
def large_fc_pairs(draw):
    # two elements of one large rank, so their diagrams can be stacked
    n = draw(large_ranks)
    return draw(large_fc_elements(n)), draw(large_fc_elements(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_flip_matches_inverse(n):
    # flip builds its result unchecked; TLDiagram(...) must accept it
    for p in enumerate_fc(n):
        flipped = flip(diagram_of_fc(p))
        assert_passes_public_checks(flipped)
        assert flipped == diagram_of_fc(p.inverse())


@settings(deadline=None)
@given(large_fc_elements())
def test_flip_matches_inverse_at_large_rank(w):
    flipped = flip(diagram_of_fc(w))
    assert_passes_public_checks(flipped)
    assert flipped == diagram_of_fc(w.inverse())


@pytest.mark.parametrize("n", range(2, 11))
def test_generator_passes_the_public_checks(n):
    # generator builds its result unchecked; it must be the diagram of the
    # simple transposition s_i
    for i in range(1, n):
        d = generator(i, n)
        assert_passes_public_checks(d)
        images = list(range(1, n + 1))
        images[i - 1], images[i] = i + 1, i
        assert d == diagram_of_fc(Permutation(tuple(images)))


@pytest.mark.parametrize("n", range(1, 6))
def test_compose_matches_the_checked_reference(n):
    # compose builds its result unchecked; over every pair of planar
    # matchings TLDiagram(...) must accept it, and it must equal the
    # checked reference with the same loop count
    basis = list(all_planar_matchings(n))
    for top, bottom in itertools.product(basis, repeat=2):
        d, loops = compose(top, bottom)
        assert_passes_public_checks(d)
        assert (d, loops) == reference_compose(top, bottom)


@settings(deadline=None)
@given(large_fc_pairs())
def test_compose_matches_the_checked_reference_at_large_rank(pair):
    top, bottom = map(diagram_of_fc, pair)
    d, loops = compose(top, bottom)
    assert_passes_public_checks(d)
    assert (d, loops) == reference_compose(top, bottom)


@settings(deadline=None)
@given(large_fc_elements())
def test_negative_witness_meets_its_contract_at_large_rank(w):
    # witness_postconditions stacks compose(flip(ex), ey) at large rank
    verdict = is_kostant(w)
    assume(not verdict.positive)
    d = left_cell_involution(w)
    assert witness_postconditions(d, *verdict.witness) == ()


class LookAlike:
    # has the attributes compose and flip read, but no checked matching
    def __init__(self, d):
        self.n, self.pairs = d.n, d.pairs


@pytest.mark.parametrize("bad", ["x", None, LookAlike(generator(1, 3))])
def test_compose_and_flip_reject_non_diagrams(bad):
    e1 = generator(1, 3)
    with pytest.raises(TypeError, match="top must be a TLDiagram"):
        compose(bad, e1)
    with pytest.raises(TypeError, match="bottom must be a TLDiagram"):
        compose(e1, bad)
    with pytest.raises(TypeError, match="d must be a TLDiagram"):
        flip(bad)


@pytest.mark.parametrize("n", range(1, 9))
def test_arcs_partition_and_counts(n):
    everything = set(range(1, n + 1))
    for p in enumerate_fc(n):
        d = diagram_of_fc(p)
        top, bottom, through = arcs(d)
        assert len(top) == len(bottom) == arc_count(d) == a_value(p)
        assert len(through) == n - 2 * arc_count(d)
        top_slots = sorted(itertools.chain.from_iterable(
            a.ends for a in top)) + [a.ends[0] for a in through]
        bottom_slots = sorted(itertools.chain.from_iterable(
            a.ends for a in bottom)) + [a.ends[1] for a in through]
        assert set(top_slots) == everything and len(top_slots) == n
        assert set(bottom_slots) == everything and len(bottom_slots) == n
        assert all(a.side == "top" and a.ends[0] < a.ends[1] for a in top)
        assert all(a.side == "bottom" and a.ends[0] < a.ends[1] for a in bottom)
        assert all(a.side == "through" for a in through)
        # the one-pass readers see the same strands as arcs()
        assert top_arcs(d) == frozenset(a.ends for a in top)
        assert bottom_arcs(d) == frozenset(a.ends for a in bottom)
        assert through_tops(d) == tuple(sorted(a.ends[0] for a in through))


def test_top_arcs_example():
    d = diagram_of_fc(Permutation((2, 1, 4, 3)))
    assert top_arcs(d) == {(1, 2), (3, 4)}
    assert bottom_arcs(d) == {(1, 2), (3, 4)}
    assert through_tops(d) == ()


def test_loop_closure():
    d = diagram_of_fc(Permutation((2, 1, 4, 3)))
    assert compose(d, d) == (d, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_json_round_trip(n):
    for d in all_diagrams(n):
        again = from_json_dict(json.loads(json.dumps(to_json_dict(d))))
        assert again == d


def test_render_ascii_is_rectangular():
    d = diagram_of_fc(Permutation((3, 4, 1, 2)))
    lines = render_ascii(d).splitlines()
    assert len(set(len(line) for line in lines)) == 1
    assert "1 2 3 4" in lines


def test_render_svg_smoke():
    svg = render_svg(generator(1, 3))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


@given(st.sampled_from(list(itertools.permutations(range(1, 7)))))
def test_flip_is_an_involution_on_diagrams(images):
    p = Permutation(tuple(images))
    if not is_fully_commutative(p):
        return
    d = diagram_of_fc(p)
    assert flip(flip(d)) == d


@given(st.sampled_from([tuple(p.images) for p in enumerate_fc(6)]),
       st.sampled_from([tuple(p.images) for p in enumerate_fc(6)]))
def test_compose_never_loses_strands(a_images, b_images):
    a = diagram_of_fc(Permutation(a_images))
    b = diagram_of_fc(Permutation(b_images))
    d, loops = compose(a, b)
    assert loops >= 0
    assert 2 * arc_count(d) + len(through_tops(d)) == 6


def test_reduced_word_is_among_all_reduced_words():
    p = Permutation((3, 4, 1, 2))
    words = set(all_reduced_words(p))
    assert len(words) == 2  # the two middle letters commute
    assert reduced_word(p).letters in words

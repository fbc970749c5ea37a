"""The diagram algebra, its cells, and the nonvanishing test."""

import itertools
import sys

import pytest

from tlkostant import (
    LaurentPoly,
    Permutation,
    TLElement,
    a_value,
    basis_of,
    bottom_arcs,
    cells,
    diagram_of_fc,
    duflo_involution,
    enumerate_fc,
    flip,
    left_cell_involution,
    rs_tableaux,
    theta_nonzero,
    top_arcs,
)
from tlkostant import algebra, kostant
from tlkostant.algebra import leq_L, leq_R
from tlkostant.verify import verify_classification

DELTA = LaurentPoly.delta()


def test_kostant_helpers_are_reexported():
    # both live with the classifier that calls them; algebra keeps the names
    assert algebra.theta_nonzero is kostant.theta_nonzero
    assert algebra.left_cell_involution is kostant.left_cell_involution


def gen(i, n):
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return basis_of(Permutation(tuple(images)))


@pytest.mark.parametrize("n", range(2, 9))
def test_presentation_relations(n):
    for i in range(1, n):
        ei = gen(i, n)
        assert ei * ei == ei.scaled(DELTA)
        for j in range(1, n):
            ej = gen(j, n)
            if abs(i - j) == 1:
                assert ei * ej * ei == ei
            elif i != j:
                assert ei * ej == ej * ei


@pytest.mark.parametrize("n", range(2, 5))
def test_basis_products_are_monomial_multiples_of_basis(n):
    basis = [basis_of(p) for p in enumerate_fc(n)]
    diagrams = {diagram_of_fc(p) for p in enumerate_fc(n)}
    for a, b in itertools.product(basis, repeat=2):
        prod = a * b
        ((d, c),) = prod.to_pairs()
        assert d in diagrams
        assert c in {DELTA ** k for k in range(n)}


def test_element_arithmetic():
    e1, e2 = gen(1, 3), gen(2, 3)
    zero = TLElement.zero(3)
    assert e1 + zero == e1
    assert not zero and bool(e1)
    assert e1 + e1 == e1.scaled(LaurentPoly.from_int(2))
    assert e1 + e1.scaled(LaurentPoly.from_int(-1)) == zero
    assert (e1 + e2) * e1 == e1.scaled(DELTA) + e2 * e1
    assert hash(e1 + e2) == hash(e2 + e1)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(1, 3) * gen(1, 4)
    with pytest.raises(ValueError):
        gen(1, 3) + gen(1, 4)


def test_coefficient_of():
    e1 = gen(1, 3)
    d = diagram_of_fc(Permutation((2, 1, 3)))
    assert (e1 * e1).coefficient_of(d) == DELTA
    assert e1.coefficient_of(diagram_of_fc(Permutation((1, 3, 2)))).is_zero()


def tableau_partition(n, which):
    groups = {}
    for p in enumerate_fc(n):
        key = rs_tableaux(p)[which].rows
        groups.setdefault(key, set()).add(p)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("n", range(1, 8))
def test_left_cells_match_recording_tableaux(n):
    assert set(cells(n, "left")) == tableau_partition(n, 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_right_cells_match_insertion_tableaux(n):
    assert set(cells(n, "right")) == tableau_partition(n, 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_two_sided_cells_match_a_value(n):
    groups = {}
    for p in enumerate_fc(n):
        groups.setdefault(a_value(p), set()).add(p)
    assert set(cells(n, "two_sided")) == {frozenset(g) for g in groups.values()}


def test_package_holds_no_process_lifetime_cache():
    for kind in ("left", "right"):
        assert len(cells(8, kind)) == 70  # one per involution
    x, y = Permutation((2, 1, 3, 4)), Permutation((2, 1, 4, 3))
    assert leq_L(x, y) and leq_R(x, y)
    assert basis_of(x) * basis_of(x) == basis_of(x).scaled(DELTA)
    assert verify_classification(5, full_scan_limit=5).ok
    # memos live on a per-run object (verify._Basis), never on a module
    cached = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.startswith("tlkostant.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == []


def test_cells_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cells(3, "diagonal")


@pytest.mark.parametrize("n", range(2, 6))
def test_same_cell_means_mutual_preorder(n):
    for kind, leq in (("left", leq_L), ("right", leq_R)):
        partition = cells(n, kind)
        where = {p: i for i, cell in enumerate(partition) for p in cell}
        for x, y in itertools.product(enumerate_fc(n), repeat=2):
            both = leq(x, y) and leq(y, x)
            assert both == (where[x] == where[y])


def test_preorder_is_reflexive_and_transitive():
    fc = enumerate_fc(4)
    for x in fc:
        assert leq_L(x, x)
    for x, y, z in itertools.product(fc, repeat=3):
        if leq_L(x, y) and leq_L(y, z):
            assert leq_L(x, z)


def test_preorder_rejects_non_fc():
    with pytest.raises(ValueError):
        leq_L(Permutation((3, 2, 1)), Permutation((1, 2, 3)))


@pytest.mark.parametrize("n", range(1, 8))
def test_each_one_sided_cell_has_a_unique_involution(n):
    for kind in ("left", "right"):
        for cell in cells(n, kind):
            involutions = [p for p in cell if p.is_involution()]
            assert len(involutions) == 1
            assert duflo_involution(cell) == involutions[0]


def test_duflo_involution_needs_an_involution():
    with pytest.raises(ValueError):
        duflo_involution([Permutation((2, 3, 1)), Permutation((3, 1, 2))])


@pytest.mark.parametrize("n", range(2, 7))
def test_left_cell_involution_is_the_duflo_member(n):
    for cell in cells(n, "left"):
        d = duflo_involution(cell)
        for w in cell:
            assert left_cell_involution(w) == d


def test_theta_examples():
    s1 = Permutation((2, 1, 3))
    s2 = Permutation((1, 3, 2))
    e = Permutation.identity(3)
    assert theta_nonzero(s1, s1)
    assert not theta_nonzero(s1, s2)
    assert theta_nonzero(e, s2)  # the unit never kills anything
    assert theta_nonzero(s1 * s2, s2 * s1)
    assert not theta_nonzero(s1 * s2, s1)


def test_theta_rejects_non_fc():
    with pytest.raises(ValueError):
        theta_nonzero(Permutation((3, 2, 1)), Permutation((1, 2, 3)))


@pytest.mark.parametrize("n", range(1, 8))
def test_theta_reads_the_top_arcs_of_the_flip(n):
    # theta_nonzero compares the bottom arcs of x with the top arcs of y;
    # its definition uses the top arcs of the flipped diagram of x
    fc = enumerate_fc(n)
    for x in fc:
        d = diagram_of_fc(x)
        assert bottom_arcs(d) == top_arcs(flip(d))
    if n <= 5:
        for x, y in itertools.product(fc, repeat=2):
            flip_form = top_arcs(flip(diagram_of_fc(x))) <= top_arcs(
                diagram_of_fc(y)
            )
            assert theta_nonzero(x, y) == flip_form


@pytest.mark.parametrize("n", range(2, 6))
def test_theta_agrees_with_a_nonzero_multiplicity(n):
    # theta_nonzero(x, d) says e_x does not kill the cell module of d;
    # concretely the triple product e_d e_{x^-1} e_x lands back on e_d.
    from tlkostant import multiplicity_at_one

    for d in enumerate_fc(n, involutions_only=True):
        for x in enumerate_fc(n):
            mult = multiplicity_at_one(d, d, x.inverse(), x)
            assert theta_nonzero(x, d) == (mult > 0)

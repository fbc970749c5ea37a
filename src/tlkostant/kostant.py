"""Nested-arc involutions and the positivity classifier.

The classifier answers one question about a fully commutative w: in the
diagram of w, is every pair of non-nested top arcs separated by at least
one through line?  A yes comes with a factorization of the involution
case into pairwise distant nested-arc blocks; a no comes with a witness
pair (x, y) built by the arc surgery of ``negative_witness``, two
distinct elements the brute-force oracle cannot tell apart relative to w.

The module also holds ``left_cell_involution``, the involution a negative
witness is built from, and ``theta_nonzero``, the nonvanishing test the
oracle filters by, so neither the classifier nor the oracle loads
``algebra``.
"""

from __future__ import annotations

from itertools import combinations

from .diagrams import (
    TLDiagram,
    bottom_arcs,
    diagram_of_fc,
    fc_of_diagram,
    top_arcs,
    through_tops,
)
from .permutations import Permutation, Word, _Record, rs_inverse, rs_tableaux


class SpecialFactor(_Record):
    """The involution with j+1 nested arcs centered between i and i+1.

    >>> SpecialFactor(2, 1, 4).permutation().images
    (3, 4, 1, 2)
    >>> SpecialFactor(1, 0, 4).support
    frozenset({1, 2})
    """

    __slots__ = ("i", "j", "n")
    i: int
    j: int
    n: int

    def __init__(self, i: int, j: int, n: int):
        if not 1 <= i <= n - 1:
            raise ValueError(f"center {i} not in 1..{n - 1}")
        if j != 0 and not 1 <= j <= min(i - 1, n - 1 - i):
            raise ValueError(
                f"depth {j} not in 0..{min(i - 1, n - 1 - i)}"
                f" for center {i} in rank {n}"
            )
        super().__init__(i, j, n)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(range(self.i - self.j, self.i + self.j + 2))

    @property
    def extended_support(self) -> frozenset[int]:
        # deliberately not clipped to 1..n: the one-off positions matter
        # for distance tests even when they fall off the line
        return frozenset(range(self.i - self.j - 1, self.i + self.j + 3))

    def word(self) -> Word:
        blocks = list(range(self.j + 1)) + list(range(self.j - 1, -1, -1))
        letters = []
        for k in blocks:
            letters.extend(range(self.i - k, self.i + k + 1, 2))
        return Word(self.n, tuple(letters))

    def permutation(self) -> Permutation:
        i, j = self.i, self.j
        images = []
        for k in range(1, self.n + 1):
            if i - j <= k <= i:
                images.append(k + j + 1)
            elif i + 1 <= k <= i + j + 1:
                images.append(k - j - 1)
            else:
                images.append(k)
        return Permutation(tuple(images))


def special_involution(i: int, j: int, n: int) -> Permutation:
    """The permutation of SpecialFactor(i, j, n).

    >>> special_involution(1, 0, 4).images
    (2, 1, 3, 4)
    """
    return SpecialFactor(i, j, n).permutation()


def is_distant(a: SpecialFactor, b: SpecialFactor) -> bool:
    """Whether two factors' extended supports share at most one point."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} != {b.n}")
    return len(a.extended_support & b.extended_support) <= 1


def _involution_diagram(d: Permutation) -> TLDiagram:
    """The diagram of d; rejects a non-FC d first, then a non-involution."""
    diagram = diagram_of_fc(d)
    if not d.is_involution():
        raise ValueError(f"{d.images} is not an involution")
    return diagram


def decompose_into_specials(d: Permutation):
    """Split d into pairwise distant nested-arc factors, left to right.

    Returns None when the top arcs of the diagram of d do not form
    perfect nested blocks with consecutive endpoints, or when two blocks
    sit too close together.

    >>> decompose_into_specials(Permutation((3, 4, 1, 2)))
    (SpecialFactor(i=2, j=1, n=4),)
    >>> decompose_into_specials(Permutation((2, 1, 4, 3))) is None
    True
    """
    tops = sorted(top_arcs(_involution_diagram(d)))
    top_set = set(tops)
    factors = []
    for l, r in tops:
        if any(a < l and r < b for a, b in tops):
            continue  # not outermost; covered by its enclosing block
        span = r - l
        if span % 2 == 0:
            return None
        j = (span - 1) // 2
        if {(l + k, r - k) for k in range(j + 1)} - top_set:
            return None
        factors.append(SpecialFactor(l + j, j, d.n))
    if any(not is_distant(a, b) for a, b in combinations(factors, 2)):
        return None
    product = Permutation.identity(d.n)
    for f in factors:
        product = product * f.permutation()
    if product != d:
        raise RuntimeError(
            f"factor product {product.images} does not rebuild {d.images}"
        )
    return tuple(factors)


def left_cell_involution(w: Permutation) -> Permutation:
    """The Duflo involution of the left cell of w.

    Same recording tableau as w, used as its insertion tableau too.  A w
    that is not fully commutative is rejected by its RS shape: more than
    two rows means a decreasing subsequence of length three.
    """
    q = rs_tableaux(w)[1]
    if len(q.rows) > 2:
        raise ValueError(f"{w.images} is not fully commutative")
    return rs_inverse(q, q)


def theta_nonzero(x: Permutation, y: Permutation) -> bool:
    """Whether the translation functor of x keeps the simple of y alive.

    Holds when every bottom arc of the diagram of x is a top arc of the
    diagram of y (the bottom arcs of x are the top arcs of its flip).

    >>> theta_nonzero(Permutation((1, 3, 2, 4)), Permutation((3, 4, 1, 2)))
    True
    >>> theta_nonzero(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    False
    """
    return bottom_arcs(diagram_of_fc(x)) <= top_arcs(diagram_of_fc(y))


class KostantVerdict(_Record):
    """Outcome of the classifier, always carrying a certificate.

    ``factors`` is set exactly when the verdict is positive and the input
    is an involution; ``witness`` is set exactly when negative.
    """

    __slots__ = ("positive", "factors", "witness")
    positive: bool
    factors: tuple[SpecialFactor, ...] | None
    witness: tuple[Permutation, Permutation] | None


def _separated(d: TLDiagram) -> bool:
    """The classifier's decision, without a certificate.

    True when every pair of non-nested top arcs of d has a through line
    strictly between them.  ``is_kostant`` and
    ``counting.counts_by_bruteforce`` both decide with this predicate.
    """
    tops = sorted(top_arcs(d))
    throughs = set(through_tops(d))
    for (_, b1), (a2, _) in combinations(tops, 2):
        if b1 < a2 and not any(b1 < t < a2 for t in throughs):
            return False
    return True


def is_kostant(w: Permutation) -> KostantVerdict:
    """Classify a fully commutative permutation.

    Positive when every pair of non-nested top arcs of the diagram of w
    has a through line strictly between them.  For involutions this
    agrees with decompose_into_specials succeeding.  A w that is not
    fully commutative is rejected by ``diagram_of_fc``, through its RS
    shape.

    >>> is_kostant(Permutation((3, 4, 1, 2))).positive
    True
    >>> is_kostant(Permutation((2, 1, 4, 3))).positive
    False
    """
    positive = _separated(diagram_of_fc(w))
    if positive:
        factors = None
        if w.is_involution():
            factors = decompose_into_specials(w)
            if factors is None:
                raise RuntimeError(
                    f"{w.images} is separated but has no special factorization"
                )
        return KostantVerdict(True, factors, None)
    d = w if w.is_involution() else left_cell_involution(w)
    return KostantVerdict(False, None, negative_witness(d))


def _adjacent_pairs(tops):
    """Consecutive non-nested arc pairs ((a1,b1),(a2,b2)) with a2 = b1+1."""
    by_left = {l: (l, r) for l, r in tops}
    out = []
    for l, r in tops:
        partner = by_left.get(r + 1)
        if partner:
            out.append(((l, r), partner))
    return out


def negative_witness(d: Permutation) -> tuple[Permutation, Permutation]:
    """Two distinct elements x != y obtained by arc surgery on e_d.

    Picks adjacent non-nested top arcs A (left) and B (right), at the
    outermost nesting depth whose enclosing arcs all lack adjacent
    partners of their own, leftmost first.  e_x drops B, its bottom
    mirror and every enclosing arc on both sides, replacing them with
    vertical lines; e_y drops the top B and the bottom mirror of A
    instead, joining the freed endpoints in order.

    >>> x, y = negative_witness(Permutation((2, 1, 4, 3)))
    >>> x.images, y.images
    ((2, 1, 3, 4), (4, 1, 2, 3))
    """
    diagram = _involution_diagram(d)
    if _separated(diagram):
        raise ValueError(f"{d.images} has no adjacent non-nested arc pair")
    tops = sorted(top_arcs(diagram))
    pairs = _adjacent_pairs(tops)
    in_pair = {arc for pair in pairs for arc in pair}

    def enclosing(arc):
        l, r = arc
        return [(a, b) for a, b in tops if a < l and r < b]

    admissible = [
        (pa, pb)
        for pa, pb in pairs
        if not any(c in in_pair for c in enclosing(pa))
    ]
    if not admissible:
        raise RuntimeError(
            f"{d.images} is negative but has no admissible adjacent arc pair"
        )
    (a1, b1), (a2, b2) = min(
        admissible, key=lambda p: (len(enclosing(p[0])), p[0])
    )

    n = d.n
    outer = enclosing((a1, b1))
    drop_b = {a2, b2}
    drop_outer = {e for arc in outer for e in arc}

    # e_x: keep A and its mirror, free the endpoints of B and of every
    # enclosing arc on both boundaries, and stand verticals there
    pairs_x = list(diagram.pairs)
    for p in drop_b | drop_outer:
        pairs_x[p - 1] = n + p - 1
        pairs_x[n + p - 1] = p - 1
    e_x = TLDiagram(n, tuple(pairs_x))

    # e_y: free B on top but A's mirror on the bottom, then join the
    # freed top endpoints to the freed bottom endpoints in order
    pairs_y = list(diagram.pairs)
    free_top = sorted(drop_b | drop_outer)
    free_bottom = sorted({a1, b1} | drop_outer)
    for t, b in zip(free_top, free_bottom):
        pairs_y[t - 1] = n + b - 1
        pairs_y[n + b - 1] = t - 1
    e_y = TLDiagram(n, tuple(pairs_y))

    return fc_of_diagram(e_x), fc_of_diagram(e_y)


def maximal_parabolic_element(n: int, i: int) -> Permutation:
    """The element whose diagram stacks i top arcs against i bottom arcs.

    Top arcs (1, 2i), ..., (i, i+1); bottom arcs (n-2i+1, n), ...,
    (n-i, n-i+1); the remaining strands run in parallel.

    >>> maximal_parabolic_element(4, 2).images
    (3, 4, 1, 2)
    >>> maximal_parabolic_element(4, 1).images
    (4, 1, 2, 3)
    """
    if not 0 <= i <= n // 2:
        raise ValueError(f"arc count {i} not in 0..{n // 2}")
    pairs = [-1] * (2 * n)
    for k in range(1, i + 1):
        l, r = k, 2 * i + 1 - k
        pairs[l - 1], pairs[r - 1] = r - 1, l - 1
        bl, br = n - 2 * i + k, n + 1 - k
        pairs[n + bl - 1], pairs[n + br - 1] = n + br - 1, n + bl - 1
    for k in range(1, n - 2 * i + 1):
        t, b = 2 * i + k, k
        pairs[t - 1] = n + b - 1
        pairs[n + b - 1] = t - 1
    return fc_of_diagram(TLDiagram(n, tuple(pairs)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()

"""Linear combinations of diagrams and cell preorders.

A ``TLElement`` is a finite sum of diagrams with Laurent coefficients;
multiplying basis diagrams stacks them and converts each closed loop into
a factor of delta = q + q^-1.

Cells are read off the diagram boundaries.  The top arcs of the diagram
of w come from the recording tableau of w, so they give the left side:
the left preorder and left cells compare top arcs, the right preorder
and right cells compare bottom arcs.  The nonvanishing test
``theta_nonzero`` and ``left_cell_involution`` live in ``kostant``, whose
classifier and oracle call them, and are re-exported here.

No module-level cache exists: every function here builds the diagrams it
reads afresh.  The oracle's per-run index, ``verify._Basis``, is the only
memo in the package, and it lives as long as one run or one shard.
"""

from __future__ import annotations

from .diagrams import (
    TLDiagram,
    bottom_arcs,
    compose,
    diagram_of_fc,
    top_arcs,
)
from .kostant import left_cell_involution, theta_nonzero  # noqa: F401
from .laurent import LaurentPoly
from .permutations import Permutation, a_value, enumerate_fc

_DELTA = LaurentPoly.delta()


class TLElement:
    """An immutable linear combination of same-rank diagrams.

    >>> from .permutations import Permutation
    >>> e1 = basis_of(Permutation((2, 1)))
    >>> e1 * e1 == e1.scaled(LaurentPoly.delta())
    True
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms):
        clean = {}
        for d, c in dict(terms).items():
            if d.n != n:
                raise ValueError(f"diagram of rank {d.n} in rank-{n} element")
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.from_int(c)
            if not c.is_zero():
                clean[d] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", hash((n, frozenset(clean.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("TLElement is immutable")

    @classmethod
    def zero(cls, n: int) -> "TLElement":
        return cls(n, {})

    @classmethod
    def from_diagram(cls, d: TLDiagram, coeff: LaurentPoly | None = None) -> "TLElement":
        return cls(d.n, {d: LaurentPoly.one() if coeff is None else coeff})

    def coefficient_of(self, d: TLDiagram) -> LaurentPoly:
        return self.terms.get(d, LaurentPoly.zero())

    def scaled(self, c: LaurentPoly) -> "TLElement":
        return TLElement(self.n, {d: coeff * c for d, coeff in self.terms.items()})

    def __add__(self, other: "TLElement") -> "TLElement":
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, LaurentPoly.zero()) + c
        return TLElement(self.n, terms)

    def __mul__(self, other: "TLElement") -> "TLElement":
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        terms: dict[TLDiagram, LaurentPoly] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = compose(d1, d2)
                c = c1 * c2 * _DELTA ** loops
                terms[d] = terms.get(d, LaurentPoly.zero()) + c
        return TLElement(self.n, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"TLElement({self.n}, 0)"
        bits = sorted(
            (d.pairs, f"({c!r})*{d!r}") for d, c in self.terms.items()
        )
        return " + ".join(s for _, s in bits)

    def to_pairs(self):
        """Deterministic list of (diagram, coefficient) pairs."""
        return tuple(sorted(self.terms.items(), key=lambda t: t[0].pairs))


def basis_of(p: Permutation) -> TLElement:
    """The basis element attached to a fully commutative permutation."""
    return TLElement.from_diagram(diagram_of_fc(p))


def leq_L(x: Permutation, y: Permutation) -> bool:
    """Left preorder: every top arc of the diagram of x is one of y.

    >>> from .permutations import Permutation
    >>> leq_L(Permutation.identity(3), Permutation((2, 1, 3)))
    True
    >>> leq_L(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    False
    """
    return top_arcs(diagram_of_fc(x)) <= top_arcs(diagram_of_fc(y))


def leq_R(x: Permutation, y: Permutation) -> bool:
    """Right preorder: every bottom arc of the diagram of x is one of y."""
    return bottom_arcs(diagram_of_fc(x)) <= bottom_arcs(diagram_of_fc(y))


def cells(n: int, kind: str) -> tuple[frozenset[Permutation], ...]:
    """Partition the fully commutative elements of rank n into cells.

    kind "left" groups by top arcs (equal recording tableau), "right" by
    bottom arcs (equal insertion tableau), "two_sided" by a-value.  Cells
    are returned in a deterministic order (by their lexicographically
    smallest member).
    """
    fc = enumerate_fc(n)
    if kind == "left":
        key = lambda w: top_arcs(diagram_of_fc(w))  # noqa: E731
    elif kind == "right":
        key = lambda w: bottom_arcs(diagram_of_fc(w))  # noqa: E731
    elif kind == "two_sided":
        key = a_value
    else:
        raise ValueError(f"kind must be left, right or two_sided, got {kind!r}")
    groups: dict = {}
    for w in fc:
        groups.setdefault(key(w), []).append(w)
    return tuple(
        sorted(
            (frozenset(g) for g in groups.values()),
            key=lambda cell: min(w.images for w in cell),
        )
    )


def duflo_involution(cell) -> Permutation:
    """The unique involution in a left (or right) cell.

    Raises ValueError when the input holds no or several involutions,
    which signals that it is not actually a one-sided cell.
    """
    found = [w for w in cell if w.is_involution()]
    if len(found) != 1:
        raise ValueError(f"expected exactly one involution, found {len(found)}")
    return found[0]


if __name__ == "__main__":
    import doctest

    doctest.testmod()

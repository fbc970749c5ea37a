"""Permutations of {1, ..., n}, reduced words, and Robinson-Schensted insertion.

Conventions used throughout the package:

* One-line notation is 1-based: ``Permutation((3, 4, 1, 2))`` sends 1 to 3,
  2 to 4, 3 to 1 and 4 to 2.
* Products apply the left factor first: ``(u * v)(k) == v(u(k))``.
* Letter ``i`` of a word is the adjacent transposition swapping the values
  ``i`` and ``i + 1``, so letters range over ``1 .. n - 1``.  Under the
  left-first product rule ``word_to_permutation(Word(4, (2, 1, 3, 2)))``
  is the nested involution ``[3, 4, 1, 2]``.

A permutation is fully commutative when any reduced word can be carried to
any other using only commutations of distant letters.  In one-line terms
this is exactly 321-avoidance: no positions i < j < k with
w(i) > w(j) > w(k).  Fully commutative elements are the natural domain for
the diagram calculus in the rest of the package.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator


class _Record:
    """Base of the package's small immutable value types.

    A subclass names its fields, in order, in ``__slots__``.  Equality,
    ``hash((field, ...))`` and the ``Name(field=value, ...)`` repr read
    them in that order, exactly as ``@dataclass(frozen=True)`` does, so
    reprs, hashes and set iteration order are those of a frozen
    dataclass; pickling rebuilds through the constructor, so a subclass
    that validates in ``__init__`` validates unpickled values too.

    It exists because of import cost.  Importing ``dataclasses`` pulls in
    ``inspect``, ``ast``, ``dis`` and ``tokenize`` (12 ms of
    ``python -X importtime``, about 10 ms of wall time), and generating
    the package's twelve frozen dataclasses took about 13 ms more, while
    a rank-64 ``classify`` takes 2-3 ms (medians of nine runs, 2-core
    Xeon, Python 3.11).  The generic ``__init__`` below made
    ``counts_by_bruteforce(9)`` about 7 % slower when ``Permutation`` and
    ``Tableau`` used it, so those two, built in the hot loops, have their
    own; ``Permutation``, a dict key in the oracle's index, also has its
    own ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = args + tuple(
            kwargs.pop(name) for name in fields[len(args):] if name in kwargs
        )
        if len(values) != len(fields) or kwargs:
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(fields)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return (type(self), self._fields())


class Permutation(_Record):
    """A permutation in 1-based one-line notation.

    >>> p = Permutation((3, 4, 1, 2))
    >>> p(1), p(4)
    (3, 2)
    >>> p * p == Permutation.identity(4)
    True
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images) -> None:
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("a permutation needs at least one letter")
        seen = [False] * (n + 1)
        for pos, v in enumerate(images, start=1):
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(
                    f"position {pos}: image {v!r} is not in 1..{n}"
                )
            if seen[v]:
                raise ValueError(f"position {pos}: image {v} appears twice")
            seen[v] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """The permutation of images its producer has proved valid, unchecked.

        Sets the same attribute as ``Permutation(images)`` without its
        range and repeat checks, so ``images`` must already be a tuple
        holding each of 1..n once.  Only ``_fc_elements`` calls it; its
        docstring says why its words qualify.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __eq__(self, other) -> bool:
        if other.__class__ is not Permutation:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    @classmethod
    def identity(cls, n: int) -> Permutation:
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"argument {k} is not in 1..{self.n}")
        return self.images[k - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Left-first product: ``(self * other)(k) == other(self(k))``.

        >>> s1 = Permutation((2, 1, 3))
        >>> s2 = Permutation((1, 3, 2))
        >>> (s1 * s2).images
        (3, 1, 2)
        """
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        oi = other.images
        return Permutation(tuple(oi[v - 1] for v in self.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for pos, v in enumerate(self.images, start=1):
            inv[v - 1] = pos
        return Permutation(tuple(inv))

    def is_involution(self) -> bool:
        return all(self.images[v - 1] == pos
                   for pos, v in enumerate(self.images, start=1))

    def inversions(self) -> int:
        imgs = self.images
        return sum(1
                   for j in range(self.n)
                   for i in range(j)
                   if imgs[i] > imgs[j])


class Word(_Record):
    """A word in the adjacent transpositions of the symmetric group on n letters."""

    __slots__ = ("n", "letters")
    n: int
    letters: tuple[int, ...]

    def __init__(self, n: int, letters) -> None:
        letters = tuple(letters)
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        for pos, i in enumerate(letters, start=1):
            if not isinstance(i, int) or not 1 <= i <= n - 1:
                raise ValueError(
                    f"letter {i!r} at position {pos} is not in 1..{n - 1}"
                )
        super().__init__(n, letters)


def word_to_permutation(word: Word) -> Permutation:
    """Multiply out a word, applying letters left to right.

    >>> word_to_permutation(Word(4, (2, 1, 3, 2))).images
    (3, 4, 1, 2)
    """
    images = list(range(1, word.n + 1))
    place = [0] + [v - 1 for v in range(1, word.n + 1)]  # 0-based position of each value
    for i in word.letters:
        a, b = place[i], place[i + 1]
        images[a], images[b] = images[b], images[a]
        place[i], place[i + 1] = b, a
    return Permutation(tuple(images))


def reduced_word(p: Permutation) -> Word:
    """A canonical reduced word for p.

    Repeatedly takes the largest value not yet in place and walks it right
    to its home position; the swap positions, read in order, form the word.
    The result is deterministic and has length equal to the inversion count.

    >>> reduced_word(Permutation((2, 1, 4, 3))).letters
    (3, 1)
    >>> reduced_word(Permutation((3, 4, 1, 2))).letters
    (2, 3, 1, 2)
    """
    work = list(p.images)
    n = len(work)
    letters: list[int] = []
    for v in range(n, 1, -1):
        pos = work.index(v)  # 0-based; everything right of v - 1 is in place
        for j in range(pos, v - 1):
            work[j], work[j + 1] = work[j + 1], work[j]
            letters.append(j + 1)
    return Word(n, tuple(letters))


def is_fully_commutative(p: Permutation) -> bool:
    """True when p is 321-avoiding.

    >>> is_fully_commutative(Permutation((3, 4, 1, 2)))
    True
    >>> is_fully_commutative(Permutation((3, 2, 1)))
    False
    """
    imgs = p.images
    n = len(imgs)
    suffix_min = [n + 1] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_min[j] = min(suffix_min[j + 1], imgs[j])
    prefix_max = 0
    for j in range(n):
        if prefix_max > imgs[j] > suffix_min[j + 1]:
            return False
        if imgs[j] > prefix_max:
            prefix_max = imgs[j]
    return True


class Tableau(_Record):
    """A standard Young tableau stored as a tuple of increasing rows."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)


def _check_standard(t: Tableau, name: str) -> None:
    n = t.size
    seen = set()
    for r, row in enumerate(t.rows):
        if r and len(row) > len(t.rows[r - 1]):
            raise ValueError(f"{name}: row {r + 1} longer than row {r}")
        for c, v in enumerate(row):
            if not isinstance(v, int) or not 1 <= v <= n or v in seen:
                raise ValueError(f"{name}: bad entry {v!r}")
            seen.add(v)
            if c and row[c - 1] >= v:
                raise ValueError(f"{name}: row {r + 1} not increasing")
            if r and t.rows[r - 1][c] >= v:
                raise ValueError(f"{name}: column {c + 1} not increasing")


def rs_tableaux(p: Permutation) -> tuple[Tableau, Tableau]:
    """Robinson-Schensted row insertion of the one-line word of p.

    Returns (P, Q): P is the insertion tableau, Q records the order in
    which boxes appear.

    >>> P, Q = rs_tableaux(Permutation((3, 4, 1, 2)))
    >>> P.rows, Q.rows
    (((1, 2), (3, 4)), ((1, 2), (3, 4)))
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(p.images, start=1):
        x = value
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            k = bisect_right(row, x)
            if k == len(row):
                row.append(x)
                q_rows[r].append(step)
                break
            x, row[k] = row[k], x
            r += 1
    return (Tableau(tuple(tuple(r) for r in p_rows)),
            Tableau(tuple(tuple(r) for r in q_rows)))


def rs_inverse(p_tab: Tableau, q_tab: Tableau) -> Permutation:
    """Invert Robinson-Schensted: recover w from (P, Q) of equal shape.

    >>> P, Q = rs_tableaux(Permutation((2, 3, 1, 4)))
    >>> rs_inverse(P, Q).images
    (2, 3, 1, 4)
    """
    _check_standard(p_tab, "P")
    _check_standard(q_tab, "Q")
    if p_tab.shape != q_tab.shape:
        raise ValueError(f"shape mismatch: {p_tab.shape} != {q_tab.shape}")
    where = {}
    for r, row in enumerate(q_tab.rows):
        for c, t in enumerate(row):
            where[t] = (r, c)
    n = p_tab.size
    p_rows = [list(r) for r in p_tab.rows]
    images = [0] * n
    for t in range(n, 0, -1):
        r, c = where[t]
        # the box of t must sit at the end of its row at this stage
        if c != len(p_rows[r]) - 1:
            raise ValueError(f"Q: entry {t} is not at a removable corner")
        x = p_rows[r].pop()
        for r2 in range(r - 1, -1, -1):
            row = p_rows[r2]
            k = bisect_left(row, x) - 1  # rightmost entry below x
            x, row[k] = row[k], x
        images[t - 1] = x
    return Permutation(tuple(images))


def a_value(p: Permutation) -> int:
    """Length of the second row of the RS shape of a fully commutative p.

    This is the number of arcs in the diagram of p and Lusztig's a-function
    on its two-sided class.  A p that is not fully commutative is
    rejected by the same shape: by Schensted, p avoids 321 exactly when
    it has at most two rows.

    >>> a_value(Permutation((3, 4, 1, 2)))
    2
    """
    shape = rs_tableaux(p)[0].shape
    if len(shape) > 2:
        raise ValueError(f"{p.images} is not fully commutative")
    return shape[1] if len(shape) > 1 else 0


def _two_row_tableaux(n: int) -> Iterator[Tableau]:
    """All standard tableaux with at most two rows and n boxes."""
    row1: list[int] = []
    row2: list[int] = []

    def rec(v: int) -> Iterator[Tableau]:
        if v > n:
            rows = (tuple(row1), tuple(row2)) if row2 else (tuple(row1),)
            yield Tableau(rows)
            return
        row1.append(v)
        yield from rec(v + 1)
        row1.pop()
        if len(row2) < len(row1):
            row2.append(v)
            yield from rec(v + 1)
            row2.pop()

    yield from rec(1)


def enumerate_fc(n: int, involutions_only: bool = False) -> list[Permutation]:
    """All fully commutative elements of the symmetric group on n letters.

    The list is in lexicographic one-line order and each element appears
    exactly once.  With ``involutions_only`` the self-inverse elements are
    produced from their insertion tableaux (P == Q), which keeps the cost
    proportional to the output size.

    >>> [p.images for p in enumerate_fc(3)]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    >>> len(enumerate_fc(4, involutions_only=True))
    6
    """
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    if involutions_only:
        out = [rs_inverse(t, t) for t in _two_row_tableaux(n)]
        out.sort(key=lambda p: p.images)
        return out
    return list(_fc_elements(n))


def _fc_elements(n: int) -> Iterator[Permutation]:
    """The elements of ``enumerate_fc(n)``, in its order, one at a time.

    Grows the one-line word left to right.  A partial word extends to a
    321-avoiding permutation iff it is itself 321-avoiding and no unused
    value undercuts an existing descent; both reduce to: append either a
    new maximum, or the smallest unused value provided it clears `bound`
    (the largest value already preceded by something bigger).

    Each yielded word is a permutation by construction, so it is built
    without ``Permutation``'s checks: every value appended is either
    above all used values (a new maximum, at most n) or the smallest
    unused one, so the n values of a full word are distinct and lie in
    1..n.
    """
    prefix: list[int] = []
    used = [False] * (n + 2)
    # stack[k] holds the untried (value, prefix_max, bound) choices for
    # position k, the next one last
    stack = [[(v, v, 0) for v in range(n, 0, -1)]]
    while stack:
        choices = stack[-1]
        while len(prefix) >= len(stack):
            used[prefix.pop()] = False
        if not choices:
            stack.pop()
            continue
        v, prefix_max, bound = choices.pop()
        prefix.append(v)
        used[v] = True
        if len(prefix) == n:
            yield Permutation._trusted(tuple(prefix))
            continue
        smallest = used.index(False, 1)
        nxt = [(u, u, bound) for u in range(n, prefix_max, -1)]
        if bound < smallest < prefix_max:
            nxt.append((smallest, prefix_max, smallest))
        stack.append(nxt)


if __name__ == "__main__":
    import doctest

    doctest.testmod()

"""Planar diagrams on two rows of n nodes and their stacking calculus.

A diagram is a perfect matching of the 2n boundary nodes T1..Tn (top row,
left to right) and B1..Bn (bottom row) that can be drawn inside the
rectangle without crossings.  Internally node slots are numbered
0..n-1 for T1..Tn and n..2n-1 for B1..Bn, and the matching is stored as an
involution array.  Planarity is equivalent to the matching being
noncrossing in the boundary cycle T1..Tn, Bn..B1.

``compose(top, bottom)`` glues the bottom row of the first diagram to the
top row of the second and returns the resulting diagram together with the
number of closed loops that were removed.

The diagram of a fully commutative permutation is read off its
Robinson-Schensted tableaux: the second row of the recording tableau Q
holds the right endpoints of the top arcs, the second row of the insertion
tableau P those of the bottom arcs.  ``diagram_of_fc`` and
``fc_of_diagram`` read these two rows in opposite directions.  Stacking
the generator diagrams along any reduced word gives the same diagram and
closes no loop.
"""

from __future__ import annotations

from .permutations import Permutation, Tableau, _Record, rs_inverse, rs_tableaux


class TLDiagram:
    """An immutable planar matching of 2n boundary nodes.

    >>> e1 = generator(1, 3)
    >>> e1.pairs
    (1, 0, 5, 4, 3, 2)
    >>> compose(e1, e1)[1]
    1
    """

    __slots__ = ("n", "pairs", "_hash")

    def __init__(self, n: int, pairs):
        pairs = tuple(pairs)
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        if len(pairs) != 2 * n:
            raise ValueError(f"expected {2 * n} slots, got {len(pairs)}")
        for s, p in enumerate(pairs):
            if not isinstance(p, int) or not 0 <= p < 2 * n:
                raise ValueError(f"slot {s}: partner {p!r} out of range")
            if p == s or pairs[p] != s:
                raise ValueError(f"slot {s}: matching is not an involution")
        _check_planar(n, pairs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_hash", hash((n, pairs)))

    def __setattr__(self, name, value):
        raise AttributeError("TLDiagram is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLDiagram):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for s, p in enumerate(self.pairs):
            if s < p:
                parts.append(f"{_label(self.n, s)}-{_label(self.n, p)}")
        return f"TLDiagram({self.n}, {' '.join(parts)})"


def _label(n: int, slot: int) -> str:
    return f"T{slot + 1}" if slot < n else f"B{slot - n + 1}"


def _slot_of_label(n: int, label: str) -> int:
    row, idx = label[0], label[1:]
    k = int(idx)
    if row not in "TB" or not 1 <= k <= n:
        raise ValueError(f"bad node label {label!r} for rank {n}")
    return k - 1 if row == "T" else n + k - 1


def _check_planar(n: int, pairs: tuple[int, ...]) -> None:
    # boundary cycle T1..Tn, Bn..B1; cut at T1 and run a bracket check
    order = list(range(n)) + list(range(2 * n - 1, n - 1, -1))
    place = [0] * (2 * n)
    for cyc, s in enumerate(order):
        place[s] = cyc
    stack: list[int] = []
    for s in order:
        p = pairs[s]
        if place[p] > place[s]:
            stack.append(s)
        else:
            if not stack or stack[-1] != p:
                raise ValueError("matching is not planar")
            stack.pop()


class Arc(_Record):
    """One strand of a diagram.

    ``side`` is "top", "bottom" or "through".  For top and bottom arcs
    ``ends`` is the 1-based position pair (i, j) with i < j; for a through
    strand it is (top position, bottom position).
    """

    __slots__ = ("side", "ends")
    side: str
    ends: tuple[int, int]


def identity_diagram(n: int) -> TLDiagram:
    return TLDiagram(n, tuple(range(n, 2 * n)) + tuple(range(n)))


def generator(i: int, n: int) -> TLDiagram:
    """The diagram with a top arc and a bottom arc at (i, i+1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} not in 1..{n - 1}")
    pairs = list(range(n, 2 * n)) + list(range(n))
    pairs[i - 1], pairs[i] = i, i - 1
    pairs[n + i - 1], pairs[n + i] = n + i, n + i - 1
    return TLDiagram(n, tuple(pairs))


def compose(top: TLDiagram, bottom: TLDiagram) -> tuple[TLDiagram, int]:
    """Stack ``top`` above ``bottom``; return (diagram, closed loop count).

    >>> d, loops = compose(generator(1, 3), generator(2, 3))
    >>> loops
    0
    >>> compose(d, generator(1, 3)) == (generator(1, 3), 0)
    True
    """
    if top.n != bottom.n:
        raise ValueError(f"rank mismatch: {top.n} != {bottom.n}")
    n = top.n
    tp, bp = top.pairs, bottom.pairs
    visited = [False] * n  # interface nodes, one per glued column
    result = [-1] * (2 * n)

    def trace(in_top: bool, slot: int) -> int:
        # follow the strand until it exits at an outer node; return its
        # result slot (0..n-1 outer top, n..2n-1 outer bottom)
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


def flip(d: TLDiagram) -> TLDiagram:
    """Reflect a diagram top to bottom.

    For fully commutative p, ``flip(diagram_of_fc(p))`` is the diagram of
    the inverse of p.
    """
    n = d.n
    swap = lambda s: s + n if s < n else s - n  # noqa: E731
    pairs = [0] * (2 * n)
    for s, p in enumerate(d.pairs):
        pairs[swap(s)] = swap(p)
    return TLDiagram(n, tuple(pairs))


def arcs(
    d: TLDiagram,
) -> tuple[frozenset[Arc], frozenset[Arc], frozenset[Arc]]:
    """The strands of d grouped by side: (top, bottom, through)."""
    n = d.n
    tops, bottoms, throughs = [], [], []
    for s, p in enumerate(d.pairs):
        if p < s:
            continue
        if p < n:
            tops.append(Arc("top", (s + 1, p + 1)))
        elif s >= n:
            bottoms.append(Arc("bottom", (s - n + 1, p - n + 1)))
        else:
            throughs.append(Arc("through", (s + 1, p - n + 1)))
    return frozenset(tops), frozenset(bottoms), frozenset(throughs)


def top_arcs(d: TLDiagram) -> frozenset[tuple[int, int]]:
    """Top arcs of d as 1-based position pairs (i, j), i < j."""
    n = d.n
    return frozenset(
        (s + 1, p + 1) for s, p in enumerate(d.pairs[:n]) if s < p < n
    )


def bottom_arcs(d: TLDiagram) -> frozenset[tuple[int, int]]:
    """Bottom arcs of d as 1-based position pairs (i, j), i < j."""
    n = d.n
    return frozenset(
        (s + 1, p - n + 1)
        for s, p in enumerate(d.pairs[n:])
        if s + n < p
    )


def through_tops(d: TLDiagram) -> tuple[int, ...]:
    """Top-row positions carrying a through strand, in increasing order."""
    n = d.n
    return tuple(s + 1 for s, p in enumerate(d.pairs[:n]) if p >= n)


def arc_count(d: TLDiagram) -> int:
    """Number of top arcs (equals the number of bottom arcs)."""
    n = d.n
    return sum(1 for p in d.pairs[:n] if p < n) // 2


def _match_second_row(tab: Tableau, pairs: list[int], offset: int) -> list[int]:
    # entries of the second row close an arc with the nearest open position
    # to their left; the positions left open, in order, are returned
    closers = set(tab.rows[1]) if len(tab.rows) > 1 else set()
    open_slots: list[int] = []
    for k in range(offset, offset + tab.size):
        if k - offset + 1 in closers:
            o = open_slots.pop()
            pairs[o], pairs[k] = k, o
        else:
            open_slots.append(k)
    return open_slots


def diagram_of_fc(p: Permutation) -> TLDiagram:
    """The diagram of a fully commutative permutation.

    Bracket-matching the second row of the recording tableau gives the
    top arcs, the second row of the insertion tableau the bottom arcs;
    the top and bottom positions left unmatched are joined in order by
    through strands.

    >>> diagram_of_fc(Permutation((3, 4, 1, 2))).pairs
    (3, 2, 1, 0, 7, 6, 5, 4)
    """
    p_tab, q_tab = rs_tableaux(p)
    if len(p_tab.rows) > 2:
        raise ValueError(f"{p.images} is not fully commutative")
    n = p.n
    pairs = [-1] * (2 * n)
    free_top = _match_second_row(q_tab, pairs, 0)
    free_bottom = _match_second_row(p_tab, pairs, n)
    for t, b in zip(free_top, free_bottom):
        pairs[t], pairs[b] = b, t
    return TLDiagram(n, pairs)


def _matched_rows(arc_ends, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    closers = sorted(j for _, j in arc_ends)
    closer_set = set(closers)
    openers = tuple(k for k in range(1, n + 1) if k not in closer_set)
    return openers, tuple(closers)


def fc_of_diagram(d: TLDiagram) -> Permutation:
    """The fully commutative permutation whose diagram is d.

    Right endpoints of top arcs mark the second row of the recording
    tableau, right endpoints of bottom arcs the second row of the
    insertion tableau; inverse Robinson-Schensted does the rest.  Planar
    matchings of 2n points and fully commutative elements of rank n are
    both counted by Catalan(n), so every diagram has a preimage.

    >>> fc_of_diagram(generator(2, 4)).images
    (1, 3, 2, 4)
    """
    n = d.n
    q_rows = _matched_rows(top_arcs(d), n)
    p_rows = _matched_rows(bottom_arcs(d), n)
    q_tab = Tableau(q_rows if q_rows[1] else (q_rows[0],))
    p_tab = Tableau(p_rows if p_rows[1] else (p_rows[0],))
    return rs_inverse(p_tab, q_tab)


def to_json_dict(d: TLDiagram) -> dict:
    pairs = []
    for s, p in enumerate(d.pairs):
        if s < p:
            pairs.append([_label(d.n, s), _label(d.n, p)])
    return {"n": d.n, "pairs": pairs}


def from_json_dict(data: dict) -> TLDiagram:
    n = data["n"]
    pairs = [-1] * (2 * n)
    for a, b in data["pairs"]:
        sa, sb = _slot_of_label(n, a), _slot_of_label(n, b)
        pairs[sa], pairs[sb] = sb, sa
    return TLDiagram(n, tuple(pairs))


def render_ascii(d: TLDiagram) -> str:
    """Fixed-width picture: one row of arc glyphs per nesting level."""
    n = d.n
    colw = max(2, len(str(n)) + 1)
    width = (n - 1) * colw + 1
    col = lambda k: (k - 1) * colw  # noqa: E731

    def depth(ends, all_ends):
        i, j = ends
        return sum(1 for a, b in all_ends if a < i and j < b)

    top_set, bottom_set, through_set = arcs(d)
    tops = sorted(a.ends for a in top_set)
    bottoms = sorted(a.ends for a in bottom_set)
    throughs = sorted(a.ends for a in through_set)

    def section(arc_list, corner, flip_rows):
        levels = max((depth(e, arc_list) for e in arc_list), default=-1) + 1
        grid = [[" "] * width for _ in range(levels)]
        for ends in arc_list:
            i, j = ends
            r = depth(ends, arc_list)
            grid[r][col(i)] = corner
            grid[r][col(j)] = corner
            for x in range(col(i) + 1, col(j)):
                grid[r][x] = "-"
            for r2 in range(r + 1, levels):
                grid[r2][col(i)] = "|"
                grid[r2][col(j)] = "|"
        for t, b in throughs:
            k = t if not flip_rows else b
            for row in grid:
                row[col(k)] = "|"
        lines = ["".join(row).rstrip() for row in grid]
        return lines[::-1] if flip_rows else lines

    node_line = "".join(str(k).ljust(colw) for k in range(1, n + 1)).rstrip()
    lines = section(tops, ".", False) + [node_line] + section(bottoms, "'", True)
    return "\n".join(lines)


def render_svg(d: TLDiagram) -> str:
    """A small standalone SVG picture, one cubic curve per strand."""
    n = d.n
    step, margin, height = 40, 20, 160
    width = margin * 2 + step * (n - 1)
    x = lambda k: margin + step * (k - 1)  # noqa: E731
    y_top, y_bot = 20, height - 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for a in sorted((a for group in arcs(d) for a in group),
                    key=lambda a: (a.side, a.ends)):
        if a.side == "top":
            i, j = a.ends
            dip = y_top + min(90, 18 * (j - i))
            parts.append(
                f'<path d="M {x(i)} {y_top} C {x(i)} {dip}, '
                f'{x(j)} {dip}, {x(j)} {y_top}" '
                'fill="none" stroke="black" stroke-width="2"/>'
            )
        elif a.side == "bottom":
            i, j = a.ends
            rise = y_bot - min(90, 18 * (j - i))
            parts.append(
                f'<path d="M {x(i)} {y_bot} C {x(i)} {rise}, '
                f'{x(j)} {rise}, {x(j)} {y_bot}" '
                'fill="none" stroke="black" stroke-width="2"/>'
            )
        else:
            t, b = a.ends
            parts.append(
                f'<path d="M {x(t)} {y_top} C {x(t)} {height // 2}, '
                f'{x(b)} {height // 2}, {x(b)} {y_bot}" '
                'fill="none" stroke="black" stroke-width="2"/>'
            )
    for k in range(1, n + 1):
        parts.append(f'<circle cx="{x(k)}" cy="{y_top}" r="3"/>')
        parts.append(f'<circle cx="{x(k)}" cy="{y_bot}" r="3"/>')
    parts.append("</svg>")
    return "\n".join(parts)


if __name__ == "__main__":
    import doctest

    doctest.testmod()

"""Brute-force cross-check of the positivity classifier at small rank.

The oracle: w is "distinguishable" relative to an involution d when every
pair x != y of elements that survive against d admits some (u, v) whose
triple products tell x and y apart by multiplicity.  The classifier says
positive exactly when the oracle says distinguishable; this module
re-derives that equivalence by exhaustive search, reporting rather than
assuming it.

Multiplicities are taken at q = 1, so each closed loop contributes a
factor of 2.

No module-level cache exists.  ``_Basis`` is the only memo: it indexes
permutations, diagrams and products for one run, or one shard of a
verify run, and goes when that run does.
"""

from __future__ import annotations

from itertools import combinations

from .diagrams import (
    TLDiagram,
    arc_count,
    bottom_arcs,
    compose,
    diagram_of_fc,
    flip,
    top_arcs,
)
from .kostant import is_kostant, theta_nonzero
from .permutations import Permutation, _Record, a_value, enumerate_fc


class _Basis:
    """Integer index of rank-n diagrams for one oracle run.

    The diagrams of ``elements`` (FC(n) in enumeration order for a full
    scan) take the indices 0, 1, ...; any other diagram met as a product
    gets the next free index.  A permutation index maps each permutation
    ``of`` has seen to its diagram's index, so ``distinguish`` builds no
    diagram of an element again.
    Products are filled in on first use as (index, loops), so the scan
    compares ints.  A basis lives as long as the call, or the shard of a
    verify run, that made it.
    """

    def __init__(self, n: int, elements=()):
        self.n = n
        self.elements = tuple(elements)
        self.diagrams: list[TLDiagram] = []
        self.index: dict[TLDiagram, int] = {}
        self.perm_index: dict[Permutation, int] = {}
        self.top: list[frozenset] = []
        self.bottom: list[frozenset] = []
        self._products: dict[tuple[int, int], tuple[int, int]] = {}
        for p in self.elements:
            self.of(p)

    def intern(self, dg: TLDiagram) -> int:
        i = self.index.get(dg)
        if i is None:
            i = self.index[dg] = len(self.diagrams)
            self.diagrams.append(dg)
            self.top.append(top_arcs(dg))
            self.bottom.append(bottom_arcs(dg))
        return i

    def of(self, p: Permutation) -> int:
        i = self.perm_index.get(p)
        if i is None:
            if p.n != self.n:
                raise ValueError(f"rank mismatch: {p.n} != {self.n}")
            i = self.perm_index[p] = self.intern(diagram_of_fc(p))
        return i

    def product(self, a: int, b: int) -> tuple[int, int]:
        """(index of a.b, closed loops) for diagram indices a, b."""
        hit = self._products.get((a, b))
        if hit is None:
            dg, loops = compose(self.diagrams[a], self.diagrams[b])
            hit = self._products[a, b] = (self.intern(dg), loops)
        return hit

    def multiplicity(self, d: int, v: int, u: int, x: int) -> int:
        """Coefficient of diagram d in e_v (e_u e_x), at q = 1."""
        m, loops1 = self.product(u, x)
        c, loops2 = self.product(v, m)
        return 2 ** (loops1 + loops2) if c == d else 0

    def separates(self, d: int, v: int, u: int, x: int, y: int) -> bool:
        return self.multiplicity(d, v, u, x) != self.multiplicity(d, v, u, y)

    def first_separator(self, d: int, x: int, y: int):
        """First (u, v) over all pairs of ``elements``, u outer, whose
        triple products against d separate x from y, or None.

        Stacking keeps the top arcs of the upper factor and the bottom
        arcs of the lower one, so e_d occurs in e_v (e_u e_x) only if
        top(v) is within top(d) and bottom(u.x) within bottom(d).  Pairs
        failing that for both x and y give 0 = 0 and are skipped; the
        rest are visited in the same order, so the first separator is
        the one the exhaustive scan finds.
        """
        top, bottom, product = self.top, self.bottom, self.product
        top_d, bottom_d = top[d], bottom[d]
        count = len(self.elements)
        uppers = [v for v in range(count) if top[v] <= top_d]
        for u in range(count):
            mx, lx = product(u, x)
            my, ly = product(u, y)
            hit_x = bottom[mx] <= bottom_d
            hit_y = bottom[my] <= bottom_d
            if not (hit_x or hit_y):
                continue
            for v in uppers:
                # loop total where e_v (e_u e_z) is a multiple of e_d, else -1
                kx = ky = -1
                if hit_x:
                    c, loops = product(v, mx)
                    if c == d:
                        kx = lx + loops
                if hit_y:
                    c, loops = product(v, my)
                    if c == d:
                        ky = ly + loops
                if kx != ky:
                    return self.elements[u], self.elements[v]
        return None

    def distinguish(self, d: Permutation, x: Permutation, y: Permutation):
        """The default search: (x^-1, d), (y^-1, d), then the full scan."""
        di, xi, yi = self.of(d), self.of(x), self.of(y)
        for u in (x.inverse(), y.inverse()):
            if self.separates(di, di, self.of(u), xi, yi):
                return u, d
        return self.first_separator(di, xi, yi)


def multiplicity_at_one(
    d: Permutation, v: Permutation, u: Permutation, x: Permutation
) -> int:
    """Coefficient of the diagram of d in e_v e_u e_x, at q = 1.

    >>> s1 = Permutation((2, 1))
    >>> multiplicity_at_one(s1, s1, s1, s1)
    4
    """
    if not d.n == v.n == u.n == x.n:
        raise ValueError("rank mismatch")
    basis = _Basis(d.n)
    return basis.multiplicity(*map(basis.of, (d, v, u, x)))


def check_lemma_multi(d: Permutation, x: Permutation) -> bool:
    """Whether e_d e_{x^-1} e_x straightens to 2^(2a) e_d, a = a_value(x)."""
    if not d.is_involution():
        raise ValueError(f"{d.images} is not an involution")
    if not theta_nonzero(x, d):
        raise ValueError(f"{x.images} does not survive against {d.images}")
    expected = 2 ** (2 * a_value(x))
    return multiplicity_at_one(d, d, x.inverse(), x) == expected


def find_distinguisher(
    d: Permutation, x: Permutation, y: Permutation, search=None
):
    """First (u, v) whose triple products against d separate x from y.

    The default search tries (x^-1, d), then (y^-1, d), then every pair
    of fully commutative elements in enumeration order.  Returns None
    when the search is exhausted without a separation.

    >>> d = Permutation((3, 4, 1, 2))
    >>> s2 = Permutation((1, 3, 2, 4))
    >>> u, v = find_distinguisher(d, s2, d)
    >>> (u.images, v.images)
    ((1, 3, 2, 4), (3, 4, 1, 2))
    """
    if x == y:
        raise ValueError("x and y must differ")
    if not (theta_nonzero(x, d) and theta_nonzero(y, d)):
        raise ValueError("both elements must survive against d")
    if search is None:
        return _Basis(d.n, enumerate_fc(d.n)).distinguish(d, x, y)
    basis = _Basis(d.n)
    di, xi, yi = basis.of(d), basis.of(x), basis.of(y)
    for u, v in search:
        if basis.separates(di, basis.of(v), basis.of(u), xi, yi):
            return (u, v)
    return None


def witness_postconditions(
    d: Permutation, x: Permutation, y: Permutation
) -> tuple[str, ...]:
    """Names of the witness-contract conditions that (x, y) violates."""
    failed = []
    ex, ey, ed = diagram_of_fc(x), diagram_of_fc(y), diagram_of_fc(d)
    a, c = arc_count(ex), arc_count(ed)
    if x == y:
        failed.append("distinct")
    if not (arc_count(ey) == a and a <= c - 1):
        failed.append("arc_counts")
    if top_arcs(ex) != top_arcs(ey):
        failed.append("same_top_arcs")
    if not (theta_nonzero(x, d) and theta_nonzero(y, d)):
        failed.append("nonvanishing")
    prod, loops = compose(flip(ex), ey)
    if loops != a or top_arcs(prod) != top_arcs(ey):
        failed.append("product_shape")
    return tuple(failed)


class DistinguishReport(_Record):
    """Per-involution outcome of the oracle run.

    For positive d, ``failures`` lists surviving pairs with no
    distinguisher (a correct run leaves it empty) and ``witnesses`` maps
    each checked pair to the (u, v) that separated it.  For negative d,
    ``failures`` holds the constructed witness pair when the full scan
    confirmed it inseparable, and ``witnesses`` the separator if one
    unexpectedly turned up.
    """

    __slots__ = (
        "d", "positive", "scan_complete", "pairs_checked", "failures",
        "witnesses", "witness_pair", "postconditions_failed",
    )
    d: Permutation
    positive: bool
    scan_complete: bool
    pairs_checked: int
    failures: tuple[tuple[Permutation, Permutation], ...]
    witnesses: tuple
    witness_pair: tuple[Permutation, Permutation] | None
    postconditions_failed: tuple[str, ...] | None

    @property
    def agrees(self) -> bool:
        """Oracle verdict (or witness contract) matches the classifier."""
        if self.positive:
            return not self.failures
        if self.postconditions_failed:
            return False
        if not self.scan_complete:
            return True
        return bool(self.failures) and not self.witnesses


class VerifySummary(_Record):
    __slots__ = ("n", "full_scan_limit", "reports")
    n: int
    full_scan_limit: int
    reports: tuple[DistinguishReport, ...]

    @property
    def discrepancies(self) -> tuple[Permutation, ...]:
        return tuple(r.d for r in self.reports if not r.agrees)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    @property
    def positives(self) -> int:
        return sum(1 for r in self.reports if r.positive)


def _report_for(
    basis: _Basis, d: Permutation, full_scan: bool
) -> DistinguishReport:
    verdict = is_kostant(d)
    if verdict.positive:
        top_d = basis.top[basis.of(d)]  # theta_nonzero(x, d), from the index
        alive = [x for x, b in zip(basis.elements, basis.bottom) if b <= top_d]
        failures = []
        witnesses = []
        pairs = 0
        for x, y in combinations(alive, 2):
            pairs += 1
            found = basis.distinguish(d, x, y)
            if found is None:
                failures.append((x, y))
            else:
                witnesses.append(((x, y), found))
        return DistinguishReport(
            d, True, True, pairs, tuple(failures), tuple(witnesses), None, None
        )
    x, y = verdict.witness
    bad = witness_postconditions(d, x, y)
    failures = []
    witnesses = []
    pairs = 0
    if full_scan and not bad:
        pairs = 1
        found = basis.first_separator(basis.of(d), basis.of(x), basis.of(y))
        if found is None:
            failures.append((x, y))
        else:
            witnesses.append(((x, y), found))
    return DistinguishReport(
        d, False, full_scan, pairs,
        tuple(failures), tuple(witnesses), (x, y), bad,
    )


def _reports_for(
    involutions: list[Permutation], full_scan: bool
) -> list[DistinguishReport]:
    # one basis per shard: its product table is shared by every report
    n = involutions[0].n
    basis = _Basis(n, enumerate_fc(n))
    return [_report_for(basis, d, full_scan) for d in involutions]


def verify_classification(
    n: int, full_scan_limit: int = 5, workers: int = 1
) -> VerifySummary:
    """Run the oracle against the classifier for every involution of rank n.

    Positive involutions must have every surviving pair separated;
    negative ones must have their witness pair survive a full scan with
    no separator (only attempted when n <= full_scan_limit, otherwise the
    witness contract alone is checked).  Work shards by involution over
    at most one worker per involution; the result does not depend on the
    worker count.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    full_scan = n <= full_scan_limit
    involutions = enumerate_fc(n, involutions_only=True)
    workers = min(workers, len(involutions))
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing add about
        # 25 ms of `python -X importtime` to a start-up that needs no pool
        from concurrent.futures import ProcessPoolExecutor

        shards = [involutions[i::workers] for i in range(workers)]
        reports = [None] * len(involutions)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_reports_for, shards, [full_scan] * workers)
            for i, part in enumerate(done):
                reports[i::workers] = part
    else:
        reports = _reports_for(involutions, full_scan)
    return VerifySummary(n, full_scan_limit, tuple(reports))


def summary_json_dict(s: VerifySummary) -> dict:
    """Plain-data form of a summary, stable across worker counts."""
    return {
        "n": s.n,
        "full_scan_limit": s.full_scan_limit,
        "involutions": len(s.reports),
        "positives": s.positives,
        "discrepancies": [list(d.images) for d in s.discrepancies],
        "ok": s.ok,
        "reports": [
            {
                "d": list(r.d.images),
                "positive": r.positive,
                "scan_complete": r.scan_complete,
                "pairs_checked": r.pairs_checked,
                "failures": [
                    [list(x.images), list(y.images)] for x, y in r.failures
                ],
                "witness_pair": (
                    [list(r.witness_pair[0].images),
                     list(r.witness_pair[1].images)]
                    if r.witness_pair else None
                ),
                "postconditions_failed": (
                    list(r.postconditions_failed)
                    if r.postconditions_failed is not None else None
                ),
                "agrees": r.agrees,
            }
            for r in s.reports
        ],
    }


def summary_csv_rows(s: VerifySummary) -> list[list]:
    """Per-involution rows: one-line form, verdict, scan stats."""
    rows = [["d", "positive", "scan_complete", "pairs_checked",
             "failures", "agrees"]]
    for r in s.reports:
        rows.append([
            " ".join(str(i) for i in r.d.images),
            r.positive,
            r.scan_complete,
            r.pairs_checked,
            len(r.failures),
            r.agrees,
        ])
    return rows


if __name__ == "__main__":
    import doctest

    doctest.testmod()

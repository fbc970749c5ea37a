"""Brute-force cross-check of the positivity classifier at small rank.

The oracle: w is "distinguishable" relative to an involution d when every
pair x != y of elements that survive against d admits some (u, v) whose
triple products tell x and y apart by multiplicity.  The classifier says
positive exactly when the oracle says distinguishable; this module
re-derives that equivalence by exhaustive search, reporting rather than
assuming it.

Multiplicities are taken at q = 1, so each closed loop contributes a
factor of 2.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

from .algebra import _diag, theta_nonzero
from .diagrams import TLDiagram, arc_count, compose, flip, top_arcs
from .kostant import is_kostant, negative_witness
from .permutations import Permutation, a_value, enumerate_fc


@lru_cache(maxsize=None)
def _mul(a: TLDiagram, b: TLDiagram) -> tuple[TLDiagram, int]:
    return compose(a, b)


def multiplicity_at_one(
    d: Permutation, v: Permutation, u: Permutation, x: Permutation
) -> int:
    """Coefficient of the diagram of d in e_v e_u e_x, at q = 1.

    >>> s1 = Permutation((2, 1))
    >>> multiplicity_at_one(s1, s1, s1, s1)
    4
    """
    dd = _diag(d)
    if not dd.n == v.n == u.n == x.n:
        raise ValueError("rank mismatch")
    m1, loops1 = _mul(_diag(v), _diag(u))
    m2, loops2 = _mul(m1, _diag(x))
    if m2 != dd:
        return 0
    return 2 ** (loops1 + loops2)


def check_lemma_multi(d: Permutation, x: Permutation) -> bool:
    """Whether e_d e_{x^-1} e_x straightens to 2^(2a) e_d, a = a_value(x)."""
    if not d.is_involution():
        raise ValueError(f"{d.images} is not an involution")
    if not theta_nonzero(x, d):
        raise ValueError(f"{x.images} does not survive against {d.images}")
    expected = 2 ** (2 * a_value(x))
    return multiplicity_at_one(d, d, x.inverse(), x) == expected


@lru_cache(maxsize=None)
def _fc_list(n: int) -> tuple[Permutation, ...]:
    return enumerate_fc(n)


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
        fc = _fc_list(d.n)
        search = chain(
            [(x.inverse(), d), (y.inverse(), d)],
            ((u, v) for u in fc for v in fc),
        )
    for u, v in search:
        if multiplicity_at_one(d, v, u, x) != multiplicity_at_one(d, v, u, y):
            return (u, v)
    return None


def witness_postconditions(
    d: Permutation, x: Permutation, y: Permutation
) -> tuple[str, ...]:
    """Names of the witness-contract conditions that (x, y) violates."""
    failed = []
    ex, ey, ed = _diag(x), _diag(y), _diag(d)
    a, c = arc_count(ex), arc_count(ed)
    if x == y:
        failed.append("distinct")
    if not (arc_count(ey) == a and a <= c - 1):
        failed.append("arc_counts")
    if top_arcs(ex) != top_arcs(ey):
        failed.append("same_top_arcs")
    if not (theta_nonzero(x, d) and theta_nonzero(y, d)):
        failed.append("nonvanishing")
    prod, loops = _mul(flip(ex), ey)
    if loops != a or top_arcs(prod) != top_arcs(ey):
        failed.append("product_shape")
    return tuple(failed)


@dataclass(frozen=True)
class DistinguishReport:
    """Per-involution outcome of the oracle run.

    For positive d, ``failures`` lists surviving pairs with no
    distinguisher (a correct run leaves it empty) and ``witnesses`` maps
    each checked pair to the (u, v) that separated it.  For negative d,
    ``failures`` holds the constructed witness pair when the full scan
    confirmed it inseparable, and ``witnesses`` the separator if one
    unexpectedly turned up.
    """

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


@dataclass(frozen=True)
class VerifySummary:
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


def _report_for(d: Permutation, full_scan: bool) -> DistinguishReport:
    fc = _fc_list(d.n)
    verdict = is_kostant(d)
    if verdict.positive:
        alive = [x for x in fc if theta_nonzero(x, d)]
        failures = []
        witnesses = []
        pairs = 0
        for x, y in combinations(alive, 2):
            pairs += 1
            found = find_distinguisher(d, x, y)
            if found is None:
                failures.append((x, y))
            else:
                witnesses.append(((x, y), found))
        return DistinguishReport(
            d, True, True, pairs, tuple(failures), tuple(witnesses), None, None
        )
    x, y = negative_witness(d)
    bad = witness_postconditions(d, x, y)
    failures = []
    witnesses = []
    pairs = 0
    if full_scan and not bad:
        pairs = 1
        found = find_distinguisher(
            d, x, y, search=((u, v) for u in fc for v in fc)
        )
        if found is None:
            failures.append((x, y))
        else:
            witnesses.append(((x, y), found))
    return DistinguishReport(
        d, False, full_scan, pairs,
        tuple(failures), tuple(witnesses), (x, y), bad,
    )


def verify_classification(
    n: int, full_scan_limit: int = 5, workers: int = 1
) -> VerifySummary:
    """Run the oracle against the classifier for every involution of rank n.

    Positive involutions must have every surviving pair separated;
    negative ones must have their witness pair survive a full scan with
    no separator (only attempted when n <= full_scan_limit, otherwise the
    witness contract alone is checked).  Work shards by involution when
    workers > 1; the result does not depend on the worker count.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    full_scan = n <= full_scan_limit
    involutions = enumerate_fc(n, involutions_only=True)
    scans = [full_scan] * len(involutions)
    if workers > 1 and len(involutions) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = tuple(pool.map(_report_for, involutions, scans))
    else:
        reports = tuple(map(_report_for, involutions, scans))
    return VerifySummary(n, full_scan_limit, reports)


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

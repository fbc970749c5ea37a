"""Seeded uniform random fully commutative permutations.

Fully commutative elements of rank n are the pairs (P, Q) of standard
tableaux of one shape with at most two rows, via Robinson-Schensted.
Choosing the shape (n-a, a) with weight mi(n, a)^2, then P and Q
independently and uniformly among the mi(n, a) tableaux of that shape,
gives every FC element the same probability.

This module uses only the standard library, so the inputs of a workload
never depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from math import comb


def tableau_count(n: int, a: int) -> int:
    """Standard tableaux of shape (n-a, a): the ballot number mi(n, a)."""
    return comb(n, a) - (comb(n, a - 1) if a else 0)


def _ballot_paths(i: int, j: int, rows: tuple[int, int]) -> int:
    """Tableau fillings that complete i boxes in row one and j in row two."""
    r1, r2 = rows
    left = r1 + r2 - i - j
    # reflection principle: all lattice paths minus those touching j = i + 1
    bad = comb(left, r1 - j + 1) if r1 - j + 1 <= left else 0
    return comb(left, r1 - i) - bad


def random_tableau_rows(rng: random.Random, rows: tuple[int, int]):
    """A uniform standard tableau of two-row shape ``rows``, as its rows."""
    r1, r2 = rows
    top: list[int] = []
    bottom: list[int] = []
    for t in range(1, r1 + r2 + 1):
        i, j = len(top), len(bottom)
        up = _ballot_paths(i + 1, j, rows) if i < r1 else 0
        down = _ballot_paths(i, j + 1, rows) if j < r2 and j < i else 0
        (top if rng.randrange(up + down) < up else bottom).append(t)
    return top, bottom


def inverse_rs(p_rows, q_rows) -> list[int]:
    """One-line images of the permutation with insertion tableau P and
    recording tableau Q, both given as two rows."""
    p = [list(r) for r in p_rows]
    row_of = {t: r for r, row in enumerate(q_rows) for t in row}
    n = len(row_of)
    images = [0] * n
    for t in range(n, 0, -1):
        r = row_of[t]
        x = p[r].pop()
        if r == 1:
            top = p[0]
            k = bisect_left(top, x) - 1  # rightmost entry below x
            x, top[k] = top[k], x
        images[t - 1] = x
    return images


def random_fc(rng: random.Random, n: int) -> list[int]:
    """A uniform random fully commutative permutation of rank n."""
    weights = [tableau_count(n, a) ** 2 for a in range(n // 2 + 1)]
    pick = rng.randrange(sum(weights))
    a = 0
    while pick >= weights[a]:
        pick -= weights[a]
        a += 1
    rows = (n - a, a)
    return inverse_rs(random_tableau_rows(rng, rows), random_tableau_rows(rng, rows))


def random_fc_list(seed: int, count: int, n: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [random_fc(rng, n) for _ in range(count)]


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

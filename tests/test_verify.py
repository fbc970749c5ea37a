"""The multiplicity oracle against the classifier."""

import concurrent.futures
import itertools

import pytest

from tlkostant import (
    Permutation,
    a_value,
    bottom_arcs,
    check_lemma_multi,
    compose,
    diagram_of_fc,
    enumerate_fc,
    find_distinguisher,
    is_kostant,
    multiplicity_at_one,
    negative_witness,
    special_involution,
    theta_nonzero,
    top_arcs,
    verify_classification,
    witness_postconditions,
)
from tlkostant import verify
from tlkostant.verify import (
    DistinguishReport,
    summary_csv_rows,
    summary_json_dict,
)


class ReferenceOracle:
    """The exhaustive oracle: e_v e_u e_x composed diagram by diagram,
    every (u, v) in enumeration order, nothing pruned.  Products are
    memoised per instance only."""

    def __init__(self, n):
        self.fc = enumerate_fc(n)
        self.diag = {p: diagram_of_fc(p) for p in self.fc}
        self.products = {}

    def mul(self, a, b):
        if (a, b) not in self.products:
            self.products[a, b] = compose(a, b)
        return self.products[a, b]

    def multiplicity(self, d, v, u, x):
        m1, loops1 = self.mul(self.diag[v], self.diag[u])
        m2, loops2 = self.mul(m1, self.diag[x])
        return 2 ** (loops1 + loops2) if m2 == self.diag[d] else 0

    def first_separator(self, d, x, y, search):
        for u, v in search:
            if self.multiplicity(d, v, u, x) != self.multiplicity(d, v, u, y):
                return (u, v)
        return None

    def report(self, d):
        fc = self.fc
        everything = [(u, v) for u in fc for v in fc]
        if is_kostant(d).positive:
            alive = [x for x in fc if theta_nonzero(x, d)]
            failures, witnesses, pairs = [], [], 0
            for x, y in itertools.combinations(alive, 2):
                pairs += 1
                search = [(x.inverse(), d), (y.inverse(), d)] + everything
                found = self.first_separator(d, x, y, search)
                if found is None:
                    failures.append((x, y))
                else:
                    witnesses.append(((x, y), found))
            return DistinguishReport(
                d, True, True, pairs, tuple(failures), tuple(witnesses),
                None, None,
            )
        x, y = negative_witness(d)
        bad = witness_postconditions(d, x, y)
        found = self.first_separator(d, x, y, everything)
        return DistinguishReport(
            d, False, True, 1,
            ((x, y),) if found is None else (),
            () if found is None else (((x, y), found),),
            (x, y), bad,
        )

S1 = Permutation((2, 1))
SIGMA = Permutation((3, 4, 1, 2))
S2_4 = Permutation((1, 3, 2, 4))


def test_multiplicity_values():
    assert multiplicity_at_one(S1, S1, S1, S1) == 4
    assert multiplicity_at_one(SIGMA, SIGMA, S2_4, S2_4) == 4
    assert multiplicity_at_one(SIGMA, SIGMA, S2_4, SIGMA) == 8
    e = Permutation.identity(4)
    assert multiplicity_at_one(SIGMA, e, e, SIGMA) == 1
    assert multiplicity_at_one(SIGMA, e, e, e) == 0


def test_multiplicity_rank_mismatch():
    with pytest.raises(ValueError):
        multiplicity_at_one(S1, S1, S1, SIGMA)


@pytest.mark.parametrize("n", range(2, 7))
def test_lemma_multi(n):
    for d in enumerate_fc(n, involutions_only=True):
        for x in enumerate_fc(n):
            if theta_nonzero(x, d):
                assert check_lemma_multi(d, x)


def test_lemma_multi_preconditions():
    with pytest.raises(ValueError):
        check_lemma_multi(Permutation((2, 3, 1)), Permutation((2, 1, 3)))
    s1_3, s2_3 = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    with pytest.raises(ValueError):
        check_lemma_multi(s1_3, s2_3)


def test_find_distinguisher_shortcut():
    # (x^-1, d) already separates s2 from sigma relative to sigma
    u, v = find_distinguisher(SIGMA, S2_4, SIGMA)
    assert (u, v) == (S2_4, SIGMA)
    assert (multiplicity_at_one(SIGMA, v, u, S2_4)
            != multiplicity_at_one(SIGMA, v, u, SIGMA))


def test_find_distinguisher_respects_explicit_search():
    u, v = find_distinguisher(
        SIGMA, S2_4, SIGMA, search=[(SIGMA, SIGMA), (S2_4, SIGMA)]
    )
    assert (u, v) in {(SIGMA, SIGMA), (S2_4, SIGMA)}
    assert find_distinguisher(SIGMA, S2_4, SIGMA, search=[]) is None


def test_find_distinguisher_preconditions():
    with pytest.raises(ValueError):
        find_distinguisher(SIGMA, S2_4, S2_4)
    s1_4 = Permutation((2, 1, 3, 4))
    assert not theta_nonzero(s1_4, SIGMA)
    with pytest.raises(ValueError):
        find_distinguisher(SIGMA, s1_4, SIGMA)


def test_canonical_negative_pair_has_no_distinguisher():
    d = Permutation((2, 1, 4, 3))
    x, y = negative_witness(d)
    assert witness_postconditions(d, x, y) == ()
    fc = enumerate_fc(4)
    found = find_distinguisher(
        d, x, y, search=((u, v) for u in fc for v in fc)
    )
    assert found is None


@pytest.mark.parametrize("n", range(2, 8))
def test_witness_postconditions_hold_for_all_negatives(n):
    for d in enumerate_fc(n, involutions_only=True):
        if is_kostant(d).positive:
            continue
        x, y = negative_witness(d)
        assert witness_postconditions(d, x, y) == ()


def test_witness_postconditions_flag_violations():
    d = Permutation((2, 1, 4, 3))
    x, y = negative_witness(d)
    assert "distinct" in witness_postconditions(d, x, x)
    assert "arc_counts" in witness_postconditions(d, d, d)
    bad = witness_postconditions(d, x, SIGMA)
    assert "same_top_arcs" in bad


@pytest.mark.parametrize("n", range(2, 6))
def test_verify_classification_agrees(n):
    summary = verify_classification(n)
    assert summary.ok
    assert summary.discrepancies == ()
    assert len(summary.reports) == len(
        enumerate_fc(n, involutions_only=True)
    )
    for report in summary.reports:
        assert report.agrees
        assert report.scan_complete
        if not report.positive:
            assert report.postconditions_failed == ()
            assert report.failures and not report.witnesses


def test_verify_positive_counts():
    assert [verify_classification(n).positives for n in range(2, 6)] == \
        [2, 3, 5, 8]


def test_verify_rejects_tiny_rank():
    with pytest.raises(ValueError):
        verify_classification(1)


def test_verify_beyond_scan_limit_checks_the_contract_only():
    summary = verify_classification(6, full_scan_limit=5)
    assert summary.ok
    for report in summary.reports:
        if not report.positive:
            assert not report.scan_complete
            assert report.pairs_checked == 0
            assert report.postconditions_failed == ()


def test_worker_count_does_not_change_the_summary():
    one = verify_classification(4, workers=1)
    two = verify_classification(4, workers=2)
    assert summary_json_dict(one) == summary_json_dict(two)
    assert summary_csv_rows(one) == summary_csv_rows(two)


def test_summary_serializations_agree():
    summary = verify_classification(3)
    data = summary_json_dict(summary)
    assert data["ok"] is True
    assert data["n"] == 3
    assert data["involutions"] == len(summary.reports)
    rows = summary_csv_rows(summary)
    assert len(rows) == len(summary.reports) + 1  # header


def test_case_one_shortcut_is_enough_for_unequal_arc_counts():
    # When a(x) != a(y) the pair (x^-1, d) or (y^-1, d) already separates,
    # the point of trying those two first.
    for n in range(2, 6):
        for d in enumerate_fc(n, involutions_only=True):
            if not is_kostant(d).positive:
                continue
            alive = [x for x in enumerate_fc(n) if theta_nonzero(x, d)]
            for x, y in itertools.combinations(alive, 2):
                if a_value(x) == a_value(y):
                    continue
                found = find_distinguisher(
                    d, x, y,
                    search=[(x.inverse(), d), (y.inverse(), d)],
                )
                assert found is not None


@pytest.mark.parametrize("n", range(2, 7))
def test_indexed_scan_matches_the_reference_scan(n):
    reference = ReferenceOracle(n)
    summary = verify_classification(n, full_scan_limit=n)
    involutions = enumerate_fc(n, involutions_only=True)
    assert [r.d for r in summary.reports] == involutions
    for got in summary.reports:
        want = reference.report(got.d)
        assert got.failures == want.failures
        assert got.witnesses == want.witnesses
        assert got.pairs_checked == want.pairs_checked
        assert got.witness_pair == want.witness_pair
        assert got == want


@pytest.mark.parametrize("n", range(2, 5))
def test_pruned_scan_finds_the_first_separator_of_the_full_scan(n):
    # every d and every ordered pair, surviving or not: verify runs alone
    # rarely reach a separable full scan, since the shortcuts separate
    # every positive pair
    reference = ReferenceOracle(n)
    fc = reference.fc
    everything = [(u, v) for u in fc for v in fc]
    basis = verify._Basis(n, fc)
    separated = 0
    for d, x, y in itertools.product(fc, repeat=3):
        if x == y:
            continue
        want = reference.first_separator(d, x, y, everything)
        got = basis.first_separator(basis.of(d), basis.of(x), basis.of(y))
        assert got == want
        separated += want is not None
    assert separated > 0


@pytest.mark.parametrize("n", range(2, 5))
def test_pruned_products_have_multiplicity_zero(n):
    # the scan skips (u, v) against d for x unless top(v) <= top(d) and
    # bottom(u x) <= bottom(d); every skipped product must miss e_d
    reference = ReferenceOracle(n)
    fc, diag = reference.fc, reference.diag
    pruned = 0
    for d, u, v, x in itertools.product(fc, repeat=4):
        ux, _ = reference.mul(diag[u], diag[x])
        if (top_arcs(diag[v]) <= top_arcs(diag[d])
                and bottom_arcs(ux) <= bottom_arcs(diag[d])):
            continue
        pruned += 1
        assert reference.multiplicity(d, v, u, x) == 0
    assert pruned > 0


def test_large_rank_needs_no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated FC(64)")

    monkeypatch.setattr(verify, "enumerate_fc", refuse)
    d = Permutation(tuple(k + 1 if k % 2 else k - 1 for k in range(1, 65)))
    assert d.is_involution() and not is_kostant(d).positive
    x, y = negative_witness(d)
    assert witness_postconditions(d, x, y) == ()
    assert multiplicity_at_one(d, d, x.inverse(), x) == 4 ** a_value(x)
    e = Permutation.identity(64)
    assert multiplicity_at_one(d, e, e, e) == 0
    assert find_distinguisher(d, x, y, search=[(x.inverse(), d)]) is None


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and maps
    in this process."""

    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_worker_pool_is_clamped_to_the_involutions(monkeypatch):
    # verify imports the pool class where it starts a pool, so the fake
    # goes where that import looks it up
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    serial = summary_json_dict(verify_classification(4, workers=1))
    assert RecordingPool.sizes == []
    for workers, size in [(2, 2), (6, 6), (7, 6), (10_000, 6)]:
        got = summary_json_dict(verify_classification(4, workers=workers))
        assert got == serial
        assert RecordingPool.sizes[-1] == size
    verify_classification(2, workers=10_000)  # two involutions
    assert RecordingPool.sizes[-1] == 2


@pytest.mark.parametrize("workers", [0, -5])
def test_verify_rejects_worker_counts_below_one(workers):
    with pytest.raises(ValueError):
        verify_classification(3, workers=workers)

"""The value types keep the contract of the frozen dataclasses they replace.

Each class is compared with its former ``@dataclass`` definition, rebuilt
here from the field names it had: repr, equality, hash, set iteration
order, immutability, keyword construction and pickling.
"""

import pickle
from dataclasses import make_dataclass

import pytest

from tlkostant import (
    Permutation,
    SpecialFactor,
    Tableau,
    Word,
    counts_by_formula,
    diagram_of_fc,
    is_kostant,
    ratio_report,
    recursion_checks,
    rs_tableaux,
    verify_classification,
)
from tlkostant.counting import CountTable, RatioReport, RatioRow, RecursionReport
from tlkostant.diagrams import Arc, arcs
from tlkostant.kostant import KostantVerdict
from tlkostant.verify import DistinguishReport, VerifySummary

# class -> (field names in order, whether the dataclass had slots=True)
FORMER = {
    Permutation: (("images",), True),
    Word: (("n", "letters"), True),
    Tableau: (("rows",), True),
    Arc: (("side", "ends"), True),
    SpecialFactor: (("i", "j", "n"), True),
    KostantVerdict: (("positive", "factors", "witness"), True),
    CountTable: (("n", "by_a", "totals"), False),
    RecursionReport: (("n_max", "checks", "failures"), False),
    RatioRow: (("n", "ki_over_mi", "k_over_m", "fixed_a"), False),
    RatioReport: (
        ("rows", "totals_decreasing_from_4", "fixed_a_nondecreasing"), False
    ),
    DistinguishReport: (
        ("d", "positive", "scan_complete", "pairs_checked", "failures",
         "witnesses", "witness_pair", "postconditions_failed"),
        False,
    ),
    VerifySummary: (("n", "full_scan_limit", "reports"), False),
}

REFERENCE = {
    cls: make_dataclass(cls.__name__, names, frozen=True, slots=slots)
    for cls, (names, slots) in FORMER.items()
}


def _samples():
    summary = verify_classification(4, full_scan_limit=4)
    ratios = ratio_report(6)
    perms = [Permutation((3, 4, 1, 2)), Permutation((2, 1, 4, 3)),
             Permutation((1,))]
    return {
        Permutation: perms,
        Word: [Word(4, (2, 1, 3, 2)), Word(1, ()), Word(4, (2, 1, 3))],
        Tableau: [t for p in perms for t in rs_tableaux(p)],
        Arc: sorted(
            (a for p in perms for side in arcs(diagram_of_fc(p)) for a in side),
            key=repr,
        ),
        SpecialFactor: [SpecialFactor(2, 1, 4), SpecialFactor(1, 0, 4),
                        SpecialFactor(3, 0, 4)],
        KostantVerdict: [is_kostant(p) for p in perms]
        + [is_kostant(Permutation((2, 3, 1, 4)))],
        CountTable: [counts_by_formula(4), counts_by_formula(5),
                     counts_by_formula(4)],
        RecursionReport: [recursion_checks(5), recursion_checks(6),
                          RecursionReport(3, 1, ("ki recursion at n=3 a=0",))],
        RatioRow: list(ratios.rows),
        RatioReport: [ratios, ratio_report(5)],
        DistinguishReport: list(summary.reports),
        VerifySummary: [summary, verify_classification(3)],
    }


SAMPLES = _samples()
CLASSES = list(FORMER)


def _values(obj):
    return tuple(getattr(obj, name) for name in FORMER[type(obj)][0])


def _reference(obj):
    return REFERENCE[type(obj)](*_values(obj))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_every_former_dataclass_has_samples():
    assert set(SAMPLES) == set(FORMER)
    assert all(len(SAMPLES[cls]) >= 2 for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_dataclass(cls):
    objs = SAMPLES[cls]
    refs = [_reference(o) for o in objs]
    for obj, ref in zip(objs, refs):
        assert repr(obj) == repr(ref)
        assert _hash_or_error(obj) == _hash_or_error(ref)
        assert obj == cls(*_values(obj))
        assert not obj != cls(*_values(obj))
        assert obj != ref and ref != obj  # other types never compare equal
        assert obj != _values(obj)
    for (a, ra), (b, rb) in zip(zip(objs, refs), zip(objs[1:], refs[1:])):
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)
    if isinstance(_hash_or_error(objs[0]), int):
        assert [repr(o) for o in set(objs)] == [repr(r) for r in set(refs)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_immutable(cls):
    obj = SAMPLES[cls][0]
    before = repr(obj)
    for name in FORMER[cls][0]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    names = FORMER[cls][0]
    for obj in SAMPLES[cls]:
        assert cls(**dict(zip(names, _values(obj)))) == obj
    assert SpecialFactor(i=2, j=1, n=4) == SpecialFactor(2, 1, 4)


def test_wrong_field_counts_raise_type_error():
    with pytest.raises(TypeError):
        Arc("top")
    with pytest.raises(TypeError):
        Arc("top", (1, 2), "extra")
    with pytest.raises(TypeError):
        Arc("top", ends=(1, 2), side="bottom")
    with pytest.raises(TypeError):
        Arc("top", (1, 2), colour="red")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls, protocol):
    for obj in SAMPLES[cls]:
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls
        assert back == obj
        assert repr(back) == repr(obj)
        assert _hash_or_error(back) == _hash_or_error(obj)

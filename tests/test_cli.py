"""The command-line interface: exit codes, formats, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import tlkostant
from tlkostant import (
    Permutation,
    cells,
    counts_by_formula,
    ratio_report,
    recursion_checks,
)
from tlkostant.cli import main
from tlkostant.verify import DistinguishReport, VerifySummary


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "tlkostant.cli", *argv],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_classify_positive_json():
    code, out, _ = run_cli("classify", "--perm", "3,4,1,2")
    assert code == 0
    data = json.loads(out)
    assert data["positive"] is True
    assert data["factors"] == [{"i": 2, "j": 1}]
    assert data["witness"] is None


def test_classify_negative_json():
    code, out, _ = run_cli("classify", "--perm", "2,1,4,3")
    assert code == 0
    data = json.loads(out)
    assert data["positive"] is False
    assert data["witness"] == [[2, 1, 3, 4], [4, 1, 2, 3]]


def test_classify_by_word_ascii():
    code, out, _ = run_cli(
        "classify", "--word", "2,1,3,2", "--n", "4", "--format", "ascii"
    )
    assert code == 0
    assert "verdict: positive" in out
    assert "1 2 3 4" in out


def test_classify_usage_errors():
    code, _, err = run_cli("classify", "--perm", "3,2,1")
    assert code == 2 and "not fully commutative" in err
    code, _, err = run_cli("classify", "--perm", "1,1,2")
    assert code == 2
    code, _, err = run_cli("classify", "--perm", "2,1", "--word", "1")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli("classify", "--word", "1")
    assert code == 2 and "--n" in err
    code, _, err = run_cli("classify")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "render"])
def test_perm_with_another_rank_is_rejected(command, capsys):
    assert main([command, "--perm", "2,1", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --n 5 does not match the rank 2 of --perm 2,1\n"
    )


@pytest.mark.parametrize("command", ["classify", "render"])
def test_perm_with_its_own_rank_is_accepted(command, capsys):
    assert main([command, "--perm", "3,4,1,2"]) == 0
    plain = capsys.readouterr().out
    assert main([command, "--perm", "3,4,1,2", "--n", "4"]) == 0
    assert capsys.readouterr().out == plain


def test_enumerate_with_brute_agreement():
    code, out, _ = run_cli("enumerate", "--n", "6", "--brute")
    assert code == 0
    data = json.loads(out)
    assert data["brute_matches"] is True
    assert data["counts"]["totals"]["m"] == 132
    assert data["counts"]["totals"]["k"] == 85
    assert data["recursions"]["ok"] is True
    assert data["ratios"] is not None


def test_enumerate_brute_cap():
    code, _, err = run_cli("enumerate", "--n", "99", "--brute")
    assert code == 2 and "capped" in err
    code, _, _ = run_cli("enumerate", "--n", "99")
    assert code == 0  # formulas have no cap


def test_enumerate_brute_cap_fires_before_counting(monkeypatch, capsys):
    # rank 13 has 742,900 elements; the cap must stop it before the count
    def unreachable(*args):
        raise AssertionError("brute counts ran above the cap")

    monkeypatch.setattr("tlkostant.counting.counts_by_bruteforce", unreachable)
    assert main(["enumerate", "--n", "13", "--brute"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: brute-force counting is capped at rank 12, got 13\n"
    )


def test_enumerate_brute_accepts_rank_twelve(monkeypatch, capsys):
    # the cap's top rank reaches the counter; the real rank-12 count takes
    # several seconds, so a stand-in returns the formula table
    seen = []

    def stand_in(n):
        seen.append(n)
        return counts_by_formula(n)

    monkeypatch.setattr("tlkostant.counting.counts_by_bruteforce", stand_in)
    assert main(["enumerate", "--n", "12", "--brute"]) == 0
    assert seen == [12]
    assert json.loads(capsys.readouterr().out)["brute_matches"] is True


@pytest.mark.parametrize("n", ["0", "501", "1000000"])
def test_enumerate_rank_cap(n, monkeypatch, capsys):
    # the cap must fire before any table is built
    def unreachable(*args):
        raise AssertionError("a table was built outside the cap")

    for name in ("counts_by_formula", "recursion_checks", "ratio_report"):
        monkeypatch.setattr(f"tlkostant.counting.{name}", unreachable)
    assert main(["enumerate", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be in 1..500, got {n}\n"


def test_enumerate_accepts_rank_five_hundred(monkeypatch, capsys):
    # the cap's top rank reaches every table builder; the real recursions
    # and ratios to rank 500 take seconds, so stand-ins return rank-3 tables
    # built before patching (ratio_report itself calls counts_by_formula)
    seen = []
    tables = {real.__name__: real(3)
              for real in (counts_by_formula, recursion_checks, ratio_report)}

    def stand_in(name):
        def build(n):
            seen.append((name, n))
            return tables[name]
        return build

    for name in tables:
        monkeypatch.setattr(f"tlkostant.counting.{name}", stand_in(name))
    assert main(["enumerate", "--n", "500"]) == 0
    assert sorted(seen) == [("counts_by_formula", 500),
                            ("ratio_report", 500), ("recursion_checks", 500)]
    assert json.loads(capsys.readouterr().out)["recursions"]["ok"] is True


def test_enumerate_csv():
    code, out, _ = run_cli("enumerate", "--n", "5", "--format", "csv")
    assert code == 0
    assert out.startswith("n,a,ki,mi,k,m\n")
    assert "\n\nn,ki/mi," in out


def test_enumerate_rejects_bad_rank():
    code, _, _ = run_cli("enumerate", "--n", "0")
    assert code == 2
    code, _, _ = run_cli("enumerate")
    assert code == 2


def test_verify_small_rank_passes():
    code, out, _ = run_cli("verify", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["discrepancies"] == []
    assert data["positives"] == 3


def test_verify_rank_caps():
    assert run_cli("verify", "--n", "1")[0] == 2
    assert run_cli("verify", "--n", "9")[0] == 2


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_verify_rejects_worker_counts_below_one(workers, capsys):
    assert main(["verify", "--n", "3", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: workers must be at least 1, got {workers}\n"


def test_verify_is_deterministic_across_workers():
    _, one, _ = run_cli("verify", "--n", "4", "--workers", "1")
    _, two, _ = run_cli("verify", "--n", "4", "--workers", "3")
    assert one == two


def test_verify_csv():
    code, out, _ = run_cli("verify", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,")
    assert len(lines) == 4  # header + three involutions


def test_verify_discrepancy_exits_one(monkeypatch, capsys):
    d = Permutation((2, 1))
    bad = DistinguishReport(
        d, True, True, 1, ((d, d),), (), None, None,
    )
    fake = VerifySummary(2, 5, (bad,))
    monkeypatch.setattr(
        "tlkostant.verify.verify_classification", lambda *a, **k: fake
    )
    assert main(["verify", "--n", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False


def test_render_formats(tmp_path):
    code, out, _ = run_cli("render", "--perm", "2,1,4,3", "--format", "ascii")
    assert code == 0 and "1 2 3 4" in out
    code, out, _ = run_cli("render", "--perm", "2,1,4,3", "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run_cli("render", "--perm", "2,1,4,3")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4

    target = tmp_path / "diagram.svg"
    code, out, _ = run_cli(
        "render", "--perm", "2,1,4,3", "--format", "svg", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("<svg")


def test_render_rejects_non_fc():
    assert run_cli("render", "--perm", "3,2,1")[0] == 2


def test_cells_json_matches_library():
    code, out, _ = run_cli("cells", "--n", "4")
    assert code == 0
    data = json.loads(out)
    expected = sorted(
        sorted(list(w.images) for w in cell) for cell in cells(4, "left")
    )
    assert sorted(data["cells"]) == expected
    total = sum(len(c) for c in data["cells"])
    assert total == 14


def test_cells_csv_and_kinds():
    code, out, _ = run_cli("cells", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.startswith("cell,permutation\n")
    code, out, _ = run_cli("cells", "--n", "3", "--kind", "two_sided")
    assert code == 0
    assert len(json.loads(out)["cells"]) == 2  # a = 0 and a = 1
    assert run_cli("cells", "--n", "0")[0] == 2
    assert run_cli("cells", "--n", "3", "--kind", "bogus")[0] == 2


@pytest.mark.parametrize("n", ["13", "1000000"])
def test_cells_rank_cap(n, monkeypatch, capsys):
    # the cap must fire before the Catalan-sized enumeration starts
    def unreachable(*args):
        raise AssertionError("cells enumerated above the cap")

    monkeypatch.setattr("tlkostant.algebra.cells", unreachable)
    assert main(["cells", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be in 1..12, got {n}\n"


def _fresh(code):
    # stdout of code run by a fresh interpreter that imports this checkout
    src = pathlib.Path(tlkostant.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by_cli_import(modules, then=""):
    # which of modules have run in a fresh interpreter after
    # `import tlkostant.cli` and the statements in then; a leaf that is
    # registered but has not run yet is a LazyLoader placeholder, whose
    # type is not ModuleType until its first attribute access
    probe = (
        "import json, sys, types, tlkostant.cli\n"
        f"{then}\n"
        f"print(json.dumps(sorted(m for m in {tuple(modules)!r}"
        " if type(sys.modules.get(m)) is types.ModuleType)))"
    )
    return json.loads(_fresh(probe).splitlines()[-1])


def test_cli_import_loads_no_pool_or_dataclasses():
    # the process pool and the dataclass machinery add about 35 ms of
    # `python -X importtime`; only verify with workers above 1 loads the pool
    assert _loaded_by_cli_import(
        ("concurrent.futures", "multiprocessing", "dataclasses")
    ) == []


def test_cli_import_loads_no_fractions():
    # only enumerate's ratio table builds a Fraction; fractions pulls in
    # decimal and numbers, about 2 ms of every other command's start-up
    assert _loaded_by_cli_import(("fractions", "decimal")) == []


LEAVES = ("tlkostant.algebra", "tlkostant.counting", "tlkostant.laurent",
          "tlkostant.verify")


def test_cli_import_runs_no_leaf_module():
    # the classifier's core is all a start-up compiles; the cross-checks
    # and csv load with the command that needs them
    assert _loaded_by_cli_import((*LEAVES, "csv")) == []


def test_classify_runs_no_leaf_module():
    then = "tlkostant.cli.main(['classify', '--perm', '3,4,1,2'])"
    assert _loaded_by_cli_import((*LEAVES, "csv"), then) == []


def test_enumerate_runs_only_its_leaves():
    # the control: a command that needs leaves does load them
    then = "tlkostant.cli.main(['enumerate', '--n', '3', '--format', 'csv'])"
    assert _loaded_by_cli_import((*LEAVES, "csv"), then) == [
        "csv", "tlkostant.counting", "tlkostant.laurent",
    ]


def test_lazy_names_are_their_defining_modules_objects():
    probe = """
import sys, tlkostant
assert set(tlkostant.__all__) <= set(dir(tlkostant))
bound = dict(vars(tlkostant))
for name in tlkostant.__all__:
    obj = getattr(tlkostant, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
# resolving a leaf name binds nothing new in the package namespace
assert vars(tlkostant) == bound
print("ok")
"""
    assert _fresh(probe) == "ok\n"


def test_star_import_binds_all_names():
    probe = """
import tlkostant
names = {}
exec("from tlkostant import *", names)
assert set(tlkostant.__all__) <= set(names), set(tlkostant.__all__) - set(names)
print(len(tlkostant.__all__))
"""
    assert _fresh(probe) == f"{len(tlkostant.__all__)}\n"


def test_leaf_submodule_and_unknown_name():
    probe = """
import sys, tlkostant
f = tlkostant.verify.verify_classification
assert f is sys.modules["tlkostant.verify"].verify_classification
try:
    tlkostant.nope
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(probe) == "module 'tlkostant' has no attribute 'nope'\n"


def test_unknown_subcommand_fails():
    assert run_cli("frobnicate")[0] == 2


def test_json_output_is_stable():
    _, first, _ = run_cli("enumerate", "--n", "7")
    _, second, _ = run_cli("enumerate", "--n", "7")
    assert first == second

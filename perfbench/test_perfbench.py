"""Fast self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is reported with its unit,
that nothing fails on the current code, that a corrupted output is
counted as a failure, and that the input generator and tracer behave.
"""

import collections
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tlkostant  # noqa: E402
import workloads  # noqa: E402
from inputs import digest, random_fc, random_fc_list  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _toy_run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--toy", "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_reported_and_nothing_fails(workload, trace):
    code, result = _toy_run(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def _corrupt(workload: str, outputs: list) -> list:
    code, text = outputs[0]
    if workload == "oracle_scan":
        bad = text.replace('"agrees": true', '"agrees": false', 1)
        return [(code, bad)]
    payload = json.loads(text)
    if workload == "brute_sweep":
        payload["1"][3] += 1
        return [(code, json.dumps(payload))]
    if workload == "formula_tables":
        payload["ratios"]["totals_decreasing_from_4"] = False
        return [(code, json.dumps(payload))]
    # classify_large: break the first negative's witness pair
    for k, (code, text) in enumerate(outputs):
        payload = json.loads(text)
        if not payload["positive"]:
            payload["witness"][1] = payload["witness"][0]
            return outputs[:k] + [(code, json.dumps(payload))] + outputs[k + 1:]
    raise AssertionError("no negative verdict to corrupt")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_corrupted_output_counts_as_failure(workload):
    params = workloads.SIZES[workload]["toy"]
    inputs = workloads.make_inputs(workload, params, seed=5)
    outputs, _ = workloads.run(workload, params, inputs)
    attempted, failed = workloads.check(workload, params, inputs, outputs)
    assert failed == 0 and attempted >= 1
    bad = _corrupt(workload, outputs)
    assert workloads.check(workload, params, inputs, bad)[1] >= 1


def test_classify_nonzero_exit_counts_as_failure():
    params = workloads.SIZES["classify_large"]["toy"]
    inputs = workloads.make_inputs("classify_large", params, seed=5)
    outputs, _ = workloads.run("classify_large", params, inputs)
    outputs[0] = (2, outputs[0][1])
    assert workloads.check("classify_large", params, inputs, outputs)[1] == 1


@pytest.mark.parametrize("workload", ["oracle_scan", "formula_tables"])
def test_truncated_output_fails_every_operation(workload):
    params = workloads.SIZES[workload]["toy"]
    (code, text), = workloads.run(workload, params, None)[0]
    attempted, failed = workloads.check(workload, params, None, [(code, text[:-20])])
    assert failed == attempted >= 1


def test_inputs_repeat_per_seed_and_are_fully_commutative():
    a = random_fc_list(9, 20, 30)
    assert a == random_fc_list(9, 20, 30)
    assert digest(a) != digest(random_fc_list(10, 20, 30))
    for images in a:
        assert tlkostant.is_fully_commutative(tlkostant.Permutation(tuple(images)))


def test_inputs_reach_every_element_at_small_rank():
    rng = random.Random(0)
    seen = collections.Counter(tuple(random_fc(rng, 4)) for _ in range(1400))
    assert set(seen) == {p.images for p in tlkostant.enumerate_fc(4)}
    assert min(seen.values()) > 50  # 100 expected for each of 14


def _bindings() -> dict:
    found = {
        (name, attr): value
        for name, module in sys.modules.items() if name.startswith("tlkostant")
        for attr, value in vars(module).items() if callable(value)
    }
    for attr in ("__mul__", "__add__"):
        found["LaurentPoly", attr] = vars(tlkostant.LaurentPoly)[attr]
    return found


def test_tracer_counts_calls_self_time_and_restores_bindings():
    import tlkostant.cli

    before = _bindings()
    with Tracer() as tracer:
        # reached through another module's binding, as the CLI reaches it
        tlkostant.cli.is_kostant(tlkostant.Permutation((2, 1, 4, 3)))
    assert _bindings() == before
    summary = tracer.summary()
    assert summary["kostant.is_kostant"]["calls"] == 1
    assert summary["kostant.negative_witness"]["calls"] == 1
    assert summary["diagrams.diagram_of_fc"]["calls"] >= 1
    # self times partition the root span: is_kostant is span 0
    root_s = (tracer.end[0] - tracer.start[0]) / 1e9
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(root_s)
    assert all(v["self_s"] >= 0 for v in summary.values())

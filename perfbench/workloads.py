"""The four workloads: their sizes, inputs, timed bodies and output checks.

Why each workload was chosen is in README.md and in the ``why`` of each
workload in BENCHMARK.json.  The timed bodies and the checks run in the
child process, which has the package imported; input generation runs in
the parent and needs only the standard library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from math import comb

from inputs import random_fc_list

NAMES = ("oracle_scan", "brute_sweep", "classify_large", "formula_tables")

# Full sizes keep one child to about 1-4 s, so a run holds many children.
SIZES = {
    "oracle_scan": {"full": {"n": 6}, "toy": {"n": 4}},
    "brute_sweep": {"full": {"n": 9}, "toy": {"n": 5}},
    "classify_large": {"full": {"count": 200, "chunk": 25, "n": 64},
                       "toy": {"count": 5, "chunk": 2, "n": 12}},
    "formula_tables": {"full": {"n": 200}, "toy": {"n": 20}},
}


def make_inputs(workload: str, params: dict, seed: int) -> list | None:
    """The seeded requests of ``classify_large``; the others take none."""
    if workload != "classify_large":
        return None
    return random_fc_list(seed, params["count"], params["n"])


def _cli(argv: list[str], buf: io.StringIO) -> int:
    """Exit code of one in-process ``tlkostant`` call, stdout into buf."""
    from tlkostant import cli

    try:
        with contextlib.redirect_stdout(buf):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command exits 1, like the real CLI
        traceback.print_exc(file=sys.stderr)
        return 1


def run(workload: str, params: dict, inputs) -> tuple[list, list[float]]:
    """The timed body: one (exit code, stdout) per operation, and the
    latency of each top-level call in seconds."""
    clock = time.perf_counter
    n = str(params["n"])
    if workload == "classify_large":
        outputs, latencies = [], []
        for images in inputs:
            argv = ["classify", "--perm", ",".join(map(str, images))]
            buf = io.StringIO()
            t0 = clock()
            code = _cli(argv, buf)
            latencies.append(clock() - t0)
            outputs.append((code, buf.getvalue()))
        return outputs, latencies
    t0 = clock()
    if workload == "brute_sweep":
        from tlkostant import counting

        table = counting.counts_by_bruteforce(params["n"])
        latency = clock() - t0
        rows = {str(a): list(r) for a, r in table.by_a.items()}
        return [(0, json.dumps(rows, sort_keys=True))], [latency]
    if workload == "oracle_scan":
        argv = ["verify", "--n", n, "--full-scan-limit", n, "--workers", "1"]
    else:
        argv = ["enumerate", "--n", n]
    buf = io.StringIO()
    code = _cli(argv, buf)
    return [(code, buf.getvalue())], [clock() - t0]


def stdout_digest(outputs) -> tuple[str, int]:
    """SHA-256 and byte count of all operations' stdout, in order."""
    data = "".join(text for _, text in outputs).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def operations(workload: str, params: dict, inputs) -> int:
    """How many operations a workload's output checks count."""
    n = params["n"]
    if workload == "oracle_scan":
        return comb(n, n // 2)  # one per involution
    if workload == "brute_sweep":
        return n // 2 + 1  # one per a-row of the count table
    if workload == "classify_large":
        return len(inputs)  # one per request
    # one per recursion check, plus the two trend flags
    return sum(k // 2 + 3 for k in range(3, n + 1)) + 2


def check(workload: str, params: dict, inputs, outputs) -> tuple[int, int]:
    """(operations attempted, operations failed) for a workload's output.

    Needs the package imported; call it with tracing off.
    """
    attempted = operations(workload, params, inputs)
    try:
        failed = _failures(workload, params, inputs, outputs, attempted)
    except (KeyError, TypeError, ValueError, AttributeError):  # malformed output
        failed = attempted
    return attempted, min(failed, attempted)


def _failures(workload, params, inputs, outputs, attempted) -> int:
    n = params["n"]
    if workload == "classify_large":
        return sum(
            not _classify_ok(images, code, text)
            for images, (code, text) in zip(inputs, outputs, strict=True)
        )
    if workload == "brute_sweep":
        from tlkostant.counting import counts_by_formula

        want = {str(a): list(r) for a, r in counts_by_formula(n).by_a.items()}
        got = json.loads(outputs[0][1])
        return sum(got.get(a) != want.get(a) for a in set(want) | set(got))
    code, text = outputs[0]
    if code != 0:
        return attempted
    payload = json.loads(text)
    if workload == "oracle_scan":
        if (
            payload["ok"] is not True
            or payload["involutions"] != attempted
            or payload["positives"] != _fibonacci(n + 1)
            or len(payload["reports"]) != attempted
        ):
            return attempted
        return sum(r["agrees"] is not True for r in payload["reports"])
    rec, ratios = payload["recursions"], payload["ratios"]
    if rec["checks"] + 2 != attempted:
        return attempted
    flags = (
        ratios["totals_decreasing_from_4"],
        all(ratios["fixed_a_nondecreasing"].values()),
    )
    return len(rec["failures"]) + sum(f is not True for f in flags)


def _classify_ok(images: list[int], code: int, text: str) -> bool:
    """Whether one classify request succeeded and kept the certificate
    contract: a negative's witness passes ``witness_postconditions``
    against the left-cell involution, and a positive involution's factors
    multiply back to it."""
    from tlkostant import Permutation, special_involution
    from tlkostant.algebra import left_cell_involution
    from tlkostant.verify import witness_postconditions

    if code != 0:
        return False
    try:
        payload = json.loads(text)
        if payload["input"] != images:
            return False
        w = Permutation(tuple(images))
        if payload["positive"] is not True:
            x, y = (Permutation(tuple(p)) for p in payload["witness"])
            return not witness_postconditions(left_cell_involution(w), x, y)
        if not w.is_involution():
            return True
        product = Permutation.identity(len(images))
        for f in payload["factors"]:
            product = product * special_involution(f["i"], f["j"], len(images))
        return product == w
    except (KeyError, TypeError, ValueError):  # malformed output
        return False

"""One fresh process: import the package, run one workload, check it.

The parent starts this script and reads one JSON line from its stdout.
``import tlkostant`` is the first thing done, so the parent can time set-up
from process start to the moment the import returns.  The job (workload,
sizes, inputs, trace flag) arrives on stdin afterwards.  With ``--probe``
the process exits right after the import.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tlkostant  # noqa: E402

IMPORTED_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tlkostant.cli  # noqa: E402,F401  (bound before any tracing starts)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    result = {"imported_ns": IMPORTED_NS, "package": tlkostant.__file__}
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(result))
        return 0
    job = json.load(sys.stdin)
    name, params, inputs = job["workload"], job["params"], job["inputs"]
    tracer = Tracer() if job["spans_path"] else None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        outputs, latencies = workloads.run(name, params, inputs)
        wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sha, size = workloads.stdout_digest(outputs)
    result.update(
        wall_s=wall, op_s=latencies, peak_rss_mb=rss_mb,
        stdout_sha256=sha, stdout_bytes=size,
    )
    if job["check"]:
        attempted, failed = workloads.check(name, params, inputs, outputs)
        result.update(attempted=attempted, failed=failed)
    if tracer:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.start)
        tracer.write(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden stdout: fixed command lines must keep their output bytes.

Each command line in ``COMMANDS`` runs in-process through ``cli.main``;
the SHA-256 of what it writes to stdout is compared with the digest
stored in ``golden_stdout.json``, together with its exit code.  A refactor
that keeps this test passing keeps the command-line contract byte for
byte.

To regenerate after an intended output change::

    PYTHONPATH=src python tests/test_golden_stdout.py > tests/golden_stdout.json
"""

import contextlib
import hashlib
import io
import json
import pathlib

from tlkostant.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_stdout.json")

PERMS = ["3,4,1,2", "2,1,4,3", "1", "4,1,2,3", "2,1,4,3,6,5",
         "3,4,1,2,7,8,5,6", "5,6,7,8,1,2,3,4"]


def _commands():
    out = []
    for perm in PERMS:
        for fmt in ("json", "ascii"):
            out.append(["classify", "--perm", perm, "--format", fmt])
        for fmt in ("json", "ascii", "svg"):
            out.append(["render", "--perm", perm, "--format", fmt])
    out.append(["classify", "--word", "2,1,3,2", "--n", "4", "--format", "ascii"])
    for n in ("1", "2", "5", "8"):
        for fmt in ("json", "csv"):
            out.append(["enumerate", "--n", n, "--brute", "--format", fmt])
    # the formula tables at the bench's rank, no brute counts
    for fmt in ("json", "csv"):
        out.append(["enumerate", "--n", "200", "--format", fmt])
    for n in ("2", "3", "4", "5"):
        out.append(["verify", "--n", n, "--full-scan-limit", "5",
                    "--workers", "1"])
    out.append(["verify", "--n", "4", "--workers", "2", "--format", "csv"])
    # the full scan at rank 6: positives' survivors, negatives' witnesses
    out.append(["verify", "--n", "6", "--full-scan-limit", "6",
                "--workers", "1"])
    out.append(["classify", "--perm", "3,2,1"])  # not FC: exit 2, no stdout
    for n in ("1", "4", "6"):
        for kind in ("left", "right", "two_sided"):
            for fmt in ("json", "csv"):
                out.append(["cells", "--n", n, "--kind", kind, "--format", fmt])
    return out


COMMANDS = _commands()


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _snapshot():
    rows = {}
    for argv in COMMANDS:
        code, digest = _digest(argv)
        rows[" ".join(argv)] = {"exit": code, "sha256": digest}
    return rows


def test_golden_stdout():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(" ".join(argv) for argv in COMMANDS)
    mismatched = [
        line for line, got in _snapshot().items() if got != expected[line]
    ]
    assert not mismatched


if __name__ == "__main__":
    print(json.dumps(_snapshot(), indent=2, sort_keys=True))

"""Command-line surface: classify, enumerate, verify, render, cells.

Exit codes: 0 success, 1 verification found a discrepancy, 2 usage or
validation error.  Output bytes are deterministic for a given command
line; the worker count never changes them.

Importing this module loads only the classifier's core.  Each command
imports the leaf it needs (``verify``, ``counting``, ``algebra``, and
``csv`` for CSV output) when it runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .diagrams import diagram_of_fc, render_ascii, render_svg, to_json_dict
from .kostant import is_kostant
from .permutations import Permutation, Word, is_fully_commutative, word_to_permutation

BRUTE_CAP = 12
VERIFY_CAP = 8
CELLS_CAP = 12
ENUMERATE_CAP = 500


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _csv_text(sections: list[list[list]]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, rows in enumerate(sections):
        if i:
            buf.write("\n")
        writer.writerows(rows)
    return buf.getvalue()


def _input_permutation(args) -> Permutation | str:
    """The permutation named by --perm or --word, or an error string."""
    if (args.perm is None) == (args.word is None):
        return "exactly one of --perm and --word is required"
    try:
        if args.perm is not None:
            images = tuple(int(s) for s in args.perm.split(","))
            if args.n is not None and args.n != len(images):
                return (
                    f"--n {args.n} does not match the rank {len(images)}"
                    f" of --perm {args.perm}"
                )
            return Permutation(images)
        if args.n is None:
            return "--word requires --n"
        letters = tuple(int(s) for s in args.word.split(","))
        return word_to_permutation(Word(args.n, letters))
    except ValueError as exc:
        return str(exc)


def _cmd_classify(args) -> int:
    got = _input_permutation(args)
    if isinstance(got, str):
        return _fail(got)
    if not is_fully_commutative(got):
        return _fail(f"{list(got.images)} is not fully commutative")
    verdict = is_kostant(got)
    if args.format == "json":
        payload = {
            "input": list(got.images),
            "positive": verdict.positive,
            "factors": (
                [{"i": f.i, "j": f.j} for f in verdict.factors]
                if verdict.factors is not None else None
            ),
            "witness": (
                [list(verdict.witness[0].images),
                 list(verdict.witness[1].images)]
                if verdict.witness else None
            ),
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = [f"input: {list(got.images)}"]
        lines.append("verdict: positive" if verdict.positive else "verdict: negative")
        if verdict.factors is not None:
            lines.append(
                "factors: "
                + (" ".join(f"({f.i},{f.j})" for f in verdict.factors) or "(empty)")
            )
        if verdict.witness:
            x, y = verdict.witness
            lines.append(f"witness: {list(x.images)} vs {list(y.images)}")
        lines.append("")
        lines.append(render_ascii(diagram_of_fc(got)))
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    from .counting import (
        counts_by_bruteforce,
        counts_by_formula,
        counts_csv_rows,
        counts_json_dict,
        ratio_report,
        ratios_csv_rows,
        ratios_json_dict,
        recursion_checks,
    )

    if not 1 <= args.n <= ENUMERATE_CAP:
        return _fail(f"rank must be in 1..{ENUMERATE_CAP}, got {args.n}")
    if args.brute and args.n > BRUTE_CAP:
        return _fail(
            f"brute-force counting is capped at rank {BRUTE_CAP}, got {args.n}"
        )
    table = counts_by_formula(args.n)
    brute = counts_by_bruteforce(args.n) if args.brute else None
    recursions = recursion_checks(args.n) if args.n >= 3 else None
    ratios = ratio_report(args.n) if args.n >= 2 else None
    if args.format == "json":
        payload = {
            "counts": counts_json_dict(table),
            "brute_counts": counts_json_dict(brute) if brute else None,
            "brute_matches": (brute == table) if brute else None,
            "recursions": (
                {
                    "n_max": recursions.n_max,
                    "checks": recursions.checks,
                    "failures": list(recursions.failures),
                    "ok": recursions.ok,
                }
                if recursions else None
            ),
            "ratios": ratios_json_dict(ratios) if ratios else None,
        }
        _emit(_json_text(payload), args.out)
    else:
        sections = [counts_csv_rows(table)]
        if brute:
            rows = counts_csv_rows(brute)
            rows[0][0] = "n_brute"
            sections.append(rows)
        if recursions:
            sections.append([
                ["recursion_checks", "ok"],
                [recursions.checks, recursions.ok],
            ])
        if ratios:
            sections.append(ratios_csv_rows(ratios))
        _emit(_csv_text(sections), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import summary_csv_rows, summary_json_dict, verify_classification

    if not 2 <= args.n <= VERIFY_CAP:
        return _fail(f"rank must be in 2..{VERIFY_CAP}, got {args.n}")
    if args.workers < 1:
        return _fail(f"workers must be at least 1, got {args.workers}")
    summary = verify_classification(
        args.n, full_scan_limit=args.full_scan_limit, workers=args.workers
    )
    if args.format == "json":
        _emit(_json_text(summary_json_dict(summary)), args.out)
    else:
        _emit(_csv_text([summary_csv_rows(summary)]), args.out)
    return 0 if summary.ok else 1


def _cmd_render(args) -> int:
    got = _input_permutation(args)
    if isinstance(got, str):
        return _fail(got)
    if not is_fully_commutative(got):
        return _fail(f"{list(got.images)} is not fully commutative")
    diagram = diagram_of_fc(got)
    if args.format == "ascii":
        _emit(render_ascii(diagram), args.out)
    elif args.format == "svg":
        _emit(render_svg(diagram), args.out)
    else:
        _emit(_json_text(to_json_dict(diagram)), args.out)
    return 0


def _cmd_cells(args) -> int:
    from .algebra import cells

    if not 1 <= args.n <= CELLS_CAP:
        return _fail(f"rank must be in 1..{CELLS_CAP}, got {args.n}")
    partition = cells(args.n, args.kind)
    listed = [sorted(list(w.images) for w in cell) for cell in partition]
    if args.format == "json":
        payload = {"n": args.n, "kind": args.kind, "cells": listed}
        _emit(_json_text(payload), args.out)
    else:
        rows = [["cell", "permutation"]]
        for index, cell in enumerate(listed):
            for images in cell:
                rows.append([index, " ".join(str(i) for i in images)])
        _emit(_csv_text([rows]), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlkostant",
        description="Diagram calculus for fully commutative permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--perm", help="one-line permutation, e.g. 3,4,1,2")
        p.add_argument("--word", help="letters of a word, e.g. 2,1,3,2")
        p.add_argument("--n", type=int, help="rank (required with --word)")
        p.add_argument("--out", help="write output to this file")

    p = sub.add_parser("classify", help="positivity verdict with certificate")
    add_input_flags(p)
    p.add_argument("--format", choices=["json", "ascii"], default="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="count tables, recursions, ratios")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--brute", action="store_true",
                   help="also count by exhaustive classification")
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="oracle vs classifier at rank n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--full-scan-limit", type=int, default=5,
                   help="largest rank at which negatives get a full scan")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw the diagram of an element")
    add_input_flags(p)
    p.add_argument("--format", choices=["json", "ascii", "svg"], default="json")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("cells", help="partition rank n into cells")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["left", "right", "two_sided"],
                   default="left")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(func=_cmd_cells)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

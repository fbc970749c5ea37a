"""Outside-in tracer: spans around calls into the package's layers.

Each traced function is replaced by a wrapper in every ``tlkostant.*``
namespace that binds it.  The modules import one another with
``from .x import f``, so patching only the defining module would miss
most calls.  Spans live in flat arrays (name, start, end, parent) while
the workload runs; counts and self times are derived from them after it
ends, and the spans can be written out for later inspection.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (layer module, function) pairs that are traced; a "Class.method" entry
# is patched on the class and reported under its short name in _ALIASES.
TRACED = (
    ("verify", "multiplicity_at_one"),
    ("verify", "find_distinguisher"),
    ("verify", "witness_postconditions"),
    ("verify", "verify_classification"),
    ("algebra", "theta_nonzero"),
    ("algebra", "left_cell_involution"),
    ("diagrams", "compose"),
    ("diagrams", "diagram_of_fc"),
    ("diagrams", "fc_of_diagram"),
    ("diagrams", "flip"),
    ("diagrams", "arcs"),
    ("kostant", "is_kostant"),
    ("kostant", "negative_witness"),
    ("kostant", "decompose_into_specials"),
    ("permutations", "enumerate_fc"),
    ("permutations", "reduced_word"),
    ("permutations", "rs_tableaux"),
    ("permutations", "rs_inverse"),
    ("permutations", "is_fully_commutative"),
    ("counting", "counts_by_formula"),
    ("counting", "counts_by_bruteforce"),
    ("counting", "recursion_checks"),
    ("counting", "ratio_report"),
    ("counting", "hook_length_count"),
    ("counting", "fibonacci_polynomial"),
    ("laurent", "LaurentPoly.__mul__"),
    ("laurent", "LaurentPoly.__add__"),
    ("cli", "main"),
)

_ALIASES = {"LaurentPoly.__mul__": "mul", "LaurentPoly.__add__": "add"}


def span_names() -> list[str]:
    """Metric prefixes ``<module>.<function>`` in TRACED order."""
    return [f"{mod}.{_ALIASES.get(fn, fn)}" for mod, fn in TRACED]


class Tracer:
    """Records one span per call of each traced function.

    Use as a context manager: entering patches the package, leaving
    restores every binding it replaced.
    """

    def __init__(self):
        self.names = span_names()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: int, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(key)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> Tracer:
        modules = [
            m for k, m in sys.modules.items()
            if k == "tlkostant" or k.startswith("tlkostant.")
        ]
        for key, (mod, fn) in enumerate(TRACED):
            home = sys.modules[f"tlkostant.{mod}"]
            if "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(key, original))
                continue
            original = getattr(home, fn)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: call count and self time in seconds.

        A span's self time is its duration minus the durations of its
        child spans.  Children start after their parent, so walking the
        spans from last to first sees every child before its parent.
        """
        count = len(self.start)
        covered = array("q", bytes(8 * count))
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(count - 1, -1, -1):
            span = end[i] - start[i]
            key = name[i]
            calls[key] += 1
            self_ns[key] += span - covered[i]
            up = parent[i]
            if up >= 0:
                covered[up] += span
        return {
            n: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
            for k, n in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name:i", "parent:i", "start_ns:q", "end_ns:q"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

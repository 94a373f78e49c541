"""Spans and counts at the boundaries between schurfit's modules.

`Tracer.installed` replaces names where they are bound -- `regress.schur`,
`regress.vandermonde`, `incremental.schur`, `incremental.vandermonde`,
`cli.parse_scalar` and the arithmetic methods of `Scalar` -- and puts the
originals back when the block ends, also on error.  The harness opens its own
spans around each public call, so a span's parent is the call that caused it.
Spans stay in memory until `write` is called after the run.

`Scalar` arithmetic is counted, not spanned: one span per operation would be
millions of records whose cost dwarfs the operation itself.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (key in the `modules` mapping, name where bound, span name, index of the
# argument whose length is recorded as the span's size, or None)
_SPANNED = (
    ("regress", "schur", "symfunc.schur", 1),
    ("regress", "vandermonde", "symfunc.vandermonde", 0),
    ("incremental", "schur", "symfunc.schur", 1),
    ("incremental", "vandermonde", "symfunc.vandermonde", 0),
    ("cli", "parse_scalar", "numeric.parse_scalar", None),
)
_COUNTED = ("__add__", "__sub__", "__mul__", "__truediv__")


class Tracer:
    """In-memory spans `(name, start, end, parent index or -1, size or None)`
    and a count of `Scalar` add, sub, mul and div calls."""

    def __init__(self):
        self.spans = []
        self.scalar_ops = 0
        self._current = -1

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent, self._current = self._current, idx
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, None)
            self._current = parent

    def _spanned(self, name, fn, size_arg):
        spans = self.spans

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent, self._current = self._current, idx
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                size = len(args[size_arg]) if size_arg is not None and size_arg < len(args) else None
                spans[idx] = (name, start, perf_counter(), parent, size)
                self._current = parent

        return wrapper

    def _counted(self, fn):
        def wrapper(a, b):
            self.scalar_ops += 1
            return fn(a, b)

        return wrapper

    @contextmanager
    def installed(self, modules):
        """Wrap the cross-module names of `modules` (a mapping with keys
        cli, regress, incremental, numeric) for the duration of the block."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        try:
            for module, attr, name, size_arg in _SPANNED:
                owner = modules[module]
                patch(owner, attr, self._spanned(name, vars(owner)[attr], size_arg))
            scalar = modules["numeric"].Scalar
            for attr in _COUNTED:
                patch(scalar, attr, self._counted(vars(scalar)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def aggregate(self):
        """Per span name: count, total seconds, self seconds (duration minus
        the direct children) and the list of durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["count"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child[idx]
            agg["durations"].append(end - start)
        return out

    def count_children(self, parent_name, child_name, size):
        """Number of `child_name` spans of the given size directly under a
        `parent_name` span."""
        return sum(
            1
            for name, _, _, parent, s in self.spans
            if name == child_name and s == size and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path):
        """One CSV line per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        lines = ["name,start_s,end_s,parent,size"]
        lines += [
            f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{'' if size is None else size}"
            for name, start, end, parent, size in self.spans
        ]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

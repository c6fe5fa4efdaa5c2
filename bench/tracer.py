"""In-memory span tracer that wraps module attributes from outside the program.

A span is (name, start, end, parent, item): `parent` is the index of the
span that was open when this one started (-1 at top level) and `item` the
workload-item id current at that moment.  Spans stay in memory until the
benchmark writes them out at exit.  `uninstall()` puts every wrapped
attribute back, so an untraced run executes the program's own objects.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from pathlib import Path

NAME, START, END, PARENT, ITEM, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None, item=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        count(args, kwargs, result) returns a dict of numbers stored with the
        span; item(args, kwargs) returns a workload-item id that holds for the
        span and its children.
        """
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            saved_item = self.item
            if item is not None:
                self.item = item(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self.item = saved_item
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, item, counts) in enumerate(self.spans):
                rec = {"i": i, "name": name, "start": start, "end": end, "parent": parent, "item": item}
                if counts:
                    rec["counts"] = counts
                f.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, parts outside the
    parent are clipped)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append((hi - lo) - covered)
    return out


def ancestors(spans: list[list], index: int):
    parent = spans[index][PARENT]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][PARENT]

"""In-memory spans around calls into the program's layers.

The traced child replaces selected module attributes of the program with
wrappers that record a span (name, start, end, parent) for each call; the
program's own code is untouched and calls them through the replaced names.
`self_times` turns the spans into per-name self time, calls and counts.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Records spans; `batch` tags each span with the workload being replayed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object, object]] = []
        self.batch = ""

    def open(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "batch": self.batch,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        """`fn` recording a span per call; `note(args, result)` adds fields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                span.update(note(args, result))
            return result

        return traced

    def patch(self, module, attr: str, name: str, note=None) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, note)
        self._patched.append((module, attr, original, wrapped))
        setattr(module, attr, wrapped)

    def enable(self, on: bool) -> None:
        """Switch every patched attribute to its wrapper or back."""
        for module, attr, original, wrapped in self._patched:
            setattr(module, attr, wrapped if on else original)


def self_times(spans: list[dict]) -> dict[tuple[str, str], dict]:
    """{(batch, name): {"self_s", "total_s", "calls", "count"}}; self time is
    a span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[tuple[str, str], dict] = {}
    for span, inner in zip(spans, child_time):
        duration = span["end"] - span["start"]
        row = out.setdefault((span["batch"], span["name"]),
                             {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0})
        row["self_s"] += duration - inner
        row["total_s"] += duration
        row["calls"] += 1
        row["count"] += span.get("count", 0)
    return out


def group_segments(spans: list[dict], campaign: str, mark: str) -> dict[str, float]:
    """Seconds spent on each group inside `campaign` spans: a group's segment
    runs from its first `mark` span to the next group's first mark, or to the
    end of the campaign."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["name"] == mark and span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        if span["name"] != campaign:
            continue
        starts: list[tuple[float, str]] = []
        for child in children.get(span["id"], []):
            if not starts or starts[-1][1] != child["group"]:
                starts.append((child["start"], child["group"]))
        ends = [start for start, _ in starts[1:]] + [span["end"]]
        for (start, group), end in zip(starts, ends):
            out[group] = out.get(group, 0.0) + end - start
    return out

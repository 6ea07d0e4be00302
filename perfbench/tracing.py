"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code around each call into a
library layer: name, start, end, parent span and the item id shared by
every span of one item.  Nothing is written until `dump` at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    item: str
    parent: int  # -1 for a root span
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `span()` nests under the innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: str):
        parent = self._open[-1] if self._open else -1
        sp = Span(len(self.spans), name, item, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def self_times(spans: list) -> dict:
    """sid -> span duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for a, b in sorted(children.get(sp.sid, ())):
            a, b = max(a, reach), min(b, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out[sp.sid] = sp.duration - covered
    return out

"""In-memory spans around the layer calls the benchmark makes.

A span is (id, name, start, end, parent, work).  The name's first dotted
part is the layer (the package module the call enters); work is the number
of values, draws, paths or path-steps the call produced, when it has one.
Spans stay in memory and are read out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    work: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans when enabled; a disabled tracer costs one branch per call."""

    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, work: float | None = None):
        if not self.enabled:
            yield None
            return
        sp = Span(len(self.spans), name, time.perf_counter(), parent=self._stack[-1] if self._stack else None, work=work)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - child_time[sp.id]
        return out

    def dump(self) -> list[list]:
        return [[sp.id, sp.name, sp.start, sp.end, sp.parent, sp.work] for sp in self.spans]

"""In-memory spans recorded by the benchmark around its calls into the
library's modules.

A span has a name (``<module>.<function>`` for a library call;
``channel.decode`` for a loop of channel edits; ``pass`` or ``task`` for the
benchmark's own grouping), a start and end time in seconds since the tracer
was created, the id of the span that was open when it started, and the id
of the task it belongs to.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, task: str | None = None):
        """Record one span; the yielded dict takes extra attributes."""
        record = {"id": len(self.spans), "name": name,
                  "start": perf_counter() - self.origin, "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "task": task}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self.origin
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


class _NullSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


class NoTracer:
    """Stands in for Tracer in untraced passes; records nothing."""

    _span = _NullSpan()

    def span(self, name: str, task: str | None = None) -> _NullSpan:
        return self._span

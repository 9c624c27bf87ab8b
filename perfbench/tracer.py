"""In-memory spans around calls into the package, recorded from outside.

A span is (name, parent, start, end).  Spans nest strictly because the
benchmark is a single thread, so a span's self time is its duration
minus the durations of its direct children.  Spans are kept in flat
arrays while the run lasts and written out once at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._open = -1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open)
        self.end.append(0)
        self._open = i
        self.start.append(_now())
        return i

    def finish(self, i: int, end: int | None = None, rename: str | None = None) -> None:
        self.end[i] = _now() if end is None else end
        self._open = self.parent[i]
        if rename is not None:
            self.name[i] = self._name_id(rename)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def note(self, key: str, value: float) -> None:
        """Record a count observed at a span boundary (passes, arcs, ...),
        filed under the root span it was observed in."""
        root = self._open
        while root >= 0 and self.parent[root] >= 0:
            root = self.parent[root]
        phase = self.names[self.name[root]] if root >= 0 else ""
        self.notes[phase + ":" + key].append(value)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        post: Callable[[Any, tuple], str | None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* inside a span; ``post(result, args)`` may note counts and
        return a more specific span name once the result is known."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.finish(i)
                raise
            end = _now()
            self.finish(i, end, post(result, args) if post is not None else None)
            return result

        return traced

    # ---- analysis ------------------------------------------------------

    def by_phase(self) -> dict[str, dict[str, list[tuple[int, int]]]]:
        """Root span name -> span name -> (duration, self time) in ns,
        for every span below a root."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        roots: list[int] = []
        out: dict[str, dict[str, list[tuple[int, int]]]] = defaultdict(lambda: defaultdict(list))
        for i, p in enumerate(self.parent):
            roots.append(i if p < 0 else roots[p])
            if p >= 0:
                phase = self.names[self.name[roots[i]]]
                out[phase][self.names[self.name[i]]].append((self.end[i] - self.start[i], own[i]))
        return out

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )

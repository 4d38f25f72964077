"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of the library from the outside (the
program under test carries no tracing of its own for these layers):
each wrapped call records one span — name, start, end, the span that
called it and the outermost span on its thread, which identifies the
request. Spans are kept in memory in compact per-thread columns and
written out once, when the run ends.

Wrappers use :func:`functools.wraps`, so :func:`inspect.signature` on a
wrapped method still reports the real parameters (``APro`` inspects
``build_rds`` and ``choose`` to decide which keywords to pass). Span
stacks are per thread: a gateway serves each request on a pool thread
and probes on executor threads, and every thread's calls nest on its own
stack.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Tracer", "Trace", "self_times"]

#: ``observe(store, index, args, result)`` runs after a wrapped call
#: returns; it may :meth:`_ThreadSpans.count` work or
#: :meth:`_ThreadSpans.tag` the span.
Observer = Callable[["_ThreadSpans", int, tuple, object], None]


class _ThreadSpans:
    """Span columns and the open-span stack of one thread."""

    __slots__ = ("name", "start", "end", "parent", "root", "stack", "tags",
                 "counts")

    def __init__(self) -> None:
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.stack: list[int] = []
        self.tags: dict[int, str] = {}
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else index)
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, index: int, key: str, amount: float = 1.0) -> None:
        """Add *amount* of *key* to the request that span *index* is in."""
        self.counts[(self.root[index], key)] += amount

    def tag(self, index: int, text: str) -> None:
        """Attach a label (e.g. the query text) to span *index*."""
        self.tags[index] = text


def _column(values: array, dtype, n: int) -> np.ndarray:
    """A copy of the first *n* entries of a span column."""
    if n == 0:
        return np.zeros(0, dtype)
    return np.frombuffer(values, dtype)[:n].copy()


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Self time of every span: its duration minus its children's.

    ``parent[i]`` is the index of span i's caller, or -1 for a root.
    Children of one span ran on its thread, inside it and one at a time
    (a call stack), so they never overlap and their durations add up to
    the part of the parent's interval they cover.
    """
    duration = (end - start).astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent],
        weights=duration[has_parent],
        minlength=len(duration),
    )
    return duration - covered.astype(np.int64)


@dataclass
class Trace:
    """Every span of a run, concatenated over threads."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    root: np.ndarray
    tags: dict[int, str] = field(default_factory=dict)
    counts: dict[tuple[int, str], float] = field(default_factory=dict)

    def self_ns(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def spans_named(self, name: str) -> np.ndarray:
        """Indices of the spans called *name* (empty if never recorded)."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def write(self, path) -> None:
        """Write every span, tag and count to a compressed ``.npz`` file."""
        tag_ids = list(self.tags)
        count_keys = list(self.counts)
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            root=self.root,
            tag_ids=np.asarray(tag_ids, dtype=np.int64),
            tag_text=np.asarray([self.tags[i] for i in tag_ids], dtype=str),
            count_root=np.asarray([r for r, _ in count_keys], dtype=np.int64),
            count_key=np.asarray([k for _, k in count_keys], dtype=str),
            count_value=np.asarray(
                [self.counts[key] for key in count_keys], dtype=np.float64
            ),
        )

    @classmethod
    def read(cls, path) -> "Trace":
        """Load a trace written by :meth:`write`."""
        with np.load(path) as data:
            return cls(
                names=[str(name) for name in data["names"]],
                name=data["name"],
                start=data["start"],
                end=data["end"],
                parent=data["parent"],
                root=data["root"],
                tags=dict(zip(data["tag_ids"].tolist(),
                              data["tag_text"].tolist())),
                counts={
                    (root, key): value
                    for root, key, value in zip(
                        data["count_root"].tolist(),
                        data["count_key"].tolist(),
                        data["count_value"].tolist(),
                    )
                },
            )


class Tracer:
    """Records spans around wrapped functions until :meth:`uninstall`."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        observe: Observer | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        name_id = self._name_id(name)
        spans_of = self._spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans = spans_of()
            index = spans.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                spans.close(index)
            if observe is not None:
                observe(spans, index, args, result)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None) -> Iterator[None]:
        """Record a span around a block (the benchmark's own requests)."""
        spans = self._spans()
        index = spans.open(self._name_id(name))
        if tag is not None:
            spans.tag(index, tag)
        try:
            yield
        finally:
            spans.close(index)

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def collect(self) -> Trace:
        """All spans recorded so far, with ids global across threads."""
        with self._lock:
            threads = list(self._threads)
        columns: dict[str, list[np.ndarray]] = defaultdict(list)
        tags: dict[int, str] = {}
        counts: dict[tuple[int, str], float] = {}
        offset = 0
        for spans in threads:
            n = len(spans.start)
            columns["name"].append(_column(spans.name, np.int16, n))
            columns["start"].append(_column(spans.start, np.int64, n))
            columns["end"].append(_column(spans.end, np.int64, n))
            parent = _column(spans.parent, np.int64, n)
            columns["parent"].append(np.where(parent >= 0, parent + offset, -1))
            columns["root"].append(_column(spans.root, np.int64, n) + offset)
            tags.update({index + offset: text for index, text in spans.tags.items()})
            counts.update(
                {(root + offset, key): value
                 for (root, key), value in spans.counts.items()}
            )
            offset += n

        def joined(key: str, dtype) -> np.ndarray:
            parts = columns[key]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return Trace(
            names=list(self._names),
            name=joined("name", np.int16),
            start=joined("start", np.int64),
            end=joined("end", np.int64),
            parent=joined("parent", np.int64),
            root=joined("root", np.int64),
            tags=tags,
            counts=counts,
        )

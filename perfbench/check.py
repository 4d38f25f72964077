"""The answer check: every answer the benchmark times is compared with a
reference answer for the same query, computed another way.

Selections, probe counts and probe orders must match exactly;
certainties may differ by at most :data:`CERTAINTY_TOLERANCE`, the
library's contract between its numeric backends.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

__all__ = [
    "CERTAINTY_TOLERANCE",
    "Answer",
    "answer_of_session",
    "mismatch",
    "failed_requests",
]

CERTAINTY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Answer:
    """What is compared: the set, its certainty and the probes behind it.

    ``probe_order`` is ``None`` where the answer does not report it
    (``Metasearcher.search`` returns only the probe count).
    """

    selected: tuple[str, ...]
    certainty: float
    probes: int
    probe_order: tuple[str, ...] | None = None


def answer_of_session(session) -> Answer:
    """The :class:`Answer` of a ``ProbeSession``."""
    return Answer(
        selected=tuple(session.final.names),
        certainty=float(session.final.expected_correctness),
        probes=session.num_probes,
        probe_order=tuple(record.database for record in session.records),
    )


def mismatch(got: Answer, want: Answer) -> str | None:
    """Why *got* differs from the reference *want*, or ``None``."""
    if got.selected != want.selected:
        return f"selected {got.selected}, expected {want.selected}"
    if got.probes != want.probes:
        return f"{got.probes} probes, expected {want.probes}"
    if (
        got.probe_order is not None
        and want.probe_order is not None
        and got.probe_order != want.probe_order
    ):
        return f"probe order {got.probe_order}, expected {want.probe_order}"
    if abs(got.certainty - want.certainty) > CERTAINTY_TOLERANCE:
        return f"certainty {got.certainty!r}, expected {want.certainty!r}"
    return None


def failed_requests(
    answers: Iterable[tuple[int, Hashable, Answer]],
    reference: Callable[[Hashable], Answer],
) -> dict[int, str]:
    """Check ``(request, query, answer)`` triples against *reference*.

    The reference answer of each distinct query is computed once.
    Returns the failing requests with the reason for each.
    """
    expected: dict[Hashable, Answer] = {}
    failures: dict[int, str] = {}
    for request, query, answer in answers:
        if query not in expected:
            expected[query] = reference(query)
        reason = mismatch(answer, expected[query])
        if reason is not None:
            failures[request] = f"{query}: {reason}"
    return failures

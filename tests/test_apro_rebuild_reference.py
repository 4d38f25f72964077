"""APro with incremental collapse against the rebuild reference.

``TopKComputer.collapse`` is the only belief update in production; the
reference it must match is a fresh computer built over the post-probe
RDs (the ``rebuild_on_collapse`` fixture). Compared at the trajectory
level on the trained pipeline: both backends, bound pruning on and off,
k ∈ {1, 2, 3}. Probe orders and answer sets must be identical and
certainties agree to 1e-9 (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import pytest

from repro.core.probing import APro

QUERIES = 10


def _runs(selector, backend, prune, k, threshold, queries):
    apro = APro(selector, backend=backend, prune=prune)
    return [apro.run(query, k=k, threshold=threshold) for query in queries]


def assert_same_trajectories(sessions, reference):
    for a, b in zip(sessions, reference, strict=True):
        assert [(r.index, r.observed) for r in a.records] == [
            (r.index, r.observed) for r in b.records
        ]
        assert [p.names for p in a.trajectory] == [
            p.names for p in b.trajectory
        ]
        for pa, pb in zip(a.trajectory, b.trajectory):
            assert abs(
                pa.expected_correctness - pb.expected_correctness
            ) <= 1e-9


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
@pytest.mark.parametrize(
    "k, threshold",
    # (1, 0.8) over the first ten test queries is the bench-core
    # agreement case; 1.0 drives every run to its longest probe chain.
    [(1, 0.8), (1, 1.0), (2, 0.8), (2, 1.0), (3, 0.8), (3, 1.0)],
)
def test_collapse_matches_rebuild(
    trained_pipeline, request, backend, prune, k, threshold
):
    selector = trained_pipeline["selector"]
    queries = trained_pipeline["test_queries"][:QUERIES]
    incremental = _runs(selector, backend, prune, k, threshold, queries)
    rebuilds = request.getfixturevalue("rebuild_on_collapse")
    rebuilt = _runs(selector, backend, prune, k, threshold, queries)
    assert rebuilds[0] > 0
    assert_same_trajectories(incremental, rebuilt)

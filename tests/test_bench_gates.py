"""The acceptance gates bench commands run under ``--check``.

Each gate passes a good report and fails the same report with one
planted defect. The committed ``BENCH_*.json`` files are the good
reports where one exists.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cluster.bench import validate_bench_cluster
from repro.exceptions import ConfigurationError
from repro.experiments.bench_index import build_bench_index, check_bench_index
from repro.experiments.bench_scale import check_bench_scale
from repro.gateway.bench import validate_bench_gateway
from repro.service.bench import validate_bench_serve_snapshot

ROOT = Path(__file__).resolve().parent.parent

GATEWAY_REPORT = {
    "coalesce": {
        "ok": 24, "requests": 24, "coalesced": 20, "backend_serve_calls": 4,
    },
    "shed": {
        "ok": 9, "shed": 3, "requests": 12, "unexpected_errors": {},
        "clean_drain": True, "leaked_tasks": 0,
    },
    "trace": {"spans": 80, "breakdown": {"gateway.request": {}, "service.serve": {}}},
}


def _good(source):
    if isinstance(source, str):
        return json.loads((ROOT / source).read_text())
    return copy.deepcopy(source)


def _planted(document, path, value):
    *parents, last = path
    node = document
    for key in parents:
        node = node[key]
    if value is KeyError:
        del node[last]
    else:
        node[last] = value
    return document


CLUSTER, SERVE, SCALE = "BENCH_cluster.json", "BENCH_serve.json", "BENCH_scale.json"

# gate, good report, planted defect as (path, value), expected failure
GATES = [
    (validate_bench_gateway, GATEWAY_REPORT, (("coalesce", "ok"), 23), "23/24 ok"),
    (validate_bench_gateway, GATEWAY_REPORT, (("shed", "shed"), 0), "nothing was shed"),
    (
        validate_bench_gateway, GATEWAY_REPORT,
        (("shed", "clean_drain"), False), "unclean drain",
    ),
    (
        validate_bench_gateway, GATEWAY_REPORT,
        (("trace", "breakdown", "service.serve"), KeyError), "service.serve",
    ),
    (validate_bench_cluster, CLUSTER, (("failover", "lost"), 1), "1 requests lost"),
    (
        validate_bench_cluster, CLUSTER,
        (("scaling", 0, "identity", "mismatch_count"), 1), "identity mismatches",
    ),
    (
        validate_bench_cluster, CLUSTER,
        (("shared_cache", "cross_replica_tier_hits"), 0), "no cross-replica tier hit",
    ),
    (
        validate_bench_serve_snapshot, SERVE,
        (("grid", 0, "identical_to_baseline"), False), "differ from the serial",
    ),
    (
        validate_bench_serve_snapshot, SERVE,
        (("schema_version",), KeyError), "schema_version must be",
    ),
    (validate_bench_serve_snapshot, SERVE, (("grid",), []), "grid is empty"),
    (
        check_bench_scale, SCALE,
        (("sizes", 0, "identical_selections"), False), "selections differ",
    ),
    (check_bench_scale, SCALE, (("sizes", 1, "topm_recall"), 0.1), "below floor"),
]


@pytest.mark.parametrize(
    "gate, good, defect, message",
    GATES,
    ids=[
        f"{gate.__name__}-{'/'.join(map(str, defect[0]))}"
        for gate, _, defect, _ in GATES
    ],
)
def test_gate_passes_good_and_fails_planted_defect(gate, good, defect, message):
    assert gate(_good(good)) == []
    failures = gate(_planted(_good(good), *defect))
    assert any(message in failure for failure in failures), failures


def test_bench_scale_rejects_a_missing_schema():
    with pytest.raises(ConfigurationError, match="schema"):
        check_bench_scale(_planted(_good(SCALE), ("schema",), KeyError))


def test_bench_index_passes_the_committed_reports():
    assert check_bench_index(build_bench_index(str(ROOT))) == []


@pytest.mark.parametrize(
    "report, message",
    [
        ({"schema": "x/v1", "gates": {"meets_target": False}}, "meets_target false"),
        ({"gates": {"meets_target": True}}, "no schema or schema_version"),
    ],
)
def test_bench_index_fails_a_planted_defect(tmp_path, report, message):
    for name in (CLUSTER, SCALE):
        (tmp_path / name).write_text((ROOT / name).read_text())
    (tmp_path / "BENCH_planted.json").write_text(json.dumps(report))
    failures = check_bench_index(build_bench_index(str(tmp_path)))
    assert any(message in failure for failure in failures), failures

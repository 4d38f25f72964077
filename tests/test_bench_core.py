"""The bench-core report gates: schema, reader and regression check."""

from __future__ import annotations

import copy
import json

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.bench_core import (
    BENCH_CORE_SCHEMA,
    BenchCoreConfig,
    check_bench_core,
    format_bench_core,
    read_bench_core,
    run_bench_core,
    validate_bench_core,
)


def _timing(median_ms):
    return {"median_ms": median_ms, "p95_ms": median_ms * 1.2, "repeats": 5}


def _compared(baseline_ms, backend_ms):
    return {
        "baseline": _timing(baseline_ms),
        "backend": _timing(backend_ms),
        "speedup_backend_median": round(baseline_ms / backend_ms, 3),
        "repeat_order": ["baseline", "backend"],
    }


def make_report(host="host-a", sweep_speedup=2.0, **config):
    """A well-formed report with controllable host, config and ratios."""
    return {
        "schema": BENCH_CORE_SCHEMA,
        "config": {
            "scale": 0.1,
            "seed": 2004,
            "n_train": 500,
            "n_test": 80,
            "repeats": 5,
            "k": 1,
            "threshold": 0.8,
            "apro_queries": 10,
            "databases": 20,
            **config,
        },
        "environment": {
            "numpy": "2.0",
            "blas": "openblas",
            "backend": "numpy",
            "host_fingerprint": host,
        },
        "scenarios": {
            "rd_build": _timing(0.3),
            "best_set_k1": _timing(0.4),
            "best_set_k3": _timing(1.2),
            "marginals_k3": _timing(0.6),
            "usefulness_sweep": _compared(1.0 * sweep_speedup, 1.0),
            "usefulness_sweep_k3": _compared(12.0, 4.0),
            "apro_run": _compared(40.0, 20.0),
            "apro_run_k3": _compared(60.0, 20.0),
        },
        "agreement": {
            "queries": 10,
            "k_values": [1, 3],
            "backend_identical_probe_orders": True,
            "backend_identical_answer_sets": True,
            "backend_max_certainty_delta": 0.0,
            "backend_matches_python": True,
        },
    }


class TestValidate:
    def test_accepts_well_formed_report(self):
        validate_bench_core(make_report())

    @pytest.mark.parametrize("schema", ["bench-core/v1", "bench-core/v2"])
    def test_rejects_earlier_schemas(self, schema):
        report = make_report()
        report["schema"] = schema
        with pytest.raises(ReproError, match="schema"):
            validate_bench_core(report)

    def test_rejects_missing_variant(self):
        report = make_report()
        del report["scenarios"]["apro_run"]["baseline"]
        with pytest.raises(ReproError, match="apro_run"):
            validate_bench_core(report)

    def test_rejects_missing_k3_scenario(self):
        report = make_report()
        del report["scenarios"]["apro_run_k3"]
        with pytest.raises(ReproError, match="apro_run_k3"):
            validate_bench_core(report)

    def test_rejects_missing_k3_sweep_scenario(self):
        report = make_report()
        del report["scenarios"]["usefulness_sweep_k3"]
        with pytest.raises(ReproError, match="usefulness_sweep_k3"):
            validate_bench_core(report)

    def test_rejects_agreement_without_k3(self):
        report = make_report()
        report["agreement"]["k_values"] = [1]
        with pytest.raises(ReproError, match="k = 3"):
            validate_bench_core(report)

    def test_rejects_missing_agreement_flag(self):
        report = make_report()
        del report["agreement"]["backend_matches_python"]
        with pytest.raises(ReproError, match="agreement"):
            validate_bench_core(report)


class TestRead:
    def test_reads_current_schema(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps(make_report()))
        assert read_bench_core(str(path))["schema"] == BENCH_CORE_SCHEMA

    @pytest.mark.parametrize("schema", ["bench-core/v1", "bench-core/v2"])
    def test_rejects_earlier_schemas(self, tmp_path, schema):
        report = make_report()
        report["schema"] = schema
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps(report))
        with pytest.raises(ReproError, match="unsupported schema"):
            read_bench_core(str(path))

    def test_rejects_unreadable_file(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            read_bench_core(str(path))
        with pytest.raises(ReproError, match="cannot read"):
            read_bench_core(str(tmp_path / "missing.json"))


class TestCheck:
    def test_clean_report_passes(self):
        report = make_report()
        assert check_bench_core(report, copy.deepcopy(report)) == ([], [])

    def test_false_agreement_fails_without_reference(self):
        report = make_report()
        report["agreement"]["backend_matches_python"] = False
        failures, _warnings = check_bench_core(report, None)
        assert failures == [
            "agreement flag backend_matches_python is false"
        ]

    def test_ratio_drop_beyond_tolerance_fails_at_same_config(self):
        reference = make_report(sweep_speedup=4.0)
        # 4.0x -> 2.0x is a drop by 2x, beyond the 1.5x tolerance; the
        # host differs, but paired ratios transfer across hosts.
        report = make_report(host="host-b", sweep_speedup=2.0)
        failures, _warnings = check_bench_core(
            report, reference, tolerance=1.5
        )
        assert len(failures) == 1
        assert failures[0].startswith(
            "usefulness_sweep/speedup_backend_median"
        )

    def test_k3_sweep_ratio_drop_fails(self):
        reference = make_report()
        report = make_report()
        report["scenarios"]["usefulness_sweep_k3"] = _compared(6.0, 4.0)
        failures, _warnings = check_bench_core(
            report, reference, tolerance=1.5
        )
        assert failures == [
            "usefulness_sweep_k3/speedup_backend_median: 1.50x vs "
            "reference 3.00x (< 1/1.50)"
        ]

    def test_ratio_drop_within_tolerance_passes(self):
        reference = make_report(sweep_speedup=2.8)
        report = make_report(sweep_speedup=2.0)
        failures, warnings = check_bench_core(
            report, reference, tolerance=1.5
        )
        assert failures == []
        assert not any("speedup" in w for w in warnings)

    def test_ratio_drop_at_other_config_only_warns(self):
        reference = make_report(sweep_speedup=4.0)
        report = make_report(sweep_speedup=2.0, scale=0.06)
        failures, warnings = check_bench_core(
            report, reference, tolerance=1.5
        )
        assert failures == []
        assert any("speedup_backend_median" in w for w in warnings)

    def test_absolute_regression_gates_only_on_same_host(self):
        reference = make_report()
        slow = make_report()
        slow["scenarios"]["rd_build"] = _timing(0.3 * 2.0)
        failures, _ = check_bench_core(slow, reference, tolerance=1.5)
        assert failures == [
            "rd_build: 0.600 ms vs reference 0.300 ms (> 1.50x)"
        ]
        elsewhere = copy.deepcopy(slow)
        elsewhere["environment"]["host_fingerprint"] = "host-b"
        failures, warnings = check_bench_core(
            elsewhere, reference, tolerance=1.5
        )
        assert failures == []
        assert len(warnings) == 1

    def test_tolerance_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            check_bench_core(make_report(), None, tolerance=1.0)


def test_small_run_is_valid_and_agrees():
    report = run_bench_core(
        BenchCoreConfig(
            scale=0.03, n_train=30, n_test=5, repeats=1, apro_queries=2
        )
    )
    validate_bench_core(report)
    assert check_bench_core(report, None) == ([], [])
    for scenario in ("usefulness_sweep_k3", "apro_run", "apro_run_k3"):
        assert set(report["scenarios"][scenario]) == {
            "baseline",
            "backend",
            "speedup_backend_median",
            "repeat_order",
        }
    assert report["agreement"]["k_values"] == [1, 3]
    assert "backend==python      : True" in format_bench_core(report)

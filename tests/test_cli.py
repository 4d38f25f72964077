"""Tests for the command-line interface."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import build_parser, main

SMALL = [
    "--scale", "0.03",
    "--train-queries", "60",
    "--test-queries", "10",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.k == 3
        assert args.certainty == 0.8

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "15"])
        assert args.artifact == "15"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "99"])

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--scale", "0.5", "--seed", "7", "demo"]
        )
        assert args.scale == 0.5
        assert args.seed == 7


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(SMALL + ["demo", "--k", "1", "--certainty", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Selected" in out
        assert "Certainty" in out

    def test_fig15_runs(self, capsys):
        code = main(SMALL + ["fig", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Avg(Cor_a)" in out

    def test_fig17_runs(self, capsys):
        code = main(SMALL + ["fig", "17"])
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_train_saves_state(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        code = main(SMALL + ["train", str(target)])
        assert code == 0
        assert target.exists()
        from repro.persistence import load_trained_state

        state = load_trained_state(target)
        assert len(state.summaries) == 20

    def test_train_parser_flags(self):
        args = build_parser().parse_args(["train", "out.json"])
        assert args.workers == 1
        assert args.checkpoint is None
        assert not args.resume
        assert args.checkpoint_every == 25
        args = build_parser().parse_args(
            [
                "train", "out.json",
                "--workers", "4",
                "--checkpoint", "ck.json",
                "--resume",
                "--checkpoint-every", "10",
            ]
        )
        assert args.workers == 4
        assert args.checkpoint == "ck.json"
        assert args.resume
        assert args.checkpoint_every == 10

    def test_train_parallel_with_checkpoint(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        checkpoint = tmp_path / "checkpoint.json"
        code = main(
            SMALL
            + [
                "train", str(target),
                "--workers", "2",
                "--checkpoint", str(checkpoint),
                "--checkpoint-every", "20",
            ]
        )
        assert code == 0
        assert target.exists()
        from repro.persistence import load_training_checkpoint

        # The final checkpoint covers the whole training stream.
        assert load_training_checkpoint(checkpoint).queries_done == 60
        assert "parallel, 2 workers" in capsys.readouterr().out


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.queries is None
        assert args.workers == 8
        assert args.batch == 4

    def test_demo_batch_flag(self):
        args = build_parser().parse_args(["demo", "--batch", "4"])
        assert args.batch == 4

    def test_invalid_config_is_a_clean_error(self, capsys):
        code = main(["bench-serve", "--queries", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_serve_parser_defaults(self):
        args = build_parser().parse_args(["bench-serve"])
        assert args.command == "bench-serve"
        assert args.workers == 16
        assert args.batch == 16
        assert args.latency_ms == 50.0

    def test_serve_runs(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "breast cancer treatment\nheart disease\nbreast cancer treatment\n"
        )
        metrics_path = tmp_path / "metrics.json"
        code = main(
            SMALL
            + [
                "serve",
                str(queries),
                "--k",
                "1",
                "--certainty",
                "0.5",
                "--workers",
                "2",
                "--batch",
                "2",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert "(cache)" in out  # repeated query served from cache
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["queries_served"] == 3
        assert snapshot["cache"]["hits"] == 1

    def test_serve_empty_stream_errors(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("\n")
        assert main(SMALL + ["serve", str(queries)]) == 1

    def test_bench_train_parser_defaults(self):
        args = build_parser().parse_args(["bench-train"])
        assert args.command == "bench-train"
        assert args.workers == 8
        assert args.queries == 40
        assert args.samples_per_type == 20
        assert args.latency_ms == 20.0

    def test_bench_train_runs(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            SMALL
            + [
                "bench-train",
                "--queries", "6",
                "--workers", "4",
                "--samples-per-type", "2",
                "--latency-ms", "1",
                "--timeout-ms", "60",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical state      : True" in out
        assert "speedup" in out
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert "training_queries" in snapshot["counters"]

    def test_bench_serve_runs(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            SMALL
            + [
                "bench-serve",
                "--queries",
                "8",
                "--unique",
                "5",
                "--latency-ms",
                "2",
                "--timeout-ms",
                "60",
                "--workers",
                "4",
                "--batch",
                "2",
                "--error-rate",
                "0",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical selections : True" in out
        assert "speedup" in out
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert "probes_issued" in snapshot["counters"]


# --- The CLI surface guard -------------------------------------------
#
# The --help text of every command (as argparse renders it on Python
# 3.10-3.12), and the config objects that each CLI invocation in the CI
# workflow and the docs hands the library, are pinned in
# tests/fixtures/cli_surface.json. Regenerate it only for a deliberate
# surface change:
#
#     PYTHONPATH=src python tests/test_cli.py

ROOT = Path(__file__).resolve().parent.parent
SURFACE = Path(__file__).resolve().parent / "fixtures" / "cli_surface.json"
COMMANDS = (
    "demo", "serve", "bench-serve", "gateway", "bench-gateway", "cluster",
    "bench-cluster", "fig", "train", "bench-train", "bench-core",
    "bench-drift", "bench-scale", "bench-index",
)
HELP_COLUMNS = "80"


def _help(command: str | None) -> str:
    argv = ["--help"] if command is None else [command, "--help"]
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": HELP_COLUMNS}):
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            build_parser().parse_args(argv)
    return out.getvalue()


def _invocation(line: str, entry: list[str]) -> tuple | None:
    """``(env, argv)`` when the shell *line* runs the CLI through *entry*."""
    if entry[-1] not in line:
        return None
    tokens = shlex.split(line, comments=True)
    env = {}
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        name, value = tokens.pop(0).split("=", 1)
        env[name] = value
    if tokens[: len(entry)] != entry:
        return None
    return {k: v for k, v in env.items() if k != "PYTHONPATH"}, tokens[len(entry):]


def _documented_invocations() -> list[tuple[dict, list[str]]]:
    """Every CLI command line in the CI workflow, README.md and docs/."""
    found = []
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    for i, line in enumerate(lines):
        head, sep, inline = line.partition("run: ")
        if not sep or head.strip(" -"):
            continue
        if inline.strip() == ">":  # a folded block: one command line
            indent = len(lines[i + 1]) - len(lines[i + 1].lstrip())
            block = []
            for follow in lines[i + 1:]:
                if follow.strip() and len(follow) - len(follow.lstrip()) < indent:
                    break
                block.append(follow.strip())
            inline = " ".join(block)
        hit = _invocation(inline, ["python", "-m", "repro.cli"])
        if hit is not None:
            found.append(hit)
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced, pending = False, ""
        for line in doc.read_text().splitlines():
            if line.startswith("```"):
                fenced, pending = not fenced, ""
                continue
            if not fenced:
                continue
            pending += line.rstrip()
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            hit = _invocation(pending, ["repro-metasearch"])
            pending = ""
            if hit is not None:
                found.append(hit)
    return found


def _key(env: dict, argv: list[str]) -> str:
    return shlex.join([f"{k}={v}" for k, v in sorted(env.items())] + argv)


class _Stop(Exception):
    """Raised by a capture hook once a command has built what it runs."""


# The hook at which each command has built everything its flags feed;
# every Bench*Config also stops its bench command.
_STOP_AT = {
    "demo": "Metasearcher.search",
    "fig": "PaperSetupConfig",
    "train": "Metasearcher.save",
    "serve": "MetasearchService",
    "gateway": "MetasearchGateway",
    "cluster": "LocalCluster",
}


def _plain(value):
    simple = (type(None), bool, int, float, str)
    if isinstance(value, simple):
        return value
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, simple) for item in value
    ):
        return list(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return f"<{type(value).__name__}>"


def _capture(env: dict, argv: list[str]) -> list:
    """Run ``main(argv)`` up to its stop hook; the configs it built.

    Training is skipped and the testbed is built at a tiny scale (the
    recorded ``PaperSetupConfig`` keeps the requested values), so this
    costs well under a second per command line.
    """
    from repro.adapt.bench import BenchDriftConfig
    from repro.cluster.bench import BenchClusterConfig
    from repro.cluster.cluster import LocalCluster
    from repro.cluster.replica import ReplicaSpec
    from repro.cluster.router import RouterConfig
    from repro.experiments.bench_core import BenchCoreConfig
    from repro.experiments.bench_scale import BenchScaleConfig
    from repro.experiments.setup import PaperSetupConfig
    from repro.gateway.bench import BenchGatewayConfig
    from repro.gateway.gateway import GatewayConfig, MetasearchGateway
    from repro.metasearch.metasearcher import Metasearcher, MetasearcherConfig
    from repro.service.bench import (
        BenchServeConfig,
        BenchServeSnapshotConfig,
        BenchTrainConfig,
    )
    from repro.service.faults import FaultInjector
    from repro.service.server import MetasearchService, ServiceConfig

    command = build_parser().parse_args(argv).command
    stop = _STOP_AT.get(command)
    calls = []

    def hook(owner, attr, label):
        original = getattr(owner, attr)

        def wrapper(self, *args, **kwargs):
            if dataclasses.is_dataclass(owner):
                original(self, *args, **kwargs)
                calls.append([label, _plain(self)])
                if owner is PaperSetupConfig and label != stop:
                    fields = dataclasses.fields(self)
                    original(self, **{
                        **{f.name: getattr(self, f.name) for f in fields},
                        "scale": 0.01, "n_train": 5, "n_test": 2,
                        "background_vocab_size": 300,
                    })
            else:  # recorded, not run
                bound = inspect.signature(original).bind(self, *args, **kwargs)
                bound.apply_defaults()
                calls.append([label, {
                    name: _plain(value)
                    for name, value in list(bound.arguments.items())[1:]
                    if name != "training_queries"
                }])
            if label == stop or label.startswith("Bench"):
                raise _Stop

        return mock.patch.object(owner, attr, wrapper)

    configs = (
        PaperSetupConfig, MetasearcherConfig, FaultInjector, ServiceConfig,
        GatewayConfig, ReplicaSpec, RouterConfig, BenchServeConfig,
        BenchServeSnapshotConfig, BenchTrainConfig, BenchCoreConfig,
        BenchGatewayConfig, BenchDriftConfig, BenchClusterConfig,
        BenchScaleConfig,
    )
    hooks = [hook(c, "__init__", c.__name__) for c in configs] + [
        hook(Metasearcher, "train", "Metasearcher.train"),
        hook(Metasearcher, "search", "Metasearcher.search"),
        hook(Metasearcher, "save", "Metasearcher.save"),
        hook(MetasearchService, "__init__", "MetasearchService"),
        hook(MetasearchGateway, "__init__", "MetasearchGateway"),
        hook(LocalCluster, "__init__", "LocalCluster"),
    ]
    cwd = os.getcwd()
    with contextlib.ExitStack() as stack:
        workdir = stack.enter_context(tempfile.TemporaryDirectory())
        Path(workdir, "queries.txt").write_text("breast cancer\nheart disease\n")
        stack.enter_context(mock.patch.dict(os.environ))
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            del os.environ[name]
        os.environ.update(env)
        for patcher in hooks:
            stack.enter_context(patcher)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        os.chdir(workdir)
        try:
            calls.append(["exit", main(argv)])
        except _Stop:
            pass
        finally:
            os.chdir(cwd)
    return calls


def _surface() -> dict:
    return {
        "columns": HELP_COLUMNS,
        "help": {command or "": _help(command) for command in (None, *COMMANDS)},
        "invocations": {
            _key(env, argv): (
                None if "bench-index" in argv else _capture(env, argv)
            )
            for env, argv in _documented_invocations()
        },
    }


INVOCATIONS = _documented_invocations()


class TestUsageErrors:
    def test_bench_serve_check_needs_snapshot(self, capsys):
        code = main(
            SMALL
            + ["bench-serve", "--queries", "2", "--unique", "2",
               "--latency-ms", "1", "--check"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--snapshot" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_global_testbed_flags_reach_every_command(self, command):
        positional = {"fig": ["15"], "train": ["out.json"]}.get(command, [])
        args = build_parser().parse_args(
            ["--scale", "0.5", "--seed", "7", "--train-queries", "11",
             "--test-queries", "3", command, *positional]
        )
        assert (args.scale, args.seed, args.train_queries, args.test_queries) == (
            0.5, 7, 11, 3,
        )

    def test_bench_scale_train_queries_before_or_after_the_command(self):
        def n_train(argv):
            [(label, config)] = _capture({}, argv)
            assert label == "BenchScaleConfig"
            return config["n_train"]

        assert n_train(["bench-scale"]) == 60
        assert n_train(["bench-scale", "--train-queries", "20"]) == 20
        assert n_train(["--train-queries", "100", "bench-scale"]) == 100
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["--train-queries", "100", "bench-scale", "--train-queries", "20"]
            )
        assert exit_info.value.code == 2

    def test_non_integer_cluster_replicas_env_is_a_clean_error(
        self, monkeypatch, capsys
    ):
        from repro.cluster.cluster import LocalCluster

        def no_spawn(*args, **kwargs):
            raise AssertionError("a replica was spawned")

        monkeypatch.setenv("REPRO_CLUSTER_REPLICAS", "abc")
        monkeypatch.setattr(LocalCluster, "__init__", no_spawn)
        assert main(["cluster"]) == 2
        err = capsys.readouterr().err
        assert "error: REPRO_CLUSTER_REPLICAS" in err and "'abc'" in err


class TestBenchRunner:
    def test_failed_check_exits_3_and_still_writes_the_report(
        self, tmp_path, capsys
    ):
        (tmp_path / "BENCH_x.json").write_text(
            json.dumps({"schema": "x/v1", "gates": {"meets_target": False}})
        )
        out = tmp_path / "index.json"
        code = main(
            ["bench-index", "--dir", str(tmp_path), "--out", str(out), "--check"]
        )
        assert code == 3
        assert "error: BENCH_x.json: meets_target false" in capsys.readouterr().err
        assert json.loads(out.read_text())["reports"][0]["file"] == "BENCH_x.json"

    def test_bench_core_reads_its_baseline_before_writing_out(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli

        report = tmp_path / "BENCH_core.json"
        report.write_text("committed")
        seen = []
        monkeypatch.setattr(
            repro.cli, "read_bench_core", lambda path: seen.append(open(path).read())
        )
        code = main(
            ["--scale", "0.03", "--train-queries", "20", "--test-queries", "5",
             "bench-core", "--repeats", "1", "--apro-queries", "1",
             "--out", str(report), "--baseline", str(report), "--check"]
        )
        assert code == 0
        assert seen == ["committed"]
        assert json.loads(report.read_text())["schema"] == "bench-core/v3"

    def test_passed_check_exits_0(self, tmp_path, capsys):
        (tmp_path / "BENCH_x.json").write_text(
            json.dumps({"schema": "x/v1", "gates": {"meets_target": True}})
        )
        assert main(["bench-index", "--dir", str(tmp_path), "--check"]) == 0
        assert "check passed: 1 report(s) indexed" in capsys.readouterr().out


class TestSurface:
    @pytest.mark.parametrize("command", ("", *COMMANDS))
    def test_help_is_unchanged(self, command):
        expected = json.loads(SURFACE.read_text())["help"][command]
        actual = _help(command or None)
        if sys.version_info >= (3, 13):  # its argparse wraps usage lines anew
            actual, expected = actual.split(), expected.split()
        assert actual == expected

    @pytest.mark.parametrize(
        "env, argv", INVOCATIONS, ids=[_key(*hit) for hit in INVOCATIONS]
    )
    def test_documented_invocation(self, env, argv):
        build_parser().parse_args(argv)  # no SystemExit
        expected = json.loads(SURFACE.read_text())["invocations"]
        assert _key(env, argv) in expected, "new invocation: regenerate"
        if "bench-index" not in argv:
            assert _capture(env, argv) == expected[_key(env, argv)]


if __name__ == "__main__":
    SURFACE.parent.mkdir(exist_ok=True)
    SURFACE.write_text(json.dumps(_surface(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SURFACE}")

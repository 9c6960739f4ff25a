"""The inspection CLI (``python -m repro``)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_geometry_defaults(self):
        args = build_parser().parse_args(["info"])
        assert (args.size_ratio, args.levels) == (5, 6)

    def test_short_flags(self):
        args = build_parser().parse_args(
            ["fpr", "-t", "4", "-l", "5", "-k", "3", "-z", "2", "-m", "12"]
        )
        assert (args.size_ratio, args.levels, args.runs_per_level,
                args.runs_at_last, args.bits) == (4, 5, 3, 2, 12.0)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "LID entropy" in out
        assert "A=6 sub-levels" in out

    def test_fpr(self, capsys):
        assert main(["fpr", "-m", "12"]) == 0
        out = capsys.readouterr().out
        assert "Eq 16" in out and "Eq 3" in out

    def test_fpr_infeasible_budget_still_succeeds(self, capsys):
        assert main(["fpr", "-m", "5"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_codebook(self, capsys):
        assert main(["codebook"]) == 0
        out = capsys.readouterr().out
        assert "fingerprints by level" in out

    def test_codebook_infeasible_fails(self, capsys):
        assert main(["codebook", "-m", "5"]) == 1

    def test_workload_each_policy(self, capsys):
        for policy in ("chucky", "bloom", "none"):
            code = main(
                ["workload", "--policy", policy, "--ops", "400",
                 "--reads", "100", "--buffer", "16", "-t", "3"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "ns/read" in out
            assert "write_amplification" in out

    def test_workload_xor_policy(self, capsys):
        assert main(
            ["workload", "--policy", "xor", "--ops", "300",
             "--reads", "80", "--buffer", "16", "-t", "3"]
        ) == 0

    def test_workload_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--policy", "nope"])


class TestSharded:
    def test_shards_flag_default(self):
        args = build_parser().parse_args(["workload"])
        assert args.shards == 1

    def test_workload_sharded_output(self, capsys):
        assert main(
            ["workload", "--shards", "4", "--ops", "600", "--reads", "150",
             "--buffer", "16", "-t", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 shards" in out
        assert "entries per shard" in out
        assert "imbalance" in out
        assert "shard 3:" in out
        assert "write_amplification" in out

    def test_workload_sharded_metrics_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "m.json"
        assert main(
            ["workload", "--shards", "4", "--ops", "600", "--reads", "150",
             "--buffer", "16", "-t", "3", "--metrics-out", str(artifact)]
        ) == 0
        data = json.loads(artifact.read_text())
        counters = data["counters"]
        gauges = data["gauges"]
        for index in range(4):
            assert f"shard{index}_kv_reads_total" in counters
        assert gauges["kv_shards"] == 4
        assert gauges["agg_kv_reads_total"] == sum(
            counters[f"shard{index}_kv_reads_total"] for index in range(4)
        ) == 150
        assert "shard_imbalance" in gauges

    def test_stats_sharded_json(self, capsys):
        assert main(
            ["stats", "--shards", "2", "--ops", "300", "--reads", "80",
             "--buffer", "16", "-t", "3", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert "shard0_kv_reads_total" in data["counters"]
        assert "shard1_kv_reads_total" in data["counters"]
        assert "agg_kv_reads_total" in data["gauges"]

    def test_trace_sharded_spans_carry_shard(self, capsys):
        assert main(
            ["trace", "--shards", "2", "--ops", "300", "--reads", "80",
             "--buffer", "16", "-t", "3", "--last", "8"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            span = json.loads(line)
            assert span["attrs"]["shard"] in (0, 1)


class TestServeLoadgen:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 7411)
        assert (args.shards, args.max_inflight, args.queue_depth,
                args.commit_batch) == (1, 256, 32, 512)

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert (args.connections, args.ops, args.workload) == (8, 5000, "ycsb-b")
        # Resolved per mode: BENCH_serve.json, or BENCH_cluster.json
        # with --cluster — an explicit --out is never rewritten.
        assert args.out is None

    def test_serve_then_loadgen_end_to_end(self, tmp_path, capsys):
        """`repro serve` in a thread, `repro loadgen` against it: zero
        errors and a well-formed BENCH_serve.json artifact."""
        import asyncio
        import socket
        import threading
        import time

        from repro.server import AsyncClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        server_thread = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--shards", "2",
                   "--buffer", "64", "-t", "3"],),
            daemon=True,
        )
        server_thread.start()
        deadline = time.monotonic() + 10
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), 0.2).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

        out = tmp_path / "BENCH_serve.json"
        code = main(
            ["loadgen", "--port", str(port), "--ops", "400",
             "--connections", "4", "--key-space", "150",
             "--workload", "ycsb-b", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "0 errors" in printed

        summary = json.loads(out.read_text())
        assert summary["bench"] == "serve"
        assert summary["total_ops"] == 400
        assert summary["errors"] == 0
        assert summary["throughput_ops_per_s"] > 0
        assert set(summary["latency_us"]) == {"all", "read", "update"}
        assert summary["latency_us"]["all"]["p99_us"] >= \
            summary["latency_us"]["all"]["p50_us"]

        async def check_and_shut_down():
            client = await AsyncClient.connect("127.0.0.1", port)
            # The loadgen sampled nothing: a served store keeps no
            # untraced spans, so there is no ring churn to report as
            # lost spans, and no trace.
            tracing = (await client.stats())["tracing"]
            assert tracing["spans_dropped_total"] == 0
            assert tracing["traces"] == 0
            await client.shutdown()
            await client.close()

        asyncio.run(check_and_shut_down())
        server_thread.join(timeout=10)
        assert not server_thread.is_alive()

    def test_serve_adapt_migrates_between_requests(self, capsys):
        """`repro serve --adapt` on uniform Bloom filters: once the tree
        has three levels, negative GETs over the wire make the polling
        task migrate the live store to chucky; reads stay correct and
        the drain line counts the one applied action."""
        import asyncio
        import socket
        import threading
        import time

        from repro.server import AsyncClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        server_thread = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--adapt",
                   "--policy", "bloom-standard", "--adapt-window", "64",
                   "--adapt-interval", "0.02", "--buffer", "16",
                   "-t", "3"],),
            daemon=True,
        )
        server_thread.start()
        deadline = time.monotonic() + 10
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), 0.2).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

        async def drive() -> str:
            printed = ""
            client = await AsyncClient.connect("127.0.0.1", port)
            for k in range(300):
                await client.put(k, f"v{k}")
            deadline = time.monotonic() + 30
            negative = 1 << 40
            while "tuning applied migrate-filter" not in printed:
                assert time.monotonic() < deadline, printed
                for _ in range(64):
                    assert await client.get(negative) is None
                    negative += 1
                printed += capsys.readouterr().out
            for k in range(300):
                assert await client.get(k) == f"v{k}".encode()
            assert await client.get(negative) is None
            await client.shutdown()
            await client.close()
            return printed

        printed = asyncio.run(drive())
        server_thread.join(timeout=10)
        assert not server_thread.is_alive()
        printed += capsys.readouterr().out
        assert "applied 1 actions (effective policy chucky)" in printed


class TestRemoteReadersUnreachable:
    """``repro dash`` and ``repro trace --list`` against a port where no
    server answers: exit 1 with ``cannot reach``, never a hang."""

    @staticmethod
    def free_port():
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    READERS = [["dash", "--once"], ["trace", "--list"]]

    @pytest.mark.parametrize("argv", READERS, ids=["dash", "trace"])
    def test_nothing_listening(self, argv, capsys):
        port = self.free_port()
        assert main(argv + ["--port", str(port)]) == 1
        captured = capsys.readouterr()
        assert f"cannot reach 127.0.0.1:{port}" in captured.err
        assert captured.out == ""

    def test_listener_that_never_answers(self, monkeypatch, capsys):
        """The kernel completes the handshake from the listen backlog,
        so the connect succeeds and only the call's bound ends it."""
        import socket
        import time

        import repro.server.client

        monkeypatch.setattr(repro.server.client, "CALL_TIMEOUT_S", 0.2)
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen(8)
            port = silent.getsockname()[1]
            for argv in self.READERS:
                start = time.monotonic()
                assert main(argv + ["--port", str(port)]) == 1
                assert time.monotonic() - start < 5
                captured = capsys.readouterr()
                assert f"cannot reach 127.0.0.1:{port}" in captured.err
                assert "no answer within 0.2 s" in captured.err
                assert captured.out == ""


class TestModeFlags:
    """A flag of the mode that is not running is a usage error naming
    the flag — never silently swallowed."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["faultcheck", "--cluster", "--shards", "4"], "--shards"),
            (["faultcheck", "--cluster", "--preset", "lazy"], "--preset"),
            (["faultcheck", "--cluster", "--policy", "bloom"], "--policy"),
            (["faultcheck", "--cluster", "--ops", "9"], "--ops"),
            (["faultcheck", "--cluster", "--schedules-per-seed", "1"],
             "--schedules-per-seed"),
            (["faultcheck", "--cluster", "--transient-rate", "0"],
             "--transient-rate"),
            (["faultcheck", "--cluster", "--no-group-commit"],
             "--no-group-commit"),
            (["faultcheck", "--cluster", "--no-migration"], "--no-migration"),
            (["loadgen", "--cluster", "c.json", "--host", "h"], "--host"),
            # Even when the value equals the single-server default.
            (["loadgen", "--cluster", "c.json", "--port", "7411"], "--port"),
            (["loadgen", "--cluster", "c.json", "--trace-every", "10"],
             "--trace-every"),
            (["loadgen", "--cluster", "c.json", "--trace-slow-us", "5"],
             "--trace-slow-us"),
            (["loadgen", "--cluster", "c.json", "--traces-out", "t.json"],
             "--traces-out"),
            (["loadgen", "--kill", "auto"], "--kill"),
            (["loadgen", "--kill-after", "0.3"], "--kill-after"),
        ],
    )
    def test_other_modes_flag_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"{flag} does not apply" in capsys.readouterr().err

    def test_faultcheck_flags_reach_the_config(self, capsys, tmp_path):
        report = tmp_path / "fc.json"
        code = main(
            ["faultcheck", "--seeds", "1", "--shards", "2", "--preset",
             "tiered", "--policy", "bloom", "--ops", "20",
             "--schedules-per-seed", "1", "--transient-rate", "0",
             "--no-group-commit", "--no-migration", "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(1 trace + 1 crash schedules), preset=tiered" in out
        data = json.loads(report.read_text())
        assert (data["preset"], data["policy"], data["shards"]) == (
            "tiered", "bloom", 2
        )
        assert data["schedules_run"] == 2 and data["transient_errors"] == 0

    def test_faultcheck_defaults_are_the_configs(self, capsys):
        from repro.faults import FaultcheckConfig

        cfg = FaultcheckConfig()
        assert main(["faultcheck", "--seeds", "1"]) == 0
        assert (
            f"preset={cfg.preset} policy={cfg.policy} shards={cfg.shards} "
            f"ops={cfg.ops} transient_rate={cfg.transient_rate:g}"
        ) in capsys.readouterr().out


def _case_ids(cases) -> list[str]:
    """The command names a case; a repeated command adds its flag."""
    ids: list[str] = []
    for argv, _ in cases:
        ids.append(argv[0] if argv[0] not in ids else argv[0] + argv[1])
    return ids


class TestStoreFlagErrors:
    """An invalid store flag is a usage error (exit 2) raised before the
    command prints anything — never a ValueError traceback."""

    CASES = [
        (["workload", "--shards", "0"], "shards must be >= 1"),
        (["stats", "--bits", "-1"], "bits_per_entry must be >= 0"),
        (["trace", "--size-ratio", "1"], "size ratio T must be >= 2"),
        (["serve", "--runs-per-level", "9", "-t", "5", "--port", "0"],
         "K must be in [1, T]"),
        (["tune", "--shards", "0"], "shards must be >= 1"),
        # Tuning windows and polls that could never close or would spin.
        (["tune", "--window-ops", "0"], "--window-ops must be >= 1"),
        (["serve", "--adapt-window", "0", "--adapt", "--port", "0"],
         "--adapt-window must be >= 1"),
        (["serve", "--adapt-interval", "0", "--adapt", "--port", "0"],
         "--adapt-interval must be > 0"),
        (["bench", "--bits", "-1"], "bits_per_entry must be >= 0"),
        (["faultcheck", "--shards", "0"], "shards must be >= 1"),
        # Flags that would make the campaign's gate vacuous.
        (["faultcheck", "--schedules-per-seed", "-3"],
         "schedules_per_seed must be >= 0"),
        (["faultcheck", "--transient-rate", "7"],
         "transient_rate must be in [0, 1]"),
        (["faultcheck", "--ops", "0"], "ops must be >= 1"),
        # A kill that could never fire would pass the cluster gate.
        (["loadgen", "--cluster", "c.json", "--kill-after", "1.5"],
         "kill_after_fraction must be in [0, 1)"),
    ]

    @pytest.mark.parametrize("argv,message", CASES, ids=_case_ids(CASES))
    def test_bad_store_flag_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"repro {argv[0]}: error: " in captured.err
        assert message in captured.err


class TestClusterLoadgen:
    @pytest.fixture
    def spec_path(self, tmp_path):
        """A LoopbackCluster served from a background event loop, and
        the spec file that points ``loadgen --cluster`` at it."""
        import asyncio
        import threading

        from repro.cluster import (
            ClusterFaultcheckConfig,
            ClusterSpec,
            LoopbackCluster,
            write_spec,
        )

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def call(coro):
            return asyncio.run_coroutine_threadsafe(coro, loop).result(20)

        cluster = LoopbackCluster(ClusterFaultcheckConfig())
        coordinator = call(cluster.start())
        path = tmp_path / "cluster.json"
        write_spec(
            ClusterSpec(
                nodes={
                    name: {"host": host, "port": port}
                    for name, (host, port) in cluster.addrs.items()
                },
                map=cluster.map.to_dict(),
            ),
            str(path),
        )
        yield str(path)
        call(coordinator.close())
        call(cluster.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    def test_explicit_out_is_honoured_and_churn_runs(
        self, spec_path, tmp_path, monkeypatch, capsys
    ):
        """``--out BENCH_serve.json`` used to be rewritten to
        BENCH_cluster.json (it was compared with the literal default),
        and ``--workload churn`` died with ``KeyError: 'insert'``."""
        monkeypatch.chdir(tmp_path)
        code = main(
            ["loadgen", "--cluster", spec_path, "--workload", "churn",
             "--connections", "3", "--ops", "240", "--key-space", "90",
             "--out", "BENCH_serve.json"]
        )
        printed = capsys.readouterr().out
        assert code == 0, printed
        assert "0 errors" in printed
        assert "acked writes: 0 lost" in printed
        assert "artifact written to BENCH_serve.json" in printed
        assert not (tmp_path / "BENCH_cluster.json").exists()
        summary = json.loads((tmp_path / "BENCH_serve.json").read_text())
        assert summary["bench"] == "cluster"
        assert summary["lost_acked"] == 0
        assert summary["latency_us"]["delete"]["count"] > 0
        assert summary["verification"]["false_negatives"] == 0

    def test_default_out_is_resolved_per_mode(
        self, spec_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["loadgen", "--cluster", spec_path, "--connections", "2",
             "--ops", "60", "--key-space", "40"]
        )
        assert code == 0, capsys.readouterr().out
        assert (tmp_path / "BENCH_cluster.json").exists()
        assert not (tmp_path / "BENCH_serve.json").exists()

    def test_unknown_kill_target_exits_2_before_traffic(
        self, spec_path, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen", "--cluster", spec_path, "--kill", "nosuchnode"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--kill nosuchnode: no such node" in captured.err

    def test_kill_that_raises_fails_the_run(
        self, spec_path, tmp_path, monkeypatch, capsys
    ):
        """This spec records no pids, so the kill raises. The run used
        to report the node as killed, 0 lost, and exit 0."""
        monkeypatch.chdir(tmp_path)
        with open(spec_path, encoding="utf-8") as fh:
            node = next(iter(json.load(fh)["nodes"]))
        code = main(
            ["loadgen", "--cluster", spec_path, "--kill", node,
             "--connections", "2", "--ops", "60", "--key-space", "40"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert f"--kill {node} never fired" in captured.err
        assert "killed" not in captured.out

    def test_unissuable_workload_and_bad_config_exit_2(
        self, spec_path, capsys
    ):
        assert main(
            ["loadgen", "--cluster", spec_path, "--workload", "ycsb-e"]
        ) == 2
        assert "needs 'scan' ops" in capsys.readouterr().err
        assert main(
            ["loadgen", "--cluster", spec_path, "--connections", "0"]
        ) == 2
        assert "connections must be >= 1" in capsys.readouterr().err


class TestClusterSpecErrors:
    """Every command that reads a cluster spec refuses an unreadable one
    the same way: exit 2 and ``cannot load cluster spec`` on stderr."""

    COMMANDS = {
        "loadgen": lambda spec: ["loadgen", "--cluster", spec],
        "cluster-worker": lambda spec: [
            "cluster", "--worker", "--name", "n0", "--spec", spec
        ],
        "rebalance": lambda spec: [
            "rebalance", "--cluster", spec, "--shard", "0", "--target", "n1"
        ],
    }

    @pytest.mark.parametrize("spec_kind", ["missing", "malformed"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unloadable_spec_exits_2(
        self, command, spec_kind, tmp_path, capsys
    ):
        spec = tmp_path / "cluster.json"
        if spec_kind == "malformed":
            spec.write_text('{"nodes": {"n0": ')
        assert main(self.COMMANDS[command](str(spec))) == 2
        captured = capsys.readouterr()
        assert f"cannot load cluster spec {spec}" in captured.err
        assert captured.out == ""

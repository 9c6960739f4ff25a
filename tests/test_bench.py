"""The ``repro bench`` canonical suite and its BENCH_core.json artifact."""

import json

import pytest

from repro.cli import main
from repro.common.quantile import nearest_rank
from repro.workloads.bench import (
    CANONICAL_CASES,
    BenchCase,
    default_cases,
    run_bench,
    run_case,
    write_artifact,
)


class TestBenchSuite:
    def test_canonical_matrix_covers_presets_and_workloads(self):
        cases = default_cases()
        assert len(cases) == len(CANONICAL_CASES) == 18
        assert {c.preset for c in cases} == {"leveled", "tiered"}
        assert {c.workload for c in cases} == {
            "uniform", "zipf", "churn",
            "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
        }

    def test_run_case_reports_all_three_currencies(self):
        row = run_case(
            BenchCase(preset="leveled", workload="uniform"),
            ops=300,
            preload=150,
        )
        assert row["name"] == "leveled/uniform"
        assert row["ops"] >= 300 and row["scans"] > 0
        assert row["throughput_ops_per_s"] > 0
        per_op = row["counted_per_op"]
        assert per_op["memory_ios"] > 0
        assert per_op["storage_reads"] >= 0
        assert per_op["storage_writes"] > 0  # the final flush is counted
        assert row["modelled_ns_per_op"] > 0
        assert set(row["wall_latency_us"]) == {"p50", "p95", "p99", "mean"}
        assert row["wall_latency_us"]["p99"] >= row["wall_latency_us"]["p50"]

    def test_wall_percentiles_are_nearest_rank_of_the_ops(self, monkeypatch):
        """The percentiles are ranks of the recorded per-op latencies,
        not the bounds of histogram buckets whose first edge (50 us) sits
        above a typical in-process op — which made every row's p50 and
        p95 read 50.0 whatever the engine did."""
        from repro.workloads import bench

        seen = []

        def recording(values, q):
            seen.append((list(values), q))
            return nearest_rank(values, q)

        monkeypatch.setattr(bench, "nearest_rank", recording)
        row = run_case(
            BenchCase(preset="leveled", workload="uniform"), ops=300, preload=150
        )
        latencies = seen[0][0]
        assert len(latencies) == 300
        assert [q for _, q in seen] == [0.50, 0.95, 0.99]
        wall = row["wall_latency_us"]
        assert wall["p50"] == nearest_rank(latencies, 0.50) < 50.0
        assert wall["p95"] == nearest_rank(latencies, 0.95)
        assert wall["p99"] == nearest_rank(latencies, 0.99)

    def test_scans_can_be_disabled(self):
        row = run_case(
            BenchCase(preset="tiered", workload="zipf", scan_every=0),
            ops=200,
            preload=100,
        )
        assert row["scans"] == 0 and row["ops"] == 200

    def test_report_and_artifact_round_trip(self, tmp_path):
        report = run_bench(
            ops=200,
            preload=100,
            cases=[BenchCase(preset="leveled", workload="ycsb-b")],
        )
        assert report["suite"] == "core" and len(report["cases"]) == 1
        path = tmp_path / "BENCH_core.json"
        write_artifact(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["cases"][0]["name"] == "leveled/ycsb-b"
        assert loaded["policy"] == "chucky"

    def test_counted_ios_are_deterministic(self):
        case = BenchCase(preset="leveled", workload="uniform")
        a = run_case(case, ops=250, preload=120, seed=9)
        b = run_case(case, ops=250, preload=120, seed=9)
        assert a["counted_per_op"] == b["counted_per_op"]
        assert a["false_positives"] == b["false_positives"]

    def test_report_carries_host_fingerprint(self):
        from repro.workloads.bench import host_fingerprint

        report = run_bench(
            ops=100, preload=50,
            cases=[BenchCase(preset="leveled", workload="uniform")],
        )
        host = report["host"]
        assert host == host_fingerprint()
        assert set(host) == {
            "platform", "machine", "python_version", "cpu_count",
        }
        assert host["cpu_count"] >= 1

    def test_repeat_medians_wall_keeps_counted(self):
        import pytest

        report = run_bench(
            ops=100, preload=50, repeat=3,
            cases=[BenchCase(preset="leveled", workload="uniform")],
        )
        assert report["repeat"] == 3
        row = report["cases"][0]
        # Counted metrics are per-run deterministic, so the folded row
        # still carries them; wall metrics survive as medians.
        single = run_case(
            BenchCase(preset="leveled", workload="uniform"),
            ops=100, preload=50,
        )
        assert row["counted_per_op"] == single["counted_per_op"]
        assert set(row["wall_latency_us"]) == {"p50", "p95", "p99", "mean"}
        with pytest.raises(ValueError):
            run_bench(ops=10, preload=5, repeat=0)


class TestBenchCLI:
    def test_bench_command_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_core.json"
        rc = main(
            ["bench", "--ops", "150", "--preload", "80", "--out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "leveled/uniform" in printed and "tiered/ycsb-b" in printed
        assert "leveled/churn" in printed and "tiered/ycsb-f" in printed
        report = json.loads(out.read_text())
        assert len(report["cases"]) == 18
        assert all(
            row["modelled_ns_per_op"] > 0 for row in report["cases"]
        )

    def test_tune_command_grow_n(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        rc = main(
            [
                "tune",
                "--scenario", "grow-n",
                "--window-ops", "256",
                "--json", str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "migrate-filter" in printed
        log = json.loads(out.read_text())
        applied = [
            d for d in log["status"]["decisions"] if d["applied"]
        ]
        assert [d["action"] for d in applied] == ["migrate-filter"]
        assert log["status"]["effective_policy"] == "chucky"

    def test_tune_static_mode_never_acts(self, capsys):
        rc = main(["tune", "--scenario", "phase-shift", "--static"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "applied=0" in printed and "mode=static" in printed


@pytest.fixture(scope="module")
def micro_report():
    """One small microbench run shared by the tests that read it (its
    memory row loads a 40k-version store under tracemalloc)."""
    from repro.workloads.micro import run_micro

    return run_micro(inner=8, rounds=1)


class TestMicrobench:
    def test_micro_suite_reports_all_hot_ops(self, micro_report):
        report = micro_report
        names = {row["name"] for row in report["cases"]}
        assert {
            "chucky_query", "chucky_query_many", "chucky_maintain_many",
            "chucky_insert", "bucket_pack", "bucket_unpack", "decode_table",
            "cuckoo_query", "blocked_bloom_query",
        } <= names
        assert all(row["ns_per_op"] > 0 for row in report["cases"])
        fused = next(r for r in report["cases"] if r["name"] == "get_batch_fused")
        assert fused["reference_ns_per_op"] > 0
        many = next(r for r in report["cases"] if r["name"] == "chucky_query_many")
        assert many["reference_ns_per_op"] > 0 and many["speedup"] > 0
        event = next(r for r in report["cases"] if r["name"] == "chucky_maintain_many")
        assert event["reference_ns_per_op"] > 0 and event["speedup"] > 0
        assert "host" in report

    def test_micro_suite_states_the_observed_read_cost(self, micro_report):
        """``kv_get_observed`` times a point read on a store with
        ``repro serve``'s observability bundle against the same store
        with it off; recording a read's metrics is never free."""
        report = micro_report
        row = next(r for r in report["cases"] if r["name"] == "kv_get_observed")
        assert row["ns_per_op"] > 0 and row["reference_ns_per_op"] > 0
        assert row["overhead"] >= 1

    def test_micro_suite_times_the_point_hit(self, micro_report):
        """``kv_get_hit`` times point hits on a store whose data is
        several times its block cache (fence search, cache, device)."""
        report = micro_report
        row = next(r for r in report["cases"] if r["name"] == "kv_get_hit")
        assert row["ns_per_op"] > 0

    def test_micro_suite_states_bytes_per_stored_version(self, micro_report):
        """``store_bytes_per_version``: traced bytes per version of a
        loaded durable Chucky store, steady and at the load's peak. A
        version is a few column bytes plus its share of the filter and
        the codebook, so the steady figure sits well under the 122 B an
        entry tuple and its seqno int cost on their own."""
        row = next(
            r for r in micro_report["cases"]
            if r["name"] == "store_bytes_per_version"
        )
        assert 0 < row["bytes_per_version"] < 122
        assert row["peak_bytes_per_version"] > row["bytes_per_version"]

    def test_microbench_command_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "micro.json"
        rc = main(
            ["microbench", "--inner", "8", "--rounds", "1",
             "--out", str(out)]
        )
        assert rc == 0
        assert "ns/op" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["suite"] == "micro"

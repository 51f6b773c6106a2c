"""The consolidated perf dashboard (repro.observability.report).

Section builders over synthetic feeds/ledgers, the assembled
``repro.report/v1`` document, markdown rendering, the CLI entry point,
and a live pass over this repo's committed BENCH feeds.
"""

import json
import os

from repro.observability.regression import (
    append_history,
    build_perf_record,
    validate_perf_record,
)
from repro.observability.report import (
    REPORT_SCHEMA,
    build_dashboard,
    cache_summary,
    main,
    memory_summary,
    render_markdown,
    scale_summary,
    scan_bench_feeds,
    serving_summary,
    slowest_spans,
    write_path_summary,
    speedup_summary,
    trajectory_summary,
)

TOP = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fake_feed(experiment, header, rows, metrics=None, timings=None):
    return {
        "schema": "repro.bench/v1",
        "experiment": experiment,
        "title": experiment,
        "header": header,
        "rows": rows,
        "notes": "",
        "metrics": metrics or {},
        "timings": timings or {},
        "generated_at": "2026-01-01T00:00:00Z",
    }


def write_fixture_top_dir(tmp_path):
    """A miniature repo top dir: two perf feeds, one non-perf feed,
    one corrupt feed, and a three-run ledger with a 2x drift."""
    perf = fake_feed(
        "perf-demo",
        ["n", "kernel", "speedup"],
        [[100, "bfs", 12.0], [100, "cc", 30.0], [50, "bfs", 2.0]],
        metrics={
            "repro.cache.frozen{event=hit,owner=Graph}": 6,
            "repro.cache.frozen{event=miss,owner=Graph}": 2,
        },
        timings={"bfs_n100_median_s": 0.5, "cc_n100_median_s": 0.1},
    )
    plain = fake_feed("fig-demo", ["metric", "value"], [["nodes", 10]])
    (tmp_path / "BENCH_perf-demo.json").write_text(json.dumps(perf))
    (tmp_path / "BENCH_fig-demo.json").write_text(json.dumps(plain))
    (tmp_path / "BENCH_broken.json").write_text("{not json")

    ledger = tmp_path / "benchmarks" / "out" / "history.jsonl"
    for median in (0.10, 0.10, 0.20):
        append_history(
            str(ledger),
            build_perf_record(
                "perf-demo",
                timings={"bfs_n100_median_s": median},
                cache={"Graph": {"hit": 1, "miss": 1}},
                memory={"repro.dtn.run": {"peak_kib": 64.0 * median * 10,
                                          "alloc_kib": 1.0}},
            ),
        )
    return str(tmp_path)


def perf_scale_feed():
    """A ``BENCH_perf-scale.json`` feed: one verify row, two scale rows."""
    return fake_feed(
        "perf-scale",
        ["tier", "n", "m", "case", "wall s", "peak MiB", "ceiling MiB",
         "shards"],
        [
            ["verify", 500, 2000, "bit-exact x4", "-", "-", "-", "-"],
            ["scale", 10**6, 4 * 10**6, "distance-sums",
             12.5, 900.0, 1536.0, 4],
            ["scale", 10**6, 4 * 10**6, "landmark-labels",
             10.0, 1200.0, 1536.0, 4],
        ],
    )


class TestSections:
    def test_scan_skips_corrupt_feeds(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        feeds = scan_bench_feeds(top)
        assert set(feeds) == {"perf-demo", "fig-demo"}

    def test_speedup_summary_uses_largest_size_only(self, tmp_path):
        feeds = scan_bench_feeds(write_fixture_top_dir(tmp_path))
        (entry,) = speedup_summary(feeds)  # fig-demo has no speedup column
        assert entry["experiment"] == "perf-demo"
        assert entry["largest_size"] == 100
        # the n=50 row (speedup 2.0) must not drag the floor down
        assert entry["kernels"] == {"bfs": 12.0, "cc": 30.0}
        assert entry["floor"] == 12.0 and entry["floor_kernel"] == "bfs"

    def test_cache_summary_merges_feeds_and_ledger(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        feeds = scan_bench_feeds(top)
        ledger_path = os.path.join(top, "benchmarks", "out", "history.jsonl")
        from repro.observability.regression import load_history

        summary = cache_summary(feeds, load_history(ledger_path))
        # feed: 6 hits + 2 misses; ledger: 3 runs x (1 hit + 1 miss)
        assert summary["Graph"]["hit"] == 9
        assert summary["Graph"]["miss"] == 5
        assert summary["Graph"]["hit_rate"] == 9 / 14

    def test_slowest_spans_ranked_and_truncated(self, tmp_path):
        feeds = scan_bench_feeds(write_fixture_top_dir(tmp_path))
        spans = slowest_spans(feeds, top=1)
        assert spans == [
            {"experiment": "perf-demo", "case": "bfs_n100_median_s", "median_s": 0.5}
        ]

    def test_trajectory_reports_the_2x_drift(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        from repro.observability.regression import load_history

        ledger = load_history(os.path.join(top, "benchmarks", "out", "history.jsonl"))
        (entry,) = trajectory_summary(ledger)
        assert entry["experiment"] == "perf-demo" and entry["runs"] == 3
        assert entry["worst_slowdown"] == 2.0
        assert entry["regressions"][0]["key"] == "bfs_n100_median_s"

    def test_memory_summary_keeps_maxima(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        from repro.observability.regression import load_history

        ledger = load_history(os.path.join(top, "benchmarks", "out", "history.jsonl"))
        summary = memory_summary(ledger)
        assert summary["repro.dtn.run"]["peak_kib"] == 128.0  # largest run

    def test_scale_summary_shard_peaks_and_ceilings(self):
        feeds = {"perf-scale": perf_scale_feed()}
        ledger = [
            build_perf_record(
                "perf-scale",
                timings={"distance_sums_median_s": 12.5},
                memory={"repro.graphs.csr.shard": {"peak_kib": 512.0,
                                                   "alloc_kib": 8.0}},
            ),
            build_perf_record(
                "perf-scale",
                timings={"x_median_s": 1.0},
                memory={"repro.graphs.csr.shard": {"peak_kib": 256.0,
                                                   "alloc_kib": 4.0}},
            ),
        ]
        summary = scale_summary(feeds, ledger)
        assert set(summary) == {"shard_peaks", "ceilings"}
        # the largest per-shard peak across the ledger wins
        assert summary["shard_peaks"]["repro.graphs.csr.shard"]["peak_kib"] == 512.0
        # tightest ceiling margin first; verify rows never contribute
        assert [entry["case"] for entry in summary["ceilings"]] == [
            "landmark-labels", "distance-sums",
        ]
        assert summary["ceilings"][0]["margin_mib"] == 336.0

    def test_serving_summary_streams_and_counters(self):
        feed = fake_feed(
            "serving",
            [
                "n", "m", "blocks", "queries",
                "baseline median s", "serving median s",
                "baseline q/s", "serving q/s", "speedup",
            ],
            [
                [500, 1500, 24, 192, 0.12, 0.026, 1600.0, 7300.0, 4.6],
                [2000, 6000, 24, 192, 0.39, 0.065, 492.0, 2939.0, 5.98],
            ],
            metrics={
                "repro.serving.queries{kind=distance}": 864,
                "repro.serving.queries{kind=nsf_level}": 144,
                "repro.serving.patch{event=merge}": 138,
                "repro.serving.repairs{index=nsf,mode=replay}": 100,
                "repro.serving.batches": 200,
                "repro.serving.sweeps": 144,
                "repro.serving.retries": 3,
            },
        )
        summary = serving_summary({"serving": feed})
        assert [entry["n"] for entry in summary["streams"]] == [500, 2000]
        assert summary["streams"][1]["speedup"] == 5.98
        assert summary["queries"] == {"distance": 864, "nsf_level": 144}
        assert summary["patch"] == {"merge": 138}
        assert summary["repairs"] == {"nsf": {"replay": 100}}
        assert summary["batches"] == 200
        assert summary["sweeps"] == 144
        assert summary["retries"] == 3
        assert summary["coalesce_ratio"] == (864 + 144) / 144

    def test_write_path_summary_streams_and_histograms(self):
        feed = fake_feed(
            "serving-write",
            [
                "n", "m", "mutations", "queries",
                "per-edge median s", "batched median s",
                "per-edge muts/s", "batched muts/s", "speedup",
            ],
            [
                [500, 1500, 4096, 32, 0.29, 0.042, 14099.0, 97918.9, 6.95],
                [2000, 6000, 4096, 32, 0.95, 0.176, 4311.0, 23272.0, 5.4],
            ],
            metrics={
                "repro.serving.mutations{kind=insert}": 2100,
                "repro.serving.mutations{kind=delete}": 1996,
                "repro.serving.batch.writes": 1024,
                "repro.serving.batch.coalesced": 512,
                "repro.serving.batch.write_size": {
                    "count": 1024, "sum": 4096.0, "mean": 4.0,
                    "min": 1.0, "max": 64.0, "p50": 2.0, "p90": 8.0,
                },
            },
        )
        # A second feed carrying only counters merges into the totals.
        other = fake_feed(
            "serving",
            ["n"],
            [[1]],
            metrics={
                "repro.serving.batch.writes": 76,
                "repro.serving.batch.coalesced": 24,
                "repro.serving.batch.write_size": {
                    "count": 76, "sum": 76.0, "mean": 1.0,
                    "min": 1.0, "max": 1.0, "p50": 1.0, "p90": 1.0,
                },
            },
        )
        summary = write_path_summary({"serving-write": feed, "serving": other})
        assert [entry["n"] for entry in summary["streams"]] == [500, 2000]
        assert summary["streams"][1]["speedup"] == 5.4
        assert summary["streams"][0]["batched_mps"] == 97918.9
        assert summary["mutations"] == {"insert": 2100, "delete": 1996}
        assert summary["writes"] == 1100
        assert summary["coalesced"] == 536
        assert summary["coalesced_per_barrier"] == 536 / 1100
        # histogram merge: exact count/sum/extrema, percentiles from the
        # larger snapshot
        sizes = summary["batch_size"]
        assert sizes["count"] == 1100
        assert sizes["sum"] == 4172.0
        assert sizes["max"] == 64.0 and sizes["min"] == 1.0
        assert sizes["p90"] == 8.0

    def test_write_path_summary_empty_inputs(self):
        summary = write_path_summary({})
        assert summary["streams"] == []
        assert summary["writes"] == 0
        assert summary["coalesced_per_barrier"] == 0.0
        assert summary["batch_size"] == {}

    def test_serving_summary_empty_inputs(self):
        summary = serving_summary({})
        assert summary["streams"] == []
        assert summary["batches"] == 0
        assert summary["coalesce_ratio"] == 0.0

    def test_scale_summary_empty_inputs(self):
        summary = scale_summary({}, [])
        assert summary == {"shard_peaks": {}, "ceilings": []}


class TestDashboard:
    def test_build_dashboard_document(self, tmp_path):
        dashboard = build_dashboard(write_fixture_top_dir(tmp_path))
        assert dashboard["schema"] == REPORT_SCHEMA
        assert dashboard["feeds"] == ["fig-demo", "perf-demo"]
        assert dashboard["ledger_records"] == 3
        assert dashboard["speedups"][0]["floor"] == 12.0
        json.dumps(dashboard)  # JSON-serializable end to end

    def test_render_markdown_sections(self, tmp_path):
        dashboard = build_dashboard(write_fixture_top_dir(tmp_path))
        markdown = render_markdown(dashboard)
        assert markdown.startswith("# Perf observatory")
        for section in (
            "## Speedup floors",
            "## Trajectory",
            "## Frozen-cache hit rates",
            "slowest cases",
            "## Memory ceilings",
            "## Incremental serving",
        ):
            assert section in markdown
        assert "| perf-demo | 100 | 12.0x | bfs |" in markdown
        assert "2.00x" in markdown  # the drift is visible
        assert "64.3%" in markdown  # 9/14 hit rate

    def test_legacy_shm_ledger_records_still_render(self, tmp_path):
        """Ledger records written while the shared-memory plane existed
        carry an ``shm`` object; they must still validate and render,
        and the dashboard must show no shared-memory section."""
        (tmp_path / "BENCH_perf-scale.json").write_text(
            json.dumps(perf_scale_feed())
        )
        legacy = build_perf_record(
            "perf-scale",
            timings={"distance-sums_median_s": 18.0, "sweep_shm_s": 0.04},
            memory={"repro.graphs.csr.shard": {"peak_kib": 512.0,
                                               "alloc_kib": 8.0}},
        )
        legacy["shm"] = {
            "events": {"graph": {"publish": 1, "attach": 2, "unlink": 1}},
            "bytes": {"graph": 71_834_192},
            "shards": {"all_pairs_distance_sums": 23},
            "spill_bytes": 1_024_640_000,
        }
        current = build_perf_record(
            "perf-scale", timings={"distance-sums_median_s": 17.0}
        )
        assert "shm" not in current
        ledger = tmp_path / "benchmarks" / "out" / "history.jsonl"
        for record in (legacy, current):
            assert validate_perf_record(record) == []
            append_history(str(ledger), record)
        dashboard = build_dashboard(str(tmp_path))
        assert dashboard["ledger_records"] == 2
        assert set(dashboard["scale"]) == {"shard_peaks", "ceilings"}
        assert [entry["case"] for entry in dashboard["scale"]["ceilings"]] == [
            "landmark-labels", "distance-sums",
        ]
        markdown = render_markdown(dashboard)
        assert "shared memory" not in markdown.lower()
        assert "spill" not in markdown.lower()
        assert "| publish | attach |" not in markdown
        assert "| landmark-labels | 1200.0 | 1536.0 | 336.0 |" in markdown
        assert "| distance-sums | 900.0 | 1536.0 | 636.0 |" in markdown

    def test_empty_top_dir_renders_placeholders(self, tmp_path):
        markdown = render_markdown(build_dashboard(str(tmp_path)))
        assert "(no perf-comparison feeds found)" in markdown
        assert "(ledger empty" in markdown

    def test_dashboard_over_this_repo(self):
        """The committed BENCH feeds must all be picked up, and every
        perf feed must contribute a speedup section."""
        dashboard = build_dashboard(TOP)
        committed = {
            name[len("BENCH_"):-len(".json")]
            for name in os.listdir(TOP)
            if name.startswith("BENCH_") and name.endswith(".json")
        }
        assert committed  # the repo ships feeds
        assert committed <= set(dashboard["feeds"])
        perf_sections = {e["experiment"] for e in dashboard["speedups"]}
        assert {
            "perf-csr", "perf-temporal", "perf-labeling", "perf-runtime",
        } <= perf_sections
        # The committed serving feed populates the serving panel: the
        # stream table and the coalescing counters it rode in with.
        serving = dashboard["serving"]
        assert serving["streams"], "BENCH_serving.json must carry stream rows"
        assert serving["coalesce_ratio"] > 1.0
        # ... and the committed serving-write feed populates the
        # write-path panel: stream rows, coalescing totals, and the
        # batch-size histogram.
        write_path = dashboard["write_path"]
        assert write_path["streams"], (
            "BENCH_serving-write.json must carry stream rows"
        )
        assert all(entry["speedup"] >= 3.0 for entry in write_path["streams"])
        assert write_path["writes"] > 0
        assert write_path["coalesced"] > 0
        assert write_path["batch_size"]["count"] > 0
        markdown = render_markdown(dashboard)  # renders without raising
        assert "## Write path (batched mutation coalescing)" in markdown


class TestCli:
    def test_cli_markdown_to_stdout(self, tmp_path, capsys):
        assert main(["--top-dir", write_fixture_top_dir(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Perf observatory")

    def test_cli_json_to_file(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        out_path = str(tmp_path / "dashboard.json")
        assert main(["--top-dir", top, "--json", "--out", out_path]) == 0
        document = json.loads(open(out_path).read())
        assert document["schema"] == REPORT_SCHEMA
        assert document["ledger_records"] == 3

    def test_cli_explicit_history_and_top(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        other_ledger = str(tmp_path / "elsewhere.jsonl")
        append_history(
            other_ledger,
            build_perf_record("alt", timings={"x_median_s": 1.0}),
        )
        out_path = str(tmp_path / "dash.json")
        assert (
            main(
                [
                    "--top-dir", top,
                    "--history", other_ledger,
                    "--json",
                    "--out", out_path,
                    "--top", "1",
                ]
            )
            == 0
        )
        document = json.loads(open(out_path).read())
        assert document["ledger_records"] == 1
        assert len(document["slowest"]) == 1

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        top = write_fixture_top_dir(tmp_path)
        src = os.path.join(TOP, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.observability.report", "--top-dir", top],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# Perf observatory")

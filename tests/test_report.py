"""The consolidated perf dashboard (repro.observability.report).

Section builders over synthetic feeds/ledgers, the generic feed
panel, the assembled ``repro.report/v2`` document, markdown rendering,
the CLI entry point, and a live pass over this repo's committed BENCH
feeds.
"""

import glob
import json
import os

import pytest

from repro.observability import validate_bench_report
from repro.observability.regression import (
    append_history,
    build_perf_record,
    validate_perf_record,
)
from repro.observability import report
from repro.observability.regression import load_history
from repro.observability.report import (
    REPORT_SCHEMA,
    build_dashboard,
    main,
    render_markdown,
    scan_bench_feeds,
    slowest_spans,
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
    one corrupt feed, and a three-run ledger with a 2x drift whose
    records also carry the tracer memory peaks older runs wrote."""
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
        record = build_perf_record(
            "perf-demo",
            timings={"bfs_n100_median_s": median},
            cache={"Graph": {"hit": 1, "miss": 1}},
        )
        record["memory"] = {"repro.dtn.run": {"peak_kib": 64.0, "alloc_kib": 1.0}}
        append_history(str(ledger), record)
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

    def test_slowest_spans_ranked_and_truncated(self, tmp_path, monkeypatch):
        feeds = scan_bench_feeds(write_fixture_top_dir(tmp_path))
        monkeypatch.setattr(report, "SLOWEST_CASES", 1)
        spans = slowest_spans(feeds)
        assert spans == [
            {"experiment": "perf-demo", "case": "bfs_n100_median_s", "median_s": 0.5}
        ]

    def test_trajectory_reports_the_2x_drift(self, tmp_path):
        top = write_fixture_top_dir(tmp_path)
        ledger = load_history(os.path.join(top, "benchmarks", "out", "history.jsonl"))
        (entry,) = trajectory_summary(ledger)
        assert entry["experiment"] == "perf-demo" and entry["runs"] == 3
        assert entry["worst_slowdown"] == 2.0
        assert entry["regressions"][0]["key"] == "bfs_n100_median_s"


def markdown_row(cells):
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


class TestFeedPanel:
    def test_unknown_feed_renders_rows_and_keys(self, tmp_path):
        """A feed whose columns and metric family no code in the report
        names still gets its full panel."""
        import inspect

        feed = fake_feed(
            "acme-widgets",
            ["zone", "widgets", "ratio"],
            [["north", 7, 0.25], ["south", 11, 1.5]],
            metrics={
                "acme.widgets.made{colour=red,zone=north}": 7,
                "acme.widgets.latency_s": {
                    "count": 3, "sum": 0.6, "mean": 0.2, "min": 0.1,
                    "max": 0.3, "p50": 0.2, "p90": 0.3, "p99": 0.3,
                },
            },
        )
        feed["title"] = "widget output"
        (tmp_path / "BENCH_acme-widgets.json").write_text(json.dumps(feed))
        assert "acme" not in inspect.getsource(report)
        dashboard = build_dashboard(str(tmp_path))
        titles = [section["title"] for section in dashboard["sections"]]
        assert titles[-3:] == [
            "acme-widgets: widget output",
            "acme-widgets metrics",
            "acme-widgets histograms",
        ]
        lines = render_markdown(dashboard).splitlines()
        for line in (
            "## acme-widgets: widget output",
            "| zone | widgets | ratio |",
            "| north | 7 | 0.25 |",
            "| south | 11 | 1.5 |",
            "| metric | value |",
            "| acme.widgets.made{colour=red,zone=north} | 7 |",
            "| histogram | count | mean | p50 | p90 | p99 | max |",
            "| acme.widgets.latency_s | 3 | 0.2 | 0.2 | 0.3 | 0.3 | 0.3 |",
        ):
            assert line in lines

    def test_feed_without_metrics_or_rows_renders_its_table_only(self):
        """No metrics (or a malformed ``metrics`` field) means no metric
        or histogram section; an empty table shows its placeholder."""
        bare = fake_feed("bare", ["a", "b"], [[1, 2]])
        assert [s["title"] for s in report.feed_panel("bare", bare)] == [
            "bare: bare"
        ]
        malformed = fake_feed("odd", ["a"], [[1]])
        malformed["metrics"] = ["not", "a", "mapping"]
        assert len(report.feed_panel("odd", malformed)) == 1
        empty = fake_feed("empty", ["a"], [])
        del empty["header"]
        (table,) = report.feed_panel("empty", empty)
        assert table["header"] == [] and table["rows"] == []
        markdown = render_markdown({"sections": [table]})
        assert "## empty: empty\n\n(no rows)" in markdown

    def test_histogram_fields_missing_from_a_summary_render_as_dash(self):
        feed = fake_feed(
            "sparse", ["a"], [[1]],
            metrics={"sparse.latency_s": {"count": 2, "mean": 0.5, "max": 0.9}},
        )
        panel = report.feed_panel("sparse", feed)
        assert [s["title"] for s in panel] == [
            "sparse: sparse", "sparse histograms",
        ]
        assert panel[1]["header"] == [
            "histogram", "count", "mean", "p50", "p90", "p99", "max",
        ]
        assert panel[1]["rows"] == [
            ["sparse.latency_s", 2, 0.5, "-", "-", "-", 0.9]
        ]

    def test_histogram_floats_render_to_four_significant_digits(self):
        feed = fake_feed(
            "wide", ["a"], [[1]],
            metrics={
                "wide.batch_size": {
                    "count": 12, "mean": 1.8333333333333333, "p50": 1.0,
                    "p90": 3.0, "p99": 12345.678, "max": 0.011762069000269548,
                },
            },
        )
        (_, histograms) = report.feed_panel("wide", feed)
        assert histograms["rows"] == [
            ["wide.batch_size", 12, 1.833, 1.0, 3.0, 12350.0, 0.01176]
        ]
        lines = render_markdown({"sections": [histograms]}).splitlines()
        assert (
            "| wide.batch_size | 12 | 1.833 | 1.0 | 3.0 | 12350.0 | 0.01176 |"
        ) in lines

    def test_same_metric_key_in_two_feeds_is_not_summed(self, tmp_path):
        """Each feed shows its own value of a shared key; no cross-feed
        total appears anywhere on the dashboard."""
        key = "repro.cache.frozen{event=hit,owner=Graph}"
        for experiment, hits in (("feed-a", 6), ("feed-b", 9)):
            feed = fake_feed(experiment, ["x"], [[1]], metrics={key: hits})
            (tmp_path / f"BENCH_{experiment}.json").write_text(json.dumps(feed))
        dashboard = build_dashboard(str(tmp_path))
        by_title = {s["title"]: s for s in dashboard["sections"]}
        assert by_title["feed-a metrics"]["rows"] == [[key, 6]]
        assert by_title["feed-b metrics"]["rows"] == [[key, 9]]
        markdown = render_markdown(dashboard)
        assert f"| {key} | 15 |" not in markdown
        assert markdown.count(f"| {key} | ") == 2

    def test_panels_sorted_by_experiment_metrics_in_feed_order(self, tmp_path):
        metrics = {"z.last": 1, "a.first": 2, "m.middle": 3}
        for experiment in ("zeta", "alpha"):
            feed = fake_feed(experiment, ["x"], [[1]], metrics=metrics)
            (tmp_path / f"BENCH_{experiment}.json").write_text(json.dumps(feed))
        dashboard = build_dashboard(str(tmp_path))
        panel_titles = [
            s["title"] for s in dashboard["sections"]
            if s["title"].startswith(("alpha", "zeta"))
        ]
        assert panel_titles == [
            "alpha: alpha", "alpha metrics", "zeta: zeta", "zeta metrics",
        ]
        by_title = {s["title"]: s for s in dashboard["sections"]}
        assert [row[0] for row in by_title["zeta metrics"]["rows"]] == [
            "z.last", "a.first", "m.middle",
        ]

    def test_committed_feeds_each_render_a_complete_panel(self):
        """Every committed feed has a panel; every table row appears
        verbatim as a markdown row, and every metric key as a row."""
        feeds = scan_bench_feeds(TOP)
        assert feeds  # the repo ships feeds
        lines = render_markdown(build_dashboard(TOP)).splitlines()
        line_set = set(lines)
        for experiment, feed in feeds.items():
            assert f"## {experiment}: {feed['title']}" in line_set, experiment
            assert markdown_row(feed["header"]) in line_set, experiment
            for row in feed["rows"]:
                assert markdown_row(row) in line_set, (experiment, row)
            for key in feed.get("metrics") or {}:
                assert any(line.startswith(f"| {key} | ") for line in lines), (
                    experiment, key,
                )


class TestDashboard:
    def test_build_dashboard_document(self, tmp_path):
        dashboard = build_dashboard(write_fixture_top_dir(tmp_path))
        assert dashboard["schema"] == REPORT_SCHEMA
        assert dashboard["feeds"] == ["fig-demo", "perf-demo"]
        assert dashboard["ledger_records"] == 3
        speedups = dashboard["sections"][0]
        assert speedups["header"][:3] == ["experiment", "size", "floor"]
        assert speedups["rows"] == [
            ["perf-demo", 100, "12.0x", "bfs", "bfs 12.0x, cc 30.0x"]
        ]
        for section in dashboard["sections"]:
            assert set(section) == {"title", "header", "rows", "empty"}
        json.dumps(dashboard)  # JSON-serializable end to end

    def test_render_markdown_sections(self, tmp_path):
        dashboard = build_dashboard(write_fixture_top_dir(tmp_path))
        markdown = render_markdown(dashboard)
        assert markdown.startswith("# Perf observatory")
        for section in (
            "## Speedup floors",
            "## Trajectory",
            "slowest cases",
            "## fig-demo: fig-demo",
            "## perf-demo: perf-demo",
            "## perf-demo metrics",
        ):
            assert section in markdown
        assert "| perf-demo | 100 | 12.0x | bfs |" in markdown
        assert "2.00x" in markdown  # the drift is visible
        assert "| repro.cache.frozen{event=hit,owner=Graph} | 6 |" in markdown

    def test_legacy_shm_ledger_records_still_render(self, tmp_path):
        """Ledger records written while the shared-memory plane existed
        carry an ``shm`` object, and those written while the tracer
        captured memory a ``memory`` object; they must still validate
        and render, and the dashboard must show neither section."""
        (tmp_path / "BENCH_perf-scale.json").write_text(
            json.dumps(perf_scale_feed())
        )
        legacy = build_perf_record(
            "perf-scale",
            timings={"distance-sums_median_s": 18.0, "sweep_shm_s": 0.04},
        )
        legacy["memory"] = {
            "repro.graphs.csr.shard": {"peak_kib": 512.0, "alloc_kib": 8.0}
        }
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
        markdown = render_markdown(dashboard)
        assert "shared memory" not in markdown.lower()
        assert "memory ceilings" not in markdown.lower()
        assert "repro.graphs.csr.shard" not in markdown
        assert "spill" not in markdown.lower()
        assert "| publish | attach |" not in markdown
        # the perf-scale rows render in that feed's panel
        assert "## perf-scale: perf-scale" in markdown
        for row in perf_scale_feed()["rows"]:
            assert markdown_row(row) in markdown
        assert (
            "| scale | 1000000 | 4000000 | landmark-labels | 10.0 | 1200.0 "
            "| 1536.0 | 4 |"
        ) in markdown

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
        perf_sections = {
            e["experiment"] for e in speedup_summary(scan_bench_feeds(TOP))
        }
        assert {
            "perf-csr", "perf-temporal", "perf-labeling", "perf-runtime",
        } <= perf_sections
        render_markdown(dashboard)  # renders without raising


COMMITTED_FEEDS = sorted(glob.glob(os.path.join(TOP, "BENCH_*.json")))


@pytest.mark.parametrize("path", COMMITTED_FEEDS, ids=os.path.basename)
def test_committed_feed_parses_validates_and_has_rows(path):
    """``scan_bench_feeds`` skips a feed it cannot read, so a broken
    committed feed would silently drop out of the dashboard; each feed
    is the one copy of its table, so check every one directly."""
    with open(path) as handle:
        document = json.load(handle)
    assert validate_bench_report(document) == []
    assert document["rows"]


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

    def test_cli_explicit_history(self, tmp_path):
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
                ]
            )
            == 0
        )
        document = json.loads(open(out_path).read())
        assert document["ledger_records"] == 1
        trajectory = document["sections"][1]
        assert trajectory["rows"] == [["alt", 1, "n/a", "—"]]

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

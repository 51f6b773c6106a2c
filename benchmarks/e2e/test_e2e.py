"""Smoke tests of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

(tier-1 collects only ``tests/``).  They run the benchmark at toy sizes.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

for path in (str(ROOT / "src"), str(HERE.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", str(RUN), "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """{trace: {workload: run}} from one smoke pass in each mode."""
    out = {}
    for trace in (0, 1):
        target = tmp_path_factory.mktemp("e2e") / f"trace{trace}.json"
        done = _run("--trace", str(trace), "--json", str(target))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        runs = json.loads(target.read_text())["runs"]
        out[trace] = {run["workload"]: run for run in runs}
    return out


def test_every_benchmark_metric_is_emitted_with_its_unit(results):
    from e2e.layers import WORKLOADS
    from e2e.run import DEFAULT_SECONDS, END_TO_END

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["run_seconds"] == DEFAULT_SECONDS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS:
            run = results[trace][workload]
            assert run["correct"] and run["failed"] == 0, run
            emitted = {name: entry["unit"] for name, entry in run["metrics"].items()}
            assert emitted == expected, workload


def test_per_layer_table_matches_benchmark_json():
    from e2e.layers import PER_LAYER

    assert [(m.name, m.unit, m.better) for m in PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]


def test_every_declared_span_fires(results):
    from e2e.layers import PER_LAYER

    for metric in PER_LAYER:
        for workload in metric.declared:
            assert results[1][workload]["metrics"][metric.name]["value"] > 0, (
                workload,
                metric.name,
            )
    for run in results[1].values():
        unattributed = run["metrics"]["trace.unattributed_share"]["value"]
        assert unattributed < 0.05, run["workload"]


def test_corrupted_distance_raises_error_rate(monkeypatch):
    from e2e.report import Report
    from e2e.serving import ServingWorkload
    from repro.serving.state import GraphService

    original = GraphService.distances_from
    monkeypatch.setattr(
        GraphService, "distances_from", lambda self, source: original(self, source) + 1
    )
    report = Report("serve-read")
    ServingWorkload("serve-read", seed=3, smoke=True).measure(0.2, report)
    assert report.attempted > 0
    assert report.failed > 0


def test_host_clock_scales_wall_time_and_restores_the_timer():
    import signal
    import time

    from e2e.report import HostClock

    handler = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    with clock.stage("spin"):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    with pytest.raises(ZeroDivisionError):
        with clock.stage("raises"):
            1 / 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    [(name, start, end, reference)] = clock.take()
    assert name == "spin"
    assert 0.2 * (end - start) < reference < 5.0 * (end - start)


def test_compare_reads_run_output(results, tmp_path, capsys):
    from e2e.compare import main

    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"runs": list(results[0].values())}))
    assert main(["--parent", str(path), "--change", str(path)]) == 0
    assert "within bound" in capsys.readouterr().out


def _tracked_files():
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=False
    )
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    digests = {}
    for name in listed.stdout.decode().split("\0"):
        path = ROOT / name
        if name and path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_run_leaves_tracked_files_unchanged():
    before = _tracked_files()
    done = _run("--workload", "serve-write", "--trace", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    assert _tracked_files() == before


def test_fails_without_the_library(tmp_path):
    """Only BENCHMARK.json and the benchmark: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    args = ["--workload", "serve-read", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [*SPEC["command"], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

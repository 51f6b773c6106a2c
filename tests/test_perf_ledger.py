"""The ``repro.perf/v1`` ledger and the configurable regression gate.

Covers the record/append/load round-trip, the median-of-last-k
detector (including the acceptance case: a synthetic 2x slowdown must
be flagged), the three gate modes, the env-var overrides, and the
``emit_table`` wiring that appends a record per benchmark emission.
"""

import json
import os
import sys

import pytest

from repro.observability.regression import (
    DEFAULT_THRESHOLD,
    GATE_ENV,
    PERF_SCHEMA,
    THRESHOLD_ENV,
    PerfRegressionError,
    append_history,
    apply_gate,
    build_perf_record,
    check_history,
    detect_regressions,
    gate_mode,
    gate_threshold,
    load_history,
    validate_perf_record,
)

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)


def _record(median_s, experiment="exp"):
    return build_perf_record(
        experiment, timings={"kernel_n100_median_s": median_s, "emit_s": 0.001}
    )


class TestLedger:
    def test_build_and_validate_round_trip(self):
        record = build_perf_record(
            "perf-csr",
            timings={"bfs_median_s": 0.01},
            cache={"Graph": {"hit": 3, "miss": 1}},
            dispatch={"graphs.bfs_distances": {"fast": 4}},
        )
        assert record["schema"] == PERF_SCHEMA
        assert validate_perf_record(record) == []
        # survives a JSON round trip unchanged
        assert validate_perf_record(json.loads(json.dumps(record))) == []
        # older records also carry the tracer's memory peaks
        memory = {"repro.dtn.run": {"peak_kib": 120.0, "alloc_kib": 4.0}}
        assert validate_perf_record({**record, "memory": memory}) == []

    def test_validate_rejects_malformed_records(self):
        assert validate_perf_record({"schema": "nope"})  # wrong schema
        assert any(
            "experiment" in p
            for p in validate_perf_record({"schema": PERF_SCHEMA, "experiment": ""})
        )
        assert any(
            "timings" in p
            for p in validate_perf_record(
                {
                    "schema": PERF_SCHEMA,
                    "experiment": "x",
                    "timings": {"bad": "not-a-number"},
                }
            )
        )

    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        for median in (0.1, 0.2, 0.3):
            append_history(path, _record(median))
        records = load_history(path)
        assert [r["timings"]["kernel_n100_median_s"] for r in records] == [
            0.1,
            0.2,
            0.3,
        ]

    def test_append_is_append_only(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _record(0.1))
        first = open(path).read()
        append_history(path, _record(0.2))
        assert open(path).read().startswith(first)  # prior bytes untouched

    def test_load_filters_by_experiment_and_skips_garbage(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _record(0.1, experiment="a"))
        append_history(path, _record(0.2, experiment="b"))
        with open(path, "a") as handle:
            handle.write("{truncated by a kill -9")  # no newline, no close
        assert len(load_history(path)) == 2
        only_a = load_history(path, experiment="a")
        assert len(only_a) == 1 and only_a[0]["experiment"] == "a"

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []


class TestDetector:
    def test_flags_synthetic_2x_slowdown(self):
        """Acceptance case: 2x over a stable baseline must be caught at
        the default 1.5x threshold."""
        history = [_record(0.100) for _ in range(3)]
        current = _record(0.200)
        regressions = detect_regressions(history, current, threshold=DEFAULT_THRESHOLD)
        assert len(regressions) == 1
        regression = regressions[0]
        assert regression.key == "kernel_n100_median_s"
        assert regression.baseline_s == pytest.approx(0.100)
        assert regression.current_s == pytest.approx(0.200)
        assert regression.slowdown == pytest.approx(2.0)
        assert "2.00x" in regression.describe()

    def test_within_threshold_passes(self):
        history = [_record(0.100) for _ in range(3)]
        assert detect_regressions(history, _record(0.140), threshold=1.5) == []

    def test_baseline_is_median_of_last_k(self):
        # one old outlier beyond the k-window must not poison the baseline
        history = [_record(10.0)] + [_record(0.1) for _ in range(5)]
        flagged = detect_regressions(history, _record(0.25), k=5, threshold=1.5)
        assert len(flagged) == 1  # 0.25 vs median(0.1) = 2.5x
        # ...and a noise spike inside the window is absorbed by the median
        noisy = [_record(0.1), _record(0.1), _record(5.0)]
        assert detect_regressions(noisy, _record(0.12), k=5, threshold=1.5) == []

    def test_only_median_keys_are_compared(self):
        history = [
            build_perf_record("exp", timings={"kernel_max_s": 0.1, "emit_s": 0.1})
        ]
        current = build_perf_record(
            "exp", timings={"kernel_max_s": 99.0, "emit_s": 99.0}
        )
        assert detect_regressions(history, current, threshold=1.5) == []

    def test_new_keys_need_history(self):
        history = [_record(0.1)]
        current = build_perf_record("exp", timings={"fresh_case_median_s": 50.0})
        assert detect_regressions(history, current, threshold=1.5) == []

    def test_worst_slowdown_sorts_first(self):
        history = [
            build_perf_record(
                "exp", timings={"a_median_s": 0.1, "b_median_s": 0.1}
            )
        ]
        current = build_perf_record(
            "exp", timings={"a_median_s": 0.3, "b_median_s": 0.9}
        )
        flagged = detect_regressions(history, current, threshold=1.5)
        assert [r.key for r in flagged] == ["b_median_s", "a_median_s"]

    def test_memory_peaks_of_old_records_are_not_gated(self):
        """Records written while the tracer captured memory carry
        per-span peaks; only timings are gated, so a grown peak passes."""

        def old_record(peak):
            record = _record(0.1)
            record["memory"] = {"repro.graphs.csr.shard": {"peak_kib": peak}}
            return record

        history = [old_record(1000.0) for _ in range(3)]
        assert detect_regressions(history, old_record(9999.0), threshold=1.5) == []


class TestGate:
    def test_mode_defaults_to_warn(self, monkeypatch):
        monkeypatch.delenv(GATE_ENV, raising=False)
        monkeypatch.delenv("CI", raising=False)
        assert gate_mode() == "warn"

    def test_mode_hardens_to_fail_under_ci(self, monkeypatch):
        monkeypatch.delenv(GATE_ENV, raising=False)
        monkeypatch.setenv("CI", "true")
        assert gate_mode() == "fail"

    def test_mode_env_overrides_ci(self, monkeypatch):
        monkeypatch.setenv("CI", "true")
        monkeypatch.setenv(GATE_ENV, "off")
        assert gate_mode() == "off"

    def test_mode_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(GATE_ENV, "maybe")
        with pytest.raises(ValueError):
            gate_mode()

    def test_threshold_env_override(self, monkeypatch):
        monkeypatch.setenv(THRESHOLD_ENV, "2.5")
        assert gate_threshold() == 2.5
        monkeypatch.setenv(THRESHOLD_ENV, "0.9")
        with pytest.raises(ValueError):
            gate_threshold()
        monkeypatch.delenv(THRESHOLD_ENV)
        assert gate_threshold(default=4.0) == 4.0

    def _one_regression(self):
        history = [_record(0.1) for _ in range(3)]
        return detect_regressions(history, _record(0.5), threshold=1.5)

    def test_gate_off_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            returned = apply_gate(self._one_regression(), mode="off")
        assert len(returned) == 1

    def test_gate_warn_emits_userwarning(self):
        with pytest.warns(UserWarning, match="perf regression"):
            apply_gate(self._one_regression(), mode="warn")

    def test_gate_fail_raises(self):
        with pytest.raises(PerfRegressionError, match="kernel_n100_median_s"):
            apply_gate(self._one_regression(), mode="fail")

    def test_gate_noop_without_regressions(self):
        assert apply_gate([], mode="fail") == []

    def test_check_history_end_to_end(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        for _ in range(3):
            append_history(path, _record(0.1))
        with pytest.raises(PerfRegressionError):
            check_history(path, _record(0.5), threshold=1.5, mode="fail")
        assert check_history(path, _record(0.11), threshold=1.5, mode="fail") == []


class TestEmitTableWiring:
    def test_emit_table_appends_a_ledger_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GATE_ENV, "off")
        from _util import HISTORY_NAME, emit_table

        result = emit_table(
            "ledger-smoke",
            "ledger wiring",
            ["metric", "value"],
            [("x", 1)],
            timings={"case_median_s": 0.01},
            out_dir=str(tmp_path),
            top_dir=str(tmp_path),
        )
        assert result.history_path == str(tmp_path / HISTORY_NAME)
        records = load_history(result.history_path, experiment="ledger-smoke")
        assert len(records) == 1
        assert validate_perf_record(records[0]) == []
        assert records[0]["timings"]["case_median_s"] == 0.01
        assert "emit_s" in records[0]["timings"]

    def test_emit_table_gates_against_its_own_history(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GATE_ENV, "fail")
        from _util import emit_table

        for _ in range(2):
            emit_table(
                "ledger-gate",
                "baseline",
                ["metric", "value"],
                [("x", 1)],
                timings={"case_median_s": 0.010},
                out_dir=str(tmp_path),
                top_dir=str(tmp_path),
            )
        with pytest.raises(PerfRegressionError):
            emit_table(
                "ledger-gate",
                "regressed",
                ["metric", "value"],
                [("x", 1)],
                timings={"case_median_s": 0.100},
                out_dir=str(tmp_path),
                top_dir=str(tmp_path),
            )
        # the regressed record still landed in the ledger (append-only,
        # append happens before the gate so history is never lost)
        from repro.observability.regression import load_history as load

        path = str(tmp_path / "history.jsonl")
        assert len(load(path, experiment="ledger-gate")) == 3

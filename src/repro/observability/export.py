"""Benchmark reports: the one committed copy of every experiment table.

:class:`BenchReport` writes the top-level ``BENCH_<experiment>.json``
feed: the table, the metrics registry snapshot at emission time (span
``<name>.duration_s`` histograms included) and wall-clock timings.
:func:`validate_bench_report` checks a document against the
``repro.bench/v1`` schema and returns the list of violations (empty =
valid).

All writes are atomic (temp file in the destination directory, then
``os.replace``) so an interrupted benchmark run never leaves a
truncated artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

BENCH_SCHEMA = "repro.bench/v1"


# ----------------------------------------------------------------------
# atomic file output
# ----------------------------------------------------------------------
def write_atomic(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically; returns the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        # Unlink unconditionally: an exists() pre-check races against a
        # concurrent writer claiming the same name, and a failed replace
        # may or may not have consumed the temp file.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


# ----------------------------------------------------------------------
# benchmark reports
# ----------------------------------------------------------------------
def _json_default(value: Any) -> Any:
    """Best-effort encoder for report cells (nodes may be tuples,
    frozensets, numpy scalars...)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except Exception:  # pragma: no cover - defensive
            pass
    return repr(value)


class BenchReport:
    """Machine-readable record of one benchmark experiment.

    Collects what the plain-text table shows (header + rows) together
    with what it cannot show: the metrics snapshot at emission time
    and wall-clock timings.  ``write`` produces the
    top-level ``BENCH_<experiment>.json`` feed.
    """

    def __init__(
        self,
        experiment: str,
        title: str = "",
        header: Sequence[str] = (),
        rows: Sequence[Sequence[Any]] = (),
        notes: str = "",
        metrics: Optional[Mapping[str, Any]] = None,
        timings: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.experiment = experiment
        self.title = title
        self.header = list(header)
        self.rows = [list(row) for row in rows]
        self.notes = notes
        self.metrics = dict(metrics or {})
        self.timings = dict(timings or {})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "experiment": self.experiment,
            "title": self.title,
            "header": self.header,
            "rows": self.rows,
            "notes": self.notes,
            "metrics": self.metrics,
            "timings": self.timings,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=_json_default, indent=2, sort_keys=True)

    def write(self, top_dir: str) -> str:
        """Write ``<top_dir>/BENCH_<experiment>.json``; returns its path."""
        path = os.path.join(top_dir, f"BENCH_{self.experiment}.json")
        return write_atomic(path, self.to_json() + "\n")


def validate_bench_report(document: Mapping[str, Any]) -> List[str]:
    """Validate one report dict against ``repro.bench/v1``.

    Returns a list of human-readable violations; empty means valid.
    """
    problems: List[str] = []
    if not isinstance(document, Mapping):
        return ["document is not a JSON object"]
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}, got {document.get('schema')!r}")
    experiment = document.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        problems.append("experiment must be a non-empty string")
    header = document.get("header")
    if not isinstance(header, list) or not all(isinstance(h, str) for h in header):
        problems.append("header must be a list of strings")
    rows = document.get("rows")
    if not isinstance(rows, list):
        problems.append("rows must be a list")
        rows = []
    for index, row in enumerate(rows):
        if not isinstance(row, list):
            problems.append(f"rows[{index}] must be a list")
        elif isinstance(header, list) and header and len(row) != len(header):
            problems.append(
                f"rows[{index}] has {len(row)} cells, header has {len(header)}"
            )
    for field, kind in (("metrics", Mapping), ("timings", Mapping)):
        if not isinstance(document.get(field, {}), kind):
            problems.append(f"{field} must be an object")
    timings = document.get("timings", {})
    if isinstance(timings, Mapping):
        for key, value in timings.items():
            if not isinstance(value, (int, float)):
                problems.append(f"timings[{key!r}] must be a number")
    if "generated_at" in document and not isinstance(document["generated_at"], str):
        problems.append("generated_at must be a string timestamp")
    return problems

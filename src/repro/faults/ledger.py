"""Append-only fault event ledger with a replay digest.

Every fault decision a :class:`~repro.faults.plan.FaultSession` makes —
a dropped message, a duplicated delivery, a crash, a link flap, a
scheduled retry — is appended here as one plain ``(time, kind,
detail)`` row; a fate call appends all of its rows at once.
:class:`FaultEvent` objects are built only when :attr:`FaultLedger.events`
is read.  The ledger is the *replay contract*: two sessions started
from the same :class:`~repro.faults.plan.FaultPlan` (same seed, same
injectors) and driven through the same engine run must produce
byte-identical ledgers.  :meth:`FaultLedger.lines` renders rows
canonically and :meth:`FaultLedger.digest` hashes that rendering, so
the contract is a one-line assertion in tests.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

Detail = Tuple[Tuple[str, Any], ...]
Row = Tuple[int, str, Detail]


def _render(seq: int, time: int, kind: str, detail: Detail) -> str:
    rendered = " ".join(f"{key}={value!r}" for key, value in detail)
    return f"{seq} t={time} {kind} {rendered}".rstrip()


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or recovery action.

    ``seq`` is the global injection order (dense, starting at 0);
    ``time`` is the engine round (synchronous), tick (asynchronous) or
    trace time (DTN) at which the event fired; ``kind`` is the event
    taxonomy name (``drop``, ``duplicate``, ``delay``, ``reorder``,
    ``crash``, ``restart``, ``link_down``, ``link_up``, ``retry``,
    ``retry_exhausted``, ``crash_drop``, ``link_drop``,
    ``contact_drop``, ``contact_delay``, ``contact_crashed``,
    ``transfer_drop``, ``transfer_duplicate``, ``buffer_lost``);
    ``detail`` carries the event's participants as sorted key/value
    pairs.
    """

    seq: int
    time: int
    kind: str
    detail: Detail

    def line(self) -> str:
        """Canonical one-line rendering (the unit of byte-equality)."""
        return _render(self.seq, self.time, self.kind, self.detail)


class FaultLedger:
    """The ordered record of every injected fault in one session: plain
    ``(time, kind, detail)`` rows, ``detail`` sorted by key, a row's
    position being its ``seq``."""

    def __init__(self) -> None:
        self._rows: List[Row] = []

    def extend(self, rows: Iterable[Row]) -> None:
        self._rows.extend(rows)

    @property
    def events(self) -> List[FaultEvent]:
        return [FaultEvent(seq, *row) for seq, row in enumerate(self._rows)]

    def __len__(self) -> int:
        return len(self._rows)

    def lines(self) -> List[str]:
        return [_render(seq, *row) for seq, row in enumerate(self._rows)]

    def digest(self) -> str:
        """SHA-256 over the canonical rendering; equal digests mean the
        two runs injected byte-identical fault sequences."""
        payload = "\n".join(self.lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def counts(self) -> Dict[str, int]:
        """Event totals by kind (the ``ConvergenceError`` fault summary)."""
        return dict(Counter(kind for _, kind, _ in self._rows))

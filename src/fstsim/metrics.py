"""Per-evaluation metrics records and their file formats.

One record is emitted per task per evaluation tick. Files come in two
equivalent flavours with identical field order: CSV (one header row) and
JSON lines. The package only writes them; ``csv`` and ``json`` read them.
Floats are serialized with ``repr`` so identical runs produce byte-identical
files; in JSON lines a non-finite float is written as ``Infinity``,
``-Infinity`` or ``NaN``, which ``json`` reads back.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable


@dataclass(frozen=True)
class MetricsRecord:
    """Snapshot of one task at one evaluation tick.

    r and b are the task's current request and buffer targets, c the total
    updates received by the server (all tasks, cumulative), dropped the
    task's cumulative staleness-dropped updates. Staleness stats cover the
    updates that entered the task's buffer so far.
    """

    sim_time: float
    task_id: int
    round: int
    loss: float
    accuracy: float
    r: int
    b: int
    staleness_mean: float
    staleness_max: int
    c: int
    dropped: int


FIELD_ORDER = tuple(f.name for f in fields(MetricsRecord))

_FLOAT_FIELDS = {"sim_time", "loss", "accuracy", "staleness_mean"}


def _typed(name: str, value) -> float | int:
    return float(value) if name in _FLOAT_FIELDS else int(value)


def write_csv(path: str | Path, records: Iterable[MetricsRecord]) -> None:
    lines = [",".join(FIELD_ORDER)]
    for rec in records:
        d = asdict(rec)
        lines.append(",".join(repr(_typed(name, d[name])) for name in FIELD_ORDER))
    Path(path).write_text("\n".join(lines) + "\n")


def write_jsonl(path: str | Path, records: Iterable[MetricsRecord]) -> None:
    lines = [
        json.dumps({name: _typed(name, getattr(rec, name)) for name in FIELD_ORDER})
        for rec in records
    ]
    Path(path).write_text("\n".join(lines) + "\n")

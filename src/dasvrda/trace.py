"""Benchmark trace files: a JSON config header line plus CSV rows.

A trace starts with one ``#``-prefixed line holding the fully resolved run
configuration as JSON (sorted keys, so identical configurations produce
identical headers), followed by a CSV header and one row per stage.  The
columns are the fields of :class:`TraceRecord`, in order.  The
``seconds`` column is wall-clock and is the only field expected to differ
between reruns of the same seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from typing import Iterable, Optional, get_type_hints


@dataclass
class TraceRecord:
    """One trace row; each field is the column of its name."""

    stage: int
    evals: int
    evals_over_n: float
    objective: float
    gap: Optional[float]
    seconds: float
    restarted: bool

    def row(self) -> list[str]:
        return [write(getattr(self, name)) for name, write, _ in _COLUMNS]


#: Writer and reader of a column's text, by the type of its field.
_CODEC_OF_TYPE = {
    int: (str, int),
    float: (lambda value: repr(float(value)), float),
    Optional[float]: (lambda value: "" if value is None else repr(float(value)),
                      lambda text: None if text == "" else float(text)),
    bool: (lambda value: str(int(value)), lambda text: {"0": False, "1": True}[text]),
}
_TYPES = get_type_hints(TraceRecord)
#: Each column's name, writer and reader.
_COLUMNS = [(f.name, *_CODEC_OF_TYPE[_TYPES[f.name]]) for f in fields(TraceRecord)]
TRACE_COLUMNS = tuple(name for name, _, _ in _COLUMNS)


def write_trace(path: str, config: dict, records: Iterable[TraceRecord]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write("#" + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for record in records:
            writer.writerow(record.row())


def read_trace(path: str) -> tuple[dict, list[TraceRecord]]:
    """Header and records of a trace file; a ``ValueError`` that names the
    file and the line for anything else."""
    with open(path, newline="") as handle:
        first = handle.readline()
        try:
            config = json.loads(first[1:]) if first.startswith("#") else None
        except ValueError:
            config = None
        if not isinstance(config, dict):
            raise ValueError(f"{path}, line 1: expected '#' and a JSON object")
        reader = csv.reader(handle)
        header = next(reader, [])
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}, line 2: unexpected columns {header}")
        records = []
        for row in reader:
            try:
                values = [read(text) for (_, _, read), text
                          in zip(_COLUMNS, row, strict=True)]
            except (KeyError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num + 1}: bad row "
                                 f"{row}") from None
            records.append(TraceRecord(*values))
    return config, records

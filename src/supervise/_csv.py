"""The one CSV dialect every report prints: ``\\n`` line ends, floats at full precision."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line plus one line per row; floats keep full precision."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def bool_word(b: bool) -> str:
    """The spelling of a boolean in CSV columns and CLI lines."""
    return "true" if b else "false"

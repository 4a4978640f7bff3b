"""The one CSV dialect every report prints: ``\\n`` line ends, floats at full precision."""

from __future__ import annotations

import csv
import io
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

_CHUNK_ROWS = 4096


def _lines(rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cyclic_csv_chunks(header: Sequence[str], profiles: Iterable[tuple]) -> Iterator[str]:
    """CSV text of ``header`` and of each profile's levels, in chunks of at most 4096 rows.

    A profile is ``(key, prefix, period, depth)``: ``key`` is a tuple of the leading columns, ``prefix`` iterates
    the first rows as tuples ``(level, value, truthful)`` with consecutive levels, and every level u past the prefix
    up to ``depth`` repeats the row ``period`` levels above it.  The csv writer writes the prefix rows, 4096 at a
    time, and only the last ``period`` of them are kept; each later row is ``lead + str(u) + tail``, where ``lead``
    (the key columns) and the ``tail`` of each cycle position (the ``,value,truthful`` columns) are formatted once
    by the csv writer, so quoting stays the csv module's.  A chunk of those rows is one ``%`` format over a template
    of ``lead + "%d" + tail`` per row; ``%`` in the ids is doubled in the template, so it comes out as written.  The
    template is the rest of the cycle from the chunk's phase, the whole cycle's rows repeated, and the start of the
    cycle.  A period-0 profile's prefix rows are written as given, with any columns, and its depth is not read.
    """
    yield _lines((header,))
    for key, prefix, period, depth in profiles:
        prefix, last = iter(prefix), deque(maxlen=period)
        while chunk := list(islice(prefix, _CHUNK_ROWS)):
            last.extend(chunk)
            yield _lines(map(key.__add__, chunk))
        if not last:  # period 0: the prefix ends at depth
            continue
        lead = _lines(((*key, 0),))[:-2].replace("%", "%%")  # the key columns and their comma, without "0\n"
        rows = [lead + "%d" + _lines(((0, *row[1:]),))[1:].replace("%", "%%") for row in last]
        cycle_rows, phase = "".join(rows), 0  # the first row after the prefix repeats the cycle's first
        for start in range(last[-1][0] + 1, depth + 1, _CHUNK_ROWS):  # from the level after the prefix
            stop = min(start + _CHUNK_ROWS, depth + 1)
            head = rows[phase : phase + stop - start]
            cycles, rest = divmod(stop - start - len(head), period)
            yield ("".join(head) + cycle_rows * cycles + "".join(rows[:rest])) % tuple(range(start, stop))
            phase = (phase + stop - start) % period


def bool_word(b: bool) -> str:
    """The spelling of a boolean in CSV columns and CLI lines."""
    return "true" if b else "false"

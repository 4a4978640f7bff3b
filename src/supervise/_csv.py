"""The one CSV dialect every report prints: ``\\n`` line ends, floats at full precision."""

from __future__ import annotations

import csv
import io
from itertools import chain, cycle, islice
from operator import add
from typing import Iterable, Iterator, Sequence

_CHUNK_ROWS = 4096


def _lines(rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line plus one line per row; floats keep full precision."""
    return _lines(chain((header,), rows))


def cyclic_csv_chunks(header: Sequence[str], profiles: Iterable[tuple]) -> Iterator[str]:
    """CSV text of ``header`` and of each profile's levels, in chunks of at most 4096 rows.

    A profile is ``(key, prefix, period, depth)``: ``key`` holds the leading columns, ``prefix`` the first rows
    as ``(level, value, truthful)`` with consecutive levels, and every level u past the prefix up to ``depth``
    repeats the row ``period`` levels above it.  The csv writer writes the prefix rows; each later row is
    ``lead + str(u) + tail``, where ``lead`` (the key columns) and the ``tail`` of each cycle position (the
    ``,value,truthful`` columns) are formatted once by the csv writer, so quoting stays the csv module's.
    """
    yield _lines((header,))
    for key, prefix, period, depth in profiles:
        yield _lines((*key, *row) for row in prefix)
        first = prefix[-1][0] + 1  # the level after the prefix
        if first > depth:
            continue
        lead = _lines(((*key, 0),))[:-2]  # the key columns and their comma, without the "0\n"
        tails = [_lines(((0, *row[1:]),))[1:] for row in prefix[len(prefix) - period:]]
        rows = map(add, map(str, range(first, depth + 1)), cycle(tails))
        while chunk := lead.join(islice(rows, _CHUNK_ROWS)):
            yield lead + chunk  # the join puts lead between rows; this puts it before the first


def bool_word(b: bool) -> str:
    """The spelling of a boolean in CSV columns and CLI lines."""
    return "true" if b else "false"

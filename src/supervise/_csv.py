"""The one CSV dialect every report prints: ``\\n`` line ends, floats at full precision."""

from __future__ import annotations

import csv
import functools
import io
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

_CHUNK_ROWS = 4096
_BLOCK = 100  # the levels written as one join, all but their last two digits alike


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
    by the csv writer, so quoting stays the csv module's.  Those rows are written a block of 100 levels at a time,
    levels 100 b to 100 b + 99, as one join: ``head + head.join(table[lo:hi])``, where ``head`` is ``lead + str(b)``
    (``lead`` alone in block 0) and ``table`` holds the block's hundred rows without their head, its two last digits
    (``"0".."99"`` in block 0, ``"00".."99"`` after it) followed by the row's tail.  A block's table depends only on
    the cycle position of its first level, so it is built once for that phase; at most one chunk's worth of tables
    is kept.  A chunk that starts or ends inside a block writes the slice of the block it holds.  A period-0
    profile's prefix rows are written as given, with any columns, and its depth is not read.
    """
    yield _lines((header,))
    for key, prefix, period, depth in profiles:
        prefix, last = iter(prefix), deque(maxlen=period)
        while chunk := list(islice(prefix, _CHUNK_ROWS)):
            last.extend(chunk)
            yield _lines(map(key.__add__, chunk))
        if not last:  # period 0: the prefix ends at depth
            continue
        lead = _lines(((*key, 0),))[:-2]  # the key columns and their comma, without "0\n"
        tails = [_lines(((0, *row[1:]),))[1:] for row in last]  # level u >= n takes tails[(u - n) % period]
        n, tables = last[-1][0] + 1, {}
        for start in range(n, depth + 1, _CHUNK_ROWS):
            stop, blocks = min(start + _CHUNK_ROWS, depth + 1), []
            for b in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
                base = b * _BLOCK
                phase = (base - n) % period
                if b:
                    head, table = lead + str(b), tables.get(phase)
                    if table is None:
                        if len(tables) == _CHUNK_ROWS // _BLOCK:  # keep at most one chunk's worth
                            tables.clear()
                        table = tables[phase] = _block_table(_digits(True), tails, phase)
                else:  # levels below 100 have no head digits, and this block comes once
                    head, table = lead, _block_table(_digits(False), tails, phase)
                blocks.append(head + head.join(table[max(start - base, 0) : stop - base]))
            yield "".join(blocks)


@functools.cache  # built on first use
def _digits(padded: bool) -> tuple[str, ...]:
    """The last two digits of the levels of a block: ``"00".."99"``, or ``"0".."99"`` for block 0."""
    return tuple(f"{i:02d}" if padded else str(i) for i in range(_BLOCK))


def _block_table(digits: tuple[str, ...], tails: list[str], phase: int) -> list[str]:
    """The rows of a block, without their head, whose first level is at cycle position ``phase``."""
    period = len(tails)
    return [d + tails[(phase + j) % period] for j, d in enumerate(digits)]


def bool_word(b: bool) -> str:
    """The spelling of a boolean in CSV columns and CLI lines."""
    return "true" if b else "false"

"""The CSV writer of every report against the `csv` module it replaces."""

from __future__ import annotations

import csv
import io

from hypothesis import example, given
from hypothesis import strategies as st

from kgfuse.prefixes import csv_text

_FIELDS = st.text(st.sampled_from('",\r\n aé\x85\u2028\x00'), max_size=8) | st.integers()


def _writer_records(rows: list[list]) -> tuple[list[list], list[str]]:
    """The rows `csv.writer` accepts and the record it writes for each one.

    Python 3.10's writer refuses U+0000 without an escape character; later
    ones write it bare.
    """
    kept, records = [], []
    for row in rows:
        buf = io.StringIO()
        try:
            csv.writer(buf).writerow(row)
        except csv.Error:
            continue
        kept.append(row)
        records.append(buf.getvalue())
    return kept, records


@given(st.lists(st.lists(_FIELDS, max_size=4), min_size=1, max_size=6))
@example([["source", "target"], ["a,b", 'say "hi"'], ["cr\rlf\n", 7]])
@example([[""], [], ["", ""], [","], ['"']])
@example([[], [""]])
def test_csv_text_writes_the_bytes_of_csv_writer(rows):
    kept, records = _writer_records(rows)
    if kept:
        # rows are read lazily, so an iterator of them does
        assert csv_text(kept[0], iter(kept[1:])) == "".join(records)

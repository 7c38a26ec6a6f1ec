"""Atomic artifact writes: a reader finds the old file or the new one, never
part of one."""

from __future__ import annotations

import contextlib
import csv
import os
from pathlib import Path


@contextlib.contextmanager
def replacing(path):
    """Yield a temp path in ``path``'s directory for the caller to write.

    When the block ends normally, one ``os.replace`` moves the temp file over
    ``path``; when it raises, the temp file is removed and ``path`` is left as
    it was. This guards against a writer that fails or is interrupted, not
    against power loss: nothing is fsynced.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        yield temp
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` in UTF-8, atomically (see ``replacing``)."""
    with replacing(path) as temp:
        temp.write_text(text, encoding="utf-8")


def write_csv(path, columns, rows) -> None:
    """Replace ``path`` with a CSV of the ``columns`` of each row dict, under a
    header line, atomically. A row that lacks a column raises ``KeyError``
    before ``path`` is touched."""
    with replacing(path) as temp, open(temp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows({column: row[column] for column in columns} for row in rows)

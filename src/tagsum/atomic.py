"""Atomic artifact writes: a reader finds the old file or the new one, never
part of one."""

from __future__ import annotations

import contextlib
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

"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 text to path through a temporary file in the same
    directory and os.replace, so readers and a failed write never see a
    partial file: the path holds the old content or the new."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

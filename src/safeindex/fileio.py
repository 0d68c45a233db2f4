"""The package's one file boundary: `read_input` reads every input file
as UTF-8, less a leading BOM, with its line ends as stored, `parse_json`
parses every JSON input (config file, lexicon manifest, model), and
`write_atomic` replaces every output file whole or not at all."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .errors import ConfigError


def read_input(path: str | Path, what: str) -> str:
    """The UTF-8 text of the file at path, line ends as stored, without a
    leading byte order mark.  `what` names the kind of input in the
    ConfigError raised when the file cannot be read, is not valid UTF-8,
    or the path is not one (a NUL byte)."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # a ValueError, so its clause comes first
        raise ConfigError(f"cannot read {what} {path}: not valid UTF-8 ({exc})") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The JSON object of `pairs`; a key given twice is a ValueError, as
    RFC 8259 leaves its meaning open."""
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def parse_json(text: str, what: str) -> Any:
    """json.loads(text), or a ConfigError naming `what` for a text it cannot
    take: not JSON, a key repeated in one object, an int of too many
    digits, or nesting too deep."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def write_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 text to path through a temporary file in the same
    directory and os.replace, so readers and a failed write never see a
    partial file: the path holds the old content or the new.  A write
    that fails removes the temporary file and raises a ConfigError that
    names the path (a missing directory, a directory at the path, a NUL
    byte, a full disk)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        try:
            with open(tmp, "x", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        # strerror leaves out the file names, the temporary one among them
        raise ConfigError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from exc

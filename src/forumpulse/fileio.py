"""Deterministic file writers and digest helpers.

Every artifact the toolkit emits goes through these functions so that two
runs with identical inputs produce byte-identical files: UTF-8, "\n" line
endings, sorted JSON keys, and floats rendered with repr (shortest value
that round-trips). Every file is written whole through ``write_text``, so a
run killed mid-write leaves the previous file or the new one, never a
truncated one.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .errors import DataError


def fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``, then
    move it over ``path`` with ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
              delimiter: str = ",") -> None:
    lines = [delimiter.join(header)]
    for row in rows:
        lines.append(delimiter.join(map(fmt_cell, row)))
    write_text(path, "\n".join(lines) + "\n")


def read_csv(path: Path, width: int, delimiter: str = ",") -> Iterator[list[str]]:
    """The rows after the header of a file ``write_csv`` wrote, as lists of
    ``width`` cells; ValueError on an empty file, a line of any other width
    or a last line without its newline (a truncated file)."""
    n = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            cells = line[:-1].split(delimiter)
            if line[-1] != "\n" or len(cells) != width:
                raise ValueError(f"line {n} is not {width} cells and a newline: {line!r}")
            if n > 1:
                yield cells
    if not n:
        raise ValueError("empty file, no header")


def write_json(path: Path, payload: Any, indent: int | None = 2) -> None:
    text = json.dumps(payload, sort_keys=True, indent=indent, ensure_ascii=False)
    write_text(path, text + "\n")


@contextmanager
def reading(path: Path, kind: str):
    """Report a file that fails to parse inside the block (truncated,
    garbled, or missing a key) as a DataError naming the file and its kind."""
    try:
        yield
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise DataError(f"{path}: corrupt {kind} ({type(exc).__name__}: {exc})") from exc


def read_json(path: Path) -> Any:
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

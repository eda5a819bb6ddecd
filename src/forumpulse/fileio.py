"""Deterministic file writers and digest helpers.

Every artifact the toolkit emits goes through these functions so that two
runs with identical inputs produce byte-identical files: UTF-8, "\n" line
endings, sorted JSON keys, and floats rendered with repr (shortest value
that round-trips). Every file is written whole through ``write_text``, so a
run killed mid-write leaves the previous file or the new one, never a
truncated one. A table's text is one format template filled once, and a
float array's cells are spelled once per distinct value, so no writer
makes a Python call per cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import DataError


def write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a str or the strs of an iterable in turn, as UTF-8 to
    a temporary file beside ``path``, then move it over ``path`` with
    ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
              delimiter: str = ",") -> None:
    """``header`` and ``rows`` as delimited lines: a cell is its ``str``
    (for a float, its repr), and a None cell is empty. ValueError when a row
    is not as wide as the header."""
    rows = list(rows)
    width = len(header)
    if set(map(len, rows)) - {width}:
        raise ValueError(f"{path}: a row is not {width} cells wide")
    cells = ["" if cell is None else cell for cell in chain.from_iterable(rows)]
    line = delimiter.replace("%", "%%").join(["%s"] * width) + "\n"
    write_text(path, delimiter.join(header) + "\n" + (line * len(rows)) % tuple(cells))


def float_cells(values: np.ndarray, spell: Callable[[float], str] = repr) -> np.ndarray:
    """The text of each float of ``values`` by ``spell``, as an object array
    of the same shape. ``spell`` is called once per distinct bit pattern,
    so -0.0 and 0.0 are spelled apart."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, index = np.unique(values.reshape(-1).view(np.uint64), return_inverse=True)
    text = np.array([spell(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[index].reshape(values.shape)


# read_table's cells: a count of at most 18 digits, a float's repr, a name.
COUNT, FLOAT, NAME = "(?:0|[1-9][0-9]{0,17})", "[-+.0-9a-z]+", "[^,\n\r]+"


def read_table(path: Path, header: Sequence[str], cells: Sequence[str],
               delimiter: str = ",") -> list[list[str]]:
    """The columns of a file ``write_csv`` wrote with ``header``, as lists of
    str; ValueError naming its first line (1 for the header) that is not
    ``header``, or not one cell fully matching each of ``cells`` (patterns
    that match neither ``delimiter`` nor a line break), and a newline."""
    text = Path(path).read_bytes().decode("utf-8")
    head = delimiter.join(header) + "\n"
    row = re.escape(delimiter).join(f"(?:{cell})" for cell in cells)
    end = re.match(f"(?:{re.escape(head)}(?:{row}\n)*)?", text).end()
    if not end or end != len(text):
        n, line = text.count("\n", 0, end) + 1, text[end:].partition("\n")[0]
        what = f"{len(cells)} cells of its columns" if end else f"the header {head[:-1]!r}"
        raise ValueError(f"line {n} is not {what} and a newline: {line!r}")
    values = text[len(head):].replace("\n", delimiter).split(delimiter)[:-1]
    return [values[i::len(cells)] for i in range(len(cells))]


def write_json(path: Path, payload: Any, indent: int | None = 2) -> None:
    text = json.dumps(payload, sort_keys=True, indent=indent, ensure_ascii=False)
    write_text(path, text + "\n")


@contextmanager
def reading(path: Path, kind: str):
    """Report a file that fails to parse inside the block (truncated,
    garbled, missing a key, or holding a number too large for its type) as a
    DataError naming the file and its kind."""
    try:
        yield
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            OverflowError) as exc:
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


@contextmanager
def locked(target: Path):
    """Hold an exclusive lock on the directory ``target``, made if it is
    missing, for the block; DataError when another process holds it. The
    directories made here are removed again if the block fails while they
    are empty, so a run that fails before its first write leaves none."""
    import fcntl        # here, so that starting the command line does not load it
    made = [p for p in (target, *target.parents) if not p.exists()]
    target.mkdir(parents=True, exist_ok=True)
    fd = os.open(target, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DataError(f"output directory {target} is in use by another run") from None
        yield
    except BaseException:
        for path in made:
            if any(path.iterdir()):
                break
            path.rmdir()
        raise
    finally:
        os.close(fd)


@dataclass
class StageContext:
    """What a stage function reads: its files by name, and its params by
    config key. A name missing from ``paths`` is a file under ``out_dir``.
    ``parsed`` holds the files already parsed, by name, and takes the objects
    the stage writes; ``digests`` holds the files already hashed, by path;
    ``record`` takes extra fields for the stage's manifest record."""

    paths: Mapping[str, Optional[Path]]
    params: Mapping[str, Any] = field(default_factory=dict)
    out_dir: Optional[Path] = None
    echo: Callable[[str], None] = print
    parsed: dict[str, Any] = field(default_factory=dict)
    digests: dict[Path, str] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)

    def path(self, name: str) -> Optional[Path]:
        return self.paths[name] if name in self.paths else self.out_dir / name

    def load(self, name: str, parse: Callable[[Path], Any]) -> Any:
        """``path(name)`` parsed by ``parse``, at most once."""
        if name not in self.parsed:
            self.parsed[name] = parse(self.path(name))
        return self.parsed[name]

    def digest(self, name: str) -> str:
        """The SHA-256 of ``path(name)``, hashed at most once."""
        path = self.path(name)
        if path not in self.digests:
            self.digests[path] = sha256_file(path)
        return self.digests[path]

"""File layouts that several loaders share.

Text files are UTF-8, read with universal newlines. ``text_lines`` yields
their lines with line numbers (with ``rows``, only the lines that are not
blank or ``#`` comments), and a line that is not valid UTF-8 is a
``ParseError`` naming the path and line.

Array files (the model file and the pipeline's cached embedding stores)
are a magic line, one JSON metadata line whose ``arrays`` entry lists
``[name, shape, dtype]`` triples in name order, then each listed array as
raw bytes of its dtype, in that order and nothing after them. The dtype is
``"<f4"`` or ``"<f8"`` (little-endian float32 or float64): a float32 array
is written as it is, any other array as float64, and each array reads
back in the dtype its entry names.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, MulrError, ParseError


def text_lines(path, rows: bool = False):
    """Yield (line number, line without its newline) for a UTF-8 text file;
    with ``rows``, skip blank lines and ``#`` comments."""
    # undecodable bytes become lone surrogates, which valid UTF-8 never
    # yields, so a line that fails to encode back is the one to report
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(path, line_no,
                                     "not valid UTF-8") from None
            line = line.rstrip("\n")
            if not (rows and (not line.strip() or line.startswith("#"))):
                yield line_no, line


def write_array_file(path, magic: str, meta: dict,
                     arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` plus the ``arrays`` manifest, then the arrays' bytes."""
    meta = {**meta, "arrays": [
        [name, list(arr.shape), "<f4" if arr.dtype == np.float32 else "<f8"]
        for name, arr in sorted(arrays.items())]}
    with Path(path).open("wb") as fh:
        fh.write((magic + "\n").encode("utf-8"))
        fh.write((json.dumps(meta, sort_keys=True, ensure_ascii=False,
                             separators=(",", ":")) + "\n").encode("utf-8"))
        for name, _, dtype in meta["arrays"]:
            fh.write(np.ascontiguousarray(arrays[name], dtype=dtype))


def read_array_file(path, magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and arrays of an array file. Call it inside
    ``data_errors`` to turn malformed content into a ``DataError``."""
    with Path(path).open("rb") as fh:
        if fh.readline() != (magic + "\n").encode("utf-8"):
            raise DataError(f"first line is not {magic!r}")
        meta = json.loads(fh.readline().decode("utf-8"))
        return meta, _read_arrays(fh, meta["arrays"])


def _read_arrays(fh, manifest) -> dict[str, np.ndarray]:
    """The manifest's arrays; their sizes must add up to the rest of the
    file, which is checked before anything is read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    arrays: dict[str, np.ndarray] = {}
    for name, shape, dtype in manifest:
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise DataError(f"bad shape {shape!r} for array {name!r}")
        if dtype not in ("<f4", "<f8"):
            raise DataError(f"bad dtype {dtype!r} for array {name!r}")
        size = np.dtype(dtype).itemsize * math.prod(shape)
        if size > left:
            raise DataError(f"truncated array {name!r}")
        left -= size
        arr = np.empty(shape, dtype=dtype)
        if fh.readinto(arr.reshape(-1)) != size:
            raise DataError(f"truncated array {name!r}")
        arrays[name] = arr
    if left:
        raise DataError(f"{left} bytes after the last array")
    return arrays


@contextmanager
def data_errors(path, what: str):
    """Re-raise what malformed ``what`` content raises as a ``DataError``
    that names ``path``."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: missing {what} field {exc}") from None
    except (MulrError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: {exc}") from None

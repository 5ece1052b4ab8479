"""Array files: each array keeps its dtype and bytes through a round
trip, and the manifest names that dtype."""

import json

import numpy as np
import pytest

from mulr.errors import DataError
from mulr.fileio import data_errors, read_array_file, write_array_file

MAGIC = "TEST-ARRAYS 1"


def arrays():
    rng = np.random.default_rng(0)
    return {"b32": rng.normal(size=(3, 4)).astype(np.float32),
            "a64": rng.normal(size=5),
            "empty": np.zeros((0, 2), dtype=np.float32)}


def test_round_trip_keeps_dtype_and_bytes(tmp_path):
    path = tmp_path / "x.bin"
    written = arrays()
    write_array_file(path, MAGIC, {"note": "n"}, written)
    meta, read = read_array_file(path, MAGIC)
    assert meta["note"] == "n"
    assert meta["arrays"] == [["a64", [5], "<f8"], ["b32", [3, 4], "<f4"],
                              ["empty", [0, 2], "<f4"]]
    assert sorted(read) == sorted(written)
    for name, arr in written.items():
        assert read[name].dtype == arr.dtype
        assert read[name].tobytes() == arr.tobytes()
    again = tmp_path / "again.bin"
    write_array_file(again, MAGIC, {"note": "n"}, read)
    assert again.read_bytes() == path.read_bytes()


def test_other_dtypes_are_written_as_float64(tmp_path):
    path = tmp_path / "x.bin"
    write_array_file(path, MAGIC, {}, {"i": np.arange(3),
                                       "h": np.ones(2, dtype=np.float16)})
    meta, read = read_array_file(path, MAGIC)
    assert [dtype for _, _, dtype in meta["arrays"]] == ["<f8", "<f8"]
    np.testing.assert_array_equal(read["i"], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("dtype,cut,message", [
    ("<f4", 1, "truncated array 'b32'"),
    ("<f4", -4, "4 bytes after the last array"),
    ("<f8", 0, "truncated array 'b32'"),  # 48 bytes where 96 are listed
    ("<f2", 0, "bad dtype '<f2' for array 'b32'"),
    ("|u1", 0, "bad dtype '|u1' for array 'b32'"),
])
def test_manifest_dtype_sets_the_sizes(tmp_path, dtype, cut, message):
    """The manifest's dtype decides how many bytes each array takes; a
    dtype other than ``<f4`` or ``<f8`` is refused before any is read."""
    path = tmp_path / "x.bin"
    write_array_file(path, MAGIC, {}, {"b32": arrays()["b32"]})
    magic, line, payload = path.read_bytes().split(b"\n", 2)
    meta = json.loads(line)
    meta["arrays"][0][2] = dtype
    path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(),
                                 payload[:len(payload) - cut]
                                 if cut > 0 else payload + bytes(-cut)]))
    with pytest.raises(DataError, match=f"{path}: {message}"):
        with data_errors(path, "test"):
            read_array_file(path, MAGIC)

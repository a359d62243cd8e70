"""Self-describing binary container for named float64 arrays.

Layout (all integers little-endian):

    magic   4 bytes  b"DDMN"
    version u32
    record* until end of file, each:
        name_len u32, name UTF-8 bytes,
        rank u32, extent u64 per axis,
        values float64 little-endian, C order

Checkpoints and optimiser state both use this container; a
round trip is bit-exact because values are stored verbatim.  Writes go
through a temp file in the target directory followed by an atomic rename,
so a crash never leaves a half-written file under the final name.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile

import numpy as np

from .errors import DataError

MAGIC = b"DDMN"
VERSION = 1


@contextlib.contextmanager
def _atomic_file(path: str | os.PathLike):
    """A binary file handle whose contents replace ``path`` by temp-file +
    rename once the block exits normally; on error the temp file goes."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp-file + rename."""
    with _atomic_file(path) as fh:
        fh.write(payload)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_records(path: str | os.PathLike, records: dict[str, np.ndarray]) -> None:
    """Serialise named arrays in dict order, each straight to the file."""
    with _atomic_file(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, value in records.items():
            arr = np.asarray(value, dtype="<f8")  # keeps 0-d shapes intact
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            # a C-contiguous array is its own buffer; others are copied
            if arr.ndim and arr.flags.c_contiguous:
                fh.write(arr)
            else:
                fh.write(arr.tobytes(order="C"))


def load_records(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a record container back; preserves record order."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise DataError(
            f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise DataError(
            f"{path}: unsupported format version {version}, expected {VERSION}")
    records: dict[str, np.ndarray] = {}
    offset = 8
    total = len(blob)

    def need(nbytes: int, what: str) -> None:
        if offset + nbytes > total:
            raise DataError(f"{path}: truncated while reading {what}")

    while offset < total:
        need(4, "record name length")
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        need(name_len, "record name")
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: undecodable record name") from err
        offset += name_len
        need(4, f"rank of {name!r}")
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        need(8 * rank, f"extents of {name!r}")
        shape = struct.unpack_from(f"<{rank}Q", blob, offset)
        offset += 8 * rank
        count = 1
        for extent in shape:
            count *= extent
        need(8 * count, f"values of {name!r}")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        if name in records:
            raise DataError(f"{path}: duplicate record {name!r}")
        records[name] = values.reshape(shape).astype(np.float64)
    return records

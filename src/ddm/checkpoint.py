"""The package's file layer: the atomic writer, the one reader, and the
``.ddmn`` container of named float64 arrays.

Every file is written through :func:`atomic_file` (temp file, then atomic
rename, so a crash never leaves a half-written file under the final name)
and read through :func:`read_file`.  ``.ddmn`` and ``.ddmf`` files open
with a 4-byte magic and a u32 version, checked by :func:`check_header`.

``.ddmn`` layout (all integers little-endian):

    magic   4 bytes  b"DDMN"
    version u32
    record* until end of file, each:
        name_len u32, name UTF-8 bytes,
        rank u32, extent u64 per axis,
        values float64 little-endian, C order

Checkpoints and optimiser state both use this container; a
round trip is bit-exact because values are stored verbatim.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataError

MAGIC = b"DDMN"
VERSION = 1


@contextlib.contextmanager
def atomic_file(path: str | os.PathLike):
    """A binary file handle whose contents replace ``path`` by temp-file +
    rename once the block exits normally; on error the temp file goes."""
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


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def read_file(path: str | os.PathLike, error=DataError) -> bytes:
    """The bytes of ``path``; an ``OSError`` raises ``error`` naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise error(f"cannot read {path}: {err}") from err


def check_header(path, blob: bytes, magic: bytes, version: int, size: int,
                 what: str) -> None:
    """Raise a ``DataError`` unless ``blob`` opens with ``magic`` and the
    u32 ``version`` in a header of at least ``size`` bytes."""
    if blob[:4] != magic:
        raise DataError(f"{path}: bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < size:
        raise DataError(f"{path}: {what} header cut at {len(blob)} bytes")
    (found,) = struct.unpack_from("<I", blob, 4)
    if found != version:
        raise DataError(f"{path}: unsupported {what} version {found}, "
                        f"expected {version}")


def save_records(path: str | os.PathLike, records: dict[str, np.ndarray]) -> None:
    """Serialise named arrays in dict order, each straight to the file."""
    with atomic_file(path) as fh:
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
            fh.write(np.ascontiguousarray(arr))


def load_records(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a record container back; preserves record order."""
    blob = read_file(path)
    check_header(path, blob, MAGIC, VERSION, 8, "format")
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
        count = math.prod(shape)
        need(8 * count, f"values of {name!r}")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        if name in records:
            raise DataError(f"{path}: duplicate record {name!r}")
        records[name] = values.reshape(shape).astype(np.float64)
    return records

"""Binary record container: round trips and corruption handling."""

import struct

import numpy as np
import pytest

from ddm import checkpoint as ckpt
from ddm.errors import DataError

from oracles import encode_records_ref


def _sample_records(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "weights/stage0": rng.standard_normal((3, 3, 2, 4)),
        "bias": rng.standard_normal(4),
        "scalar/step": np.asarray(17.0),
        "empty": np.zeros((0, 5)),
    }


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "state.ddmn"
    records = _sample_records()
    ckpt.save_records(path, records)
    loaded = ckpt.load_records(path)
    assert list(loaded) == list(records)
    for name, value in records.items():
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.astype(np.float64).tobytes()


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ddmn", tmp_path / "b.ddmn"
    ckpt.save_records(a, _sample_records())
    ckpt.save_records(b, _sample_records())
    assert a.read_bytes() == b.read_bytes()


def test_save_writes_the_reference_encoding(tmp_path):
    rng = np.random.default_rng(1)
    records = _sample_records() | {
        "zero-d": np.asarray(-0.0),
        "float": 2.5,
        "transposed": rng.standard_normal((3, 4)).T,
        "strided": rng.standard_normal(10)[::3],
        "float32": rng.standard_normal(3).astype(np.float32),
    }
    path = tmp_path / "state.ddmn"
    ckpt.save_records(path, records)
    assert path.read_bytes() == encode_records_ref(records)
    assert ckpt.load_records(path)["zero-d"].shape == ()


def test_bad_magic_reported_with_path(tmp_path):
    path = tmp_path / "junk.ddmn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError) as err:
        ckpt.load_records(path)
    assert "junk.ddmn" in str(err.value) and "DDMN" in str(err.value)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "future.ddmn"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", ckpt.VERSION + 1))
    with pytest.raises(DataError, match="unsupported format version 2"):
        ckpt.load_records(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "ok.ddmn"
    ckpt.save_records(path, _sample_records())
    blob = path.read_bytes()
    cut = tmp_path / "cut.ddmn"
    cut.write_bytes(blob[:-5])
    with pytest.raises(DataError, match="truncated while reading"):
        ckpt.load_records(cut)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        ckpt.load_records(tmp_path / "absent.ddmn")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.bin"
    ckpt.atomic_write_text(path, "payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

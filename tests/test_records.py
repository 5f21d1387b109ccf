import numpy as np
import pytest

from hybridplan import records

MAGIC = b"TEST"


def test_pack_unpack_roundtrip_keeps_every_dtype_and_shape():
    arrays = [np.arange(5, dtype=np.uint8), np.array([[1, 65535]], dtype=np.uint16),
              np.array(7, dtype=np.uint32), np.array([np.nan, -0.0, 1e-40], dtype=np.float32),
              np.random.default_rng(0).normal(size=(2, 3)),
              np.zeros(0, dtype=np.uint8), np.zeros((4, 0)), np.array([1.5], dtype=">f8")]
    for meta in ({}, {"b": 2, "a": "x=y", "empty": ""}):
        raw = records.pack(MAGIC, 3, meta, arrays)
        assert records.pack(MAGIC, 3, meta, arrays) == raw
        got_meta, got = records.unpack(raw, MAGIC, 3, "test record")
        assert got_meta == {str(k): str(v) for k, v in meta.items()}
        assert len(got) == len(arrays)
        for a, b in zip(arrays, got):
            assert b.dtype == a.dtype.newbyteorder("<") and b.shape == a.shape
            assert b.astype(a.dtype).tobytes() == a.tobytes()
            assert b.flags.writeable


def test_unpack_refuses_an_unknown_dtype_code():
    raw = records.pack(MAGIC, 1, {}, [np.zeros(2)])
    bad = raw.replace(b"<f8", b"<f3")
    with pytest.raises(ValueError, match="unknown dtype code '<f3'"):
        records.unpack(bad, MAGIC, 1, "test record")

"""Record lines, the canonical text that model hashes are taken over, and
binary records, the layout of every artifact file.

A record line (``line``) is whitespace-separated fields, numbers written with
``%.17g``, which reads back bit for bit; ``text`` joins lines.  They give the
canonical bytes that ``kinematics.robot_hash`` and
``feasibility.obstacles_signature`` hash, so a stored map names the robot
and the obstacles it was built for.

A binary record (``pack``/``unpack``) holds a metadata dict and a list of
arrays.  After the magic bytes, the version, counts, lengths (in bytes) and
shapes are little-endian uint32s:

    magic, version, array count, metadata length, metadata,
    then per array: dtype-code length, ndim, shape, dtype code, data

where the metadata is ``key=value`` lines in sorted key order (UTF-8, values
read back as str), the dtype code is numpy's little-endian ``dtype.str``
(``|u1``, ``<u2``, ``<f8``, ...) and the data the array's bytes in C order.
"""
from __future__ import annotations

import math
import re

import numpy as np

_ONE_FIELD = re.compile(r"[^\s#]+")


def line(*fields) -> str:
    """One record line.  A str field is written as it is and must read back
    as one field (nonempty, no whitespace or ``#``), or ValueError; a number
    is written with ``%.17g``, an array or sequence one field per element."""
    out = []
    for f in fields:
        if isinstance(f, str):
            if not _ONE_FIELD.fullmatch(f):
                raise ValueError(f"record field {f!r} must be nonempty, without whitespace or '#'")
            out.append(f)
        else:
            out.extend("%.17g" % v for v in np.ravel(f))
    return " ".join(out)


def text(lines) -> str:
    return "".join(f"{ln}\n" for ln in lines)


def _u4(*values) -> bytes:
    return np.array(values, dtype="<u4").tobytes()


def pack(magic: bytes, version: int, meta: dict, arrays) -> bytes:
    """The binary record of ``meta`` and ``arrays``.  Raises ValueError,
    before anything is written, for metadata that ``unpack`` could not read
    back: a key with ``=`` or a line break, or a value with a line break."""
    for k in meta:
        key, value = str(k), str(meta[k])
        # a line break is any separator splitlines splits on, not only "\n"
        if "=" in key or any("".join(t.splitlines()) != t for t in (key, value)):
            raise ValueError(f"metadata {key!r}={value!r} cannot be read back: a key may "
                             "not hold '=', nor a key or a value a line break")
    meta_text = "\n".join(f"{k}={meta[k]}" for k in sorted(meta)).encode()
    out = [magic, _u4(version, len(arrays), len(meta_text)), meta_text]
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(a.dtype.newbyteorder("<"), copy=False)
        code = a.dtype.str.encode()
        out += [_u4(len(code), a.ndim, *a.shape), code, a.tobytes()]
    return b"".join(out)


def unpack(raw: bytes, magic: bytes, version: int, what: str):
    """``(meta, arrays)`` of a ``pack`` record, the arrays writable copies.
    Raises ValueError for another magic or version, for a record cut short
    or an unknown dtype code, and for bytes past the record's end."""
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"truncated {what}: {len(raw)} bytes, a read needs {off + n}")
        off += n
        return raw[off - n:off]

    def u4s(n):
        return np.frombuffer(take(4 * n), dtype="<u4").tolist()

    if take(len(magic)) != magic:
        raise ValueError(f"not a {what} file")
    got, n_arrays, meta_len = u4s(3)
    if got != version:
        raise ValueError(f"unsupported {what} version {got}, expected {version}")
    meta = dict(ln.split("=", 1) for ln in take(meta_len).decode().splitlines())
    arrays = []
    for _ in range(n_arrays):
        code_len, ndim = u4s(2)
        shape = u4s(ndim)
        code = take(code_len).decode()
        try:
            dtype = np.dtype(code)
        except TypeError:
            raise ValueError(f"{what} array has an unknown dtype code {code!r}") from None
        data = take(dtype.itemsize * math.prod(shape))
        arrays.append(np.frombuffer(data, dtype=dtype).reshape(shape).copy())
    if off != len(raw):
        raise ValueError(f"{what} is {len(raw)} bytes, expected {off}")
    return meta, arrays

"""Binary tensor file format and activation manifests.

Layout: magic ``RTNS``, u8 version (=1), u8 dtype (1=f32, 2=f64), u8 ndim,
one zero pad byte, then ndim little-endian u64 dims, then the row-major
payload in little-endian.  Readers reject unknown magic, version or dtype,
and a payload longer or shorter than the dims say.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"RTNS"
VERSION = 1
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 1, np.dtype("float64"): 2}


class RtnsFormatError(ValueError):
    """Raised for malformed or unsupported tensor files."""


def atomic_write(path, write, mode="w", **open_kwargs) -> None:
    """Create ``path`` by calling ``write(f)`` on a temp file, then renaming.

    If anything raises, the temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **open_kwargs) as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON, atomically."""
    atomic_write(path, lambda f: json.dump(doc, f, indent=2))


def write_tensor(path, array, dtype="float64") -> None:
    """Write a 1-D or 2-D array, atomically (temp file + rename)."""
    a = np.asarray(array, dtype=dtype)
    if a.ndim not in (1, 2):
        raise RtnsFormatError(f"only rank 1 and 2 supported, got {a.ndim}")
    code = _CODES[a.dtype]
    header = MAGIC + struct.pack("<BBBB", VERSION, code, a.ndim, 0)
    header += b"".join(struct.pack("<Q", d) for d in a.shape)

    def write(f):
        f.write(header)
        f.write(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())

    atomic_write(path, write, "wb")


def read_tensor(path) -> np.ndarray:
    """Read a tensor, widening f32 payloads to float64."""
    with open(path, "rb") as f:
        head = f.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise RtnsFormatError(f"{path}: bad magic")
        version, code, ndim, pad = struct.unpack("<BBBB", head[4:])
        if version != VERSION:
            raise RtnsFormatError(f"{path}: unsupported version {version}")
        if code not in _DTYPES:
            raise RtnsFormatError(f"{path}: unsupported dtype code {code}")
        if ndim not in (1, 2):
            raise RtnsFormatError(f"{path}: unsupported rank {ndim}")
        raw_dims = f.read(8 * ndim)
        if len(raw_dims) != 8 * ndim:
            raise RtnsFormatError(f"{path}: truncated header")
        dims = struct.unpack(f"<{ndim}Q", raw_dims)
        if max(dims) > np.iinfo(np.intp).max:
            raise RtnsFormatError(f"{path}: dims {dims} exceed the array size limit")
        dt = _DTYPES[code]
        size = math.prod(dims) * dt.itemsize
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        if size > remaining:
            raise RtnsFormatError(
                f"{path}: dims {dims} need {size} payload bytes, file has {remaining}"
            )
        if size < remaining:
            raise RtnsFormatError(f"{path}: {remaining - size} trailing bytes")
        payload = f.read(size)
    data = np.frombuffer(payload, dtype=dt).reshape(dims)
    return data.astype(np.float64)


def read_manifest(path) -> list[np.ndarray]:
    """Load activation batches listed (in order) by a JSON manifest.

    Manifest schema: {"batches": ["relative/or/absolute.rtns", ...]};
    relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    with open(path) as f:
        doc = json.load(f)
    batches = doc.get("batches")
    if not isinstance(batches, list) or not batches:
        raise RtnsFormatError(f"{path}: manifest needs a non-empty 'batches' list")
    out = []
    for entry in batches:
        p = Path(entry)
        if not p.is_absolute():
            p = path.parent / p
        out.append(read_tensor(p))
    return out


def write_manifest(path, batch_paths) -> None:
    """Write a manifest listing ``batch_paths`` in order, atomically."""
    write_json(path, {"batches": [str(p) for p in batch_paths]})

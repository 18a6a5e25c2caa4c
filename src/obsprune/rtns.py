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
from typing import Iterator

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
    code = _CODES.get(a.dtype)
    if code is None:
        raise RtnsFormatError(f"only float32 and float64 supported, got {a.dtype}")
    header = MAGIC + struct.pack("<BBBB", VERSION, code, a.ndim, 0)
    header += b"".join(struct.pack("<Q", d) for d in a.shape)

    def write(f):
        f.write(header)
        f.write(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())

    atomic_write(path, write, "wb")


def read_tensor(path) -> np.ndarray:
    """Read a tensor, widening f32 payloads to float64."""
    # a buffer just past the header: the payload goes straight into its array
    with open(path, "rb", buffering=64) as f:
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
        data = np.empty(dims, dtype=dt)
        if f.readinto(data) != size:
            raise RtnsFormatError(f"{path}: payload ended before {size} bytes")
    return data.astype(np.float64, copy=False)


def read_manifest(path) -> Iterator[np.ndarray]:
    """The activation batches a JSON manifest lists, read one at a time, in order.

    Manifest schema: {"batches": ["relative/or/absolute.rtns", ...]};
    relative paths resolve against the manifest's directory.  The whole
    manifest is checked first: a non-empty list of path strings, each
    naming an existing file.  The iterator returned then reads each batch
    only when the next one is asked for, so a reader that drops each batch
    before asking holds one at a time.
    """
    path = Path(path)
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise RtnsFormatError(f"{path}: manifest is not JSON: {e}") from e
    batches = doc.get("batches") if isinstance(doc, dict) else None
    if not isinstance(batches, list) or not batches:
        raise RtnsFormatError(f"{path}: manifest needs a non-empty 'batches' list")
    paths = []
    for i, entry in enumerate(batches):
        if not isinstance(entry, str):
            raise RtnsFormatError(f"{path}: batch {i} is {entry!r}, not a path string")
        paths.append(path.parent / entry)  # an absolute entry replaces the parent
        if not paths[-1].is_file():
            raise RtnsFormatError(f"{path}: batch {i} {paths[-1]} is not a file")
    return (read_tensor(p) for p in paths)


def write_manifest(path, batch_paths) -> None:
    """Write a manifest listing ``batch_paths`` in order, atomically."""
    write_json(path, {"batches": [str(p) for p in batch_paths]})

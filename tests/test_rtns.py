import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from obsprune import rtns
from obsprune.rtns import (
    RtnsFormatError,
    read_manifest,
    read_tensor,
    write_json,
    write_manifest,
    write_tensor,
)


def test_round_trip_f64(tmp_path):
    a = np.random.default_rng(0).standard_normal((5, 7))
    p = tmp_path / "t.rtns"
    write_tensor(p, a)
    back = read_tensor(p)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, a)


def test_f32_widened_on_load(tmp_path):
    a = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    p = tmp_path / "t.rtns"
    write_tensor(p, a, dtype="float32")
    back = read_tensor(p)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, a.astype(np.float64))


def test_rank_one(tmp_path):
    v = np.arange(6.0)
    p = tmp_path / "v.rtns"
    write_tensor(p, v)
    np.testing.assert_array_equal(read_tensor(p), v)


def test_header_layout(tmp_path):
    p = tmp_path / "t.rtns"
    write_tensor(p, np.zeros((2, 3)))
    raw = p.read_bytes()
    assert raw[:4] == b"RTNS"
    version, dtype, ndim, pad = struct.unpack("<BBBB", raw[4:8])
    assert (version, dtype, ndim, pad) == (1, 2, 2, 0)
    assert struct.unpack("<QQ", raw[8:24]) == (2, 3)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XXXX" + b[4:],              # bad magic
        lambda b: b[:4] + b"\x02" + b[5:],      # bad version
        lambda b: b[:5] + b"\x09" + b[6:],      # bad dtype
        lambda b: b[:6] + b"\x03" + b[7:],      # bad rank
        lambda b: b[:-4],                        # truncated payload
        lambda b: b + b"\x00" * 4,                # trailing bytes
        lambda b: b[:12],                        # truncated dims
        # dims whose product is far beyond the payload
        lambda b: b[:8] + struct.pack("<QQ", 2**62, 2**62) + b[24:],
        # one dim beyond any array size, with a zero-size product
        lambda b: b[:8] + struct.pack("<QQ", 2**64 - 1, 0),
    ],
)
def test_reject_malformed(tmp_path, mutate):
    p = tmp_path / "t.rtns"
    write_tensor(p, np.zeros((2, 2)))
    bad = tmp_path / "bad.rtns"
    bad.write_bytes(mutate(p.read_bytes()))
    with pytest.raises(RtnsFormatError):
        read_tensor(bad)


def test_manifest_round_trip(tmp_path):
    a = np.ones((2, 3))
    b = 2 * np.ones((4, 3))
    write_tensor(tmp_path / "a.rtns", a)
    write_tensor(tmp_path / "b.rtns", b)
    write_manifest(tmp_path / "m.json", ["a.rtns", "b.rtns"])
    batches = list(read_manifest(tmp_path / "m.json"))
    assert len(batches) == 2
    np.testing.assert_array_equal(batches[0], a)
    np.testing.assert_array_equal(batches[1], b)


def test_manifest_requires_batches(tmp_path):
    (tmp_path / "m.json").write_text("{}")
    with pytest.raises(RtnsFormatError):
        read_manifest(tmp_path / "m.json")


def test_read_holds_a_float64_payload_once(tmp_path):
    """The payload is read into the returned array, with no bytes copy beside it."""
    a = np.random.default_rng(2).standard_normal((512, 512))
    write_tensor(tmp_path / "t.rtns", a)
    tracemalloc.start()
    try:
        back = read_tensor(tmp_path / "t.rtns")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back, a)
    assert peak <= a.nbytes + 4096


def test_short_read_names_the_file(tmp_path, monkeypatch):
    """A payload that ends early once the size check has passed is a format error."""
    p = tmp_path / "t.rtns"
    write_tensor(p, np.ones((4, 4)))
    p.write_bytes(p.read_bytes()[:-8])
    size = p.stat().st_size
    # the file's size as it was when checked, before it shrank
    monkeypatch.setattr(rtns.os, "fstat", lambda fd: SimpleNamespace(st_size=size + 8))
    with pytest.raises(RtnsFormatError, match=f"{p}: payload ended"):
        read_tensor(p)


def test_manifest_reads_each_batch_when_asked(tmp_path, monkeypatch):
    """Every entry is checked up front; a batch is read only by the next ``next``."""
    for name in ("a", "b"):
        write_tensor(tmp_path / f"{name}.rtns", np.ones((2, 3)))
    write_manifest(tmp_path / "m.json", ["a.rtns", tmp_path / "b.rtns"])
    read = []
    monkeypatch.setattr(rtns, "read_tensor", lambda p: read.append(p) or p)
    batches = read_manifest(tmp_path / "m.json")
    assert read == []
    assert next(batches) == tmp_path / "a.rtns" and len(read) == 1
    assert list(batches) == [tmp_path / "b.rtns"] and len(read) == 2


@pytest.mark.parametrize("entry", ["missing.rtns", "", "."],
                         ids=["missing", "empty", "dir"])
def test_manifest_entry_not_a_file_named_before_any_read(tmp_path, monkeypatch, entry):
    write_tensor(tmp_path / "a.rtns", np.ones((2, 3)))
    write_manifest(tmp_path / "m.json", ["a.rtns", "a.rtns", entry])

    def read(p):
        raise AssertionError("a batch was read")

    monkeypatch.setattr(rtns, "read_tensor", read)
    with pytest.raises(RtnsFormatError,
                       match=f"batch 2 {tmp_path / entry} is not a file"):
        read_manifest(tmp_path / "m.json")


@pytest.mark.parametrize("dtype", ["int32", "float16", ">f8"])
def test_unsupported_dtype_rejected_with_no_file(tmp_path, dtype):
    with pytest.raises(RtnsFormatError, match=f"got {np.dtype(dtype)}$"):
        write_tensor(tmp_path / "t.rtns", np.ones((2, 3)), dtype=dtype)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(), (2, 2, 2)])
def test_unsupported_rank_rejected_with_no_file(tmp_path, shape):
    match = f"only rank 1 and 2 supported, got {len(shape)}$"
    with pytest.raises(RtnsFormatError, match=match):
        write_tensor(tmp_path / "t.rtns", np.ones(shape))
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_target_and_no_temp(tmp_path):
    target = tmp_path / "doc.json"
    write_json(target, {"ok": 1})
    before = target.read_bytes()
    # json.dump has written part of the document when it meets the object
    with pytest.raises(TypeError):
        write_json(target, {"ok": 2, "bad": object()})
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


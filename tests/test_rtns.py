import struct

import numpy as np
import pytest

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
    batches = read_manifest(tmp_path / "m.json")
    assert len(batches) == 2
    np.testing.assert_array_equal(batches[0], a)
    np.testing.assert_array_equal(batches[1], b)


def test_manifest_requires_batches(tmp_path):
    (tmp_path / "m.json").write_text("{}")
    with pytest.raises(RtnsFormatError):
        read_manifest(tmp_path / "m.json")


def test_failed_write_leaves_target_and_no_temp(tmp_path):
    target = tmp_path / "doc.json"
    write_json(target, {"ok": 1})
    before = target.read_bytes()
    # json.dump has written part of the document when it meets the object
    with pytest.raises(TypeError):
        write_json(target, {"ok": 2, "bad": object()})
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


"""Bit-file packing, encodings, and run manifests."""

import json
import tracemalloc

import numpy as np
import pytest

from eccrng.bitio import (
    ASCII,
    LSB_FIRST,
    MSB_FIRST,
    PACKED,
    RunManifest,
    as_bit_array,
    decode_bits,
    encode_bits,
    load_manifest,
    manifest_for_file,
    manifest_path_for,
    read_bit_file,
    write_bit_file,
    write_manifest,
)
from oracles import insert_encode_ascii, text_decode_ascii


def test_as_bit_array_accepts_text_and_whitespace():
    got = as_bit_array("01 10\n1")
    assert got.tolist() == [0, 1, 1, 0, 1]
    assert got.dtype == np.uint8
    # whitespace is exactly what str.isspace accepts, ASCII or not
    assert as_bit_array("0\x0b1\x1c0").tolist() == [0, 1, 0]
    assert as_bit_array("1\u30000").tolist() == [1, 0]


def test_as_bit_array_rejects_non_binary():
    with pytest.raises(ValueError):
        as_bit_array("01012")
    with pytest.raises(ValueError):
        as_bit_array("0\u00e91")
    with pytest.raises(ValueError):
        as_bit_array(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        as_bit_array(np.zeros((2, 2), dtype=np.uint8))
    # other dtypes are checked before the cast to uint8, which would wrap or
    # truncate these to 0/1
    for bad in ([256, 1], [-255], [0.2, 1.9, 0.7]):
        with pytest.raises(ValueError):
            as_bit_array(bad)


def test_as_bit_array_accepts_exact_bits_of_any_dtype():
    for good in ([True, False, True], [1, 0, 1], [1.0, 0.0, 1.0]):
        got = as_bit_array(good)
        assert got.dtype == np.uint8
        assert got.tolist() == [1, 0, 1]
    assert as_bit_array([]).size == 0


def test_pack_msb_first():
    assert encode_bits("10000000") == b"\x80"
    assert encode_bits("1") == b"\x80"  # padded with zeros on the right
    assert encode_bits("0000000011111111") == b"\x00\xff"


def test_pack_lsb_first():
    # the first bit of an lsb-first byte is its least significant bit
    bits = [1, 0, 0, 0, 0, 0, 0, 0]
    payload = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes()
    assert payload == b"\x01"
    assert decode_bits(payload, PACKED, bit_order=LSB_FIRST).tolist() == bits


def test_unpack_respects_bit_count():
    assert decode_bits(b"\x80", PACKED, 1).tolist() == [1]
    assert decode_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        decode_bits(b"\x80", PACKED, 9)


def test_negative_bit_count_is_rejected_not_a_shorter_read():
    # numpy reads a negative count as "drop that many bits from the end"
    with pytest.raises(ValueError):
        decode_bits(b"0101101\n", ASCII, -3)
    with pytest.raises(ValueError):
        decode_bits(b"\xff", PACKED, -3)
    with pytest.raises(ValueError):
        decode_bits(b"\xff", PACKED, -3, LSB_FIRST)


def test_unpack_rejects_unknown_order():
    with pytest.raises(ValueError):
        decode_bits(b"\x80", PACKED, 8, "middle")
    # an ascii payload has no byte order to apply, but a bad one is still refused
    with pytest.raises(ValueError, match="unknown bit order"):
        decode_bits(b"0101", ASCII, None, "bogus")


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 64, 65, 1000])
@pytest.mark.parametrize("encoding", [PACKED, ASCII])
def test_file_round_trip(tmp_path, length, encoding):
    rng = np.random.default_rng(length)
    bits = rng.integers(0, 2, length, dtype=np.uint8)
    path = str(tmp_path / f"bits-{encoding}-{length}")
    write_bit_file(path, bits, encoding)
    got = read_bit_file(path, encoding, bit_count=length if encoding == PACKED else None)
    assert np.array_equal(got, bits)


def test_lsb_round_trip():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    payload = np.packbits(bits, bitorder="little").tobytes()
    assert np.array_equal(decode_bits(payload, PACKED, 5, LSB_FIRST), bits)
    # wrong order reads different bits
    assert not np.array_equal(decode_bits(payload, PACKED, 5, MSB_FIRST), bits)


def test_ascii_files_wrap_and_ignore_whitespace(tmp_path):
    bits = np.ones(100, dtype=np.uint8)
    path = str(tmp_path / "wrapped.txt")
    payload = write_bit_file(path, bits, ASCII)
    lines = payload.decode().splitlines()
    assert [len(l) for l in lines] == [64, 36]
    assert read_bit_file(path, ASCII).size == 100

    loose = tmp_path / "loose.txt"
    loose.write_text("01 01\n10\t1\n")
    assert read_bit_file(str(loose), ASCII).tolist() == [0, 1, 0, 1, 1, 0, 1]
    # a bit count takes a prefix, as it does for packed files
    assert read_bit_file(str(loose), ASCII, 3).tolist() == [0, 1, 0]
    with pytest.raises(ValueError):
        read_bit_file(str(loose), ASCII, 8)


def test_ascii_rejects_binary_payload(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\x80\xff")
    with pytest.raises(ValueError):
        read_bit_file(str(path), ASCII)


def _decoded(decode, payload, bit_count=None):
    """The bits (with their dtype) or the ValueError text a decoder gives."""
    try:
        bits = decode(payload, bit_count)
    except ValueError as exc:
        return str(exc)
    return bits.dtype.str, bits.tolist()


def _decode_ascii(payload, bit_count=None):
    return decode_bits(payload, ASCII, bit_count)


def test_ascii_decode_matches_the_text_oracle():
    spaces = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"
    alphabet = np.frombuffer(b"0101" + spaces, dtype=np.uint8)
    rng = np.random.default_rng(15)
    for case in range(3000):
        payload = rng.choice(alphabet, rng.integers(0, 80))
        if case % 3 == 0:  # one byte of any value planted anywhere
            payload = np.insert(payload, rng.integers(0, payload.size + 1), rng.integers(0, 256))
        payload = payload.tobytes()
        ones_and_zeros = payload.count(b"0") + payload.count(b"1")
        for bit_count in (None, *rng.integers(-2, ones_and_zeros + 3, 2).tolist()):
            want = _decoded(text_decode_ascii, payload, bit_count)
            assert _decoded(_decode_ascii, payload, bit_count) == want, (payload, bit_count)
    # every byte value alone, among digits, and before a non-ascii byte,
    # which takes precedence over any other bad byte
    for value in range(256):
        for payload in (bytes([value]), b"01" + bytes([value]) + b"10", bytes([value]) + b"1\xff"):
            assert _decoded(_decode_ascii, payload) == _decoded(text_decode_ascii, payload), payload


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 127, 128, 129, 1000, 100_003])
def test_ascii_encode_matches_the_insert_oracle(length):
    bits = np.random.default_rng(length).integers(0, 2, length, dtype=np.uint8)
    assert encode_bits(bits, ASCII) == insert_encode_ascii(bits)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ascii_decode_and_encode_stay_within_a_few_bytes_per_bit():
    # reading as text held 11 traced bytes per bit, writing with np.insert 3.4
    n = 1_000_000
    bits = np.random.default_rng(1).integers(0, 2, n, dtype=np.uint8)
    payload = encode_bits(bits, ASCII)
    assert _traced_peak(decode_bits, payload, ASCII) <= 4 * n
    assert _traced_peak(encode_bits, bits, ASCII) <= 3 * n


def test_manifest_round_trip(tmp_path):
    out = str(tmp_path / "x.bits")
    manifest = RunManifest(
        command="generate",
        argv=["generate", "--bits", "8"],
        params={"seed": 0},
        output_path=out,
        output_sha256="ab" * 32,
        output_bits=8,
        encoding=PACKED,
    )
    mpath = write_manifest(manifest)
    assert mpath == manifest_path_for(out) == out + ".manifest.json"
    loaded = load_manifest(mpath)
    assert loaded == manifest
    assert loaded.created_utc  # auto-stamped
    assert manifest_for_file(out) == manifest


def test_manifest_for_file_handles_absence_and_damage(tmp_path):
    target = str(tmp_path / "y.bits")
    assert manifest_for_file(target) is None
    with open(manifest_path_for(target), "w") as fh:
        fh.write("{not json")
    assert manifest_for_file(target) is None
    with open(manifest_path_for(target), "wb") as fh:
        fh.write(b"\xff\xfe{}")  # not UTF-8
    assert manifest_for_file(target) is None

    good = RunManifest("generate", [], {}, target, "00" * 32, 8, PACKED)
    write_manifest(good)
    assert manifest_for_file(target) == good
    # fields the reader counts or compares with must have their types
    for field, value in [
        ("output_bits", "8"), ("output_bits", True), ("output_bits", -1), ("output_bits", 8.0),
        ("output_bits", None), ("output_sha256", None), ("output_sha256", 0),
        ("encoding", None), ("encoding", ["packed"]),
    ]:
        with open(manifest_path_for(target), "w") as fh:
            json.dump({**good.__dict__, field: value}, fh)
        assert manifest_for_file(target) is None, (field, value)


def test_manifest_is_sorted_readable_json(tmp_path):
    out = str(tmp_path / "z.bits")
    manifest = RunManifest(
        command="generate",
        argv=[],
        params={},
        output_path=out,
        output_sha256="00" * 32,
        output_bits=0,
        encoding=ASCII,
    )
    with open(write_manifest(manifest)) as fh:
        data = json.load(fh)
    assert list(data) == sorted(data)
    assert data["encoding"] == ASCII

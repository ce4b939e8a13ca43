"""Bit arrays, bit-stream file formats and run manifests.

packed: raw bytes, 8 bits per byte, first bit of the stream in the most
significant bit of the first byte; the final byte is zero-padded and the
true bit count lives in the sidecar manifest.  ascii: '0'/'1' characters,
ASCII whitespace ignored on read.  Every produced artifact gets a
"<path>.manifest.json" sidecar carrying the reproduction recipe (argv,
seeds, digests, bit count).

In memory the GF(2) stages also hold a stream as 64-bit words: bit k of the
stream is bit k % 64 of word k // 64 (pack_words), so a shift of the stream
is a word offset plus two shifted XORs (xor_shifted).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

__all__ = [
    "as_bit_array",
    "pack_words",
    "unpack_words",
    "xor_shifted",
    "PACKED",
    "ASCII",
    "MSB_FIRST",
    "LSB_FIRST",
    "RunManifest",
    "encode_bits",
    "decode_bits",
    "write_bit_file",
    "read_bit_file",
    "manifest_path_for",
    "write_manifest",
    "load_manifest",
    "manifest_for_file",
    "sha256_hex",
]

PACKED = "packed"
ASCII = "ascii"
MSB_FIRST = "msb"
LSB_FIRST = "lsb"

_ASCII_WRAP = 64  # characters per line when writing ascii streams
# byte value -> may an ascii file hold it: 0, 1 and ASCII str.isspace (\v, \f, \x1c-\x1f too)
_ASCII_BYTE = np.array([c < 128 and (chr(c) in "01" or chr(c).isspace()) for c in range(256)])


def as_bit_array(bits) -> np.ndarray:
    """Normalize a bit sequence (iterable / text / ndarray) to a uint8 array of 0/1."""
    if isinstance(bits, str):
        codes = np.frombuffer(bits.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        is_digit = (codes == ord("0")) | (codes == ord("1"))
        if not is_digit.all():
            # whitespace is whatever str.isspace accepts; only the distinct
            # other characters are checked one by one
            if not all(chr(c).isspace() for c in np.unique(codes[~is_digit]).tolist()):
                raise ValueError("bit string may contain only 0, 1 and whitespace")
            codes = codes[is_digit]
        return (codes - ord("0")).astype(np.uint8)
    a = np.asarray(bits)
    if a.dtype != np.uint8:
        # checked before the cast, which would wrap 256 to 0 and truncate 1.9 to 1
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("bit sequence entries must be 0 or 1")
        a = a.astype(np.uint8)
    if a.ndim != 1:
        raise ValueError(f"bit sequence must be one-dimensional, got shape {a.shape}")
    if a.size and a.max() > 1:
        raise ValueError("bit sequence entries must be 0 or 1")
    return a


def pack_words(bits) -> np.ndarray:
    """A 0/1 uint8 array as uint64 words, bit k in bit k % 64 of word k // 64;
    the bits past the last one are zero."""
    words = np.zeros(-(-bits.size // 64), dtype="<u8")
    words.view(np.uint8)[: -(-bits.size // 8)] = np.packbits(bits, bitorder="little")
    return words


_UNPACK_CHUNK = 1 << 16  # bits unpack_words writes into out at a time


def unpack_words(words: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first count bits of pack_words' layout, as a 0/1 uint8 array.

    Given out, a uint8 array of count entries, the bits are written into it
    a chunk at a time and out is returned; no second array of count bytes
    is made.
    """
    if out is None:
        return np.unpackbits(words.view(np.uint8), count=count, bitorder="little")
    for i in range(0, count, _UNPACK_CHUNK):
        part = out[i : i + _UNPACK_CHUNK]
        part[:] = unpack_words(words[i // 64 : -(-(i + part.size) // 64)], part.size)
    return out


def xor_shifted(dst: np.ndarray, src: np.ndarray, shift: int, buffer: np.ndarray) -> None:
    """dst ^= src moved shift bits later in the stream (earlier when shift < 0).

    dst and src are equal-length arrays in pack_words' layout; bits moved
    past either end are dropped.  buffer, at least as long, is overwritten,
    which spares each call two temporaries.  With |shift| = 64 q + r, the
    words pair up q apart, and r bits of each word cross into the neighbour
    of its partner.
    """
    q, r = divmod(abs(shift), 64)
    m = src.size - q
    if m <= 0:
        return
    to, frm = (dst[q:], src[:m]) if shift > 0 else (dst[:m], src[q:])
    if r == 0:
        to ^= frm
        return
    r = np.uint64(r)
    t = buffer[:m]
    if shift > 0:  # the top r bits of a word cross into the next one
        np.left_shift(frm, r, out=t)
        to ^= t
        np.right_shift(frm[:-1], 64 - r, out=t[1:])
        to[1:] ^= t[1:]
    else:  # the bottom r bits of a word cross into the one before
        np.right_shift(frm, r, out=t)
        to ^= t
        np.left_shift(frm[1:], 64 - r, out=t[:-1])
        to[:-1] ^= t[:-1]


def encode_bits(bits, encoding: str = PACKED) -> bytes:
    """The file payload of the stream in the given encoding."""
    b = as_bit_array(bits)
    if encoding == PACKED:
        return np.packbits(b).tobytes()
    if encoding != ASCII:
        raise ValueError(f"unknown encoding {encoding!r}")
    # a newline after every _ASCII_WRAP digits and after the last one: full
    # lines are rows of a (lines, _ASCII_WRAP + 1) grid, a short last line follows
    out = np.full(b.size + -(-b.size // _ASCII_WRAP), ord("\n"), dtype=np.uint8)
    full = b.size - b.size % _ASCII_WRAP
    grid = out[: full + full // _ASCII_WRAP].reshape(-1, _ASCII_WRAP + 1)
    np.add(b[:full].reshape(-1, _ASCII_WRAP), ord("0"), out=grid[:, :_ASCII_WRAP])
    np.add(b[full:], ord("0"), out=out[grid.size : -1])
    return out.tobytes()


def decode_bits(
    payload: bytes,
    encoding: str = PACKED,
    bit_count: int | None = None,
    bit_order: str = MSB_FIRST,
) -> np.ndarray:
    """The first bit_count bits of a file payload (default: all of them).

    bit_order says which end of each packed byte holds its first bit.
    """
    if bit_order not in (MSB_FIRST, LSB_FIRST):
        raise ValueError(f"unknown bit order {bit_order!r}")
    if encoding == PACKED:
        if bit_count is None:
            bit_count = 8 * len(payload)
        # a negative count would make unpackbits drop bits off the end
        if not 0 <= bit_count <= 8 * len(payload):
            raise ValueError(f"bit count {bit_count} outside the payload's 0..{8 * len(payload)} bits")
        order = "big" if bit_order == MSB_FIRST else "little"
        return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=bit_count, bitorder=order)
    if encoding != ASCII:
        raise ValueError(f"unknown encoding {encoding!r}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    digits = (raw & 0xFE) == ord("0")
    # only the non-digit bytes are looked up; a non-ascii byte anywhere is
    # reported before any other bad byte
    if not _ASCII_BYTE[raw[~digits]].all():
        try:
            payload.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"not an ascii bit file ({exc})") from None
        raise ValueError("bit string may contain only 0, 1 and whitespace")
    bits = raw[digits]
    np.bitwise_and(bits, 1, out=bits)
    if bit_count is None:
        return bits
    if not 0 <= bit_count <= bits.size:
        raise ValueError(f"bit count {bit_count} outside the 0..{bits.size} bits in the file")
    return bits[:bit_count]


def write_bit_file(path: str, bits, encoding: str = PACKED) -> bytes:
    """Write the stream; returns the payload bytes actually written."""
    payload = encode_bits(bits, encoding)
    with open(path, "wb") as fh:
        fh.write(payload)
    return payload


def read_bit_file(path: str, encoding: str = PACKED, bit_count: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_bits(fh.read(), encoding, bit_count)


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@dataclass
class RunManifest:
    """Reproduction recipe for one produced artifact."""

    command: str
    argv: list[str]
    params: dict
    output_path: str
    output_sha256: str
    output_bits: int
    encoding: str
    input_path: str | None = None
    input_sha256: str | None = None
    tool_version: str = ""
    created_utc: str = ""

    def __post_init__(self):
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")


def manifest_path_for(output_path: str) -> str:
    return output_path + ".manifest.json"


def write_manifest(manifest: RunManifest) -> str:
    path = manifest_path_for(manifest.output_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path: str) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return RunManifest(**data)


def manifest_for_file(path: str) -> RunManifest | None:
    """The sidecar manifest of path, if present and well-formed."""
    mpath = manifest_path_for(path)
    if not os.path.exists(mpath):
        return None
    try:
        manifest = load_manifest(mpath)
    except (ValueError, TypeError, OSError):  # ValueError: bad JSON or bad UTF-8
        return None
    # a mistyped field is damage too; type(), because a bool is an int but no bit count
    bits, sha, encoding = manifest.output_bits, manifest.output_sha256, manifest.encoding
    if type(bits) is not int or bits < 0 or not isinstance(sha, str) or not isinstance(encoding, str):
        return None
    return manifest

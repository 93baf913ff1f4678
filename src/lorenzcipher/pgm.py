"""Binary PGM (P5) reader and writer, bit-exact round trips.

Header grammar per the PGM specification: magic "P5", then width, height,
maxval as ASCII decimals separated by whitespace, with '#' comments running
to end of line wherever whitespace may appear, then exactly one whitespace
byte, then width*height raw intensity bytes (maxval <= 255 only), none of
them above maxval.
"""

from __future__ import annotations

import re

import numpy as np

from .cipher import GrayImage
from .errors import PgmError

__all__ = ["read_pgm", "write_pgm", "parse_pgm", "encode_pgm"]

_WHITESPACE = b" \t\n\r\x0b\x0c"
# One or more separators (a whitespace byte, or a '#' comment running to the
# end of the line), then the digits of one header number.
_FIELD = re.compile(rb"(?:[%s]|#[^\r\n]*)+([0-9]*)" % re.escape(_WHITESPACE))


def _read_int(buf: bytes, pos: int, name: str) -> tuple[int, int]:
    m = _FIELD.match(buf, pos)
    start = m.start(1) if m else pos
    if not (m and m.group(1)):
        raise PgmError(f"malformed header: expected a decimal {name} at byte {start}")
    digits = m.group(1).lstrip(b"0")
    # Past 10**18 bytes no image fits in memory; the cap also keeps int() and
    # str() of width*height inside Python's 4300-digit limit.
    if len(digits) > 18:
        raise PgmError(f"malformed header: {name} at byte {start} has "
                       f"{len(digits)} significant digits, more than 18")
    return int(digits or b"0"), m.end()


def parse_pgm(buf: bytes) -> GrayImage:
    """Decode a binary PGM byte string."""
    if buf[:2] == b"P2":
        raise PgmError("ASCII PGM (P2) is unsupported; use binary PGM (P5)")
    if buf[:2] != b"P5":
        raise PgmError(f"not a binary PGM file: magic {buf[:2]!r}")
    width, pos = _read_int(buf, 2, "width")
    height, pos = _read_int(buf, pos, "height")
    maxval, pos = _read_int(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255; 16-bit PGM is unsupported")
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}")
    if pos >= len(buf) or buf[pos] not in _WHITESPACE:
        raise PgmError("malformed header: expected single whitespace after maxval")
    pos += 1
    n = width * height
    payload = buf[pos:pos + n]
    if len(payload) < n:
        raise PgmError(f"truncated pixel data: expected {n} bytes, found {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and pixels.max() > maxval:
        raise PgmError(f"pixel value {pixels.max()} exceeds maxval {maxval}")
    return GrayImage.from_array(pixels)


def encode_pgm(image: GrayImage) -> bytes:
    """Encode an image as binary PGM with maxval 255."""
    header = f"P5\n{image.cols} {image.rows}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def read_pgm(path) -> GrayImage:
    """Read a binary PGM file. Missing files raise the usual OSError."""
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def write_pgm(image: GrayImage, path) -> None:
    """Write `image` as binary PGM; read_pgm(write_pgm(I)) == I exactly."""
    with open(path, "wb") as fh:
        fh.write(encode_pgm(image))

"""Binary PGM (P5) reader and writer, bit-exact round trips.

Header grammar per the PGM specification: magic "P5", then width, height,
maxval as ASCII decimals separated by whitespace, with '#' comments running
to end of line wherever whitespace may appear, then exactly one whitespace
byte, then width*height raw intensity bytes (maxval <= 255 only), none of
them above maxval.

`_decode_pgm` and `_pgm_header` hold the format without numpy; the CLI's
encrypt, decrypt and keystream use them directly, and parse_pgm and
encode_pgm wrap them in a GrayImage.
"""

from __future__ import annotations

import re

from .cipher import _IS_IMAGE, GrayImage
from .errors import FileFormatError, _require_type

__all__ = ["read_pgm", "write_pgm", "parse_pgm", "encode_pgm"]

_WHITESPACE = b" \t\n\r\x0b\x0c"
# One or more separators (a whitespace byte, or a '#' comment running to the
# end of the line), then the digits of one header number.
_FIELD = re.compile(rb"(?:[%s]|#[^\r\n]*)+([0-9]*)" % re.escape(_WHITESPACE))


def _read_int(buf: bytes, pos: int, name: str) -> tuple[int, int]:
    m = _FIELD.match(buf, pos)
    start = m.start(1) if m else pos
    if not (m and m.group(1)):
        raise FileFormatError(f"malformed header: expected a decimal {name} at byte {start}")
    digits = m.group(1).lstrip(b"0")
    # Past 10**18 bytes no image fits in memory; the cap also keeps int() and
    # str() of width*height inside Python's 4300-digit limit.
    if len(digits) > 18:
        raise FileFormatError(f"malformed header: {name} at byte {start} has "
                              f"{len(digits)} significant digits, more than 18")
    return int(digits or b"0"), m.end()


def _decode_pgm(buf: bytes) -> tuple[int, int, memoryview]:
    """(rows, cols, payload) of a binary PGM byte string, where payload views
    its rows*cols pixel bytes; any departure from the format is a
    FileFormatError."""
    if buf[:2] == b"P2":
        raise FileFormatError("ASCII PGM (P2) is unsupported; use binary PGM (P5)")
    if buf[:2] != b"P5":
        raise FileFormatError(f"not a binary PGM file: magic {buf[:2]!r}")
    width, pos = _read_int(buf, 2, "width")
    height, pos = _read_int(buf, pos, "height")
    maxval, pos = _read_int(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise FileFormatError(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise FileFormatError(f"maxval {maxval} exceeds 255; 16-bit PGM is unsupported")
    if maxval < 1:
        raise FileFormatError(f"invalid maxval {maxval}")
    if pos >= len(buf) or buf[pos] not in _WHITESPACE:
        raise FileFormatError("malformed header: expected single whitespace after maxval")
    pos += 1
    n = width * height
    found = len(buf) - pos
    if found < n:
        raise FileFormatError(f"truncated pixel data: expected {n} bytes, found {found}")
    if maxval < 255:
        # bytes(): a memoryview slice has no translate
        above = bytes(buf[pos:pos + n]).translate(None, bytes(range(maxval + 1)))
        if above:
            raise FileFormatError(f"pixel value {max(above)} exceeds maxval {maxval}")
    return height, width, memoryview(buf)[pos:pos + n]


def _pgm_header(rows: int, cols: int) -> bytes:
    """The header encode_pgm writes: maxval 255."""
    return f"P5\n{cols} {rows}\n255\n".encode("ascii")


def parse_pgm(buf: bytes) -> GrayImage:
    """Decode a binary PGM byte string."""
    _require_type(buf, (bytes, bytearray, memoryview),
                  "buf must be bytes, bytearray or memoryview")
    import numpy as np
    rows, cols, payload = _decode_pgm(buf)
    return GrayImage.from_array(np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols))


def encode_pgm(image: GrayImage) -> bytes:
    """Encode an image as binary PGM with maxval 255."""
    _require_type(image, GrayImage, _IS_IMAGE)
    return b"".join((_pgm_header(image.rows, image.cols), image.pixels))


def read_pgm(path) -> GrayImage:
    """Read a binary PGM file. Missing files raise the usual OSError."""
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def write_pgm(image: GrayImage, path) -> None:
    """Write `image` as binary PGM; read_pgm(path).pixels then equals
    image.pixels exactly. An image refused leaves `path` untouched."""
    data = encode_pgm(image)
    with open(path, "wb") as fh:
        fh.write(data)

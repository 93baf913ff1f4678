"""Binary PGM codec tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_image, peak_bytes
from lorenzcipher import (DomainError, FileFormatError, GrayImage, encode_pgm,
                          parse_pgm, read_pgm, write_pgm)


class TestParse:
    def test_minimal_image(self):
        out = parse_pgm(b"P5 1 1 255 A")
        assert out.rows == 1 and out.cols == 1
        assert out.pixels[0, 0] == ord("A")

    def test_newline_separated_header(self):
        out = parse_pgm(b"P5\n2 1\n255\n\x00\xff")
        assert out.pixels.tolist() == [[0, 255]]

    def test_comments_are_skipped(self):
        raw = b"P5 # magic\n# a full comment line\n1 1 # dims\n255\n\x07"
        assert parse_pgm(raw).pixels[0, 0] == 7

    def test_single_separator_after_maxval(self):
        # Only one whitespace byte ends the header; the next byte is pixel
        # data even if it looks like whitespace.
        raw = b"P5 1 2 255\n\x0a\x20"
        assert parse_pgm(raw).pixels.ravel().tolist() == [0x0A, 0x20]

    @pytest.mark.parametrize("raw", [b"P5 1 1 255", b"P5 1 1 255#c\n\x00"],
                             ids=["nothing-after-maxval", "comment-after-maxval"])
    def test_maxval_needs_one_whitespace_after_it(self, raw):
        with pytest.raises(FileFormatError, match="expected single whitespace after maxval"):
            parse_pgm(raw)

    def test_ascii_pgm_rejected(self):
        with pytest.raises(FileFormatError, match="P2"):
            parse_pgm(b"P2 1 1 255 65")

    def test_wrong_magic_rejected(self):
        with pytest.raises(FileFormatError, match="magic"):
            parse_pgm(b"P6 1 1 255 abc")

    def test_sixteen_bit_maxval_rejected(self):
        with pytest.raises(FileFormatError, match="16-bit"):
            parse_pgm(b"P5 1 1 65535 \x00\x00")

    def test_nonstandard_low_maxval_accepted(self):
        assert parse_pgm(b"P5 1 1 100 \x42").pixels[0, 0] == 0x42

    def test_pixel_above_maxval_rejected(self):
        with pytest.raises(FileFormatError, match="200 exceeds maxval 100"):
            parse_pgm(b"P5 2 1 100 \x42\xc8")

    def test_zero_maxval_rejected(self):
        with pytest.raises(FileFormatError, match="invalid maxval 0"):
            parse_pgm(b"P5 1 1 0 \x00")

    def test_zero_dimension_rejected(self):
        with pytest.raises(FileFormatError, match="invalid dimensions 0x1"):
            parse_pgm(b"P5 0 1 255 ")

    def test_truncated_payload_reports_counts(self):
        with pytest.raises(FileFormatError, match="expected 6 bytes, found 4"):
            parse_pgm(b"P5 2 3 255 \x01\x02\x03\x04")

    def test_missing_maxval_rejected(self):
        with pytest.raises(FileFormatError, match="expected a decimal maxval"):
            parse_pgm(b"P5 1 1 ")

    def test_magic_needs_a_separator_before_the_width(self):
        with pytest.raises(FileFormatError, match="width at byte 2"):
            parse_pgm(b"P51 1 255 A")

    def test_non_numeric_dimension_rejected(self):
        with pytest.raises(FileFormatError, match="expected a decimal width"):
            parse_pgm(b"P5 one 1 255 \x00")

    @pytest.mark.parametrize("header", [
        b"P5 " + b"1" * 5000 + b" 1 255",  # past int()'s 4300-digit limit
        b"P5 " + b"9" * 3000 + b" " + b"9" * 3000 + b" 255",  # width*height past str()'s
        b"P5 1 1 " + b"2" * 19,
    ])
    def test_oversized_header_number_rejected(self, header):
        with pytest.raises(FileFormatError, match="significant digits"):
            parse_pgm(header + b"\n\x00")

    def test_bytes_past_the_payload_are_ignored(self):
        assert parse_pgm(b"P5 1 1 255 \x07\x08").pixels.tolist() == [[7]]

    def test_bytearray_input_is_copied(self):
        # A writable buffer could change under the image, so it is copied.
        raw = bytearray(b"P5 2 1 255 \x01\x02")
        image = parse_pgm(raw)
        raw[-1] = 9
        assert image.pixels.tolist() == [[1, 2]]

    def test_memoryview_input_below_maxval_255(self):
        assert parse_pgm(memoryview(b"P5 2 1 15 \x01\x0f")).pixels.tolist() == [[1, 15]]

    @pytest.mark.parametrize("buf", ["P5 1 1 255 A", 5, None], ids=["str", "int", "none"])
    def test_refuses_what_is_not_bytes_like(self, buf):
        with pytest.raises(DomainError, match="buf must be bytes, bytearray or memoryview, "
                                              f"got {type(buf).__name__}"):
            parse_pgm(buf)

    def test_leading_zeros_do_not_count_as_digits(self):
        image = parse_pgm(b"P5 " + b"0" * 5000 + b"1 01 0255 \x07")
        assert image.pixels.tolist() == [[7]]


HEADER_TOKENS = st.sampled_from([
    b"P5", b"P2", b" ", b"\t", b"\n", b"\r", b"\x0b", b"#", b"# note\n",
    b"0", b"1", b"2", b"255", b"256", b"65535", b"9" * 19, b"-1", b"+1",
    b"\x00", b"\xff", b"A"])


class TestFuzz:
    # Any input yields an image or a FileFormatError, never another exception.
    @given(st.one_of(
        st.binary(max_size=64),
        st.lists(HEADER_TOKENS, max_size=12).map(b"".join),
        st.lists(HEADER_TOKENS, max_size=12).map(lambda t: b"P5" + b"".join(t))))
    def test_parse_returns_image_or_raises_pgm_error(self, raw):
        try:
            image = parse_pgm(raw)
        except FileFormatError:
            return
        assert isinstance(image, GrayImage)


class TestEncode:
    def test_canonical_header(self):
        assert encode_pgm(make_image([[0]])) == b"P5\n1 1\n255\n\x00"

    def test_payload_is_row_major(self):
        raw = encode_pgm(make_image([[1, 2, 3], [4, 5, 6]]))
        assert raw.endswith(b"\x01\x02\x03\x04\x05\x06")
        assert b"3 2" in raw

    @given(arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8))))
    def test_round_trip(self, pixels):
        back = parse_pgm(encode_pgm(make_image(pixels)))
        assert np.array_equal(back.pixels, pixels)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 1), (1, 9), (1024, 1024)])
    def test_bytes_are_header_then_pixels(self, shape):
        rows, cols = shape
        header = f"P5\n{cols} {rows}\n255\n".encode()
        pixels = np.random.default_rng(shape).integers(0, 256, shape, np.uint8)
        # parse_pgm's image views the pixels inside the PGM's own buffer.
        for image in make_image(pixels), parse_pgm(header + pixels.tobytes()):
            assert encode_pgm(image) == header + pixels.tobytes()

    def test_pixels_are_copied_once(self):
        image = make_image(np.random.default_rng(2).integers(0, 256, (2048, 2048), np.uint8))
        assert peak_bytes(lambda: encode_pgm(image)) <= 2048 * 2048 + 64 * 1024


class TestFileIo:
    def test_file_round_trip(self, tmp_path):
        image = make_image([[9, 8], [7, 6], [5, 4]])
        path = tmp_path / "t.pgm"
        write_pgm(image, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, image.pixels)

    def test_refused_image_leaves_an_existing_file_untouched(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"kept")
        with pytest.raises(DomainError, match="image must be a GrayImage, got ndarray"):
            write_pgm(np.zeros((2, 2), np.uint8), path)
        assert path.read_bytes() == b"kept"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_pgm(tmp_path / "absent.pgm")

    def test_malformed_file_raises_pgm_error(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"JUNK")
        with pytest.raises(FileFormatError, match="magic"):
            read_pgm(path)

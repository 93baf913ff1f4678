"""Metric unit tests with exact hand cases and a brute-force oracle.

The oracle recomputes every statistic from the definition using plain
Python loops, so any vectorization slip in the library shows up as a
numeric mismatch rather than a silent bias.
"""

import contextlib
import math
import os
import re
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PUBLISHED_WORKS, WORKING_PARAMS, make_image, peak_bytes, pure_python
from lorenzcipher import (DEFAULT_INITIAL, DIRECTIONS, DomainError, Keystream,
                          KeystreamConfig, LorenzCipherError, WorkScores,
                          adjacent_correlation, chi_square_uniform, decrypt,
                          efficiency_index, encrypt, histogram,
                          shannon_entropy, write_pgm, xor_apply)
from lorenzcipher import encode_pgm, lorenz, metrics, parse_pgm
from lorenzcipher.metrics import _BLOCK, _CHUNK, _tree_sum

def oracle_correlation(xs, ys):
    n = len(xs)
    ex = sum(xs) / n
    ey = sum(ys) / n
    dx = sum((x - ex) ** 2 for x in xs) / n
    dy = sum((y - ey) ** 2 for y in ys) / n
    cov = sum((x - ex) * (y - ey) for x, y in zip(xs, ys)) / n
    return cov / math.sqrt(dx * dy)


def oracle_pairs(pixels, direction):
    rows, cols = pixels.shape
    xs, ys = [], []
    for i in range(rows):
        for j in range(cols):
            if direction == "horizontal" and j + 1 < cols:
                xs.append(float(pixels[i, j]))
                ys.append(float(pixels[i, j + 1]))
            elif direction == "vertical" and i + 1 < rows:
                xs.append(float(pixels[i, j]))
                ys.append(float(pixels[i + 1, j]))
            elif direction == "diagonal" and i + 1 < rows and j + 1 < cols:
                xs.append(float(pixels[i, j]))
                ys.append(float(pixels[i + 1, j + 1]))
    return xs, ys


def oracle_entropy(pixels):
    counts = [0] * 256
    for v in pixels.ravel():
        counts[int(v)] += 1
    total = pixels.size
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


# The (row, col) offset from each pixel to its neighbour, per direction.
OFFSETS = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}


def reference_pairs(p, direction):
    """Each pixel of `p` that has a neighbour in `direction`, and that neighbour."""
    dr, dc = OFFSETS[direction]
    rows, cols = p.shape
    return p[:rows - dr, :cols - dc], p[dr:, dc:]


def reference_correlation(image, direction):
    """The correlation as computed from float64 copies of both series.

    Two float64 copies, two centred copies and three product arrays: the
    straightforward population form, kept as the oracle that the buffered
    library version must match bit for bit. It slices its own pairs, and
    refuses an image too small to hold one with the library's message.
    """
    x, y = reference_pairs(image.pixels, direction)
    if x.size == 0:
        dr, dc = OFFSETS[direction]
        raise DomainError(f"{direction} pairs need an image of at least "
                          f"{dr + 1}x{dc + 1}, got {image.rows}x{image.cols}")
    x = x.astype(np.float64).ravel()
    y = y.astype(np.float64).ravel()
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.mean(dx * dx))
    sy = np.sqrt(np.mean(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise DomainError(
            "correlation undefined: a series has zero standard deviation")
    r = float(np.mean(dx * dy) / (sx * sy))
    return min(1.0, max(-1.0, r))


def smooth_texture(rng, rows, cols):
    """Blocky noise under a 17x17 box blur: a strongly correlated texture."""
    coarse = rng.integers(0, 256, (rows // 16 + 1, cols // 16 + 1))
    up = np.repeat(np.repeat(coarse, 16, 0), 16, 1)[:rows, :cols]
    c = np.pad(np.pad(up, 8, mode="edge"), ((1, 0), (1, 0))).cumsum(0).cumsum(1)
    return (c[17:, 17:] - c[:-17, 17:] - c[17:, :-17] + c[:-17, :-17]) // 289


def outcome(correlation, image, direction):
    """The float bits, or the type and text of the error raised."""
    try:
        return correlation(image, direction).hex()
    except LorenzCipherError as exc:
        return type(exc), str(exc)


def outcomes(image, direction):
    """adjacent_correlation's outcome from the loaded moment sums, then from
    numpy's, as without a compiler."""
    loaded = outcome(adjacent_correlation, image, direction)
    with pure_python():
        return [loaded, outcome(adjacent_correlation, image, direction)]


@st.composite
def small_images(draw):
    """uint8 images up to 64x64: any levels, two levels or one level."""
    shape = (draw(st.integers(1, 64)), draw(st.integers(1, 64)))
    levels = draw(st.one_of(
        st.none(), st.lists(st.integers(0, 255), min_size=1, max_size=2)))
    elements = st.integers(0, 255) if levels is None else st.sampled_from(levels)
    return draw(arrays(np.uint8, shape, elements=elements))


class TestBitIdentity:
    @given(small_images())
    @example(np.array([[3, 200]], np.uint8))
    @example(np.array([[3], [200]], np.uint8))
    @example(np.array([[9, 9], [9, 9]], np.uint8))
    @example(np.array([[0, 255, 0], [255, 0, 255]], np.uint8))
    def test_matches_reference_on_small_images(self, pixels):
        image = make_image(pixels)
        for direction in DIRECTIONS:
            assert outcomes(image, direction) == [
                outcome(reference_correlation, image, direction)] * 2

    def test_matches_reference_on_large_images(self):
        rng = np.random.default_rng(12)
        side = 1024
        noise = rng.integers(0, 256, (side, side), dtype=np.uint8)
        smooth = smooth_texture(rng, side, side)
        for pixels in (noise, smooth):
            image = make_image(pixels)
            for direction in DIRECTIONS:
                want = reference_correlation(image, direction)
                for path in (contextlib.nullcontext(), pure_python()):
                    with path:
                        got = adjacent_correlation(image, direction)
                    assert got.hex() == want.hex()
                    assert type(got) is float

    # Images whose m pairs straddle the blocks of adjacent_correlation: m
    # next to one and two blocks, blocks that start mid-row, one-row and
    # one-column images, and rows wider than a block.
    BLOCK_CASES = [
        *(((1, m + 1), "horizontal") for m in (_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                                2 * _BLOCK - 8, 2 * _BLOCK + 8)),
        *(((m + 1, 1), "vertical") for m in (_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK - 8)),
        *(((2, m + 1), "diagonal") for m in (_BLOCK, 2 * _BLOCK + 8)),
        ((1, 2 * _BLOCK + 3), "horizontal"),
        ((2 * _BLOCK + 3, 1), "vertical"),
        *(((70, 1000), d) for d in DIRECTIONS),
        *(((3, _BLOCK + 1000), d) for d in DIRECTIONS),
    ]

    @pytest.mark.parametrize("texture", ["noise", "smooth"])
    @pytest.mark.parametrize("shape,direction", BLOCK_CASES)
    def test_matches_reference_across_blocks(self, shape, direction, texture):
        rng = np.random.default_rng([*shape, len(direction)])
        pixels = (rng.integers(0, 256, shape, dtype=np.uint8) if texture == "noise"
                  else smooth_texture(rng, *shape))
        image = make_image(pixels)
        assert reference_pairs(pixels, direction)[0].size > _BLOCK - 2
        assert outcomes(image, direction) == [
            outcome(reference_correlation, image, direction)] * 2

    def test_self_check_moments_are_the_numpy_sums(self):
        # The loader holds the compiled moment sums to these constants, so
        # they must be what the numpy path sums for every direction.
        pixels = np.frombuffer(lorenz._CHECK_BYTES, np.uint8).reshape(lorenz._CHECK_SHAPE)
        assert {offset: tuple(v.hex() for v in metrics._numpy_moments(pixels, *offset))
                for offset in metrics._OFFSETS.values()} == lorenz._CHECK_MOMENTS

    @pytest.mark.parametrize("block", [128, 200, _BLOCK])
    def test_tree_is_numpys_summation_tree(self, monkeypatch, block):
        # adjacent_correlation is bit-identical only if numpy's sum of a
        # contiguous float64 array follows the tree _tree_sum descends. A
        # numpy that sums in another order fails here under this name.
        monkeypatch.setattr(metrics, "_BLOCK", block)
        rng = np.random.default_rng(block)
        lengths = [*range(1, 301), _BLOCK - 1, _BLOCK, _BLOCK + 1,
                   2 * _BLOCK - 8, 2 * _BLOCK, 2 * _BLOCK + 8, 1_047_552]
        for n in lengths:
            # Magnitudes over 16 decades: nearly any other order rounds differently.
            arr = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            got = _tree_sum(lambda lo, k: arr[lo:lo + k].sum(), 0, n)
            assert got.hex() == arr.sum().hex(), n

    @pytest.mark.parametrize("shape,directions", [
        ((2048, 2048), DIRECTIONS), ((1, 2 ** 21), ("horizontal",))])
    def test_memory_does_not_grow_with_pairs(self, shape, directions):
        # The compiled sums allocate no pair-sized buffer; numpy's, two block
        # buffers and numpy's own small iterator buffers, where a whole-array
        # form needs two float64 arrays of m pairs (32 MiB each).
        image = make_image(np.random.default_rng(4).integers(0, 256, shape, np.uint8))
        for path in (contextlib.nullcontext(), pure_python()):
            with path:
                for direction in directions:
                    assert peak_bytes(lambda: adjacent_correlation(image, direction)) < (
                        2 * 8 * _BLOCK + 256 * 1024)


class TestPopulationCorrelation:
    # Vertical pairs of a two-row image are (row 0[j], row 1[j]), so these
    # cases put the series x and y in the two rows.
    def test_perfect_positive(self):
        x = np.array([1, 2, 3])
        r = adjacent_correlation(make_image([x, 2 * x + 7]), "vertical")
        assert r == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.array([1, 2, 3])
        r = adjacent_correlation(make_image([x, 255 - x]), "vertical")
        assert r == pytest.approx(-1.0)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.integers(4, 85, 50)
        y = 2 * rng.integers(0, 100, 50)
        base = adjacent_correlation(make_image([x, y]), "vertical")
        moved = adjacent_correlation(make_image([3 * x - 11, y // 2 + 4]), "vertical")
        assert moved == pytest.approx(base, rel=1e-12)

    def test_constant_series_is_undefined(self):
        with pytest.raises(DomainError, match="zero standard deviation"):
            adjacent_correlation(make_image([[5, 5], [1, 2]]), "vertical")

    def test_result_is_clamped(self):
        x = [1, 2, 3, 4]
        r = adjacent_correlation(make_image([x, x]), "vertical")
        assert -1.0 <= r <= 1.0


class TestAdjacentCorrelation:
    def test_row_constant_image_horizontal_is_one(self):
        image = make_image([[10, 10, 10], [200, 200, 200]])
        assert adjacent_correlation(image, "horizontal") == pytest.approx(1.0)

    def test_checkerboard_correlations(self):
        image = make_image([[0, 255, 0], [255, 0, 255], [0, 255, 0]])
        assert adjacent_correlation(image, "diagonal") == pytest.approx(1.0)
        assert adjacent_correlation(image, "horizontal") == pytest.approx(-1.0)
        assert adjacent_correlation(image, "vertical") == pytest.approx(-1.0)

    def test_two_by_two_antidiagonal_horizontal(self):
        image = make_image([[0, 255], [255, 0]])
        assert adjacent_correlation(image, "horizontal") == pytest.approx(-1.0)

    def test_striped_columns_horizontal_is_undefined(self):
        # Horizontal pairs here are (0,255) twice: the left series is
        # constant 0 and the right constant 255, so std is zero.
        image = make_image([[0, 255], [0, 255]])
        with pytest.raises(DomainError, match="zero standard deviation"):
            adjacent_correlation(image, "horizontal")

    def test_single_pixel_rejected(self):
        with pytest.raises(DomainError):
            adjacent_correlation(make_image([[7]]), "horizontal")

    @pytest.mark.parametrize("shape,direction", [
        ((3, 1), "horizontal"), ((1, 3), "vertical"),
        ((1, 3), "diagonal"), ((3, 1), "diagonal")])
    def test_too_small_image_error_names_direction_and_shape(self, shape, direction):
        image = make_image(np.arange(3).reshape(shape))
        rows, cols = shape
        with pytest.raises(DomainError, match=f"{direction} .*{rows}x{cols}"):
            adjacent_correlation(image, direction)

    def test_unknown_direction_rejected(self):
        with pytest.raises(DomainError):
            adjacent_correlation(make_image([[1, 2], [3, 4]]), "antidiagonal")

    def test_matches_brute_force_on_fixed_image(self):
        rng = np.random.default_rng(9)
        image = make_image(rng.integers(0, 256, (3, 4), dtype=np.uint8))
        for direction in DIRECTIONS:
            xs, ys = oracle_pairs(image.pixels, direction)
            want = oracle_correlation(xs, ys)
            got = adjacent_correlation(image, direction)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(arrays(np.uint8, (4, 5)), st.sampled_from(DIRECTIONS))
    def test_flip_symmetry(self, pixels, direction):
        image = make_image(pixels)
        flipped = make_image(pixels[::-1, ::-1])
        try:
            a = adjacent_correlation(image, direction)
            b = adjacent_correlation(flipped, direction)
        except DomainError as e:
            assume("zero standard deviation" not in str(e))
            raise
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def histograms(image):
    """histogram(image) from the loaded byte counter, then from np.bincount."""
    loaded = histogram(image)
    with pure_python():
        return [loaded, histogram(image)]


class TestEntropyAndHistogram:
    def test_constant_image_entropy_zero_positive_sign(self):
        h = shannon_entropy(make_image(np.full((4, 4), 9, dtype=np.uint8)))
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0

    def test_uniform_image_entropy_exactly_eight(self):
        values = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert shannon_entropy(make_image(values)) == 8.0

    def test_two_symbol_image(self):
        assert shannon_entropy(make_image([[0, 0], [255, 255]])) == pytest.approx(1.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        pixels = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        got = shannon_entropy(make_image(pixels))
        assert got == pytest.approx(oracle_entropy(pixels), rel=1e-12)

    @given(arrays(np.uint8, (6, 6)))
    def test_entropy_bounds(self, pixels):
        h = shannon_entropy(make_image(pixels))
        assert 0.0 <= h <= 8.0

    def test_histogram_counts(self):
        counts = histogram(make_image([[0, 0, 255], [3, 3, 3]]))
        assert counts.shape == (256,)
        assert counts[0] == 2 and counts[3] == 3 and counts[255] == 1
        assert counts.sum() == 6

    @given(arrays(np.uint8, (5, 7)))
    def test_histogram_conserves_pixels(self, pixels):
        assert histogram(make_image(pixels)).sum() == pixels.size

    @staticmethod
    def assert_counts_every_byte(image):
        seen = Counter(image.pixels.tobytes())
        for counts in histograms(image):
            assert counts.dtype == np.int64 and counts.shape == (256,)
            assert counts.tolist() == [seen[level] for level in range(256)]

    # Small shapes, tails of one to three bytes past the counter's groups of
    # four, one pixel short of a full chunk, and one pixel past one and past
    # two full chunks.
    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 2), (2, 1), (3, 5), (1, _CHUNK - 1),
        (1, _CHUNK + 1), (2 * _CHUNK + 1, 1)])
    def test_histogram_matches_byte_counter(self, shape):
        rng = np.random.default_rng(shape)
        self.assert_counts_every_byte(make_image(rng.integers(0, 256, shape, np.uint8)))

    @pytest.mark.parametrize("level", [0, 1, 128, 255])
    def test_histogram_of_one_level(self, level):
        self.assert_counts_every_byte(make_image(np.full((7, 9), level, np.uint8)))

    def test_histogram_of_every_level(self):
        self.assert_counts_every_byte(make_image(np.arange(17 * 257).reshape(17, 257) % 256))

    @given(arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))))
    def test_histogram_matches_bincount(self, pixels):
        want = np.bincount(pixels.ravel(), minlength=256)
        for counts in histograms(make_image(pixels)):
            assert np.array_equal(counts, want)

    def test_histogram_of_unaligned_pixels(self):
        # parse_pgm keeps the pixels in the PGM's buffer, 17 bytes past its
        # start, so the pixels are read from an odd address.
        pixels = np.random.default_rng(9).integers(0, 256, (1024, 1024), np.uint8)
        image = parse_pgm(encode_pgm(make_image(pixels)))
        assert image.pixels.ctypes.data % 2 == 1
        self.assert_counts_every_byte(image)

    @pytest.mark.parametrize("shape", [(2048, 2048), (1, 2 ** 22)])
    @pytest.mark.parametrize("metric", [histogram, shannon_entropy])
    def test_memory_does_not_grow_with_pixels(self, shape, metric):
        # The byte counter allocates no pixel-sized buffer; np.bincount, one
        # chunk's intp copy, where counting the whole image at once casts it
        # to intp: 8 bytes a pixel, 32 MiB here.
        image = make_image(np.random.default_rng(5).integers(0, 256, shape, np.uint8))
        for path in (contextlib.nullcontext(), pure_python()):
            with path:
                assert peak_bytes(lambda: metric(image)) < 4 * 2 ** 20


class TestChiSquare:
    def test_uniform_counts_score_zero(self):
        assert chi_square_uniform(np.full(256, 4, dtype=np.int64)) == 0.0

    def test_hand_case(self):
        # 256 observations over 256 bins, one bin doubled and one emptied:
        # chi2 = (2-1)^2/1 + (0-1)^2/1 = 2.
        counts = np.ones(256, dtype=np.int64)
        counts[0] = 2
        counts[1] = 0
        assert chi_square_uniform(counts) == pytest.approx(2.0)

    def test_requires_at_least_two_bins(self):
        with pytest.raises(DomainError):
            chi_square_uniform(np.array([10], dtype=np.int64))

    def test_requires_observations(self):
        with pytest.raises(DomainError):
            chi_square_uniform(np.zeros(256, dtype=np.int64))

    @pytest.mark.parametrize("counts", [
        [-5, 10], [10, -5], [np.nan, 1], [1, np.inf], [-np.inf, 1]])
    def test_rejects_counts_no_histogram_has(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite and non-negative"):
                chi_square_uniform(counts)

    @pytest.mark.parametrize("counts", [[1e308, 1e308], [1e300, 1e300, 0.0], [5e-324, 0.0]],
                             ids=["total-overflows", "statistic-overflows",
                                  "expected-underflows"])
    def test_refuses_counts_whose_statistic_is_not_finite(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="statistic of these counts is not finite"):
                chi_square_uniform(counts)


CONFIG_2X2 = KeystreamConfig(rows=2, cols=2)


class TestInputs:
    @pytest.mark.parametrize("metric", [
        histogram, shannon_entropy, lambda image: adjacent_correlation(image, "horizontal"),
        pytest.param(lambda image: xor_apply(
            image, Keystream(np.zeros(4, np.uint8), CONFIG_2X2)), id="xor_apply"),
        pytest.param(lambda image: encrypt(image, WORKING_PARAMS, DEFAULT_INITIAL,
                                           CONFIG_2X2), id="encrypt"),
        pytest.param(lambda image: decrypt(image, WORKING_PARAMS, DEFAULT_INITIAL,
                                           CONFIG_2X2), id="decrypt"),
        encode_pgm,
        # os.devnull: a parent that opened the path before refusing writes nothing
        pytest.param(lambda image: write_pgm(image, os.devnull), id="write_pgm")])
    def test_bare_array_is_refused(self, metric):
        with pytest.raises(DomainError, match="image must be a GrayImage, got ndarray"):
            metric(np.zeros((2, 2), np.uint8))

    @pytest.mark.parametrize("counts", [["a", "b"], [[1, 2], [3]], [1 + 2j, 3]])
    def test_chi_square_refuses_counts_that_are_not_real_numbers(self, counts):
        with pytest.raises(DomainError, match="integers or floats"):
            chi_square_uniform(counts)


class TestEfficiencyIndex:
    def test_single_entry_scores_one(self):
        out = efficiency_index([PUBLISHED_WORKS[0]])
        assert out == [pytest.approx(1.0)]

    def test_tied_entries_both_score_one(self):
        a = WorkScores("a", 0.001, 0.002, 0.003, 7.99)
        b = WorkScores("b", 0.001, 0.002, 0.003, 7.99)
        out = efficiency_index([a, b])
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(1.0)

    def test_published_benchmark_values(self):
        out = efficiency_index(PUBLISHED_WORKS)
        assert out[0] == pytest.approx(0.7687, abs=5e-4)
        assert out[1] == pytest.approx(0.3778, abs=5e-4)
        assert out[2] == pytest.approx(0.5652, abs=5e-4)
        assert out[3] == pytest.approx(0.7198, abs=5e-4)

    def test_published_values_keep_their_bits(self):
        # The bits the index had while it was computed on numpy arrays.
        assert [v.hex() for v in efficiency_index(PUBLISHED_WORKS)] == [
            "0x1.898f5c182eaf8p-1", "0x1.82e8b3d6ed592p-2",
            "0x1.21676870a2acap-1", "0x1.708658d786d3cp-1"]

    def test_zero_correlation_rejected(self):
        rows = [PUBLISHED_WORKS[0],
                WorkScores("degenerate", 0.0, 0.001, 0.001, 7.9)]
        with pytest.raises(DomainError):
            efficiency_index(rows)

    @pytest.mark.parametrize("work", [
        1, SimpleNamespace(label="a", corr_h=0.001, corr_v=0.001, corr_d=0.001, entropy=7.9)],
        ids=["int", "look-alike"])
    def test_refuses_an_entry_that_is_not_workscores(self, work):
        with pytest.raises(DomainError, match="each of scores must be a WorkScores, got "
                                              f"{type(work).__name__}"):
            efficiency_index([PUBLISHED_WORKS[0], work])

    @pytest.mark.parametrize("scores, kind", [
        (iter(PUBLISHED_WORKS), "list_iterator"), (5, "int"), (None, "NoneType")],
        ids=["iterator", "int", "None"])
    def test_refuses_scores_that_are_not_a_list_or_tuple(self, scores, kind):
        with pytest.raises(DomainError, match=f"scores must be a list or tuple, got {kind}"):
            efficiency_index(scores)

    def test_accepts_a_tuple(self):
        assert efficiency_index(tuple(PUBLISHED_WORKS)) == efficiency_index(PUBLISHED_WORKS)

    def test_empty_table_and_zero_entropy_rejected(self):
        with pytest.raises(DomainError, match="at least one work"):
            efficiency_index([])
        rows = [PUBLISHED_WORKS[0], WorkScores("blank", 0.001, 0.001, 0.001, 0.0)]
        with pytest.raises(DomainError, match="'blank' has non-positive entropy"):
            efficiency_index(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -1.0001])
    def test_correlation_outside_unit_interval_rejected(self, bad):
        for i in range(3):
            values = [0.001, 0.001, 0.001]
            values[i] = bad
            with pytest.raises(DomainError):
                WorkScores("bad", *values, 7.9)

    @pytest.mark.parametrize("args, message", [
        (("a", "0.1", 0.0, 0.0, 1.0), "work 'a' corr_h is a str, not a real number"),
        (("a", True, 0.1, 0.1, 7.0), "work 'a' corr_h is a bool, not a real number"),
        (("a", 0.1, 0.1, 0.1, "7"), "work 'a' entropy is a str, not a real number"),
        ((5, 0.1, 0.1, 0.1, 7.0), "label must be a str, got int")],
        ids=["str-number", "bool-number", "str-entropy", "int-label"])
    def test_refuses_a_field_of_the_wrong_type(self, args, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            WorkScores(*args)

    def test_numbers_are_stored_as_floats(self):
        work = WorkScores("a", 0, 1, -1, 8)
        assert [type(v) for v in (work.corr_h, work.corr_v, work.corr_d, work.entropy)] == [float] * 4

    def test_entropy_above_eight_rejected(self):
        with pytest.raises(DomainError):
            WorkScores("bad", 0.001, 0.001, 0.001, 8.5)

    def test_scores_lie_in_unit_interval(self):
        for value in efficiency_index(PUBLISHED_WORKS):
            assert 0.0 < value <= 1.0

    def test_relabeling_does_not_change_values(self):
        renamed = [WorkScores(f"r{i}", s.corr_h, s.corr_v, s.corr_d, s.entropy)
                   for i, s in enumerate(PUBLISHED_WORKS)]
        assert efficiency_index(renamed) == pytest.approx(
            efficiency_index(PUBLISHED_WORKS))

    def test_oracle_on_random_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rows = [WorkScores(f"w{i}",
                               float(rng.uniform(1e-4, 0.01)),
                               float(rng.uniform(1e-4, 0.01)),
                               float(rng.uniform(1e-4, 0.01)),
                               float(rng.uniform(7.5, 8.0)))
                    for i in range(rng.integers(1, 8))]
            got = efficiency_index(rows)
            ch = min(abs(r.corr_h) for r in rows)
            cv = min(abs(r.corr_v) for r in rows)
            cd = min(abs(r.corr_d) for r in rows)
            en = max(r.entropy for r in rows)
            for value, r in zip(got, rows):
                want = (ch / abs(r.corr_h) + cv / abs(r.corr_v)
                        + cd / abs(r.corr_d) + r.entropy / en) / 4.0
                assert value == want

"""Metric unit tests with exact hand cases and a brute-force oracle.

The oracle recomputes every statistic from the definition using plain
Python loops, so any vectorization slip in the library shows up as a
numeric mismatch rather than a silent bias.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PUBLISHED_WORKS, make_image
from lorenzcipher import (DIRECTIONS, DomainError, LorenzCipherError,
                          WorkScores, adjacent_correlation,
                          chi_square_uniform, efficiency_index, histogram,
                          shannon_entropy)
from lorenzcipher.metrics import _pair_series

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


def reference_correlation(image, direction):
    """The correlation as computed from float64 copies of both series.

    Two float64 copies, two centred copies and three product arrays: the
    straightforward population form, kept as the oracle that the buffered
    library version must match bit for bit.
    """
    x, y = _pair_series(image, direction)
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


def outcome(correlation, image, direction):
    """The float bits, or the type and text of the error raised."""
    try:
        return correlation(image, direction).hex()
    except LorenzCipherError as exc:
        return type(exc), str(exc)


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
            assert (outcome(adjacent_correlation, image, direction)
                    == outcome(reference_correlation, image, direction))

    def test_matches_reference_on_large_images(self):
        rng = np.random.default_rng(12)
        side = 1024
        noise = rng.integers(0, 256, (side, side), dtype=np.uint8)
        # Blocky noise under a box blur: a strongly correlated texture.
        coarse = rng.integers(0, 256, (side // 16 + 1,) * 2)
        up = np.repeat(np.repeat(coarse, 16, 0), 16, 1)[:side, :side]
        c = np.pad(np.pad(up, 8, mode="edge"), ((1, 0), (1, 0))).cumsum(0).cumsum(1)
        smooth = (c[17:, 17:] - c[:-17, 17:] - c[17:, :-17] + c[:-17, :-17]) // 289
        for pixels in (noise, smooth):
            image = make_image(pixels)
            for direction in DIRECTIONS:
                got = adjacent_correlation(image, direction)
                assert got == reference_correlation(image, direction)
                assert type(got) is float


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

    def test_zero_correlation_rejected(self):
        rows = [PUBLISHED_WORKS[0],
                WorkScores("degenerate", 0.0, 0.001, 0.001, 7.9)]
        with pytest.raises(DomainError):
            efficiency_index(rows)

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
                assert value == pytest.approx(want, rel=1e-12)

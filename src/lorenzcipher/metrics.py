"""Cipher quality metrics: adjacent-pixel correlation, Shannon entropy,
histogram, chi-square uniformity, and the cross-work efficiency index."""

from __future__ import annotations

from dataclasses import dataclass

from . import lorenz
from .cipher import _IS_IMAGE, GrayImage
from .errors import DomainError, _require_choice, _require_type, _store_floats

__all__ = [
    "DIRECTIONS",
    "WorkScores",
    "adjacent_correlation",
    "shannon_entropy",
    "histogram",
    "chi_square_uniform",
    "efficiency_index",
]

DIRECTIONS = ("horizontal", "vertical", "diagonal")


@dataclass(frozen=True)
class WorkScores:
    """One work's published quality numbers, as fed to the efficiency index."""

    label: str
    corr_h: float
    corr_v: float
    corr_d: float
    entropy: float

    def __post_init__(self):
        _require_type(self.label, str, "label must be a str")
        _store_floats(self, f"work {self.label!r}", ("corr_h", "corr_v", "corr_d", "entropy"))
        for name, lo, hi in (("corr_h", -1, 1), ("corr_v", -1, 1),
                             ("corr_d", -1, 1), ("entropy", 0, 8)):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise DomainError(f"{name} must be in [{lo}, {hi}], got {value!r}")


# The (row, col) offset from each pixel to its neighbour, per direction.
_OFFSETS = dict(zip(DIRECTIONS, ((0, 1), (1, 0), (1, 1))))

# Pairs per block of adjacent_correlation's numpy path, whose two float64
# buffers of this length (512 KiB) stay in cache; _kernel.c's BLOCK repeats
# it. It must be at least 128: numpy splits no sum of up to 128 items, so a
# smaller block would split where numpy does not.
_BLOCK = 2 ** 15

# Pixels per np.bincount call of histogram without the compiled counter,
# which casts them to an intp copy of 1 MiB; one bincount of a whole
# 4096x4096 image would copy 128 MiB.
_CHUNK = 2 ** 17


def _tree_sum(leaf, lo: int, n: int):
    """numpy's sum of items lo .. lo + n - 1 of a contiguous float64 array,
    with each subtree of at most _BLOCK items summed by leaf(lo, n).

    numpy sums such an array along a fixed pairwise tree: above 128 items it
    splits n at n // 2 - (n // 2) % 8 and adds the sums of the two halves.
    """
    if n <= _BLOCK:
        return leaf(lo, n)
    half = n // 2 - (n // 2) % 8
    return _tree_sum(leaf, lo, half) + _tree_sum(leaf, lo + half, n - half)


def _centre(out: np.ndarray, series: np.ndarray, mean: float, lo: int) -> None:
    """out[k] = float64(series.flat[lo + k]) - mean, converting only the
    pairs out holds: a partial first row, whole rows, a partial last row."""
    import numpy as np
    n = out.size
    cols = series.shape[1]
    i, j = divmod(lo, cols)
    head = min(n, cols - j)
    rows, tail = divmod(n - head, cols)
    np.subtract(series[i, j:j + head], mean, out=out[:head], dtype=np.float64)
    if rows:
        np.subtract(series[i + 1:i + 1 + rows], mean, dtype=np.float64,
                    out=out[head:n - tail].reshape(rows, cols))
    if tail:
        np.subtract(series[i + 1 + rows, :tail], mean, out=out[n - tail:],
                    dtype=np.float64)


def _numpy_moments(p: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """The population moment sums (sxx, syy, sxy) of the pairs p[i, j],
    p[i + dr, j + dc] with numpy, where _kernel.c's pair_moments is not
    loaded: each mean an exact integer sum divided once, and each moment
    numpy's own pairwise float64 sum in row-major order, taken block by block
    along its tree, so memory does not grow with the pair count."""
    import numpy as np
    rows, cols = p.shape
    x, y = p[:rows - dr, :cols - dc], p[dr:, dc:]
    m = x.size
    # Both exact sums from one sum of the image: x leaves out the last dr
    # rows and dc columns, y the first ones.
    total = p.sum(dtype=np.int64)
    mx = float(total - p[rows - dr:].sum(dtype=np.int64)
               - p[:rows - dr, cols - dc:].sum(dtype=np.int64)) / m
    my = float(total - p[:dr].sum(dtype=np.int64)
               - p[dr:, :dc].sum(dtype=np.int64)) / m
    bufs = np.empty((2, min(m, _BLOCK)))

    def moments(lo, n):
        # sum (x-mx)^2, (y-my)^2 and (x-mx)(y-my) over pairs lo .. lo+n-1
        a, b = bufs[:, :n]
        _centre(a, x, mx, lo)
        np.square(a, out=b)
        sxx = b.sum()
        _centre(b, y, my, lo)
        a *= b
        b *= b
        return np.array([sxx, b.sum(), a.sum()])

    return _tree_sum(moments, 0, m)


def adjacent_correlation(image: GrayImage, direction: str) -> float:
    """Correlation between each pixel and its neighbor in `direction`.

    All adjacent pairs are used (no sampling): horizontal pairs are
    (i,j)-(i,j+1), vertical (i,j)-(i+1,j), diagonal (i,j)-(i+1,j+1).
    Population (divide-by-m) moments over the m pairs, summed in one pass of
    the compiled pair_moments or else with numpy, bit for bit alike and in
    memory that does not grow with m. Bit-identical to the oracle in
    tests/test_metrics.py.
    """
    import numpy as np
    _require_type(image, GrayImage, _IS_IMAGE)
    _require_choice(direction, DIRECTIONS, "direction")
    p = image.pixels
    dr, dc = _OFFSETS[direction]
    rows, cols = p.shape
    if rows <= dr or cols <= dc:
        raise DomainError(f"{direction} pairs need an image of at least "
                          f"{dr + 1}x{dc + 1}, got {rows}x{cols}")
    m = (rows - dr) * (cols - dc)
    pair_moments = lorenz._load_kernel()[2]
    if pair_moments is None:
        sums = _numpy_moments(p, dr, dc)
    else:
        # The pixels are C-contiguous, so both series go by address.
        sums = np.empty(3)
        pair_moments(p.ctypes.data, p.ctypes.data + dr * cols + dc, rows - dr, cols - dc,
                     cols, sums.ctypes.data)
    sxx, syy, sxy = sums
    sx = np.sqrt(sxx / m)
    sy = np.sqrt(syy / m)
    if sx == 0.0 or sy == 0.0:
        raise DomainError(
            "correlation undefined: a series has zero standard deviation")
    r = float(sxy / m / (sx * sy))
    # One rounding step can push |r| a few ulp past 1; the result is a
    # correlation and must stay in [-1, 1].
    return min(1.0, max(-1.0, r))


def histogram(image: GrayImage) -> np.ndarray:
    """Count of each intensity 0..255; counts sum to the pixel count.

    One call of the compiled byte counter over the pixels, or without it
    np.bincount over bounded chunks, so memory does not grow with the image.
    """
    import numpy as np
    _require_type(image, GrayImage, _IS_IMAGE)
    pixels = image.pixels
    counts = np.zeros(256, dtype=np.int64)
    count_bytes = lorenz._load_kernel()[1]
    if count_bytes is not None:
        # The pixels are C-contiguous and read-only, so they go by address.
        count_bytes(pixels.ctypes.data, pixels.size, counts.ctypes.data)
        return counts
    flat = pixels.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        counts += np.bincount(flat[lo:lo + _CHUNK], minlength=256)
    return counts


def _entropy(counts: np.ndarray) -> float:
    """shannon_entropy of an image from its histogram."""
    import numpy as np
    total = counts.sum()
    p = counts[counts > 0] / total
    # + 0.0 turns the -0.0 of single-level images into +0.0
    return float(-(p * np.log2(p)).sum() + 0.0)


def shannon_entropy(image: GrayImage) -> float:
    """H = sum of P_i * log2(1/P_i) over intensity levels, in [0, 8] bits.

    Levels with zero probability contribute zero.
    """
    return _entropy(histogram(image))


def chi_square_uniform(counts: np.ndarray) -> float:
    """Chi-square statistic of `counts` against a uniform distribution."""
    import numpy as np
    try:
        counts = np.asarray(counts)
    except ValueError:  # a ragged nesting of sequences
        counts = None
    if counts is None or counts.dtype.kind not in "iuf":
        raise DomainError("chi-square counts must be an array of integers or floats")
    counts = counts.astype(np.float64)
    if not (np.isfinite(counts) & (counts >= 0)).all():
        raise DomainError("chi-square counts must be finite and non-negative")
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
        total = counts.sum()
        if counts.size < 2 or total <= 0:
            raise DomainError("chi-square needs >= 2 bins with a positive total")
        expected = total / counts.size
        statistic = float(((counts - expected) ** 2 / expected).sum())
    if not np.isfinite(statistic):  # also an infinite total
        raise DomainError("chi-square statistic of these counts is not finite")
    return statistic


def efficiency_index(scores: list[WorkScores]) -> list[float]:
    """Mean best-value ratio over the four categories, one Ic per work.

    For each correlation category the best value M is the smallest magnitude
    across works and a work's ratio is M / |V|; for entropy the best value is
    the largest and the ratio is V / M. Every ratio is in (0, 1], the best
    work in a category scores exactly 1 there, and Ic is the arithmetic mean
    of the four ratios.
    """
    _require_type(scores, (list, tuple), "scores must be a list or tuple")
    if not scores:
        raise DomainError("efficiency_index needs at least one work")
    for s in scores:
        _require_type(s, WorkScores, "each of scores must be a WorkScores")
        for field in ("corr_h", "corr_v", "corr_d"):
            if getattr(s, field) == 0.0:
                raise DomainError(
                    f"work {s.label!r} has a zero {field}; a literally zero "
                    f"correlation would dominate the index and is surfaced, "
                    f"not clamped")
        if s.entropy <= 0.0:
            raise DomainError(f"work {s.label!r} has non-positive entropy")
    ch = min(abs(s.corr_h) for s in scores)
    cv = min(abs(s.corr_v) for s in scores)
    cd = min(abs(s.corr_d) for s in scores)
    en = max(s.entropy for s in scores)
    return [float(ch / abs(s.corr_h) + cv / abs(s.corr_v) + cd / abs(s.corr_d)
                  + s.entropy / en) / 4.0 for s in scores]

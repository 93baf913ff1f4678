import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


def full_orbits(initial, params, n):
    """Both orbits as one (n, 2, 3) array, [sample, variant A=0 / B=1, x/y/z],
    from one integrate_pair call per component."""
    from lorenzcipher import integrate_pair
    return np.stack([integrate_pair(initial, params, n, c) for c in "xyz"], axis=2)


def make_image(values):
    """Build a GrayImage from a nested list or array of small ints."""
    from lorenzcipher import GrayImage
    return GrayImage.from_array(np.asarray(values, dtype=np.uint8))

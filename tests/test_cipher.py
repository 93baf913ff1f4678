"""XOR cipher unit tests: involution, shape rules, keystream recovery; and
the package namespace the cipher is used through."""

import dataclasses
import importlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lorenzcipher
from conftest import WORKING_PARAMS
from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, DomainError,
                          ExtensionVariant, GrayImage, Keystream,
                          KeystreamConfig, KeystreamQualityWarning,
                          LorenzState, decrypt, encrypt, generate_keystream,
                          reference_image, rk4_step, xor_apply)


def key_from_bytes(data):
    data = np.asarray(data, dtype=np.uint8)
    config = KeystreamConfig(rows=1, cols=data.size)
    return Keystream(data, config)


def image_and_key(pixels):
    img = GrayImage.from_array(np.asarray(pixels, dtype=np.uint8))
    return img


class TestGrayImage:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(DomainError):
            GrayImage.from_array(np.zeros((0, 4), dtype=np.uint8))

    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            GrayImage.from_array(np.zeros(16, dtype=np.uint8))

    def test_rejects_float_pixels(self):
        with pytest.raises(DomainError):
            GrayImage.from_array(np.zeros((2, 2), dtype=np.float64))

    def test_rejects_out_of_range_integers(self):
        with pytest.raises(DomainError):
            GrayImage.from_array(np.array([[0, 256]]))
        with pytest.raises(DomainError):
            GrayImage.from_array(np.array([[-1, 0]]))

    def test_rejects_a_ragged_nesting(self):
        with pytest.raises(DomainError, match="pixels must be a rectangular array of integers"):
            GrayImage.from_array([[1, [2]]])

    def test_accepts_in_range_integers(self):
        img = GrayImage.from_array(np.array([[0, 255], [7, 130]]))
        assert img.pixels.dtype == np.uint8
        assert img.rows == 2 and img.cols == 2

    def test_pixels_are_read_only(self):
        img = GrayImage.from_array(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1
        # Already read-only and C-contiguous: neither the constructor nor
        # from_array copies it.
        assert GrayImage(img.pixels).pixels is img.pixels
        assert GrayImage.from_array(img.pixels).pixels is img.pixels

    def test_constructor_stores_a_read_only_copy(self):
        source = np.zeros((2, 2), np.uint8)
        img = GrayImage(source)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 7
        source[0, 0] = 7
        assert img.pixels[0, 0] == 0
        assert img.pixels.flags.c_contiguous

    def test_constructor_copies_a_strided_view(self):
        source = np.arange(12, dtype=np.uint8).reshape(3, 4)
        source.setflags(write=False)
        img = GrayImage(source[:, ::2])
        assert img.pixels.flags.c_contiguous and not img.pixels.flags.writeable
        assert img.pixels.tolist() == [[0, 2], [4, 6], [8, 10]]

    def test_shape_is_read_from_pixels(self):
        # rows and cols are not fields, so no declared shape can disagree
        # with the pixels or be a bool or a float.
        img = GrayImage(np.zeros((1, 2), np.uint8))
        assert (img.rows, img.cols) == (1, 2)
        assert type(img.rows) is int and type(img.cols) is int
        with pytest.raises(TypeError):
            GrayImage(rows=True, cols=2.0, pixels=np.zeros((1, 2), np.uint8))

    def test_constructor_rejects_bad_pixel_arrays(self):
        for pixels in (np.zeros(4, np.uint8), np.zeros((1, 2, 2), np.uint8),
                       np.zeros((0, 2), np.uint8), np.zeros((1, 2), np.int64),
                       [[1, 2]]):
            with pytest.raises(DomainError):
                GrayImage(pixels)


class TestIdentityEquality:
    """GrayImage and Keystream hold arrays, so == and hash are identity,
    as for the arrays: a field-wise == would ask numpy for one truth value
    of a whole array, and a field-wise hash would hash the array."""

    def values(self):
        a, b = (np.arange(6, dtype=np.uint8).reshape(2, 3) for _ in range(2))
        return [GrayImage(a), GrayImage(b), key_from_bytes(a.ravel()),
                key_from_bytes(b.ravel())]

    def test_compare_and_hash_never_raise(self):
        img, same_pixels, key, same_data = self.values()
        assert img == img and not img != img and img != same_pixels
        assert key == key and not key != key and key != same_data
        assert img in [same_pixels, img] and img not in [same_pixels, key]
        assert key in [same_data, key] and key not in [same_data]
        assert len({img, same_pixels, key, same_data, img, key}) == 4
        assert hash(img) == hash(img) and hash(key) == hash(key)

    def test_replace_builds_a_new_keystream(self):
        key = key_from_bytes([1, 2, 3])
        other = dataclasses.replace(key, data=np.array([4, 5, 6], np.uint8))
        assert other.config is key.config and other.data.tolist() == [4, 5, 6]
        assert key.data.tolist() == [1, 2, 3]


class TestXorApply:
    def test_zero_image_yields_key_bytes(self):
        img = image_and_key(np.zeros((2, 3), dtype=np.uint8))
        key = key_from_bytes([1, 2, 3, 4, 5, 6])
        key = Keystream(key.data, KeystreamConfig(rows=2, cols=3))
        out = xor_apply(img, key)
        assert out.pixels.ravel().tolist() == [1, 2, 3, 4, 5, 6]

    def test_complement_byte(self):
        img = image_and_key([[0xAA]])
        key = key_from_bytes([0xFF])
        assert xor_apply(img, key).pixels[0, 0] == 0x55

    def test_dimension_mismatch_names_both_shapes(self):
        img = image_and_key(np.zeros((3, 4), dtype=np.uint8))
        key_cfg = KeystreamConfig(rows=2, cols=2)
        key = Keystream(np.zeros(4, dtype=np.uint8), key_cfg)
        with pytest.raises(DomainError, match=r"key is 2x2 but image is 3x4"):
            xor_apply(img, key)

    def test_keystream_recoverability(self):
        rng = np.random.default_rng(5)
        img = image_and_key(rng.integers(0, 256, (8, 8), dtype=np.uint8))
        key = Keystream(rng.integers(0, 256, 64, dtype=np.uint8),
                        KeystreamConfig(rows=8, cols=8))
        cipher = xor_apply(img, key)
        recovered = cipher.pixels ^ img.pixels
        assert recovered.ravel().tolist() == key.data.tolist()

    @given(arrays(np.uint8, (6, 9)), arrays(np.uint8, 54))
    def test_involution_and_shape_preservation(self, pixels, key_bytes):
        img = GrayImage.from_array(pixels)
        key = Keystream(key_bytes, KeystreamConfig(rows=6, cols=9))
        cipher = xor_apply(img, key)
        assert (cipher.rows, cipher.cols) == (img.rows, img.cols)
        assert not cipher.pixels.flags.writeable and cipher.pixels.flags.c_contiguous
        assert not np.shares_memory(cipher.pixels, img.pixels)
        back = xor_apply(cipher, key)
        assert np.array_equal(back.pixels, img.pixels)


class TestEncryptDecrypt:
    def test_round_trip_is_pixel_exact(self):
        rng = np.random.default_rng(11)
        img = GrayImage.from_array(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        config = KeystreamConfig(rows=16, cols=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KeystreamQualityWarning)
            cipher = encrypt(img, WORKING_PARAMS, DEFAULT_INITIAL, config)
            back = decrypt(cipher, WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert not np.array_equal(cipher.pixels, img.pixels)
        assert np.array_equal(back.pixels, img.pixels)

    def test_1x1_origin_initial_is_identity(self):
        img = GrayImage.from_array(np.array([[123]], dtype=np.uint8))
        config = KeystreamConfig(rows=1, cols=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KeystreamQualityWarning)
            cipher = encrypt(img, DEFAULT_PARAMS, LorenzState(0.0, 0.0, 0.0),
                             config)
        assert cipher.pixels[0, 0] == 123

    def test_config_image_mismatch_is_rejected(self):
        img = GrayImage.from_array(np.zeros((4, 4), dtype=np.uint8))
        config = KeystreamConfig(rows=8, cols=8)
        with pytest.raises(DomainError, match="config is 8x8 but image is 4x4"):
            encrypt(img, WORKING_PARAMS, DEFAULT_INITIAL, config)


class TestPackageApi:
    MODULES = [importlib.import_module(f"lorenzcipher.{name}") for name in (
        "cipher", "errors", "keystream", "lorenz", "metrics", "pgm")]

    def test_namespace_is_the_modules_declared_api(self):
        declared = [name for module in self.MODULES for name in module.__all__]
        assert len(set(declared)) == len(declared)
        assert sorted(lorenzcipher.__all__) == sorted(declared)

    def test_every_public_name_resolves_to_its_module_object(self):
        for module in self.MODULES:
            for name in module.__all__:
                assert getattr(lorenzcipher, name) is getattr(module, name)

    def test_numpy_reference_is_reached_through_its_modules_only(self):
        # The tests' reference pipeline, which no keystream runs.
        for name, module in (("integrate_pair", "lorenz"), ("lower_bound_error", "keystream"),
                             ("extract_bytes", "keystream")):
            assert not hasattr(lorenzcipher, name) and name not in lorenzcipher.__all__
            assert callable(getattr(importlib.import_module(f"lorenzcipher.{module}"), name))

    def test_star_import_binds_only_the_public_names(self):
        namespace = {}
        exec("from lorenzcipher import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(lorenzcipher.__all__)


@pytest.mark.parametrize("rows, cols, message", [
    (2.5, 3, "rows must be an int, got float"), (True, 3, "rows must be an int, got bool"),
    ("a", 3, "rows must be an int, got str"), (3, 0, "cols must be >= 1, got 0")],
    ids=["float", "bool", "str", "zero"])
def test_reference_image_refuses_a_size_that_is_not_a_count(rows, cols, message):
    with pytest.raises(DomainError, match=message):
        reference_image(rows, cols)


def duck_params(h):
    return SimpleNamespace(sigma=16.0, rho=45.92, beta=4.0, h=h)


def duck_config(component):
    return SimpleNamespace(rows=2, cols=2, transient=0, strategy="mantissa-lsb",
                           component=component, n_samples=4)


IMAGE_2X2 = GrayImage.from_array(np.zeros((2, 2), np.uint8))
CONFIG_2X2 = KeystreamConfig(rows=2, cols=2, transient=0)
WRONG_KEY_ARGUMENTS = {
    # A look-alike params skipped LorenzParams' checks: h = 0 gave an
    # all-zero keystream, and a string h reached the kernel.
    "generate_keystream-params-h-zero": (
        lambda: generate_keystream(duck_params(0.0), DEFAULT_INITIAL, CONFIG_2X2),
        "params must be a LorenzParams, got SimpleNamespace"),
    "generate_keystream-params-h-str": (
        lambda: generate_keystream(duck_params("0.01"), DEFAULT_INITIAL, CONFIG_2X2),
        "params must be a LorenzParams, got SimpleNamespace"),
    "generate_keystream-initial": (
        lambda: generate_keystream(WORKING_PARAMS, (1.0, 0.5, 0.9), CONFIG_2X2),
        "initial must be a LorenzState, got tuple"),
    "generate_keystream-config-component-q": (
        lambda: generate_keystream(WORKING_PARAMS, DEFAULT_INITIAL, duck_config("q")),
        "config must be a KeystreamConfig, got SimpleNamespace"),
    "xor_apply-key": (
        lambda: xor_apply(IMAGE_2X2, np.zeros(4, np.uint8)),
        "key must be a Keystream, got ndarray"),
    "encrypt-params": (
        lambda: encrypt(IMAGE_2X2, duck_params(0.01), DEFAULT_INITIAL, CONFIG_2X2),
        "params must be a LorenzParams, got SimpleNamespace"),
    "encrypt-config": (
        lambda: encrypt(IMAGE_2X2, WORKING_PARAMS, DEFAULT_INITIAL, duck_config("y")),
        "config must be a KeystreamConfig, got SimpleNamespace"),
    "decrypt-initial": (
        lambda: decrypt(IMAGE_2X2, WORKING_PARAMS, SimpleNamespace(x=1.0, y=0.5, z=0.9),
                        CONFIG_2X2),
        "initial must be a LorenzState, got SimpleNamespace"),
    "rk4_step-state": (
        lambda: rk4_step((1.0, 0.5, 0.9), WORKING_PARAMS, ExtensionVariant.A),
        "state must be a LorenzState, got tuple"),
    "rk4_step-params-h-zero": (
        lambda: rk4_step(DEFAULT_INITIAL, duck_params(0.0), ExtensionVariant.A),
        "params must be a LorenzParams, got SimpleNamespace"),
}


@pytest.mark.parametrize("call, message", WRONG_KEY_ARGUMENTS.values(),
                         ids=WRONG_KEY_ARGUMENTS.keys())
def test_wrong_key_argument_type_is_refused(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(message)):
            call()

"""Chaotic XOR image cipher keyed by Lorenz pseudo-orbit divergence.

Two algebraically equivalent forms of the Lorenz y-derivative are
integrated in lockstep with classical RK4; their floating-point rounding
divergence yields an error-bound signal that is turned into an 8-bit
keystream and XORed onto grayscale images. Quality metrics and a small
CLI round out the package.
"""

from .cipher import GrayImage, decrypt, encrypt, xor_apply
from .errors import (DimensionMismatchError, DomainError, FileFormatError,
                     IntegrationBlowupError, LorenzCipherError, PgmError,
                     UndefinedCorrelationError)
from .keystream import (Keystream, KeystreamConfig, KeystreamQualityWarning,
                        extract_bytes, generate_keystream, lower_bound_error)
from .lorenz import (DEFAULT_INITIAL, DEFAULT_PARAMS, ExtensionVariant,
                     LorenzParams, LorenzState, integrate_pair,
                     kernel_backend, rk4_step)
from .metrics import (DIRECTIONS, WorkScores, adjacent_correlation,
                      chi_square_uniform, efficiency_index, histogram,
                      shannon_entropy)
from .pgm import encode_pgm, parse_pgm, read_pgm, write_pgm
from .reference import reference_image

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_INITIAL",
    "DEFAULT_PARAMS",
    "DIRECTIONS",
    "DimensionMismatchError",
    "DomainError",
    "ExtensionVariant",
    "FileFormatError",
    "GrayImage",
    "IntegrationBlowupError",
    "Keystream",
    "KeystreamConfig",
    "KeystreamQualityWarning",
    "LorenzCipherError",
    "LorenzParams",
    "LorenzState",
    "PgmError",
    "UndefinedCorrelationError",
    "WorkScores",
    "adjacent_correlation",
    "chi_square_uniform",
    "decrypt",
    "efficiency_index",
    "encode_pgm",
    "encrypt",
    "extract_bytes",
    "generate_keystream",
    "histogram",
    "integrate_pair",
    "kernel_backend",
    "lower_bound_error",
    "parse_pgm",
    "read_pgm",
    "reference_image",
    "rk4_step",
    "shannon_entropy",
    "write_pgm",
    "xor_apply",
]

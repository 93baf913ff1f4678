"""Chaotic XOR image cipher keyed by Lorenz pseudo-orbit divergence.

Two algebraically equivalent forms of the Lorenz y-derivative are
integrated in lockstep with classical RK4; their floating-point rounding
divergence yields an error-bound signal that is turned into an 8-bit
keystream and XORed onto grayscale images. Quality metrics and a small
CLI round out the package.

`__all__` joins the `__all__` lists of the library modules, so each public
name is declared once, in the module that defines it. Every module loads
with the package, and none imports numpy until a function that uses it
runs: only the CLI's analyze and experiment load it. encrypt, decrypt and
keystream load none of numpy, platform, json, csv or numbers, and index only
csv of them.
"""

from . import cipher, errors, keystream, lorenz, metrics, pgm
from .cipher import *
from .errors import *
from .keystream import *
from .lorenz import *
from .metrics import *
from .pgm import *

__version__ = "0.1.0"

__all__ = (cipher.__all__ + errors.__all__ + keystream.__all__ + lorenz.__all__
           + metrics.__all__ + pgm.__all__)

"""Randomness extraction with error-correcting-code compression.

The package models a spintronic entropy source, compresses its biased
output through the parity structure of binary BCH codes, and checks the
result with a counting battery of statistical tests. Compression and
error correction share one generator polynomial per code, so the same
registry drives both.
"""

from . import bitio, codes, source, stats, whiten
from .bitio import *
from .codes import *
from .source import *
from .stats import *
from .whiten import *

__version__ = "0.1.0"

# Public names are declared once, in each module's __all__.
__all__ = [
    *bitio.__all__,
    *codes.__all__,
    *source.__all__,
    *stats.__all__,
    *whiten.__all__,
]

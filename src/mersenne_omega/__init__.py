"""Factorizations, primitive divisors, and prime-factor-count
classification for Mersenne numbers 2^n - 1 over desk-scale ranges."""

from . import arith, census, classify, cyclotomic, factoring, storage
from .arith import *
from .census import *
from .classify import *
from .cyclotomic import *
from .factoring import *
from .storage import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        *arith.__all__,
        *census.__all__,
        *classify.__all__,
        *cyclotomic.__all__,
        *factoring.__all__,
        *storage.__all__,
    }
)

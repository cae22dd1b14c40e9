"""Exact-arithmetic invariants of linear S^3-bundles over S^4 and separation
certificates for path components of their moduli spaces of metrics."""

from . import bundle, classify, exactnum, moduli, space
from .bundle import *
from .classify import *
from .exactnum import *
from .moduli import *
from .space import *

__version__ = "0.1.0"

__all__ = bundle.__all__ + classify.__all__ + exactnum.__all__ + moduli.__all__ + space.__all__

"""Exact quantum evolution under scalar linear potentials, an independent
split-step Fourier solver, and the experiments built on both: Gaussian-packet
tunneling at linear-front barriers, a three-capacitor phase-shift generator,
Stern-Gerlach splitting, and the composed spin-flip gate.

The top-level names are those each module lists in its ``__all__``.
"""

from . import analytic, core, devices, oracle, tunneling
from .analytic import *
from .core import *
from .devices import *
from .oracle import *
from .tunneling import *

__all__ = [
    *analytic.__all__,
    *core.__all__,
    *devices.__all__,
    *oracle.__all__,
    *tunneling.__all__,
]

__version__ = "0.1.0"

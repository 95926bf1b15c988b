"""Transmuted geometric distribution TGD(q, alpha).

Exact evaluation of the distribution and its reliability functions, a
verified moment pipeline, two independent seedable samplers, four
estimation procedures, and brute-force oracles for auditing all of it.

The public surface is the ``__all__`` list of each module (``core``,
``estimate``, ``moments``, ``oracle``, ``sampling``); the package re-exports
every name in them, and a new public name is listed there alone.
"""

from . import core, estimate, moments, oracle, sampling
from .core import *  # noqa: F403
from .estimate import *  # noqa: F403
from .moments import *  # noqa: F403
from .oracle import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *estimate.__all__, *moments.__all__, *oracle.__all__,
           *sampling.__all__, "__version__"]

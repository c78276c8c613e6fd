"""Two-photon generalized binomial states in a lossless single-mode cavity.

Exact state algebra on truncated Fock spaces, closed-form resonant atom-cavity
dynamics with a matrix-exponential cross-check, the two-atom generation
pipeline with post-selection, single-shot readout of the orthogonal state
pair, interaction-time optimization, a timing-jitter error model, and the
su(2) eigenbasis structure carried by the lowest three photon levels.
"""

# Each layer's __all__ is its public API; the package re-exports all of them.
from . import angular, constants, dynamics, protocol, states
from .angular import *
from .constants import *
from .dynamics import *
from .protocol import *
from .states import *

__version__ = "0.1.0"

__all__ = ["__version__", *constants.__all__, *states.__all__, *dynamics.__all__,
           *protocol.__all__, *angular.__all__]

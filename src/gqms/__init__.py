"""Gaussian quantum Markov semigroup toolkit.

Builds GKLS generators from Gaussian matrix data on truncated Fock
spaces, constructs and certifies the Kossakowski matrix, and probes
irreducibility and positivity improvement numerically at desk scale.
"""

__version__ = "0.1.0"

from .diagnostics import positivity_improving_probe
from .fock import build_space
from .generator import build_lindbladian, build_operators
from .model import build_kossakowski, quadratic_free_model

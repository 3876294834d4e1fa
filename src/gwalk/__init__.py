"""Simulation and verification toolkit for randomly biased walks on
marked Galton-Watson trees.

The package samples quenched tree environments, runs the nearest-neighbour
biased walk, extracts excursion and regeneration structure, applies the
multi-type forest transform, and checks scaling limits and exact moment
identities against closed-form laws and brute-force oracles.
"""

__version__ = "0.1.0"

from .law import (
    LawError,
    MarkLaw,
    PotentialReport,
    load_law,
    make_constant_bias,
    make_mark_law,
    make_two_point,
    psi_evaluate,
    psi_prime,
    regime_of,
    solve_kappa,
    validate_law,
)

__all__ = [
    "LawError",
    "MarkLaw",
    "PotentialReport",
    "load_law",
    "make_constant_bias",
    "make_mark_law",
    "make_two_point",
    "psi_evaluate",
    "psi_prime",
    "regime_of",
    "solve_kappa",
    "validate_law",
    "__version__",
]

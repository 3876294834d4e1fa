"""Simulation and verification toolkit for randomly biased walks on
marked Galton-Watson trees.

The interface is the command line, `gwalk <command> --config <file>` (or
`python -m gwalk.cli`): one command per checked statement of the paper; see
`gwalk.cli`. Behind it the package samples quenched tree environments, runs
the nearest-neighbour biased walk, extracts excursion and regeneration
structure, applies the multi-type forest transform, and checks scaling
limits and exact moment identities against closed-form laws and
brute-force oracles.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

"""Hyper-entangled two-photon Bell test toolkit.

Exact quantum predictions, exhaustively enumerated classical bounds, and a
seeded Monte-Carlo reproduction of the polarization-path experiment,
including the exponential growth of the violation with the number of
entangled degrees of freedom.

Every name lives in one of the seven modules, ``qcore``, ``model``, ``bell``,
``lhv``, ``rng``, ``simlab`` and ``cli``: ``from hyperbell import simlab``.
"""

__version__ = "0.1.0"

"""Finite POMDP machinery.

Values are kept in reward orientation internally (reward = -cost), so the
piecewise-linear-convex lower bound is the usual max-over-alpha-vectors
envelope; the reward-maximizing action coincides with the cost-minimizing
one. Reported metrics are converted back to costs by the callers.
"""

from .model import PomdpModel
from .bounds import BoundPair, LowerBound, UpperBound
from .solver import (HsviResult, backup, excess_uncertainty, explore,
                     initial_bounds, q_values, solve_hsvi)

__all__ = [
    "BoundPair", "HsviResult", "LowerBound", "PomdpModel", "UpperBound",
    "backup", "excess_uncertainty", "explore", "initial_bounds", "q_values",
    "solve_hsvi",
]

"""Exact finite-horizon value iteration oracle (small instances only).

Exhaustive alpha-vector enumeration with incremental pruning; dominance is
settled by pointwise checks plus a witness LP, so the surviving set is the
parsimonious representation at each horizon. Serves as ground truth for the
point-based solver tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import OracleScaleError, PomdpModel, check_belief

MAX_STATES = 12
MAX_HORIZON = 100
# a vector must beat the rest by this margin at some belief to survive the
# witness prune; below HiGHS noise the set fills with near-duplicates
DEFAULT_PRUNE_MARGIN = 1e-9


def _pointwise_filter(vectors: np.ndarray) -> np.ndarray:
    keep = []
    for i in range(vectors.shape[0]):
        v = vectors[i]
        dominated = False
        for j in keep:
            if np.all(vectors[j] >= v - 1e-14) and np.any(vectors[j] > v + 1e-14):
                dominated = True
                break
        if not dominated:
            keep = [j for j in keep
                    if not (np.all(v >= vectors[j] - 1e-14)
                            and np.any(v > vectors[j] + 1e-14))]
            keep.append(i)
    return vectors[keep]


def _witness(v: np.ndarray, others: np.ndarray,
             margin: float = DEFAULT_PRUNE_MARGIN):
    """Belief where v beats every row of others by more than ``margin``, or
    None if no such belief exists."""
    # imported here: scipy.optimize is a slow import that only the oracle needs
    from scipy.optimize import linprog

    n = v.size
    if others.shape[0] == 0:
        return np.ones(n) / n
    # maximize d subject to b (v - u) >= d for all u, b in simplex
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([others - v[None, :], np.ones((others.shape[0], 1))])
    a_eq = np.hstack([np.ones((1, n)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(others.shape[0]),
                  A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * n + [(None, None)],
                  method="highs")
    if not res.success or res.x[-1] <= margin:
        return None
    return res.x[:n]


def _prune(vectors: np.ndarray,
           margin: float = DEFAULT_PRUNE_MARGIN) -> np.ndarray:
    """Near-parsimonious subset: keep a vector iff some belief prefers it by
    more than ``margin`` over the remaining set.

    Dropping a vector changes the envelope by at most ``margin`` anywhere, so
    the oracle's value error after H steps is below ``margin / (1 - gamma)``.
    """
    if vectors.shape[0] <= 1:
        return vectors
    vectors = _pointwise_filter(np.unique(vectors, axis=0))
    kept: list[int] = []
    for i in range(vectors.shape[0]):
        others = vectors[[j for j in range(vectors.shape[0]) if j != i and
                          (j in kept or j > i)]]
        if _witness(vectors[i], others, margin) is not None:
            kept.append(i)
    if not kept:
        kept = [0]
    return vectors[kept]


def _cross_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


@dataclass
class ExactSolution:
    """Alpha sets per horizon step (reward orientation) plus a belief grid
    value table for the final step."""

    alphas: np.ndarray            # final-step vectors, (m, n_states)
    grid: np.ndarray              # (g, n_states) belief grid
    grid_values: np.ndarray       # (g,) value at each grid belief
    per_step_sup_diff: np.ndarray  # sup-norm diff between successive steps

    def value(self, b) -> float:
        return float(np.max(self.alphas @ check_belief(b)))


def _belief_grid(n_states: int, resolution: int = 4) -> np.ndarray:
    """Corner beliefs plus a simplex lattice of the given resolution."""
    pts = [np.eye(n_states)]
    if n_states <= 4:
        from itertools import product
        lattice = []
        for comp in product(range(resolution + 1), repeat=n_states):
            if sum(comp) == resolution:
                lattice.append(np.array(comp, dtype=float) / resolution)
        pts.append(np.array(lattice))
    else:
        rng = np.random.default_rng(0)
        pts.append(rng.dirichlet(np.ones(n_states), size=50))
    return np.vstack(pts)


def exact_value_iteration(model: PomdpModel, horizon: int,
                          prune_margin: float = DEFAULT_PRUNE_MARGIN) -> ExactSolution:
    """Exact alpha-vector value iteration from the all-zero value function."""
    if model.n_states > MAX_STATES:
        raise OracleScaleError(f"|S|={model.n_states} exceeds oracle cap {MAX_STATES}")
    if horizon > MAX_HORIZON:
        raise OracleScaleError(f"horizon {horizon} exceeds oracle cap {MAX_HORIZON}")
    t_dense = [np.asarray(t.todense()) for t in model.transitions]
    z_dense = [np.asarray(z.todense()) for z in model.observations]
    r = model.reward
    n, n_a, n_o = model.n_states, model.n_actions, model.n_obs

    current = np.zeros((1, n))
    sup_diffs = []
    grid = _belief_grid(n)
    prev_grid_vals = np.zeros(grid.shape[0])
    for _ in range(horizon):
        new_sets = []
        for a in range(n_a):
            # projected vectors per observation
            acc = None
            for o in range(n_o):
                gamma_ao = (r[:, a] / n_o)[None, :] + model.discount * (
                    current * z_dense[a][None, :, o] @ t_dense[a].T)
                gamma_ao = _prune(gamma_ao, prune_margin)
                acc = gamma_ao if acc is None else _prune(
                    _cross_sum(acc, gamma_ao), prune_margin)
            new_sets.append(acc)
        current = _prune(np.vstack(new_sets), prune_margin)
        grid_vals = (grid @ current.T).max(axis=1)
        sup_diffs.append(float(np.abs(grid_vals - prev_grid_vals).max()))
        prev_grid_vals = grid_vals
    return ExactSolution(alphas=current, grid=grid, grid_values=prev_grid_vals,
                         per_step_sup_diff=np.array(sup_diffs))

"""POMDP model container, belief check and sparse row gathers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

STOCH_TOL = 1e-10
BELIEF_TOL = 1e-10


def _as_csr(m) -> sparse.csr_matrix:
    return m.tocsr() if sparse.issparse(m) else sparse.csr_matrix(np.asarray(m, dtype=float))


def row_entries(m: sparse.csr_matrix, rows: np.ndarray):
    """Positions in ``m.data`` of the stored entries of the CSR rows
    ``rows``, row after row in stored order, and the row id of each."""
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1] if ends.size else 0) \
        + np.repeat(starts - (ends - counts), counts)
    return pos, np.repeat(rows, counts)


def policy_rows(transitions: list, pi: np.ndarray) -> sparse.csr_matrix:
    """The CSR matrix whose row s is row s of ``transitions[pi[s]]``, its
    entries in stored order, so that its matvec adds each row's terms as
    ``transitions[pi[s]]``'s does; for a constant ``pi``, that matrix
    itself."""
    used = np.unique(pi)
    if used.size == 1:
        return transitions[used[0]]
    groups = [np.flatnonzero(pi == a) for a in used]
    rows = sparse.vstack([transitions[a][g] for a, g in zip(used, groups)],
                         format="csr")
    return rows[np.argsort(np.concatenate(groups))]


@dataclass
class PomdpModel:
    """Finite POMDP with stage costs.

    ``transitions[a]`` is row-stochastic over next states, ``observations[a]``
    maps next state s' to Pr(O | S', A). Costs are finite; the solver works on
    reward = -cost.
    """

    transitions: list
    observations: list
    cost: np.ndarray
    discount: float

    def __post_init__(self):
        self.transitions = [_as_csr(t) for t in self.transitions]
        self.observations = [_as_csr(z) for z in self.observations]
        self.cost = np.asarray(self.cost, dtype=float)
        n = self.transitions[0].shape[0]
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        if not np.all(np.isfinite(self.cost)):
            raise ValueError("costs must be finite")
        if self.cost.shape != (n, len(self.transitions)):
            raise ValueError("cost table shape mismatch")
        if len(self.observations) != len(self.transitions):
            raise ValueError("need one observation matrix per action")
        # a matrix that several actions share is checked once
        for m in {id(m): m for m in self.transitions
                  + self.observations}.values():
            if m.shape[0] != n:
                raise ValueError("matrix row dimension mismatch")
            err = np.abs(np.asarray(m.sum(axis=1)).ravel() - 1.0).max()
            if not err <= STOCH_TOL:        # a NaN row fails too
                raise ValueError(f"rows must be stochastic (off by {err:.2e})")
        # sorted column ids: a row's entries then run in observation order;
        # the next-state id of each stored entry, one array per matrix
        rows = {}
        for z in self.observations:
            if id(z) not in rows:
                z.sort_indices()
                rows[id(z)] = np.repeat(np.arange(n), np.diff(z.indptr))
        self.obs_rows = [rows[id(z)] for z in self.observations]

    @property
    def n_states(self) -> int:
        return self.transitions[0].shape[0]

    @property
    def n_actions(self) -> int:
        return len(self.transitions)

    @property
    def n_obs(self) -> int:
        return self.observations[0].shape[1]

    @property
    def reward(self) -> np.ndarray:
        return -self.cost

    def propagate(self, b: np.ndarray, a: int) -> np.ndarray:
        """Predictive next-state distribution sum_S Pr(S'|S,a) b(S).

        Only the rows of T at b's support are read. ``bincount`` adds each
        next state's terms from 0 in source-state order, the order of
        scipy's CSC matvec with ``T.T``, so the result is the same bit for
        bit."""
        t = self.transitions[a]
        pos, src = row_entries(t, np.flatnonzero(b))
        return np.bincount(t.indices[pos], weights=t.data[pos] * b[src],
                           minlength=self.n_states)


def check_belief(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if (b < -BELIEF_TOL).any() or abs(b.sum() - 1.0) > BELIEF_TOL:
        raise ValueError("belief must be a probability vector")
    return b

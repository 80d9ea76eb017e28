"""POMDP model container, belief check and sparse row gathers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

STOCH_TOL = 1e-10
BELIEF_TOL = 1e-10


def _as_csr(m) -> sparse.csr_matrix:
    return m.tocsr() if sparse.issparse(m) else sparse.csr_matrix(np.asarray(m, dtype=float))


def check_stochastic(m, rows=slice(None)):
    """``m``, refused unless each of its ``rows`` sums to 1 (NaN fails too)."""
    err = np.abs(np.asarray(m.sum(axis=1))[rows] - 1.0).max(initial=0.0)
    if not err <= STOCH_TOL:
        raise ValueError(f"not stochastic: row sums off by {err:.2e}")
    return m


def emitted(observations) -> np.ndarray:
    """Mask of the observations some Z in ``observations`` can emit."""
    return sum(z.getnnz(axis=0) for z in observations) > 0


def row_entries(m: sparse.csr_matrix, rows: np.ndarray):
    """Positions in ``m.data`` of the stored entries of the CSR rows
    ``rows``, row after row in stored order, and the row id of each."""
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1] if ends.size else 0) \
        + np.repeat(starts - (ends - counts), counts)
    return pos, np.repeat(rows, counts)


def row_block(m: sparse.csr_matrix, start: int, stop: int):
    """Rows start..stop-1 of the CSR matrix ``m``, sharing its data and
    column ids (scipy's constructor would copy them out of a much larger
    array, so they are set on an empty matrix)."""
    lo, hi = m.indptr[start], m.indptr[stop]
    block = sparse.csr_matrix((stop - start, m.shape[1]), dtype=m.dtype)
    block.indptr = m.indptr[start:stop + 1] - lo
    block.indices, block.data = m.indices[lo:hi], m.data[lo:hi]
    return block


def policy_rows(stacked: sparse.csr_matrix,
                pi: np.ndarray) -> sparse.csr_matrix:
    """Row ``pi[s] * n + s`` of the row-stacked (n_actions * n, n) CSR
    matrix ``stacked`` at row s, for each row of a (k, n) ``pi`` in turn:
    one row gather, or a :func:`row_block` view when the rows run on."""
    n = stacked.shape[1]
    rows = (pi * n + np.arange(n)).ravel()
    if (np.diff(rows) == 1).all():
        return row_block(stacked, rows[0], rows[-1] + 1)
    return stacked[rows]


@dataclass
class PomdpModel:
    """Finite POMDP with stage costs.

    ``transitions`` is a list of per-action matrices or their row-stacked
    (n_actions * n, n) CSR matrix; the model keeps the latter as
    ``stacked``, and ``transitions[a]`` becomes the :func:`row_block` of
    action a, row-stochastic over next states. ``observations[a]`` maps
    next state s' to Pr(O | S', A). Costs are finite; the solver works on
    reward = -cost. ``posteriors``, if given, makes the model closed: row
    o, for each o that Z emits (``emitted``), is the belief after o."""

    transitions: list
    observations: list
    cost: np.ndarray
    discount: float
    posteriors: sparse.csr_matrix | None = None

    def __post_init__(self):
        given = sparse.issparse(self.transitions)     # already stacked
        mats = ([self.transitions.tocsr()] if given
                else [_as_csr(t) for t in self.transitions])
        self.observations = [_as_csr(z) for z in self.observations]
        self.cost = np.asarray(self.cost, dtype=float)
        n, n_a = mats[0].shape[1], len(self.observations)
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        if not np.all(np.isfinite(self.cost)):
            raise ValueError("costs must be finite")
        if self.cost.shape != (n, n_a):
            raise ValueError("cost table shape mismatch")
        if any(m.shape[0] != n
               for m in self.observations + ([] if given else mats)):
            raise ValueError("matrix row dimension mismatch")
        # a matrix that several actions share is checked once
        for m in {id(m): m for m in mats + self.observations}.values():
            check_stochastic(m)
        self.stacked = (mats[0] if len(mats) == 1
                        else sparse.vstack(mats, format="csr"))
        if self.stacked.shape[0] != n_a * n:
            raise ValueError("need one transition block per action")
        self.transitions = [row_block(self.stacked, a * n, (a + 1) * n)
                            for a in range(n_a)]
        # the distinct observation matrices in first-use order, each with
        # the next-state id of its stored entries (sorted column ids: a
        # row's entries then run in observation order); action a reads
        # obs_distinct[obs_group[a]]
        group, self.obs_distinct = {}, []
        for z in self.observations:
            if id(z) not in group:
                group[id(z)] = len(self.obs_distinct)
                z.sort_indices()
                self.obs_distinct.append(
                    (z, np.repeat(np.arange(n), np.diff(z.indptr))))
        self.obs_group = np.array([group[id(z)] for z in self.observations])
        self.obs_rows = [self.obs_distinct[k][1] for k in self.obs_group]
        if self.posteriors is not None:     # its rows are checked where built
            self.posteriors = _as_csr(self.posteriors)
            if self.posteriors.shape != (self.n_obs, n):
                raise ValueError("posteriors: need an (n_obs, n_states) table")
            self.emitted = emitted(z for z, _rows in self.obs_distinct)

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

    def after(self, values: np.ndarray) -> np.ndarray:
        """(n_actions, n_states) table of T_a values[obs_group[a]]."""
        prod = (self.stacked @ values.T).reshape(self.n_actions, -1,
                                                 len(values))
        return prod[np.arange(self.n_actions), :, self.obs_group]

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

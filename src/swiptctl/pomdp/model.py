"""POMDP model container, its transition operators (explicit matrices
or Kronecker factors), belief check and sparse row gathers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

STOCH_TOL = 1e-10
BELIEF_TOL = 1e-10


class Csr:
    """A sparse matrix in compressed rows: row i stores ``data[indptr[i]:
    indptr[i + 1]]`` at the sorted columns ``indices[indptr[i]:indptr[i +
    1]]``. The index arrays take the type that scipy picks, int32 when
    every index and the entry count fit. Built once with them: ``rows``,
    the row id of each stored entry, and ``cols``, its column id as
    ``intp``, the type that numpy gathers with unconverted.

    ``dot`` and ``tdot`` add each output entry's terms from 0.0 in stored
    order, the order of scipy's CSR and CSC kernels, and ``row_sums`` and
    ``kron`` compute as scipy's ``sum`` and ``kron`` do, so every value
    equals scipy's bit for bit."""

    def __init__(self, data, indices, indptr, shape, rows=None):
        self.shape = tuple(int(n) for n in shape)
        self.data = np.asarray(data, dtype=float)
        idx = (np.int32 if max(*self.shape, self.data.size)
               <= np.iinfo(np.int32).max else np.int64)
        self.indices = np.asarray(indices).astype(idx, copy=False)
        self.indptr = np.asarray(indptr).astype(idx, copy=False)
        self.rows = (np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
                     if rows is None else rows)
        self.cols = self.indices.astype(np.intp)

    @property
    def nnz(self) -> int:
        return self.data.size

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "Csr":
        """The matrix of the entries (rows[i], cols[i], vals[i]), given
        sorted by row, then column."""
        counts = np.bincount(rows, minlength=shape[0])
        return cls(vals, cols, np.concatenate(([0], np.cumsum(counts))),
                   shape, rows)

    @classmethod
    def of(cls, m) -> "Csr":
        """``m`` itself if a record; else the record of a dense array, or of
        any object with ``tocsr()`` (a scipy sparse matrix), zeros
        dropped and each row's columns sorted."""
        if isinstance(m, Csr):
            return m
        if hasattr(m, "tocsr"):
            m = m.tocsr()
            rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
            cols, vals = m.indices, m.data
        else:
            m = np.asarray(m, dtype=float)
            rows, cols = np.nonzero(m)
            vals = m[rows, cols]
        keep = np.flatnonzero(vals != 0)
        keep = keep[np.lexsort((cols[keep], rows[keep]))]
        return cls.from_entries(rows[keep], cols[keep], vals[keep], m.shape)

    def kron(self, other: "Csr") -> "Csr":
        """``self ⊗ other``, entries ``self`` times ``other``: row (i, j)
        holds row i's entries outer row j's, in column order."""
        (m_a, n_a), (m_b, n_b) = self.shape, other.shape
        per_b = np.diff(other.indptr)
        indptr = np.concatenate(([0], np.cumsum(np.outer(
            np.diff(self.indptr), per_b).ravel())))
        # each product's place: its row's start, plus the rank of self's
        # entry in its row times the entry count of other's row, plus the
        # rank of other's entry in its row
        pos = (indptr[self.rows[:, None] * m_b + other.rows]
               + (np.arange(self.nnz) - self.indptr[self.rows])[:, None]
               * per_b[other.rows]
               + (np.arange(other.nnz) - other.indptr[other.rows]))
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.int64)
        data[pos] = self.data[:, None] * other.data
        indices[pos] = (self.indices.astype(np.int64)[:, None] * n_b
                        + other.indices)
        return Csr(data, indices, indptr, (m_a * m_b, n_a * n_b))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x, x a vector or a matrix (whose rows may be strided). A
        matrix is read one entry rank at a time: every row adds its r-th
        entry times a row of x, so no temporary holds more than the
        result."""
        if x.ndim == 1:
            return np.bincount(self.rows, weights=self.data * x[self.cols],
                               minlength=self.shape[0])
        out = np.zeros((self.shape[0], x.shape[1]))
        counts = np.diff(self.indptr)
        for r in range(counts.max(initial=0)):
            at = np.flatnonzero(counts > r)
            pos = self.indptr[at] + r
            term = x[self.cols[pos]]
            term *= self.data[pos, None]
            if at.size == out.shape[0]:
                out += term
            else:
                out[at] += term
        return out

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """A^T x, x a vector or a matrix (a column at a time)."""
        if x.ndim == 2:
            return np.column_stack([self.tdot(col) for col in x.T])
        return np.bincount(self.cols, weights=self.data * x[self.rows],
                           minlength=self.shape[1])

    def row_sums(self) -> np.ndarray:
        """Each row's entries added by ``np.add.reduceat``, as scipy's
        ``sum(axis=1)`` adds them."""
        out = np.zeros(self.shape[0])
        full = np.flatnonzero(np.diff(self.indptr))
        out[full] = np.add.reduceat(self.data, self.indptr[full])
        return out

    def col_counts(self) -> np.ndarray:
        """Stored entries per column."""
        return np.bincount(self.cols, minlength=self.shape[1])


def check_stochastic(m, rows=slice(None)):
    """``m``, refused unless each of its ``rows`` sums to 1 (NaN fails too);
    a dense array's rows run along its last axis."""
    sums = m.row_sums() if isinstance(m, Csr) else np.sum(m, axis=-1)
    err = np.abs(sums[rows] - 1.0).max(initial=0.0)
    if not err <= STOCH_TOL:
        raise ValueError(f"not stochastic: row sums off by {err:.2e}")
    return m


def emitted(observations) -> np.ndarray:
    """Mask of the observations some Z in ``observations`` can emit."""
    return sum(z.col_counts() for z in observations) > 0


def row_entries(m: Csr, rows: np.ndarray):
    """Positions in ``m.data`` of the stored entries of the CSR rows
    ``rows``, row after row in stored order, and the row id of each."""
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1] if ends.size else 0) \
        + np.repeat(starts - (ends - counts), counts)
    return pos, np.repeat(rows, counts)


def take_actions(factors: np.ndarray, ids) -> np.ndarray:
    """``factors[:, ids]``, a view when the ids run on by one."""
    ids = np.asarray(ids)
    if ids.size and (np.diff(ids) == 1).all():
        return factors[:, ids[0]:ids[-1] + 1]
    return factors[:, ids]


class KroneckerTransitions:
    """The transition matrices of a layer over a Kronecker-factored kernel,
    applied by mode products and never materialized.

    Under kernel action a, users move independently: user u from its own
    state x = (q, e) * L + l to (q', e') with probability F_a^(u)(x,
    (q', e')), and to level l' with p(l'), so T_a = ⊗_u (F_a^(u) ⊗ p) on
    user-major joint states. ``factors`` is the (n_users, n_kernel_actions,
    n_own, n_free) array of F, ``levels`` is p; both are a checked
    kernel's. Layer action i plays kernel action ``chosen[i, s]`` at state
    s: row s of T_i is row s of T_chosen[i, s]. Where each row of
    ``chosen`` is constant (a power layer), T_i is that action's kernel."""

    def __init__(self, factors: np.ndarray, levels: np.ndarray,
                 chosen: np.ndarray):
        chosen = np.asarray(chosen)
        n_users, _, n_own, self.n_free = factors.shape
        self.n_users, self.levels = n_users, levels
        self.n_states = n_own ** n_users
        if chosen.ndim != 2 or chosen.shape[1] != self.n_states:
            raise ValueError("chosen: need an (n_actions, n_states) table")
        self.n_actions = len(chosen)
        self.states = np.arange(self.n_states)
        if (chosen == chosen[:, :1]).all():
            self.factors = take_actions(factors, chosen[:, 0])
            self.chosen = None
        else:       # the kernel actions it plays, and chosen among them
            used = np.unique(chosen)
            self.factors = take_actions(factors, used)
            self.chosen = np.searchsorted(used, chosen)
            # per layer action: the factors of the kernel actions it
            # plays, and which of them each state plays
            self.plays = []
            for row in self.chosen:
                mine = np.unique(row)
                self.plays.append((self.factors[:, mine],
                                   np.searchsorted(mine, row)))
        # p(l'_1) ... p(l'_k), one axis per user's next level
        self.grid = reduce(np.multiply.outer, [levels] * n_users).reshape(
            [1, levels.size] * n_users)

    def __len__(self) -> int:
        return self.n_actions

    def _free(self, values: np.ndarray) -> np.ndarray:
        """(m, n_states) values summed against p over every user's next
        level: (m, n_free ** n_users)."""
        n_l, n_q = self.levels.size, self.n_free
        w = values.reshape(-1, n_l) @ self.levels
        for u in range(1, self.n_users):
            w = self.levels @ w.reshape(-1, n_l, n_q ** u)
        return w.reshape(len(values), -1)

    @staticmethod
    def _products(w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Row j: ⊗_u f[u, j] applied to w[j] (one row of w serves every
        j), by one mode product per user, the last first. With the factors
        transposed (``f.swapaxes(2, 3)``) it applies the transposes."""
        k, n_sel, _, n_in = f.shape
        x = w.reshape(-1, n_in ** (k - 1), n_in) @ f[k - 1].swapaxes(1, 2)
        for u in range(k - 2, -1, -1):
            x = f[u][:, None] @ x.reshape(n_sel, n_in ** u, n_in, -1)
        return x.reshape(n_sel, -1)

    def apply(self, a: int, v: np.ndarray) -> np.ndarray:
        """T_a v."""
        w = self._free(v[None])
        if self.chosen is None:
            return self._products(w, self.factors[:, a:a + 1])[0]
        f, pick = self.plays[a]
        return self._products(w, f)[pick, self.states]

    def after(self, values: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """(n_actions, n_states) table of T_i values[groups[i]]."""
        w = self._free(values)
        if self.chosen is None:
            return self._products(w if len(w) == 1 else w[groups],
                                  self.factors)
        every = np.array([self._products(row[None], self.factors)
                          for row in w])
        return every[groups[:, None], self.chosen, self.states]

    def propagate(self, b: np.ndarray, a: int) -> np.ndarray:
        """T_a^T b; a gathered layer sums over the kernel actions that
        ``chosen[a]`` plays, each on b masked to the states that play
        it."""
        if self.chosen is None:
            y = self._products(b[None], self.factors[:, a:a + 1]
                               .swapaxes(2, 3))[0]
        else:
            f, pick = self.plays[a]
            masked = np.zeros((f.shape[1], self.n_states))
            masked[pick, self.states] = b
            y = self._products(masked, f.swapaxes(2, 3)).sum(axis=0)
        return (y.reshape([self.n_free, 1] * self.n_users)
                * self.grid).ravel()


def _records(mats: list) -> list:
    """:meth:`Csr.of` of each matrix, one record per distinct object, so
    that a matrix several actions share stays one matrix."""
    made = {id(m): Csr.of(m) for m in mats}
    return [made[id(m)] for m in mats]


@dataclass
class PomdpModel:
    """Finite POMDP with stage costs.

    ``transitions`` is a list of per-action matrices, each row-stochastic
    over next states (checked here, once per distinct matrix), or a
    :class:`KroneckerTransitions` (factors checked where they were built).
    The solver reaches T through :meth:`apply`, :meth:`after` and
    :meth:`propagate` only. ``observations[a]`` maps next state s' to
    Pr(O | S', A). Costs are finite; the solver works on reward = -cost.
    ``posteriors``, if given, makes the model closed: row o, for each o
    that Z emits (``emitted``), is the belief after o, and the solver
    seeds its upper bound with the fast informed bound. Without it, the
    upper bound starts at the MDP corners."""

    transitions: list
    observations: list
    cost: np.ndarray
    discount: float
    posteriors: Csr | None = None

    def __post_init__(self):
        self.factored = isinstance(self.transitions, KroneckerTransitions)
        if self.factored:
            n, mats = self.transitions.n_states, []
        else:
            mats = self.transitions = _records(self.transitions)
            n = mats[0].shape[1]
        self.observations = _records(self.observations)
        self.cost = np.asarray(self.cost, dtype=float)
        n_a = len(self.observations)
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        if not np.all(np.isfinite(self.cost)):
            raise ValueError("costs must be finite")
        if self.cost.shape != (n, n_a):
            raise ValueError("cost table shape mismatch")
        if len(self.transitions) != n_a:
            raise ValueError("need one transition matrix per action")
        if any(m.shape[0] != n for m in self.observations + mats):
            raise ValueError("matrix row dimension mismatch")
        # a matrix that several actions share is checked once
        for m in {id(m): m for m in mats + self.observations}.values():
            check_stochastic(m)
        # the distinct observation matrices in first-use order; action a
        # reads obs_distinct[obs_group[a]]
        group, self.obs_distinct = {}, []
        for z in self.observations:
            if id(z) not in group:
                group[id(z)] = len(self.obs_distinct)
                self.obs_distinct.append(z)
        self.obs_group = np.array([group[id(z)] for z in self.observations])
        if self.posteriors is not None:     # its rows are checked where built
            self.posteriors = Csr.of(self.posteriors)
            if self.posteriors.shape != (self.n_obs, n):
                raise ValueError("posteriors: need an (n_obs, n_states) table")
            self.emitted = emitted(self.obs_distinct)

    @property
    def n_states(self) -> int:
        return self.cost.shape[0]

    @property
    def n_actions(self) -> int:
        return self.cost.shape[1]

    @property
    def n_obs(self) -> int:
        return self.observations[0].shape[1]

    @property
    def reward(self) -> np.ndarray:
        return -self.cost

    def apply(self, a: int, v: np.ndarray) -> np.ndarray:
        """T_a v."""
        if self.factored:
            return self.transitions.apply(a, v)
        return self.transitions[a].dot(v)

    def after(self, values: np.ndarray) -> np.ndarray:
        """(n_actions, n_states) table of T_a values[obs_group[a]]; a 1-D
        ``values`` serves every action."""
        groups = (self.obs_group if values.ndim == 2
                  else np.zeros(self.n_actions, dtype=np.intp))
        values = values.reshape(-1, self.n_states)
        if self.factored:
            return self.transitions.after(values, groups)
        return np.array([t.dot(values[g])
                         for t, g in zip(self.transitions, groups)])

    def propagate(self, b: np.ndarray, a: int) -> np.ndarray:
        """Predictive next-state distribution sum_S Pr(S'|S,a) b(S).

        On explicit matrices only the rows of T at b's support are read.
        ``bincount`` adds each next state's terms from 0 in source-state
        order, the order of scipy's CSC matvec with ``T.T``, so the result
        is the same bit for bit."""
        if self.factored:
            return self.transitions.propagate(b, a)
        t = self.transitions[a]
        pos, src = row_entries(t, np.flatnonzero(b))
        return np.bincount(t.cols[pos], weights=t.data[pos] * b[src],
                           minlength=self.n_states)


def check_belief(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if (b < -BELIEF_TOL).any() or abs(b.sum() - 1.0) > BELIEF_TOL:
        raise ValueError("belief must be a probability vector")
    return b

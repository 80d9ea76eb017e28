"""Data-queue and energy-buffer dynamics and the controlled transition kernel.

The per-slot recursions are exact integer maps. Users evolve independently
given the joint action, with levels drawn i.i.d. each slot (block fading), so
each user's slot under each action is tabulated once over one user's
(queue, energy, level) triples (:func:`user_action_table`, the one place the
energy-causality fallback is applied). The joint kernel and the observation
matrix are Kronecker products of per-user matrices; the joint state space is
never enumerated.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import sparse, special

ROW_SUM_TOL = 1e-10
# largest joint state space that is compiled into a kernel
MAX_STATES = 20000


class StateSpaceBudgetError(ValueError):
    """Enumerated joint state space exceeds the configured budget."""


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalModel:
    """Truncated Poisson packet arrivals with per-slot mean ``lam``."""

    lam: float
    cap: int | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("arrival rate must be positive")

    def resolved_cap(self) -> int:
        if self.cap is not None:
            return self.cap
        return default_arrival_cap(self.lam)


def default_arrival_cap(lam: float, tail: float = 1e-9) -> int:
    """Smallest n with P(A > n) < tail; ``pdtrc`` is the Poisson tail."""
    n = 0
    while special.pdtrc(n, lam) >= tail:
        n += 1
    return n


def arrival_pmf(model: ArrivalModel) -> np.ndarray:
    """Truncated, renormalized Poisson pmf over {0, ..., cap}."""
    cap = model.resolved_cap()
    if cap == 0:
        return np.array([1.0])
    # the Poisson log-pmf as scipy.stats evaluates it, without importing
    # scipy.stats (most of the CLI's start-up time)
    k = np.arange(cap + 1)
    pmf = np.exp(special.xlogy(k, model.lam) - special.gammaln(k + 1)
                 - model.lam)
    return pmf / pmf.sum()


# ---------------------------------------------------------------------------
# state space and level model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpace:
    """Joint enumeration of per-user (queue, energy, channel level) triples.

    Index is mixed-radix, user-major with (q, e, l) minor order:
    ``idx = ((q1 * n_e + e1) * n_l + l1) * stride + ...``.
    """

    n_users: int
    q_max: int
    e_max: int
    n_levels: int

    @property
    def per_user(self) -> int:
        return (self.q_max + 1) * (self.e_max + 1) * self.n_levels

    @property
    def size(self) -> int:
        return self.per_user ** self.n_users

    def encode(self, users: tuple) -> int:
        """Joint index of (q, e, level) triples; the tests' index reference."""
        idx = 0
        for (q, e, lv) in users:
            idx = idx * self.per_user + ((q * (self.e_max + 1) + e) * self.n_levels + lv)
        return idx

    def decode(self, idx: int) -> tuple:
        """(q, e, level) triples of a joint index; the tests' reference."""
        out = []
        for _ in range(self.n_users):
            idx, rem = divmod(idx, self.per_user)
            rem, lv = divmod(rem, self.n_levels)
            q, e = divmod(rem, self.e_max + 1)
            out.append((q, e, lv))
        return tuple(reversed(out))

    def states(self):
        """Every (index, triples) pair; the tests' reference enumeration."""
        for idx in range(self.size):
            yield idx, self.decode(idx)

    def user_digits(self) -> tuple:
        """(q, e, level) integer arrays over one user's ``per_user`` states,
        in index order."""
        return tuple(np.indices((self.q_max + 1, self.e_max + 1,
                                 self.n_levels)).reshape(3, -1))

    def spread(self, user: int, values) -> np.ndarray:
        """Joint-state array holding, at each joint state, the entry of
        ``values`` (first axis over one user's states, indexed as
        :meth:`user_digits`) at ``user``'s own digits. Trailing axes pass
        through."""
        values = np.asarray(values)
        axes = [1] * self.n_users
        axes[user] = self.per_user
        tail = values.shape[1:]
        return np.broadcast_to(
            values.reshape((*axes, *tail)),
            (self.per_user,) * self.n_users + tail).reshape(self.size, *tail)


@dataclass(frozen=True)
class LevelModel:
    """I.i.d. per-slot channel-quality levels with an observation confusion
    matrix Pr(observed level | true level)."""

    probs: np.ndarray            # (L,)
    obs_confusion: np.ndarray    # (L, L), rows stochastic

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        c = np.asarray(self.obs_confusion, dtype=float)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "obs_confusion", c)
        if abs(p.sum() - 1.0) > ROW_SUM_TOL or (p < 0).any():
            raise ValueError("level pmf must be a distribution")
        if c.shape != (p.size, p.size):
            raise ValueError("confusion matrix shape mismatch")
        if np.abs(c.sum(axis=1) - 1.0).max() > ROW_SUM_TOL or (c < 0).any():
            raise ValueError("confusion rows must be distributions")


@dataclass(frozen=True)
class ActionTable:
    """Physical effect of every joint action on every user, actions on the
    first axis.

    ``served``/``harvested`` are integer packet/energy-unit tables per true
    level, (n_actions, n_users, L); ``used_units`` is each user's integer
    energy price, (n_actions, n_users); powers in watts and the downlink
    rate in packets/slot, (n_actions, n_users), feed the cost and the
    rollout metrics; ``mask_id`` and ``n_active`` (n_actions,) name each
    action's antenna mask and its active-antenna count.
    """

    served: np.ndarray
    harvested: np.ndarray
    used_units: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    rate_down: np.ndarray
    mask_id: np.ndarray
    n_active: np.ndarray

    def __len__(self) -> int:
        return self.mask_id.size


# ---------------------------------------------------------------------------
# per-user action table
# ---------------------------------------------------------------------------

UserActionTable = namedtuple(
    "UserActionTable", "pays served used p_up harvested q_post e_next")


def user_action_table(space: StateSpace,
                      actions: ActionTable) -> UserActionTable:
    """Each user's slot under each joint action, after the energy-causality
    fallback: a user who cannot pay the action's price (more units than it
    has stored) neither transmits nor is served, and still harvests.

    Every array is shaped (n_users, per_user, n_actions); the middle axis
    runs over one user's states with the true level, indexed as
    :meth:`StateSpace.user_digits`: ``(q * (e_max + 1) + e) * L + level``.
    ``served`` is the service capacity, not clipped to the queue;
    ``q_post`` is the queue after service and ``e_next`` the next energy
    level, ``min(e - used + harvested, e_max)``."""
    q, e, lv = space.user_digits()
    # the table's fields with the users first and the actions last
    price, capacity, harvest, p_up = (
        np.moveaxis(x, 0, -1) for x in (actions.used_units, actions.served,
                                        actions.harvested, actions.p_up))
    pays = e[:, None] >= price[:, None, :]
    served = np.where(pays, capacity[:, lv], 0)
    used = np.where(pays, price[:, None, :], 0)
    harvested = harvest[:, lv]
    return UserActionTable(
        pays=pays, served=served, used=used,
        p_up=np.where(pays, p_up[:, None, :], 0.0),
        harvested=harvested, q_post=np.maximum(q[:, None] - served, 0),
        e_next=np.minimum(e[:, None] - used + harvested, space.e_max))


# ---------------------------------------------------------------------------
# transition kernel
# ---------------------------------------------------------------------------

@dataclass
class TransitionKernel:
    """Row-stochastic controlled kernel, one CSR matrix per action."""

    matrices: list = field(default_factory=list)  # csr_matrix per action

    def __post_init__(self):
        for m in self.matrices:
            err = np.abs(np.asarray(m.sum(axis=1)).ravel() - 1.0).max()
            if err > ROW_SUM_TOL:
                raise ValueError(f"kernel row sums off by {err:.2e}")
            if (m.data < 0).any():
                raise ValueError("negative transition probability")


def check_state_budget(space: StateSpace) -> None:
    if space.size > MAX_STATES:
        raise StateSpaceBudgetError(
            f"state space size {space.size} exceeds budget {MAX_STATES}")


def _kron_users(factors, fmt: str):
    """Kronecker product of per-user matrices, user 0 most significant (the
    StateSpace digit order), entries multiplied left to right. Converting
    from COO leaves the result canonical: sorted indices, no duplicates."""
    return reduce(lambda a, b: sparse.kron(a, b, format="coo"),
                  factors).asformat(fmt)


def build_kernel(space: StateSpace, arrivals: ArrivalModel, level: LevelModel,
                 actions: ActionTable) -> TransitionKernel:
    """Controlled kernel, per action the Kronecker product ``T_a^(1) ⊗ ...
    ⊗ T_a^(k)`` of per-user kernels.

    User u moves from (q, e, l) to (min(q_post + arrivals, q_max), e_next,
    l') with probability Pr(q') p(l'), read from :func:`user_action_table`;
    only reachable q' and levels with p(l') > 0 are stored. Bit-identical
    (CSR arrays) to multiplying the per-user probabilities of every joint
    transition in user order."""
    check_state_budget(space)
    pmf = arrival_pmf(arrivals)
    table = user_action_table(space, actions)
    n_qe = (space.q_max + 1) * (space.e_max + 1)
    q_next = np.minimum(table.q_post[..., None] + np.arange(pmf.size),
                        space.q_max)
    # (state, next (q, e)) bin per user, state, action and arrival count;
    # raveled row-major over (state, arrival), so that bincount adds each
    # bin's probabilities in arrival order from 0.0
    bins = (np.arange(space.per_user)[:, None, None] * n_qe
            + q_next * (space.e_max + 1) + table.e_next[..., None])
    weights = np.tile(pmf, space.per_user)
    levels = sparse.coo_matrix(level.probs[None, :])   # p(l') = 0 dropped

    def factor(u, a):
        hit = np.flatnonzero(np.bincount(bins[u, :, a].ravel()))
        p_q = np.bincount(bins[u, :, a].ravel(), weights)[hit]
        return sparse.kron(sparse.coo_matrix((p_q, divmod(hit, n_qe)),
                                             shape=(space.per_user, n_qe)),
                           levels, format="coo")

    return TransitionKernel(matrices=[
        _kron_users([factor(u, a) for u in range(space.n_users)], "csr")
        for a in range(len(actions))])


def level_map_matrix(space: StateSpace, block, fmt: str):
    """Joint matrix of a per-user (level x level) map that leaves queue and
    energy alone: the Kronecker product over users of ``I_{(q, e)} ⊗ block``,
    zeros dropped."""
    per_user = sparse.kron(sparse.identity((space.q_max + 1)
                                           * (space.e_max + 1)),
                           sparse.coo_matrix(block), format="coo")
    return _kron_users([per_user] * space.n_users, fmt)


def build_observation_matrix(space: StateSpace,
                             level: LevelModel) -> sparse.csr_matrix:
    """Pr(O | S') as a CSR matrix (the format ``PomdpModel`` reads, so every
    action can share it), with queue and energy observed exactly and the
    channel level read through the estimation confusion matrix.

    Observations share the state enumeration (the level digit indexes the
    observed level). Action-independent. The Kronecker product of per-user
    ``I_{(q, e)} ⊗ confusion`` (zeros dropped), bit-identical to the product
    form per joint state.
    """
    return level_map_matrix(space, level.obs_confusion, "csr")

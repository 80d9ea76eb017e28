"""Data-queue and energy-buffer dynamics and the controlled transition kernel.

The per-slot recursions are exact integer maps. Users evolve independently
given the joint action, with levels drawn i.i.d. each slot (block fading), so
each user's slot under each action is tabulated once over one user's
(queue, energy, level) triples (:func:`user_action_table`, the one place the
energy-causality fallback is applied). The kernel is kept as those per-user
factors, (q, e) part and level pmf apart (:class:`TransitionKernel`); the
solver applies their Kronecker product by mode products, and no joint
transition matrix is built. The observation matrix is the Kronecker product
of per-user matrices; the joint state space is never enumerated.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse

from .pomdp.model import STOCH_TOL, check_stochastic

# largest joint state space that is compiled: the cost table, the beliefs,
# the observation matrix and p-opt hold joint-size arrays (the kernel holds
# only per-user factors)
MAX_STATES = 20000


class StateSpaceBudgetError(ValueError):
    """Enumerated joint state space exceeds the configured budget."""


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------

def arrival_pmf(lam: float) -> np.ndarray:
    """Poisson pmf with per-slot mean ``lam``, truncated at the smallest n
    with P(A > n) < 1e-9 and renormalized. The log-pmf is scipy's bit for
    bit up to k = 12, within a few ulps beyond; the tail, taken past the
    mode down to e^-60, is summed from its smallest terms up."""
    if not lam > 0:
        raise ValueError("arrival rate must be positive")
    log_pmf, factorial, k = [], 1, 0
    while k <= lam or log_pmf[-1] > -60:
        log_pmf.append(k * math.log(lam) - math.log(factorial) - lam)
        k += 1
        factorial *= k
    at_least = np.cumsum(np.exp(log_pmf)[::-1])[::-1]   # P(A >= k)
    cap = np.count_nonzero(at_least >= 1e-9) - 1
    pmf = np.exp(log_pmf[:cap + 1])
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
        # "not err <= tol" so that a NaN fails the check
        if not abs(p.sum() - 1.0) <= STOCH_TOL or (p < 0).any():
            raise ValueError("level pmf must be a distribution")
        if c.shape != (p.size, p.size):
            raise ValueError("confusion matrix shape mismatch")
        if (not np.abs(c.sum(axis=1) - 1.0).max() <= STOCH_TOL
                or (c < 0).any()):
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
    """Controlled kernel in Kronecker form, no joint matrix built: under
    action a, user u moves from its own state (q, e, l) to (q', e') with
    probability ``factors[u, a]`` ((per_user, n_qe), rows stochastic), and
    its next level is drawn from ``levels``, independently of the other
    users, so T_a = ⊗_u (factors[u, a] ⊗ levels) over the ``StateSpace``
    order. A Kronecker product of stochastic rows is stochastic, so the
    check made here, factor rows at ``STOCH_TOL``, no negative entry and
    the levels a distribution, is the joint one."""

    factors: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        check_stochastic(self.factors)
        check_stochastic(self.levels[None])
        if (self.factors < 0).any() or (self.levels < 0).any():
            raise ValueError("negative transition probability")

    @property
    def matrices(self) -> list:
        """Each stored factor as a CSR matrix, action by action, user by
        user."""
        return [sparse.csr_matrix(f) for f in self.factors.swapaxes(0, 1)
                .reshape(-1, *self.factors.shape[2:])]


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


def build_kernel(space: StateSpace, pmf: np.ndarray, level: LevelModel,
                 actions: ActionTable) -> TransitionKernel:
    """Controlled kernel from each user's (q, e) factor under each action:
    user u moves from (q, e, l) to (min(q_post + arrivals, q_max), e_next)
    with the arrivals' probability, read from :func:`user_action_table`,
    and to level l' with p(l'). One ``bincount`` adds each factor entry's
    arrival probabilities in arrival order from 0.0, so the materialized
    product is bit-identical to multiplying the per-user probabilities of
    every joint transition in user order. ``pmf`` is the arrival pmf over
    {0, ..., cap}, as :func:`arrival_pmf` returns it."""
    check_state_budget(space)
    table = user_action_table(space, actions)
    n_qe = (space.q_max + 1) * (space.e_max + 1)
    q_next = np.minimum(table.q_post[..., None] + np.arange(pmf.size),
                        space.q_max)
    # (user, action, state) row of each next (q, e) per arrival count,
    # raveled row-major over the arrivals
    rows = np.arange(space.n_users * len(actions) * space.per_user).reshape(
        space.n_users, len(actions), space.per_user, 1)
    bins = rows * n_qe + (q_next * (space.e_max + 1)
                          + table.e_next[..., None]).swapaxes(1, 2)
    factors = np.bincount(bins.ravel(), np.tile(pmf, rows.size),
                          minlength=rows.size * n_qe)
    return TransitionKernel(factors.reshape(*rows.shape[:3], n_qe),
                            level.probs)


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

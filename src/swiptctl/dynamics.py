"""Data-queue and energy-buffer dynamics and the controlled transition kernel.

The per-slot recursions are exact integer maps. Users evolve independently
given the joint action, with levels drawn i.i.d. each slot (block fading), so
the joint kernel and the observation matrix are Kronecker products of
per-user matrices over one user's (queue, energy, level) triples. They are
built that way; the joint state space is never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import sparse, special

ROW_SUM_TOL = 1e-10


class InadmissibleActionError(ValueError):
    """Action spends more energy units than the buffer holds."""


class StateSpaceBudgetError(ValueError):
    """Enumerated joint state space exceeds the configured budget."""


# ---------------------------------------------------------------------------
# per-slot recursions
# ---------------------------------------------------------------------------

def step_queue(q: int, served: int, arrived: int, q_max: int) -> int:
    """Next queue length min([q - served]^+ + arrived, q_max)."""
    if min(q, served, arrived, q_max) < 0:
        raise ValueError("queue arguments must be nonnegative")
    return min(max(q - served, 0) + arrived, q_max)


def step_energy(e: int, used: int, harvested: int, e_max: int) -> int:
    """Next buffer level min(max(e - used, 0) + harvested, e_max).

    Spending more than the stored energy is inadmissible.
    """
    if min(e, used, harvested, e_max) < 0:
        raise ValueError("energy arguments must be nonnegative")
    if used > e:
        raise InadmissibleActionError(f"used {used} units with only {e} stored")
    return min(max(e - used, 0) + harvested, e_max)


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
        idx = 0
        for (q, e, lv) in users:
            idx = idx * self.per_user + ((q * (self.e_max + 1) + e) * self.n_levels + lv)
        return idx

    def decode(self, idx: int) -> tuple:
        out = []
        for _ in range(self.n_users):
            idx, rem = divmod(idx, self.per_user)
            rem, lv = divmod(rem, self.n_levels)
            q, e = divmod(rem, self.e_max + 1)
            out.append((q, e, lv))
        return tuple(reversed(out))

    def states(self):
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
class ActionEffect:
    """Physical effect of one joint action, tabulated per user and true level.

    ``served``/``harvested`` are integer packet/energy-unit tables of shape
    (n_users, L); ``used_units`` integer per user; powers in watts and rates
    in packets/slot feed the cost and the rollout metrics.
    """

    served: np.ndarray
    harvested: np.ndarray
    used_units: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    rate_up: np.ndarray
    rate_down: np.ndarray
    mask_id: int = 0
    power_id: int = 0
    label: str = ""


# ---------------------------------------------------------------------------
# transition kernel
# ---------------------------------------------------------------------------

@dataclass
class TransitionKernel:
    """Row-stochastic controlled kernel, one CSR matrix per action."""

    space: StateSpace
    matrices: list = field(default_factory=list)  # csr_matrix per action

    def __post_init__(self):
        for m in self.matrices:
            err = np.abs(np.asarray(m.sum(axis=1)).ravel() - 1.0).max()
            if err > ROW_SUM_TOL:
                raise ValueError(f"kernel row sums off by {err:.2e}")
            if (m.data < 0).any():
                raise ValueError("negative transition probability")


def _user_next_pmf(q: int, e: int, lv: int, effect: ActionEffect, user: int,
                   pmf_arr: np.ndarray, level: LevelModel, space: StateSpace):
    """Support/probability pairs of the next (q, e, l) triple for one user.

    Inadmissible energy expenditure degrades to a no-transmit fallback for
    that user (nothing served, nothing spent); harvesting is unaffected.
    """
    used = int(effect.used_units[user])
    served = int(effect.served[user, lv])
    if used > e:
        used, served = 0, 0
    e_next = step_energy(e, used, int(effect.harvested[user, lv]), space.e_max)
    q_inter = max(q - served, 0)
    sup_q = np.minimum(q_inter + np.arange(pmf_arr.size), space.q_max)
    q_pmf: dict[int, float] = {}
    for qn, p in zip(sup_q, pmf_arr):
        q_pmf[int(qn)] = q_pmf.get(int(qn), 0.0) + float(p)
    out = []
    for lv_next, p_l in enumerate(level.probs):
        if p_l == 0.0:
            continue
        for qn, p_q in q_pmf.items():
            out.append(((qn, e_next, lv_next), p_l * p_q))
    return out


def check_state_budget(space: StateSpace, max_states: int) -> None:
    if space.size > max_states:
        raise StateSpaceBudgetError(
            f"state space size {space.size} exceeds budget {max_states}")


def _kron_users(factors, fmt: str):
    """Kronecker product of per-user matrices, user 0 most significant (the
    StateSpace digit order), entries multiplied left to right. Converting
    from COO leaves the result canonical: sorted indices, no duplicates."""
    return reduce(lambda a, b: sparse.kron(a, b, format="coo"),
                  factors).asformat(fmt)


def build_kernel(space: StateSpace, arrivals: ArrivalModel, level: LevelModel,
                 effects, max_states: int = 20000) -> TransitionKernel:
    """Controlled kernel, per action the Kronecker product ``T_a^(1) ⊗ ...
    ⊗ T_a^(k)`` of per-user kernels tabulated from :func:`_user_next_pmf`.

    Bit-identical (CSR ``indptr``, ``indices``, ``data``) to multiplying the
    per-user probabilities of every joint transition in user order."""
    check_state_budget(space, max_states)
    pmf_arr = arrival_pmf(arrivals)
    one = StateSpace(n_users=1, q_max=space.q_max, e_max=space.e_max,
                     n_levels=space.n_levels)
    mats = []
    for effect in effects:
        factors = []
        for u in range(space.n_users):
            rows, cols, vals = zip(*(
                (idx, one.encode((nxt,)), p)
                for idx, ((q, e, lv),) in one.states()
                for nxt, p in _user_next_pmf(q, e, lv, effect, u, pmf_arr,
                                             level, space)))
            factors.append(sparse.coo_matrix((vals, (rows, cols)),
                                             shape=(one.size, one.size)))
        mats.append(_kron_users(factors, "csr"))
    return TransitionKernel(space=space, matrices=mats)


def level_map_matrix(space: StateSpace, block, fmt: str):
    """Joint matrix of a per-user (level x level) map that leaves queue and
    energy alone: the Kronecker product over users of ``I_{(q, e)} ⊗ block``,
    zeros dropped."""
    per_user = sparse.kron(sparse.identity((space.q_max + 1)
                                           * (space.e_max + 1)),
                           sparse.coo_matrix(block), format="coo")
    return _kron_users([per_user] * space.n_users, fmt)


def build_observation_matrix(space: StateSpace, level: LevelModel) -> sparse.csc_matrix:
    """Pr(O | S') with queue and energy observed exactly and the channel
    level read through the estimation confusion matrix.

    Observations share the state enumeration (the level digit indexes the
    observed level). Action-independent. The Kronecker product of per-user
    ``I_{(q, e)} ⊗ confusion`` (zeros dropped), bit-identical to the product
    form per joint state.
    """
    return level_map_matrix(space, level.obs_confusion, "csc")

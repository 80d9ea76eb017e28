"""Point-based HSVI: bound initialization, backups, guided exploration.

Each belief that exploration backs up is expanded once: one propagation per
action gives the stage rewards and every successor posterior. The upper-bound
lookahead, the lower-bound backup and the upper-bound update after the
recursion all read that one record.

All tie-breaks (actions, observations, alphas) resolve to the lowest index,
so identical inputs yield identical iteration logs.
"""

from __future__ import annotations

import functools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import sparse

from .bounds import AlphaVector, BoundPair, LowerBound, UpperBound
from .model import PomdpModel, check_belief, row_entries


# bicgstab stops at this residual, relative to the right-hand side; the
# residual certificate, not this tolerance, makes each bound valid
KRYLOV_RTOL = 1e-14
# bicgstab's rho and omega breakdown thresholds (scipy keeps the Fortran
# original's eps**2)
BREAKDOWN_TOL = np.finfo(float).eps ** 2
# policy iteration switches a state's action only on a gain above this, so
# that evaluation round-off cannot make it cycle
SWITCH_GAIN = 1e-12
# policy iteration ends in a few rounds on every model tried; should a
# round-off cycle ever reach this cap, the certificate keeps the corners valid
MAX_POLICY_ROUNDS = 100


def bicgstab(matvec, b, x0, maxiter=None) -> np.ndarray:
    """BiCGSTAB (van der Vorst, 1992) for A x = b, A given by ``matvec``,
    started at ``x0``; stops once ||b - A x|| < KRYLOV_RTOL ||b||, on a
    breakdown, or after ``maxiter`` (default 10 n) steps, and returns x.

    The arithmetic is scipy 1.17's sparse-solver ``bicgstab`` with
    ``rtol=KRYLOV_RTOL, atol=0``, no preconditioner: the same products and
    norms in the same order and in place, so the result is the same bit
    for bit."""
    b = np.asarray(b, dtype=float).ravel()
    x = np.array(x0, dtype=float).ravel()
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b
    atol = KRYLOV_RTOL * bnrm2
    if maxiter is None:
        maxiter = 10 * b.size
    r = b - matvec(x) if x.any() else b.copy()
    rtilde = r.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x
        rho = np.dot(rtilde, r)
        if np.abs(rho) < BREAKDOWN_TOL:
            return x
        if iteration > 0:
            if np.abs(omega) < BREAKDOWN_TOL:
                return x
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            s = np.empty_like(r)
            p = r.copy()
        v = matvec(p)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x
        alpha = rho / rv
        r -= alpha * v
        s[:] = r[:]
        if np.linalg.norm(s) < atol:
            x += alpha * p
            return x
        t = matvec(s)
        omega = np.dot(t, s) / np.dot(t, t)
        x += alpha * p
        x += omega * s
        r -= omega * t
        rho_prev = rho
    return x


def _evaluate(step, reward: np.ndarray, discount: float,
              x0: np.ndarray) -> np.ndarray:
    """Value of a stationary policy whose transition matvec is ``step``:
    one matrix-free Krylov solve of (I - discount P) v = reward, started at
    ``x0``. The solve may stop short; callers certify what it returns."""
    return bicgstab(lambda v: v - discount * step(v), reward, x0)


def _blind_alphas(model: PomdpModel) -> list:
    """Stationary single-action policy values, each shifted down by its
    residual certificate: for stochastic T the error of v is at most
    ||r + gamma T v - v||_inf / (1 - gamma), so the shifted v is a valid
    lower bound however far the solver got."""
    g = model.discount
    out = []
    for a in range(model.n_actions):
        r_a = model.reward[:, a]
        step = functools.partial(model.apply, a)
        v = _evaluate(step, r_a, g, r_a / (1.0 - g))
        res = np.abs(r_a + g * step(v) - v).max()
        out.append(AlphaVector(values=v - res / (1.0 - g), action=a))
    return out


def _mdp_corners(model: PomdpModel, blind: list):
    """Fully-observed MDP value (reward orientation), which upper-bounds the
    POMDP, by policy iteration from the best blind action per state. The
    result is V + ||BV - V||_inf / (1 - gamma), B the Bellman operator: a
    certified upper bound on the MDP value, however inexact V is. Also
    returns the (n_states, n_actions) Q-table of the final evaluation.
    Each policy matvec applies every action and keeps row pi[s] at state
    s."""
    g, r = model.discount, model.reward
    states = np.arange(model.n_states)
    blind_vals = np.array([alpha.values for alpha in blind])
    pi = blind_vals.argmax(axis=0)
    v = blind_vals[pi, states]
    for _ in range(MAX_POLICY_ROUNDS):
        v = _evaluate(lambda x: model.after(x)[pi, states], r[states, pi],
                      g, v)
        q = r + g * model.after(v).T
        best = q.argmax(axis=1)
        switch = q[states, best] > q[states, pi] + SWITCH_GAIN
        if not switch.any():
            break
        pi = np.where(switch, best, pi)
    return v + np.abs(q.max(axis=1) - v).max() / (1.0 - g), q


def _observation_policy(model: PomdpModel, q: np.ndarray) -> np.ndarray:
    """QMDP action per observation: pi(o) = argmax_b sum_a sum_s Z_a(s, o)
    Q(s, b), the lowest index winning ties. Each distinct Z is transposed
    once, its entries added up once per action that reads it, in that
    order, as adding those actions' matrices does."""
    shares = np.bincount(model.obs_group)
    scores = sum(sparse.csc_matrix((reduce(np.add, [z.data] * k), z.indices,
                                    z.indptr), shape=z.shape[::-1])
                 for (z, _rows), k in zip(model.obs_distinct, shares)) @ q
    return np.asarray(scores).argmax(axis=1)


def _policy_alphas(model: PomdpModel, pi: np.ndarray,
                   guess: np.ndarray) -> list:
    """Values of "play a, then follow the observation policy pi", one alpha
    per action, shifted down by their residual certificate.

    They solve alpha_a = r_a + gamma T_a sum_b (D_ab * alpha_b), with
    D_ab(s') = sum_{o: pi(o) = b} Z_a(s', o): one Krylov solve over the
    stacked (n_actions * n_states) values, started at the columns of the
    (n_states, n_actions) table ``guess``. The stacked operator is
    row-stochastic, so the shift of :func:`_blind_alphas` certifies the
    result, and every pi gives alphas below the POMDP value. D_ab and its
    sum against the values are formed once per distinct Z_a; one
    ``model.after`` of those sums serves every action."""
    g, n, n_a = model.discount, model.n_states, model.n_actions
    # d[k] is (n_actions, n_states) for the k-th distinct Z: row b holds D_b
    d = np.array([np.bincount(pi[z.indices] * n + rows, weights=z.data,
                              minlength=n_a * n).reshape(n_a, n)
                  for z, rows in model.obs_distinct])

    def step(x):
        return model.after((d * x.reshape(n_a, n)).sum(axis=1)).ravel()

    r = model.reward.T.ravel()
    v = _evaluate(step, r, g, guess.T.ravel())
    res = np.abs(r + g * step(v) - v).max()
    v = (v - res / (1.0 - g)).reshape(n_a, n)
    return [AlphaVector(values=v[a], action=a) for a in range(n_a)]


def _fib_sweep(model: PomdpModel, q: np.ndarray, prev):
    """One sweep of the fast informed bound (FIB) operator H, on a model of
    explicit matrices, from the (n_states, n_actions) table q:
    (Hq)(s, a) = r(s, a) + gamma sum_o max_b sum_s' T_a(s, s') Z_a(s', o)
    q(s', b).

    Returns Hq, per action the pattern (indptr, indices) of T_a Z_a and the
    best next action at each of its stored (s, o) entries, and whether any
    entry switched. ``prev(a, obs)`` gives the previous choice at the
    entries whose observation ids are ``obs``; an entry keeps it unless
    another action gains more than SWITCH_GAIN, so that round-off cannot
    make policy iteration cycle.

    Each product T_a (Z_a * (q_b + c)) takes q_b + c > 0, so no entry
    cancels to 0 and every b stores the same entries in the same order;
    a running maximum over b reads one product at a time, the lowest b
    winning ties. Every row of T_a Z_a sums to 1, so c adds c to each row
    sum of the maximum, and every row has an entry to sum. Z_a * (q_b + c)
    is built once per distinct Z_a."""
    hq = np.empty_like(q)
    patterns, choice, switched = [], [], False
    c = 1.0 - min(q.min(), 0.0)
    weighted = [[sparse.csr_matrix((z.data * (q[rows, b] + c), z.indices,
                                    z.indptr), shape=z.shape)
                 for b in range(model.n_actions)]
                for z, rows in model.obs_distinct]
    for a, t in enumerate(model.transitions):
        for b, z_b in enumerate(weighted[model.obs_group[a]]):
            prod = t @ z_b
            if b == 0:
                indptr, indices = prod.indptr, prod.indices
                last = prev(a, indices)
                top, pick = prod.data.copy(), np.zeros(prod.nnz, np.intp)
                at_last = np.where(last == 0, top, 0.0)
                continue
            np.copyto(pick, b, where=prod.data > top)
            np.maximum(top, prod.data, out=top)
            np.copyto(at_last, prod.data, where=last == b)
        keep = top <= at_last + SWITCH_GAIN
        pick[keep] = last[keep]
        hq[:, a] = model.reward[:, a] + model.discount * (
            np.add.reduceat(top, indptr[:-1]) - c)
        patterns.append((indptr, indices))
        choice.append(pick)
        switched = switched or not keep.all()
    return hq, patterns, choice, switched


def _fixed_choice_step(model: PomdpModel, patterns: list, choice: list):
    """Matvec of the stacked (n_actions * n_states) operator that plays the
    next action ``choice[a][i]`` after action a at the i-th stored (s, o)
    entry of ``patterns[a]``. Its (a, b) block is T_a * (M_ab Z_a^T), M_ab
    marking the entries that choose b; the blocks sum to a row-stochastic
    matrix, and the matvec applies them one by one."""
    n, n_a = model.n_states, model.n_actions
    # mark @ Z^T reads Z^T as CSR: transpose each distinct Z once
    z_t = [z.T.tocsr() for z, _rows in model.obs_distinct]
    blocks = []
    for (indptr, indices), pick, t, k in zip(patterns, choice,
                                             model.transitions,
                                             model.obs_group):
        row = []
        for b in range(n_a):
            # eliminate_zeros compacts the index arrays in place: copy them
            mark = sparse.csr_matrix(((pick == b).astype(float),
                                      indices.copy(), indptr.copy()),
                                     shape=(n, z_t[k].shape[0]))
            mark.eliminate_zeros()
            if mark.nnz:
                row.append((b, t.multiply(mark @ z_t[k]).tocsr()))
        blocks.append(row)

    def step(x):
        x = x.reshape(n_a, n)
        return np.concatenate([sum(k.dot(x[b]) for b, k in row)
                               for row in blocks])
    return step


def _closed_sweep(model: PomdpModel, q: np.ndarray, last: np.ndarray):
    """:func:`_fib_sweep` on a closed model (B = ``model.posteriors``):
    sum_s' T_a(s, s') Z_a(s', o) q(s', b) = Pr(o | s, a) (B q)(o, b), so
    (Hq)(., a) = r_a + gamma T_a Z_a max_b (B q)(., b), one choice per o."""
    bq = np.asarray(model.posteriors @ q)
    best, m = bq.argmax(axis=1), bq.max(axis=1)
    keep = ~model.emitted | (m <= bq[np.arange(m.size), last] + SWITCH_GAIN)
    zm = np.array([z @ m for z, _rows in model.obs_distinct])
    hq = model.reward + model.discount * model.after(zm).T
    return hq, np.where(keep, last, best), not keep.all()


def _fib_q(model: PomdpModel, pi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fixed point of the FIB operator H (Hauskrecht, JAIR 2000), an upper
    bound on the POMDP's Q-values, by policy iteration over the next-action
    choices from the observation policy ``pi`` and its values ``q``: one
    sweep improves the choices, one stacked Krylov solve evaluates them (on
    a closed model, which chooses per observation in :func:`_closed_sweep`,
    by :func:`_policy_alphas`). H is a gamma-contraction, so the result is
    shifted up by ||Hq - q||_inf / (1 - gamma): valid from any q."""
    g, n, n_a = model.discount, model.n_states, model.n_actions
    r = model.reward.T.ravel()
    if closed := model.posteriors is not None:
        hq, c, moved = _closed_sweep(model, q, pi)
    else:
        hq, patterns, c, moved = _fib_sweep(model, q, lambda a, o: pi[o])
    for _ in range(MAX_POLICY_ROUNDS):
        if not moved:
            break
        if closed:
            q = np.array([a.values for a in _policy_alphas(model, c, q)]).T
            hq, c, moved = _closed_sweep(model, q, c)
        else:
            q = _evaluate(_fixed_choice_step(model, patterns, c), r, g,
                          q.T.ravel()).reshape(n_a, n).T
            hq, patterns, c, moved = _fib_sweep(
                model, q, lambda a, o, last=c: last[a])
    return q + np.abs(hq - q).max() / (1.0 - g)


def initial_bounds(model: PomdpModel, b0: np.ndarray | None = None,
                   eps: float = 0.0) -> BoundPair:
    """Blind-policy alpha set below, fully-observed MDP corners above, both
    from certified matrix-free solves (HSVI2 seeds its bounds from policy
    evaluations too). Given a root belief ``b0`` where these leave a gap
    above ``eps``, the lower bound also takes the alphas of "play a, then
    follow the QMDP observation policy", with the MDP Q as the guess. If
    the gap at ``b0`` is still above ``eps``, the fast informed bound from
    that policy and its alphas (:func:`_fib_q`, in closed form on a closed
    model) replaces the upper bound: its best Q per state at the corners,
    and its best action's value at ``b0`` as a point."""
    blind = _blind_alphas(model)
    corners, q = _mdp_corners(model, blind)
    bounds = BoundPair(lower=LowerBound(blind), upper=UpperBound(corners))
    if b0 is None or bounds.gap(b0) <= eps:
        return bounds
    pi = _observation_policy(model, q)
    alphas = _policy_alphas(model, pi, q)
    for alpha in alphas:
        bounds.lower.add(alpha)
    if bounds.gap(b0) > eps:
        fib = _fib_q(model, pi, np.array([a.values for a in alphas]).T)
        bounds.upper = UpperBound(fib.max(axis=1))
        bounds.upper.add(b0, float((b0 @ fib).max()))
    return bounds


def _successor_posts(model: PomdpModel, a: int, tau: np.ndarray):
    """All Bayes posteriors reachable under action a from the propagated
    belief tau: (active observation ids, their probabilities, posterior rows
    as a sparse (m, n_states) matrix).

    Only the rows of Z at tau's support are read. A stable sort groups the
    weighted entries by observation, each group in next-state order, and
    ``np.add.reduceat`` sums each group as scipy sums a CSC column."""
    z = model.observations[a]
    pos, nxt = row_entries(z, np.flatnonzero(tau))
    obs = z.indices[pos]
    order = np.argsort(obs, kind="stable")
    pos, nxt, obs = pos[order], nxt[order], obs[order]
    w = z.data[pos] * tau[nxt]
    # offsets of the observation groups' first entries, then the end
    edge = np.flatnonzero(np.concatenate(([True], obs[1:] != obs[:-1],
                                          [True])))
    p_o = np.add.reduceat(w, edge[:-1])
    live = p_o > 0.0
    sizes = np.diff(edge)
    keep = np.repeat(live, sizes)
    p_act, sizes = p_o[live], sizes[live]
    # Z's index type holds every state id, as Z stores an entry in every
    # row; index arrays of that type spare the constructor a range scan
    idx = z.indices.dtype
    posts = sparse.csr_matrix(
        (w[keep] / np.repeat(p_act, sizes), nxt[keep].astype(idx),
         np.concatenate(([0], np.cumsum(sizes))).astype(idx)),
        shape=(p_act.size, model.n_states))
    return obs[edge[:-1][live]], p_act, posts


def _expand(b: np.ndarray, model: PomdpModel) -> list:
    """Expansion of belief b: per action, (expected stage reward at b,
    active observation ids, their probabilities, posterior rows). The
    posteriors do not depend on the bounds, so one record serves the
    lookahead, the backup and the upper-bound update."""
    return [(float(model.reward[:, a] @ b),)
            + _successor_posts(model, a, model.propagate(b, a))
            for a in range(model.n_actions)]


def q_values(expansion: list, bound, discount: float):
    """One-step Q-values of an expansion against a bound (lower or upper),
    reward orientation; also returns each action's successor bound values."""
    q = np.empty(len(expansion))
    succ_vals = []
    for a, (r, active, p_act, posts) in enumerate(expansion):
        v = bound.value_many(posts) if active.size else np.zeros(0)
        q[a] = r + discount * float(p_act @ v)
        succ_vals.append(v)
    return q, succ_vals


def backup(b: np.ndarray, bounds: BoundPair, model: PomdpModel,
           expansion: list) -> AlphaVector:
    """Point-based backup at b from its expansion: per action, stage reward
    plus the discounted best-alpha cross-sum over observations; extremal
    action at b wins.

    The cross-sum is one pass over the stored entries of the observation
    matrix: entry (s', o) contributes Z[s',o] * alpha_pick(o)(s'), and
    ``bincount`` sums each row from 0 in column order, as a CSR product
    with ones does. Every observation takes an alpha, also one that b
    cannot emit: the new alpha is used at every belief, and a state that
    can emit o would otherwise get 0 in place of a value, which overshoots
    where values are negative. Any alpha keeps the backup a valid lower
    bound there, so those take alpha 0."""
    alpha_mat = bounds.lower.matrix()
    best_val, best_vec, best_a = -np.inf, None, 0
    for a, (_r, active, _p_act, posts) in enumerate(expansion):
        z = model.observations[a]
        pick = np.zeros(model.n_obs, dtype=np.intp)
        # argmax is invariant to the positive per-row normalization
        pick[active] = bounds.lower.scores(posts).argmax(axis=1)
        terms = z.data * alpha_mat[pick[z.indices], model.obs_rows[a]]
        g = np.bincount(model.obs_rows[a], weights=terms,
                        minlength=model.n_states)
        vec = model.reward[:, a] + model.discount * model.apply(a, g)
        val = float(vec @ b)
        if val > best_val + 1e-15:
            best_val, best_vec, best_a = val, vec, a
    return AlphaVector(values=best_vec, action=best_a)


def excess_uncertainty(gap: float, t: int, eps: float,
                       discount: float) -> float:
    """Bound gap at a depth-t belief minus the depth-discounted convergence
    threshold."""
    if t < 0:
        raise ValueError("depth must be nonnegative")
    return gap - eps / discount ** t


# the witness prune reads only this many most recently backed-up beliefs
WITNESS_SLOTS = 200
# both bounds are pruned after every this many explorations
PRUNE_EVERY = 10


@dataclass
class ExploreStats:
    backups: int = 0
    truncations: int = 0
    visited: deque = field(
        default_factory=lambda: deque(maxlen=WITNESS_SLOTS))


def explore(b: np.ndarray, t: int, bounds: BoundPair, model: PomdpModel,
            eps: float, depth_cap: int, stats: ExploreStats | None = None) -> BoundPair:
    """One depth-first HSVI exploration from b at depth t, updating both
    bounds on the unwind. Exceeding the depth cap truncates (recorded,
    non-fatal)."""
    stats = stats if stats is not None else ExploreStats()
    b = check_belief(b)
    if excess_uncertainty(bounds.audit(b), t, eps, model.discount) <= 0.0:
        return bounds
    if t >= depth_cap:
        stats.truncations += 1
        return bounds
    expansion = _expand(b, model)
    # action by optimistic (upper bound) one-step lookahead
    q_up, up_vals = q_values(expansion, bounds.upper, model.discount)
    a_star = int(np.argmax(q_up))
    # observation maximizing weighted excess at the successor
    _r, _active, p_act, posts = expansion[a_star]
    if p_act.size:
        lo = bounds.lower.value_many(posts)
        scores = p_act * (up_vals[a_star] - lo
                          - eps / model.discount ** (t + 1))
        i_star = int(np.argmax(scores))
        if scores[i_star] > 0.0:
            lo_i, hi_i = posts.indptr[i_star], posts.indptr[i_star + 1]
            succ = np.zeros(model.n_states)
            succ[posts.indices[lo_i:hi_i]] = posts.data[lo_i:hi_i]
            explore(succ, t + 1, bounds, model, eps, depth_cap, stats)
    bounds.lower.add(backup(b, bounds, model, expansion))
    # the upper bound moved during the recursion; the posteriors did not
    q_up, _ = q_values(expansion, bounds.upper, model.discount)
    bounds.upper.add(b, float(q_up.max()))
    stats.backups += 1
    stats.visited.append(b)
    return bounds


@dataclass
class HsviResult:
    bounds: BoundPair
    log: list                 # (iter, root_lower, root_upper, n_alpha, n_pts, wall_ms)
    converged: bool
    root_value: float
    iterations: int
    root_gap: float           # final upper minus lower bound at b0

    def log_lines(self, include_wall: bool = False):
        """Line-delimited iteration records; wall clock is excluded by
        default so emitted logs are reproducible byte-for-byte."""
        for rec in self.log:
            base = f"{rec[0]} {rec[1]:.12g} {rec[2]:.12g} {rec[3]} {rec[4]}"
            yield base + (f" {rec[5]:.1f}" if include_wall else "")


def check_solver_args(eps: float, max_iterations: int) -> None:
    """Raise ``ValueError`` unless 0 < eps < inf and max_iterations >= 0."""
    if not 0 < eps < math.inf:       # NaN fails too
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not max_iterations >= 0:
        raise ValueError(
            f"max_iterations must be non-negative, got {max_iterations}")


def solve_hsvi(model: PomdpModel, b0: np.ndarray, eps: float,
               max_iterations: int = 1000,
               depth_cap: int | None = None) -> HsviResult:
    """Repeat guided exploration from b0 until the root gap drops below eps
    or the iteration budget runs out (no wall-clock limit, so that the
    result does not depend on the host's speed)."""
    check_solver_args(eps, max_iterations)
    b0 = check_belief(b0)
    bounds = initial_bounds(model, b0, eps)
    start = time.perf_counter()
    gap0 = bounds.gap(b0)
    if depth_cap is None:
        if gap0 > eps:
            depth_cap = int(math.ceil(math.log(eps / gap0)
                                      / math.log(model.discount))) + 20
        else:
            depth_cap = 20
    log = []
    converged = gap0 <= eps
    last_gap = gap0
    witnesses = deque(maxlen=WITNESS_SLOTS)
    it = 0
    while not converged and it < max_iterations:
        it += 1
        # exploration pushes each backed-up belief into the witness slots
        stats = ExploreStats(visited=witnesses)
        explore(b0, 0, bounds, model, eps, depth_cap, stats)
        if it % PRUNE_EVERY == 0:
            bounds.lower.prune_pointwise()
            # b0 is always a witness, however many beliefs followed it
            bounds.lower.prune_witness(np.array([b0, *witnesses]))
            bounds.upper.prune()
        lo, hi = bounds.lower.value(b0), bounds.upper.value(b0)
        # the gap that decides convergence never rises; the logged bounds
        # are raw
        last_gap = min(hi - lo, last_gap)
        log.append((it, lo, hi, len(bounds.lower), len(bounds.upper),
                    (time.perf_counter() - start) * 1e3))
        converged = last_gap <= eps
    lo, hi = bounds.lower.value(b0), bounds.upper.value(b0)
    return HsviResult(bounds=bounds, log=log, converged=converged,
                      root_value=0.5 * (lo + hi), iterations=it,
                      root_gap=hi - lo)

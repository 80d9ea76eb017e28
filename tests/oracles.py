"""Reference loops that the vectorized production code must match exactly.

Each function is the earlier, one-item-at-a-time form of a production
routine: the scalar slot recursions and one user's next-state pmf, the
per-action degraded effect, the per-action kernel matrices, the per-slot
rollout and its per-episode reduction, the per-draw link calibration, the
value-iteration HSVI bounds, the per-alpha list lower bound
(:class:`ListLowerBound`), the per-action seed solves (row gather,
Q-table, observation policy and policy alphas), the sparse-matrix belief
expansion and backup, the joint CSR matrices of a Kronecker-factored
kernel (:func:`kernel_matrices`, :func:`explicit_model`), the
``sparse.kron`` build of the observation matrix and the posterior table
(:func:`reference_level_map_matrix`). The per-entry fast informed bound
on scipy's sparse products (:func:`scipy_fib_q`, with its sweep and its
fixed-choice operator) is the one per-entry form left: no production
routine computes it, and it is the reference for the solver's closed
form on closed models. The production
code holds its sparse matrices as ``pomdp.model.Csr`` records;
:func:`scipy_csr` reads one as a scipy matrix. Tests compare the
production arrays with these, using exact equality where the arithmetic
is the same.

Helpers that only tests call live here too: the scalar joint-state index
(``encode``, ``decode``, ``states``), the ZF equalizers and the power
split, the Bayes belief update and observation probability, and the
closed-form SINR densities (the Gamma law of the ZF uplink and the
moment-matched Beta-II law of the downlink), which are the sampler's
goodness-of-fit oracles.

Exact evaluations check the solver's values from outside: alpha-vector
value iteration on small POMDPs, the (state, observation)-pair chain of an
observation-feedback policy, dense fast-informed-bound iteration, and the
observation MDP that a compiled scenario's POMDP reduces to.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse, special
from scipy.sparse.linalg import spsolve

from swiptctl.channel import (AntennaSelection, BeamformerSet, Dims,
                              _check_conditioning, _stack_uplink,
                              achievable_rate, channel_stream, crandn,
                              downlink_sinr, draw_channel, harvested_energy,
                              uplink_sinr)
from swiptctl.dynamics import ActionTable, LevelModel, user_action_table
from swiptctl.harness import episode_rng
from swiptctl.pomdp import BoundPair, LowerBound, UpperBound, solver
from swiptctl.pomdp.model import Csr, PomdpModel, check_belief
from swiptctl.scenario import ScenarioConfig


class InadmissibleActionError(ValueError):
    """Action spends more energy units than the buffer holds."""


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


def user_next_pmf(q: int, e: int, lv: int, actions, a: int, user: int,
                  pmf_arr: np.ndarray, level: LevelModel, space):
    """Support/probability pairs of the next (q, e, l) triple for one user
    under action ``a`` of the table ``actions``.

    Inadmissible energy expenditure degrades to a no-transmit fallback for
    that user (nothing served, nothing spent); harvesting is unaffected.
    """
    used = int(actions.used_units[a, user])
    served = int(actions.served[a, user, lv])
    if used > e:
        used, served = 0, 0
    e_next = step_energy(e, used, int(actions.harvested[a, user, lv]),
                         space.e_max)
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


def admissible(actions, a: int, energies) -> bool:
    """Every user can pay action a's energy price."""
    return all(actions.used_units[a, u] <= energies[u]
               for u in range(len(energies)))


def effective_effect(actions, a: int, energies):
    """Action a's per-user fields (served, harvested, used_units, p_up,
    p_down, rate_down), copied from the table, with the per-user fallback:
    users who cannot pay the energy price do not transmit (the kernel's
    fallback)."""
    eff = SimpleNamespace(**{
        name: np.array(getattr(actions, name)[a], dtype=dtype)
        for name, dtype in (("served", int), ("harvested", int),
                            ("used_units", int), ("p_up", float),
                            ("p_down", float), ("rate_down", float))})
    for u, e in enumerate(energies):
        if eff.used_units[u] > e:
            eff.served[u, :] = 0
            eff.used_units[u] = 0
            eff.p_up[u] = 0.0
    return eff


# ---------------------------------------------------------------------------
# scalar state indexing
# ---------------------------------------------------------------------------

def encode(space, users: tuple) -> int:
    """Joint index of (q, e, level) triples, user-major, as
    ``StateSpace`` orders its states."""
    idx = 0
    for (q, e, lv) in users:
        idx = idx * space.per_user + ((q * (space.e_max + 1) + e) * space.n_levels + lv)
    return idx


def decode(space, idx: int) -> tuple:
    """(q, e, level) triples of a joint index."""
    out = []
    for _ in range(space.n_users):
        idx, rem = divmod(idx, space.per_user)
        rem, lv = divmod(rem, space.n_levels)
        q, e = divmod(rem, space.e_max + 1)
        out.append((q, e, lv))
    return tuple(reversed(out))


def states(space):
    """Every (index, triples) pair of the joint state space."""
    for idx in range(space.size):
        yield idx, decode(space, idx)


def reference_run_episode(policy, compiled, horizon, seed, episode=0):
    """One rollout slot by slot and user by user, with one
    ``Generator.choice`` call per draw; returns per-slot records."""
    space = compiled.space
    level = compiled.level
    rng = episode_rng(seed, episode)
    pmf = compiled.arrival_pmf
    n_users = space.n_users
    q = np.zeros(n_users, dtype=int)
    e = np.full(n_users, space.e_max, dtype=int)
    actions = compiled.actions
    traj = []
    for _t in range(horizon):
        levels = rng.choice(level.probs.size, size=n_users, p=level.probs)
        obs_levels = np.array([
            rng.choice(level.probs.size, p=level.obs_confusion[lv])
            for lv in levels])
        obs = encode(space, tuple((int(q[u]), int(e[u]), int(obs_levels[u]))
                                  for u in range(n_users)))
        a = int(policy.action_of[obs])
        eff = effective_effect(actions, a, e)
        served = np.array([min(int(eff.served[u, levels[u]]), int(q[u]))
                           for u in range(n_users)])
        harvested = np.array([int(eff.harvested[u, levels[u]])
                              for u in range(n_users)])
        used = np.asarray(eff.used_units, dtype=int)
        arrived = rng.choice(pmf.size, size=n_users, p=pmf)
        e_inter = e - used
        discarded = np.maximum(e_inter + harvested - space.e_max, 0)
        rate_down = np.array([float(eff.rate_down[u])
                              for u in range(n_users)])
        traj.append({
            "queues": q.copy(), "energies": e.copy(), "levels": levels,
            "obs": obs, "action": a,
            "n_active": int(actions.n_active[a]),
            "p_up": np.asarray(eff.p_up, dtype=float).copy(),
            "p_down": np.asarray(eff.p_down, dtype=float).copy(),
            "served": served, "arrived": arrived,
            "harvested": harvested, "used": used, "discarded": discarded,
            "rate_up": served.astype(float), "rate_down": rate_down,
        })
        q = np.minimum(np.maximum(q - served, 0) + arrived, space.q_max)
        e = np.minimum(e_inter + harvested, space.e_max)
    return traj


def reference_episode_summary(traj, cfg) -> dict:
    """Per-episode means of one reference trajectory."""
    qs = np.array([rec["queues"] for rec in traj], dtype=float)
    tx = np.array([np.sum(rec["p_up"]) + np.sum(rec["p_down"])
                   for rec in traj])
    frac = np.array([rec["n_active"] / cfg.n_r for rec in traj])
    circ = np.array([rec["n_active"] * cfg.circuit_w_per_antenna
                     for rec in traj])
    return {
        "delay_slots": qs.mean(axis=0) / cfg.lam_slot,
        "p_up": np.array([rec["p_up"] for rec in traj]).mean(axis=0),
        "p_down": np.array([rec["p_down"] for rec in traj]).mean(axis=0),
        "rate_up": np.array([rec["rate_up"] for rec in traj]).mean(axis=0),
        "rate_down": np.array([rec["rate_down"] for rec in traj]).mean(axis=0),
        "effective_power": float(np.mean(tx * frac + circ)),
    }


def reference_monte_carlo(policy, compiled, episodes, horizon, base_seed=0):
    """``RunResult`` fields, episode by episode from the reference loop."""
    cfg = compiled.config
    sums = [reference_episode_summary(
        reference_run_episode(policy, compiled, horizon, base_seed, ep), cfg)
        for ep in range(episodes)]
    delay_ms = np.array([float(np.sum(s["delay_slots"])) * cfg.slot_s * 1e3
                         for s in sums])
    eff_p = np.array([s["effective_power"] for s in sums])
    half = 1.96 / np.sqrt(episodes)
    return {
        "delay_slots": np.mean([s["delay_slots"] for s in sums], axis=0),
        "delay_ms_mean": float(delay_ms.mean()),
        "delay_ms_ci": float(half * delay_ms.std(ddof=1)),
        "p_up_w": np.mean([s["p_up"] for s in sums], axis=0),
        "p_down_w": np.mean([s["p_down"] for s in sums], axis=0),
        "rate_up": np.mean([s["rate_up"] for s in sums], axis=0),
        "rate_down": np.mean([s["rate_down"] for s in sums], axis=0),
        "effective_power_w": float(eff_p.mean()),
        "effective_power_ci": float(half * eff_p.std(ddof=1)),
    }


# ---------------------------------------------------------------------------
# link-layer references: ZF equalizers, power split, SINR densities
# ---------------------------------------------------------------------------

class DegenerateParameterError(ValueError):
    """Moment-matching chain hit a zero denominator."""


@dataclass(frozen=True)
class BetaIIParams:
    """Moment-matched matrix-variate Beta-II degrees of freedom and the
    intermediates of the matching chain."""

    eta_g: float
    n_g: float
    eta_q: float
    n_q: float
    eta_v: float
    n_v: float
    n1: float
    n2: float

    def __post_init__(self):
        for name in ("eta_g", "n_g", "eta_q", "n_q", "eta_v", "n_v", "n1", "n2"):
            if not getattr(self, name) > 0:
                raise DegenerateParameterError(f"{name} must be positive")


@dataclass(frozen=True)
class SplitSignal:
    """Power-split outcome at an SU receiver: rho goes to information
    detection, 1 - rho to energy harvesting."""

    id_power: float
    eh_power: float
    rho: float


def all_on(n_r: int) -> AntennaSelection:
    """Every antenna of an n_r array active."""
    return AntennaSelection(np.ones(n_r, dtype=bool))


def zf_equalizer(h_check: np.ndarray, d_k: int) -> np.ndarray:
    """ZF receive filter [I_{d_k} 0] @ inv(h_check) for a square stacked
    channel."""
    h_check = np.asarray(h_check)
    if h_check.ndim != 2 or h_check.shape[0] != h_check.shape[1]:
        raise ValueError("h_check must be square; use the stacked channel")
    if d_k < 1 or d_k > h_check.shape[0]:
        raise ValueError("invalid stream count")
    _check_conditioning(h_check)
    z = np.zeros((d_k, h_check.shape[0]), dtype=complex)
    z[:, :d_k] = np.eye(d_k)
    return z @ np.linalg.inv(h_check)


def uplink_equalizer(channels, sel: AntennaSelection, bf: BeamformerSet, k: int,
                     si_column: np.ndarray | None = None) -> np.ndarray:
    """ZF receive filter for user k's n_u desired streams.

    Uses the square inverse when the stack is square, the left pseudo-inverse
    otherwise; either way ``U @ h_check = [I 0]`` exactly.
    """
    h_check = _stack_uplink(channels, sel, bf, k, si_column)
    n_u = channels[k].h_est.shape[1]
    if h_check.shape[0] == h_check.shape[1]:
        return zf_equalizer(h_check, n_u)
    _check_conditioning(h_check)
    gram_inv = np.linalg.inv(h_check.conj().T @ h_check)
    return gram_inv[:n_u, :] @ h_check.conj().T


def split_received(received_power: float, rho: float) -> SplitSignal:
    """Split received power between the ID (rho) and EH (1 - rho) branches."""
    if received_power < 0:
        raise ValueError("received power must be nonnegative")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    return SplitSignal(id_power=rho * received_power,
                       eh_power=(1.0 - rho) * received_power, rho=rho)


def beta2_moment_match(n_t: int, k: int, alpha: float, power_ratio: float,
                       sigma_d0: float) -> BetaIIParams:
    """Moment-matching chain producing the Beta-II degrees of freedom.

    ``power_ratio`` is p_u / p_d before the (1 - alpha^2) normalization;
    ``sigma_d0`` is the combined normalized noise constant. A goodness-of-fit
    oracle for the sampler.
    """
    if n_t <= 0 or k <= 0 or sigma_d0 <= 0 or power_ratio < 0:
        raise ValueError("inputs must be positive")
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    r = power_ratio / (1.0 - alpha ** 2)
    a = alpha ** 2 / (1.0 - alpha ** 2)

    den_g = k * (1.0 + r) - 1.0
    if den_g == 0:
        raise DegenerateParameterError("eta_g denominator K(1+r)-1 vanished")
    eta_g = (k * (1.0 + r ** 2) - 1.0) / den_g
    den_ng = r ** 2 * k + k - 1.0
    if den_ng == 0:
        raise DegenerateParameterError("N_g denominator vanished")
    n_g = 2.0 * n_t * (r * k + k - 1.0) ** 2 / den_ng

    den_q = n_g * eta_g + 2.0 * n_t * k * a
    if den_q == 0:
        raise DegenerateParameterError("eta_q denominator vanished")
    eta_q = (n_g * eta_g ** 2 + 2.0 * n_t * k * a ** 2) / den_q
    den_nq = 2.0 * n_t * k * a ** 2 + n_g * eta_g ** 2
    if den_nq == 0:
        raise DegenerateParameterError("N_q denominator vanished")
    n_q = (2.0 * n_t * k * a + n_g * eta_g) ** 2 / den_nq

    eta_v = eta_q * n_q / (n_q + sigma_d0)
    n_v = n_q / 2.0 + sigma_d0 * (2.0 * n_q + sigma_d0) / (2.0 * n_q)

    den_1 = eta_v * (n_t + n_v - 1.0)
    if den_1 == 0:
        raise DegenerateParameterError("N1 denominator vanished")
    n1 = n_t * (n_t + (n_v - 2.0) * eta_v + 1.0) / den_1
    n2 = (n_v * (n_t - 3.0 * eta_v + 2.0) + n_v ** 2 * eta_v
          + 2.0 * (eta_v - 1.0)) / (n_t + n_v - 1.0)
    return BetaIIParams(eta_g=eta_g, n_g=n_g, eta_q=eta_q, n_q=n_q,
                        eta_v=eta_v, n_v=n_v, n1=n1, n2=n2)


def _multigammaln(x: float, d: int) -> float:
    return float(special.multigammaln(x, d))


def beta2_pdf(gamma, params: BetaIIParams, n_u: int = 1) -> float:
    """Matrix-variate Beta-II density (scalar Beta-prime for n_u = 1).

    det(G)^{(2 N1 - n_u - 1)/2} det(I + G)^{-(N1+N2)} / beta(N1, N2) with the
    multivariate-Gamma normalizer. A goodness-of-fit oracle for the
    sampler.
    """
    n1, n2 = params.n1, params.n2
    log_beta = _multigammaln(n1, n_u) + _multigammaln(n2, n_u) \
        - _multigammaln(n1 + n2, n_u)
    if n_u == 1:
        g = float(gamma)
        if g <= 0:
            raise ValueError("gamma must be positive")
        logp = (n1 - 1.0) * math.log(g) - (n1 + n2) * math.log1p(g) - log_beta
        return math.exp(logp)
    g = np.asarray(gamma)
    sign, logdet_g = np.linalg.slogdet(g)
    if sign <= 0:
        raise ValueError("gamma must be positive definite")
    _, logdet_ig = np.linalg.slogdet(np.eye(n_u) + g)
    logp = (2.0 * n1 - n_u - 1.0) / 2.0 * logdet_g \
        - (n1 + n2) * logdet_ig - log_beta
    return math.exp(logp)


def uplink_eta(dims: Dims, alpha: float, p_up: float, noise: float,
               w_norm_sq: float = 1.0, d_k: int = 1,
               err_power: float | None = None) -> float:
    """Gamma-scale parameter for the ZF uplink SINR density.

    Follows the Prop-style construction eta^2 = (1-a^2) p_u ||V w||^2 /
    (d_k (a^2 P_err + sigma^2)) with an extra 1/2 reconciling the density's
    real-Wishart normalization against unit-variance complex channel entries.
    ``err_power`` defaults to the single-user trace term p_u ||w||^2.
    A goodness-of-fit oracle for the sampler.
    """
    if err_power is None:
        err_power = p_up * w_norm_sq
    den = d_k * (alpha ** 2 * err_power + noise)
    if den <= 0:
        raise DegenerateParameterError("eta denominator vanished")
    return math.sqrt((1.0 - alpha ** 2) * p_up * w_norm_sq / (2.0 * den))


def uplink_sinr_pdf(gamma: float, eta: float, dims: Dims) -> float:
    """ZF uplink SINR density for the scalar-stream (n_u = 1) marginal.

    gamma^{(2 n_r - n_u - 1)/2} exp(-gamma / (2 eta^2)) over the
    2^{n_r} Gamma(n_r) (eta^2)^{n_r} normalizer; a Gamma(n_r, 2 eta^2) law.
    A goodness-of-fit oracle for the sampler.
    """
    if dims.n_u != 1:
        raise NotImplementedError("density evaluator supports n_u = 1 only")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if eta <= 0:
        raise DegenerateParameterError("eta must be positive")
    n_r = dims.n_r
    logp = (2 * n_r - dims.n_u - 1) / 2.0 * math.log(gamma) \
        - gamma / (2.0 * eta ** 2) \
        - n_r * math.log(2.0 * eta ** 2) - special.gammaln(n_r)
    return math.exp(logp)


def _mrt_precoders(dims: Dims, sel: AntennaSelection, chans) -> tuple:
    out = []
    for ch in chans:
        f = sel.select(ch.h_est)
        w = f[:, :dims.n_u].conj() if f.shape[1] >= dims.n_u else f.conj()
        out.append(w / np.linalg.norm(w))
    return tuple(out)


def _draw_set(cfg: ScenarioConfig, rng) -> tuple:
    return tuple(draw_channel(cfg.dims(), cfg.alpha, rng)
                 for _ in range(cfg.k))


def reference_calibrate(cfg: ScenarioConfig) -> tuple:
    """Seeded Monte Carlo pass over channel draws, one ``uplink_sinr`` and
    one ``downlink_sinr`` call per draw and action; returns the
    ``(LevelModel, ActionTable)`` pair, the table stacked from one record
    per action.

    Levels are equal-mass quantile bins of the true per-user channel gain;
    the confusion matrix counts how often the estimated gain falls in a
    different bin. Service, harvest and rate tables are per-level sample
    means of the SINR maps, discretized to packets and energy units.
    """
    rng = channel_stream(cfg.seed, link=2)
    dims = cfg.dims()
    duplex_frac = 0.5 if cfg.duplex == "hd" else 1.0
    slot_link = cfg.slot_s * duplex_frac
    si = 0.0 if cfg.duplex == "hd" else cfg.si_power_w

    draws = [_draw_set(cfg, rng) for _ in range(cfg.calib_draws)]
    gains_true = np.array([[np.linalg.norm(ch.h_true) ** 2 for ch in d]
                           for d in draws])
    gains_est = np.array([[np.linalg.norm(ch.h_est) ** 2 for ch in d]
                          for d in draws])
    edges = np.quantile(gains_true.ravel(),
                        np.linspace(0, 1, cfg.n_levels + 1))
    edges[0], edges[-1] = 0.0, np.inf

    def bins(g):
        return np.clip(np.searchsorted(edges, g, side="right") - 1,
                       0, cfg.n_levels - 1)

    level_true = bins(gains_true)              # (calib_draws, k)
    counts = np.zeros((cfg.n_levels, cfg.n_levels))
    np.add.at(counts, (level_true.ravel(), bins(gains_est).ravel()), 1.0)
    conf = counts / counts.sum(axis=1, keepdims=True)
    probs = counts.sum(axis=1) / counts.sum()
    level = LevelModel(probs=probs, obs_confusion=conf)

    # the per-level sample counts, and the uplink precoders of each draw,
    # are the same for every action
    hits = np.maximum([np.bincount(level_true[:, u], minlength=cfg.n_levels)
                       for u in range(cfg.k)], 1.0)
    raw_up = crandn(channel_stream(cfg.seed, link=3), cfg.calib_draws,
                    cfg.k, dims.n_u, dims.n_u)
    w_up = [tuple(w / np.linalg.norm(w) for w in draw) for draw in raw_up]

    mask_sizes = cfg.resolved_mask_sizes()
    power_pairs = [(pu, pd) for pu, pd in zip(cfg.power_levels_up,
                                              cfg.power_levels_down)]
    rows = []
    for m_id, n_active in enumerate(mask_sizes):
        sel = AntennaSelection.first(cfg.n_r, n_active)
        w_down = [_mrt_precoders(dims, sel, chans) for chans in draws]
        # received downlink gain |h_u^H w_u|^2 per draw and user
        rx_gain = [[float(np.linalg.norm(sel.select(chans[u].h_true)
                                         .conj().T @ w[u]) ** 2)
                    for u in range(cfg.k)]
                   for chans, w in zip(draws, w_down)]
        for p_up, p_down in power_pairs:
            sinr_up = np.zeros((cfg.k, cfg.n_levels))
            sinr_dn = np.zeros((cfg.k, cfg.n_levels))
            eh_power = np.zeros((cfg.k, cfg.n_levels))
            for d_i, chans in enumerate(draws):
                bf = BeamformerSet(
                    w_up=w_up[d_i], w_down=w_down[d_i],
                    p_up=np.full(cfg.k, p_up), p_down=np.full(cfg.k, p_down))
                up = None
                if p_up > 0:
                    up = uplink_sinr(chans, sel, bf, noise=cfg.noise_w,
                                     p_si=si * p_up)
                dn = None
                if p_down > 0:
                    dn = downlink_sinr(chans, sel, bf, rho=cfg.rho,
                                       noise_d=cfg.noise_w,
                                       noise_s=cfg.noise_w)
                for u in range(cfg.k):
                    lv = level_true[d_i, u]
                    if up is not None:
                        sinr_up[u, lv] += float(np.mean(up.uplink[u]))
                    if dn is not None:
                        sinr_dn[u, lv] += float(dn.downlink[u])
                        rcv = p_down * rx_gain[d_i][u]
                        eh_power[u, lv] += split_received(rcv, cfg.rho).eh_power
            sinr_up /= hits
            sinr_dn /= hits
            eh_power /= hits
            served = np.zeros((cfg.k, cfg.n_levels), dtype=int)
            harvested = np.zeros((cfg.k, cfg.n_levels), dtype=int)
            rate_dn = np.zeros((cfg.k, cfg.n_levels))
            for u in range(cfg.k):
                for lv in range(cfg.n_levels):
                    served[u, lv] = achievable_rate(
                        sinr_up[u, lv], cfg.bandwidth_hz, slot_link,
                        cfg.packet_bits)
                    harvested[u, lv] = harvested_energy(
                        eh_power[u, lv], cfg.eta, slot_link, cfg.delta_e_j,
                        cap=cfg.e_max)
                    rate_dn[u, lv] = achievable_rate(
                        sinr_dn[u, lv], cfg.bandwidth_hz, slot_link,
                        cfg.packet_bits)
            used = int(math.ceil(p_up * slot_link / cfg.delta_e_j)) \
                if p_up > 0 else 0
            rows.append(dict(
                served=served, harvested=harvested,
                used_units=np.full(cfg.k, used, dtype=int),
                p_up=np.full(cfg.k, p_up * duplex_frac),
                p_down=np.full(cfg.k, p_down * duplex_frac),
                rate_down=rate_dn @ level.probs,
                mask_id=m_id, n_active=n_active))
    return level, ActionTable(**{name: np.array([row[name] for row in rows])
                                 for name in rows[0]})


def constant_layer(compiled, ids=None) -> np.ndarray:
    """A ``control.layer_model`` table whose action i plays joint action
    ``ids[i]`` (every action by default) at every state, as the power
    layer's does."""
    ids = np.arange(compiled.n_actions) if ids is None else np.asarray(ids)
    return np.broadcast_to(ids[:, None], (ids.size, compiled.space.size))


def reference_initial_bounds(model, tol=1e-9, max_iter=100000):
    """HSVI's initial bounds by plain value iteration, stopped at a
    ``tol * (1 - gamma)`` step: each blind alpha climbs from
    ``min r_a / (1 - gamma)``, so it stops below the blind-policy value,
    and the MDP corners climb from 0, so they stop below the MDP value
    where that is positive, which leaves them no upper bound there."""
    g, r = model.discount, model.reward
    blind = np.empty((model.n_actions, model.n_states))
    for a in range(model.n_actions):
        v = np.full(model.n_states, r[:, a].min() / (1.0 - g))
        for _ in range(max_iter):
            v_new = r[:, a] + g * model.apply(a, v)
            if np.abs(v_new - v).max() < tol * (1.0 - g):
                break
            v = v_new
        blind[a] = v
    v = np.zeros(model.n_states)
    for _ in range(max_iter):
        v_new = np.column_stack([r[:, a] + g * model.apply(a, v)
                                 for a in range(model.n_actions)]).max(axis=1)
        if np.abs(v_new - v).max() < tol * (1.0 - g):
            v = v_new
            break
        v = v_new
    return BoundPair(lower=LowerBound(blind, np.arange(model.n_actions)),
                     upper=UpperBound(v))


class ListLowerBound:
    """``bounds.LowerBound`` as a plain list of (values, action) pairs: the
    matrix is stacked from the list on every read, and each prune rebuilds
    the list from a keep mask. The products and comparisons are those of
    the store, so every value, score and removed count equals its own."""

    def __init__(self, values, actions):
        self.alphas = [(np.array(v, dtype=float), int(a))
                       for v, a in zip(values, actions)]

    def __len__(self):
        return len(self.alphas)

    @property
    def actions(self) -> np.ndarray:
        return np.array([a for _v, a in self.alphas], dtype=np.intp)

    def matrix(self) -> np.ndarray:
        return np.array([v for v, _a in self.alphas])

    def scores(self, posts) -> np.ndarray:
        return posts.dot(self.matrix().T)

    def value(self, b: np.ndarray) -> float:
        m = self.matrix()
        sup = np.flatnonzero(b)
        scores = m[:, sup] @ b[sup] if sup.size * 8 < b.size else m @ b
        return float(scores[int(np.argmax(scores))])

    def add(self, values, action: int) -> None:
        self.alphas.append((np.array(values, dtype=float), int(action)))

    def _keep(self, keep) -> int:
        removed = len(self.alphas) - int(np.count_nonzero(keep))
        self.alphas = [a for a, k in zip(self.alphas, keep) if k]
        return removed

    def prune_pointwise(self) -> int:
        m = self.matrix()
        keep = np.ones(len(m), dtype=bool)
        index = np.arange(len(m))
        for i in index:
            others = keep & (index != i)
            ge = (m[others] >= m[i]).all(axis=1)
            gt = (m[others] > m[i]).any(axis=1)
            keep[i] = not (ge & (gt | (index[others] < i))).any()
        return self._keep(keep)

    def prune_witness(self, witnesses: np.ndarray) -> int:
        m = self.matrix()
        useful = np.zeros(len(m), dtype=bool)
        useful[np.argmax(m, axis=0)] = True
        useful[np.argmax(m @ witnesses.T, axis=0)] = True
        return self._keep(useful)


def scipy_csr(m) -> sparse.csr_matrix:
    """The scipy CSR matrix of a ``Csr`` record, on the record's arrays;
    any other matrix as ``sparse.csr_matrix`` reads it."""
    if isinstance(m, Csr):
        return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    return sparse.csr_matrix(m)


def kron_users(factors, fmt: str):
    """Kronecker product of per-user scipy matrices, user 0 most
    significant (the StateSpace digit order), entries multiplied left to
    right. Converting from COO leaves the result canonical: sorted
    indices, no duplicates."""
    return reduce(lambda a, b: sparse.kron(a, b, format="coo"),
                  factors).asformat(fmt)


def reference_level_map_matrix(space, block, fmt: str = "csr"):
    """``dynamics.level_map_matrix`` by scipy's ``sparse.kron``, as it was
    built before the record: the Kronecker product over users of
    ``I_{(q, e)} ⊗ block``, zeros dropped, in scipy format ``fmt``."""
    per_user = sparse.kron(sparse.identity((space.q_max + 1)
                                           * (space.e_max + 1)),
                           sparse.coo_matrix(block), format="coo")
    return kron_users([per_user] * space.n_users, fmt)


def reference_kernel_matrices(space, pmf, level, actions) -> list:
    """``dynamics.build_kernel`` one action at a time: each action's
    Kronecker product of per-user factors is its own CSR matrix, as it was
    before the blocks were written into one stacked matrix."""
    table = user_action_table(space, actions)
    n_qe = (space.q_max + 1) * (space.e_max + 1)
    q_next = np.minimum(table.q_post[..., None] + np.arange(pmf.size),
                        space.q_max)
    bins = (np.arange(space.per_user)[:, None, None] * n_qe
            + q_next * (space.e_max + 1) + table.e_next[..., None])
    weights = np.tile(pmf, space.per_user)
    levels = sparse.coo_matrix(level.probs[None, :])

    def factor(u, a):
        hit = np.flatnonzero(np.bincount(bins[u, :, a].ravel()))
        p_q = np.bincount(bins[u, :, a].ravel(), weights)[hit]
        return sparse.kron(sparse.coo_matrix((p_q, divmod(hit, n_qe)),
                                             shape=(space.per_user, n_qe)),
                           levels, format="coo")

    return [kron_users([factor(u, a) for u in range(space.n_users)], "csr")
            for a in range(len(actions))]


def kernel_matrices(kernel) -> list:
    """Each action's joint CSR matrix, materialized from ``kernel``'s
    per-user factors: the Kronecker product over users of ``factors[u, a]
    ⊗ levels``, entries multiplied left to right, zeros dropped. This is
    the build that ``dynamics.build_kernel`` ran before it kept the
    factors, bit for bit."""
    levels = sparse.coo_matrix(kernel.levels[None, :])
    n_users, n_actions = kernel.factors.shape[:2]
    return [kron_users([sparse.kron(sparse.coo_matrix(kernel.factors[u, a]),
                                    levels, format="coo")
                        for u in range(n_users)], "csr")
            for a in range(n_actions)]


def layer_matrices(transitions) -> list:
    """The CSR matrices of a ``KroneckerTransitions`` layer: row s of
    layer action i is row s of the materialized kernel action
    ``chosen[i, s]``."""
    mats = kernel_matrices(transitions)
    if transitions.chosen is None:
        return mats
    stacked = sparse.vstack(mats, format="csr")
    return [stacked[c * transitions.n_states + transitions.states]
            for c in transitions.chosen]


def explicit_model(model):
    """``model`` with explicit CSR transition matrices, the materialized
    :func:`layer_matrices` of a Kronecker model; an explicit model as it
    is."""
    if not model.factored:
        return model
    return PomdpModel(layer_matrices(model.transitions), model.observations,
                      model.cost, model.discount, model.posteriors)


def reference_policy_rows(transitions: list, pi: np.ndarray):
    """The CSR matrix whose row s is row s of ``transitions[pi[s]]``, by a
    per-action gather: each used action's rows, stacked, then put back in
    state order; for a constant ``pi``, that action's matrix itself."""
    transitions = [scipy_csr(t) for t in transitions]
    used = np.unique(pi)
    if used.size == 1:
        return transitions[used[0]]
    groups = [np.flatnonzero(pi == a) for a in used]
    rows = sparse.vstack([transitions[a][g] for a, g in zip(used, groups)],
                         format="csr")
    return rows[np.argsort(np.concatenate(groups))]


def reference_mdp_corners(model, blind: np.ndarray):
    """``solver._mdp_corners`` one action at a time: the policy matvec is
    the rows of :func:`reference_policy_rows` on explicit matrices, and
    keeps row pi[s] of one ``model.apply`` per action on Kronecker ones;
    the Q-table takes one product per action."""
    g, r = model.discount, model.reward
    states = np.arange(model.n_states)
    pi = blind.argmax(axis=0)
    v = blind[pi, states]
    for _ in range(solver.MAX_POLICY_ROUNDS):
        step = (reference_policy_rows(model.transitions, pi).dot
                if not model.factored else
                lambda x, pi=pi: np.array([model.apply(a, x) for a in range(
                    model.n_actions)])[pi, states])
        v = solver._evaluate(step, r[states, pi], g, v)
        q = r + g * np.column_stack([model.apply(a, v)
                                     for a in range(model.n_actions)])
        best = q.argmax(axis=1)
        switch = q[states, best] > q[states, pi] + solver.SWITCH_GAIN
        if not switch.any():
            break
        pi = np.where(switch, best, pi)
    return v + np.abs(q.max(axis=1) - v).max() / (1.0 - g), q


def reference_observation_policy(model, q: np.ndarray) -> np.ndarray:
    """``solver._observation_policy`` by adding every action's ``Z_a^T``."""
    scores = sum(scipy_csr(z).T for z in model.observations) @ q
    return np.asarray(scores).argmax(axis=1)


def reference_policy_alphas(model, pi: np.ndarray, guess: np.ndarray):
    """``solver._policy_alphas`` one action at a time: one D block per
    action, and in every Krylov step one sum and one product per action.
    Returns the (n_actions, n_states) alpha values."""
    g, n, n_a = model.discount, model.n_states, model.n_actions
    d = np.array([np.bincount(pi[z.indices] * n + z.rows, weights=z.data,
                              minlength=n_a * n).reshape(n_a, n)
                  for z in model.observations])

    def step(x):
        x = x.reshape(n_a, n)
        return np.concatenate([model.apply(a, (d_a * x).sum(axis=0))
                               for a, d_a in enumerate(d)])

    r = model.reward.T.ravel()
    v = solver._evaluate(step, r, g, guess.T.ravel())
    res = np.abs(r + g * step(v) - v).max()
    return (v - res / (1.0 - g)).reshape(n_a, n)


def dense_policy_value(model, policy):
    """Exact value of the fully-observed stationary policy that takes
    action ``policy[s]`` in state s: one dense ``numpy.linalg.solve``."""
    model, policy = explicit_model(model), np.asarray(policy)
    p = sum(sparse.diags((policy == a).astype(float)) @ scipy_csr(t)
            for a, t in enumerate(model.transitions))
    return np.linalg.solve(
        np.eye(model.n_states) - model.discount * p.toarray(),
        model.reward[np.arange(model.n_states), policy])


def dense_mdp_value(model):
    """Exact fully-observed MDP value by policy iteration on dense
    evaluations (reward orientation)."""
    model = explicit_model(model)
    g, r = model.discount, model.reward
    states = np.arange(model.n_states)
    pi = np.zeros(model.n_states, dtype=int)
    while True:
        v = dense_policy_value(model, pi)
        q = r + g * np.column_stack([t.dot(v) for t in model.transitions])
        best = q.argmax(axis=1)
        switch = q[states, best] > q[states, pi] + 1e-12
        if not switch.any():
            return v
        pi = np.where(switch, best, pi)


class ImpossibleObservationError(ValueError):
    """Bayes update conditioned on a zero-probability observation."""


def obs_column(model: PomdpModel, a: int, o: int) -> np.ndarray:
    """Pr(o | S', a) over the next states S', as a dense vector."""
    return scipy_csr(model.observations[a])[:, [o]].toarray().ravel()


def update_belief(b: np.ndarray, a: int, o: int, model: PomdpModel) -> np.ndarray:
    """Bayes posterior b'(S') = Pr(o|S',a) sum_S Pr(S'|S,a) b(S), normalized."""
    tau = model.propagate(check_belief(b), a)
    post = obs_column(model, a, o) * tau
    z = post.sum()
    if z <= 0.0:
        raise ImpossibleObservationError(
            f"observation {o} has zero probability under action {a}")
    return post / z


def observation_prob(o: int, a: int, b: np.ndarray, model: PomdpModel) -> float:
    """Pr(O=o | A=a, b) = sum_{S,S'} Pr(o|S',a) Pr(S'|S,a) b(S)."""
    tau = model.propagate(check_belief(b), a)
    return float(obs_column(model, a, o) @ tau)


def reference_propagate(model, b, a):
    """Predictive next-state distribution by scipy's matvec with T.T, on
    the explicit matrices of :func:`explicit_model`."""
    return scipy_csr(explicit_model(model).transitions[a]).T.dot(b)


def reference_successor_posts(model, a, tau):
    """Successor posteriors by the sparse-matrix chain: scale Z's rows by
    tau, sum its columns, keep the observations of positive probability
    and normalize their columns. Scaling keeps Z(s', o) * 0 as a stored
    zero for every next state s' outside tau's support."""
    w = scipy_csr(model.observations[a]).multiply(tau.reshape(-1, 1)).tocsc()
    p_o = np.asarray(w.sum(axis=0)).ravel()
    active = np.flatnonzero(p_o > 0.0)
    posts = w[:, active].T.tocsr()
    posts.data /= np.repeat(p_o[active], np.diff(posts.indptr))
    return active, p_o[active], posts


def reference_backup(b, bounds, model, expansion):
    """The one-pass backup with its row sums taken by a CSR product with
    ones; returns the new alpha's (values, action)."""
    alpha_mat = bounds.lower.matrix()
    ones = np.ones(model.n_obs)
    best_val, best_vec, best_a = -np.inf, None, 0
    for a, (_r, active, _p_act, posts) in enumerate(expansion):
        z = model.observations[a]
        pick = np.zeros(model.n_obs, dtype=np.intp)
        pick[active] = bounds.lower.scores(posts).argmax(axis=1)
        terms = z.data * alpha_mat[pick[z.indices], z.rows]
        g = sparse.csr_matrix((terms, z.indices, z.indptr),
                              shape=z.shape) @ ones
        vec = model.reward[:, a] + model.discount * model.apply(a, g)
        val = float(vec @ b)
        if val > best_val + 1e-15:
            best_val, best_vec, best_a = val, vec, a
    return best_vec, best_a


def pair_policy_alphas(model, pi):
    """Exact values of "play a, then follow the observation policy pi",
    one row per action, from the chain over (state, last observation)
    pairs: pair (s, o) plays pi(o) and moves to (s', o') with probability
    T_pi(o)(s, s') Z_pi(o)(s', o'). Only the pairs that some action emits
    are kept; one direct sparse solve gives the pairs' values W, and
    alpha_a = r_a + gamma T_a (Z_a * W summed over o')."""
    model, pi = explicit_model(model), np.asarray(pi)
    n, g = model.n_states, model.discount
    trans = [scipy_csr(t) for t in model.transitions]
    obs = [scipy_csr(z) for z in model.observations]
    s_of, o_of = sum(obs).nonzero()
    # (n_states, n_pairs) matrices: Z_a(s', o') at pair (s', o')
    emit = [sparse.csr_matrix((np.asarray(z[s_of, o_of]).ravel(),
                               (s_of, np.arange(s_of.size))),
                              shape=(n, s_of.size))
            for z in obs]
    plays = pi[o_of]
    chain = sum(sparse.diags((plays == a).astype(float)) @ (t @ e)[s_of]
                for a, (t, e) in enumerate(zip(trans, emit)))
    w = spsolve(sparse.identity(s_of.size, format="csc")
                - g * chain.tocsc(), model.reward[s_of, plays])
    return np.array([model.reward[:, a] + g * (t @ (e @ w))
                     for a, (t, e) in enumerate(zip(trans, emit))])


@contextmanager
def root_seeds_off():
    """``solve_hsvi`` without the seeds it adds at the root (the policy
    alphas and the fast informed bound): it starts from the blind alphas
    and the MDP corners, as ``initial_bounds(model)`` does. Those seeds
    certify most test models at the root; without them a solve explores
    or stops unconverged."""
    plain = solver.initial_bounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "initial_bounds",
                   lambda model, b0=None: plain(model))
        yield


def dense_fib_sweep(model, q):
    """The fast informed bound operator on dense arrays:
    (Hq)(s, a) = r(s, a) + gamma sum_o max_b sum_s' T_a(s, s') Z_a(s', o)
    q(s', b)."""
    model = explicit_model(model)
    out = np.empty_like(q)
    for a, (t, z) in enumerate(zip(model.transitions, model.observations)):
        paths = np.einsum("sp,po,pb->sob", scipy_csr(t).toarray(),
                          scipy_csr(z).toarray(), q)
        out[:, a] = model.reward[:, a] \
            + model.discount * paths.max(axis=2).sum(axis=1)
    return out


def scipy_fib_sweep(model, q, prev):
    """One sweep of the fast informed bound (FIB) operator H per entry, on
    a model of explicit matrices, from the (n_states, n_actions) table q:
    (Hq)(s, a) = r(s, a) + gamma sum_o max_b sum_s' T_a(s, s') Z_a(s', o)
    q(s', b), on scipy's sparse products: per (a, b) one product
    T_a (Z_a * (q_b + c)), a running maximum over b, each row summed by
    ``np.add.reduceat``. c = 1 - min(q, 0) > 0 keeps every entry positive,
    so every b has the same pattern; each row of T_a Z_a sums to 1, so the
    shift adds c to each row's sum of maxima, which is taken back.

    Returns Hq, per action the pattern (indptr, indices) of T_a Z_a, whose
    columns come in scipy's product order, not sorted, the best next
    action at each of its stored (s, o) entries, and whether any entry
    switched. ``prev(a, obs)`` gives the previous choice at the entries
    whose observation ids are ``obs``; an entry keeps it unless another
    action gains more than ``solver.SWITCH_GAIN``."""
    hq = np.empty_like(q)
    patterns, choice, switched = [], [], False
    c = 1.0 - min(q.min(), 0.0)
    weighted = [[sparse.csr_matrix((z.data * (q[z.rows, b] + c), z.indices,
                                    z.indptr), shape=z.shape)
                 for b in range(model.n_actions)]
                for z in model.obs_distinct]
    for a, t in enumerate(model.transitions):
        t = scipy_csr(t)
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
        keep = top <= at_last + solver.SWITCH_GAIN
        pick[keep] = last[keep]
        hq[:, a] = model.reward[:, a] + model.discount * (
            np.add.reduceat(top, indptr[:-1]) - c)
        patterns.append((indptr, indices))
        choice.append(pick)
        switched = switched or not keep.all()
    return hq, patterns, choice, switched


def scipy_fixed_choice_step(model, patterns, choice):
    """Matvec of the stacked (n_actions * n_states) operator that plays the
    next action ``choice[a][i]`` after action a at the i-th stored (s, o)
    entry of T_a Z_a (in :func:`scipy_fib_sweep`'s pattern order): the
    (a, b) block T_a * (M_ab Z_a^T), M_ab marking the entries that choose
    b, as one sparse matrix, applied one by one. The blocks sum to a
    row-stochastic matrix."""
    n, n_a = model.n_states, model.n_actions
    z_t = [scipy_csr(z).T.tocsr() for z in model.obs_distinct]
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
                row.append((b, scipy_csr(t).multiply(mark @ z_t[k]).tocsr()))
        blocks.append(row)

    def step(x):
        x = x.reshape(n_a, n)
        return np.concatenate([sum(k.dot(x[b]) for b, k in row)
                               for row in blocks])
    return step


def scipy_fib_q(model, pi, q):
    """The FIB fixed point per entry, on a model of explicit matrices
    (``posteriors`` is not read), on scipy's sparse products: the policy
    iteration over the next-action choices at every (s, a, o) from the
    observation policy ``pi`` and its values ``q``, shifted up by its
    certificate, as ``solver._fib_q`` shifts its closed form. On a closed
    model it is the closed form's reference."""
    g, n, n_a = model.discount, model.n_states, model.n_actions
    r = model.reward.T.ravel()
    hq, patterns, c, moved = scipy_fib_sweep(model, q, lambda a, o: pi[o])
    for _ in range(solver.MAX_POLICY_ROUNDS):
        if not moved:
            break
        q = solver._evaluate(scipy_fixed_choice_step(model, patterns, c), r,
                             g, q.T.ravel()).reshape(n_a, n).T
        hq, patterns, c, moved = scipy_fib_sweep(
            model, q, lambda a, o, last=c: last[a])
    return q + np.abs(hq - q).max() / (1.0 - g)


def dense_fib_q(model, tol=1e-14):
    """The FIB fixed point Q* by dense value iteration from the MDP
    Q-table, which lies above it. H is monotone, so every iterate stays
    above Q*; iteration stops at a step below ``tol`` times the largest
    value, and the last iterate q then satisfies
    q - gamma / (1 - gamma) * step <= Q* <= q. Returns (q, that margin)."""
    model = explicit_model(model)
    g = model.discount
    v = dense_mdp_value(model)
    q = model.reward + g * np.column_stack([t.dot(v)
                                            for t in model.transitions])
    while True:
        q_new = dense_fib_sweep(model, q)
        step = np.abs(q_new - q).max()
        q = q_new
        if step <= tol * max(1.0, np.abs(q).max()):
            return q, g / (1.0 - g) * step


# ---------------------------------------------------------------------------
# exact finite-horizon value iteration (small instances only): exhaustive
# alpha-vector enumeration with incremental pruning; dominance is settled by
# pointwise checks plus a witness LP, so the surviving set is the
# parsimonious representation at each horizon
# ---------------------------------------------------------------------------

class OracleScaleError(ValueError):
    """Exact value-iteration oracle called beyond its scale limits."""


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
    t_dense = [scipy_csr(t).toarray()
               for t in explicit_model(model).transitions]
    z_dense = [scipy_csr(z).toarray() for z in model.observations]
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


class ClosureError(ValueError):
    """The belief after an observation depends on more than that
    observation, so the POMDP is no MDP over its observations."""


class ObservationMdp:
    """A compiled scenario's POMDP as a finite MDP over its observations.

    Queue and energy are observed exactly and each user's next level is
    drawn afresh from the stationary prior, so the belief after
    observation o is row o of ``compiled.obs_posteriors`` (P), whatever
    the history. The construction checks that closure on every action,
    and refuses the model where it fails. The MDP moves by P T_a Z and
    pays P r_a; its values are those of the POMDP at the rows of P."""

    def __init__(self, compiled, model, tol=1e-12):
        self.model = model = explicit_model(model)
        self.first_obs = scipy_csr(compiled.obs_matrix)
        self.post = compiled.obs_posteriors
        post = scipy_csr(self.post)
        for a in range(model.n_actions):
            self._check_closure(a, tol)
        self.trans = [(post @ scipy_csr(t) @ scipy_csr(z)).tocsr()
                      for t, z in zip(model.transitions, model.observations)]
        self.reward = np.asarray(post @ model.reward)

    def _check_closure(self, a, tol):
        """Every Bayes posterior after (P row o, action a, observation o')
        equals P row o'. Each entry of P_o T_a at next state s' times
        Z_a(s', o'), over their product (P_o T_a Z_a)(o, o'), must equal
        P(o', s'); these ratios sum to 1 over s' for each (o, o'), so P
        row o' then has no mass off the posterior's support."""
        z = scipy_csr(self.model.observations[a])
        post = scipy_csr(self.post)
        reach = (post @ scipy_csr(self.model.transitions[a])).tocsr()
        norm = (reach @ z).toarray()
        post = post.toarray()
        o_of = np.repeat(np.arange(reach.shape[0]), np.diff(reach.indptr))
        s_of, w = reach.indices, reach.data
        # positions in z.data of the row entries of each s_of, in order
        starts = z.indptr[s_of]
        counts = z.indptr[s_of + 1] - starts
        parent = np.repeat(np.arange(s_of.size), counts)
        pos = np.arange(counts.sum()) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts)
        o_next = z.indices[pos]
        ratio = w[parent] * z.data[pos] / norm[o_of[parent], o_next]
        err = np.abs(ratio - post[o_next, s_of[parent]]).max()
        if not err <= tol:          # a 0/0 ratio fails too
            raise ClosureError(
                f"action {a}: a posterior's successor is off a row of the "
                f"posterior table by {err:.2e}")

    def policy_value(self, pi):
        """Exact values over the observations of the observation policy
        pi, by one direct sparse solve."""
        pi = np.asarray(pi)
        n = pi.size
        step = sum(sparse.diags((pi == a).astype(float)) @ t
                   for a, t in enumerate(self.trans))
        return spsolve(sparse.identity(n, format="csc")
                       - self.model.discount * step.tocsc(),
                       self.reward[np.arange(n), pi])

    def solve(self):
        """Optimal values and policy by policy iteration; an action
        changes only on a gain above 1e-12."""
        obs = np.arange(self.reward.shape[0])
        pi = self.reward.argmax(axis=1)
        for _ in range(100):
            v = self.policy_value(pi)
            q = self.reward + self.model.discount * np.column_stack(
                [t @ v for t in self.trans])
            best = q.argmax(axis=1)
            switch = q[obs, best] > q[obs, pi] + 1e-12
            if not switch.any():
                return v, pi
            pi = np.where(switch, best, pi)
        raise RuntimeError("policy iteration did not settle")

    def executed_root(self, b0, pi):
        """Value at belief b0 of the observation policy pi, which reads
        the first observation before it acts, as a rollout does."""
        return float(b0 @ (self.first_obs @ self.policy_value(pi)))

    def corner_values(self, v):
        """POMDP value at every corner belief (a known state), for the
        optimal v: one step, then the observations that follow it."""
        m = self.model
        return np.max([m.reward[:, a] + m.discount
                       * m.transitions[a].dot(m.observations[a].dot(v))
                       for a in range(m.n_actions)], axis=0)

    def root(self, b0, v):
        """Value at belief b0 when b0 picks the first action and v values
        the observations that follow it: the POMDP value at b0 for the
        optimal v."""
        m = self.model
        return max(float(b0 @ (m.reward[:, a] + m.discount
                               * m.transitions[a].dot(
                                   m.observations[a].dot(v))))
                   for a in range(m.n_actions))

"""Monte Carlo rollouts, baseline policies, and the figure sweeps.

Episodes execute the exact integer queue/energy recursions under a policy,
with per-episode counter-based random streams so results are reproducible
and episode-order independent; all episodes of every (policy, scenario)
pair are stepped together, slot by slot (:func:`run_episodes`). Sweeps
calibrate each link geometry once, and the antenna sweep solves each array
size once; both emit fixed-column CSV rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .control import (Policy, build_cost_table, greedy_policy,
                      solve_inner_beamforming, solve_outer_selection)
from .dynamics import user_action_table
from .pomdp.solver import check_solver_args
from .scenario import (CompiledScenario, ScenarioConfig, compile_scenario,
                       restrict, with_budget)

CSV_COLUMNS = ("scenario_hash", "policy", "budget_w", "delay_ms_mean",
               "delay_ms_ci", "p_up_w", "p_down_w", "rate_up", "rate_down",
               "episodes")
ANTENNA_COLUMNS = CSV_COLUMNS + ("effective_power_w", "effective_power_ci")


def episode_rng(base_seed: int, episode: int) -> np.random.Generator:
    """Independent counter-based stream per episode."""
    return np.random.Generator(np.random.Philox(key=[base_seed, episode]))


def _choice(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """What ``Generator.choice`` with probabilities ``p`` (last axis) returns
    for the uniform ``u``: the right-sided insertion index of u in the
    normalized cumulative sum of p."""
    cdf = np.cumsum(p, axis=-1)
    return (cdf / cdf[..., -1:] <= u[..., None]).sum(axis=-1)


def run_episodes(pairs, episodes: int, horizon: int, seed: int):
    """Episodes 0..episodes-1 of every ``(policy, compiled)`` pair, all
    stepped side by side; returns an iterator over the pairs'
    trajectories, in order, each derived from the stepped queues and
    energies when it is reached. A trajectory holds per-slot arrays shaped
    (episode, slot, user), or (episode, slot) for ``obs``, ``action`` and
    ``n_active``.

    The pairs share one state space, level model and arrival pmf, so one
    draw serves them all. ``Generator.choice`` draws one uniform per
    sample, so a per-user, per-slot sampler reads 3 x n_users uniforms a
    slot, always in the order true levels, observed levels, arrivals. One
    ``random((horizon, 3, n_users))`` from ``episode_rng(seed, ep)``,
    inverted by :func:`_choice`, is that stream.

    Each user's slot, with the fallback for a user who cannot pay, is read
    from :func:`user_action_table` at the user's own state index; the
    pairs' tables are joined along the action axis, each policy's action
    ids offset past the actions of the pairs before it. Conservation holds
    exactly per user: total harvested minus total spent equals the buffer
    delta plus overflow-discarded units."""
    pairs = list(pairs)
    for policy, compiled in pairs:
        policy.check_hash(compiled)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not 0 <= seed < 2 ** 64:      # ScenarioConfig.seed's range
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    first = pairs[0][1]
    space, level, pmf = first.space, first.level, first.arrival_pmf
    for _policy, compiled in pairs[1:]:
        if (compiled.space != space
                or not np.array_equal(compiled.level.probs, level.probs)
                or not np.array_equal(compiled.level.obs_confusion,
                                      level.obs_confusion)
                or not np.array_equal(compiled.arrival_pmf, pmf)):
            raise ValueError("stepped rollouts need one state space, level "
                             "model and arrival pmf")
    users = np.arange(space.n_users)
    tables = [user_action_table(space, compiled.actions)
              for _policy, compiled in pairs]
    offsets = np.cumsum([0] + [len(c.actions) for _p, c in pairs[:-1]])
    action_of = np.stack([np.asarray(policy.action_of, dtype=int) + offset
                          for (policy, _c), offset in zip(pairs, offsets)])
    q_post = np.concatenate([acts.q_post for acts in tables], axis=-1)
    e_next = np.concatenate([acts.e_next for acts in tables], axis=-1)
    u = np.array([episode_rng(seed, ep).random((horizon, 3, space.n_users))
                  for ep in range(episodes)])
    levels = _choice(level.probs, u[:, :, 0])
    obs_levels = _choice(level.obs_confusion[levels], u[:, :, 1])
    arrived = _choice(pmf, u[:, :, 2])
    place = space.per_user ** users[::-1]      # mixed-radix digit weights
    queues, energies = (np.empty((len(pairs), *levels.shape), dtype=int)
                        for _ in range(2))
    q = np.zeros((len(pairs), episodes, space.n_users), dtype=int)
    e = np.full_like(q, space.e_max)
    per_pair = np.arange(len(pairs))[:, None]
    for t in range(horizon):
        queues[:, :, t], energies[:, :, t] = q, e
        qe = (q * (space.e_max + 1) + e) * space.n_levels
        obs = (qe + obs_levels[:, t]) @ place
        # each user's own state index, and the joint action on every user
        at = (users, qe + levels[:, t], action_of[per_pair, obs][..., None])
        q = np.minimum(q_post[at] + arrived[:, t], space.q_max)
        e = e_next[at]

    def trajectory(pair, acts, queues, energies):
        policy, actions = pair[0], pair[1].actions
        qe = (queues * (space.e_max + 1) + energies) * space.n_levels
        obs = (qe + obs_levels) @ place
        action = policy.action_of[obs]
        at = (users, qe + levels, action[..., None])
        used, harvested = acts.used[at], acts.harvested[at]
        return {
            "queues": queues, "energies": energies, "levels": levels,
            "obs": obs, "action": action,
            "arrived": arrived, "served": queues - acts.q_post[at],
            "used": used, "harvested": harvested,
            "discarded": np.maximum(energies - used + harvested
                                    - space.e_max, 0),
            "p_up": acts.p_up[at],
            "p_down": actions.p_down[action],
            "rate_down": actions.rate_down[action],
            "n_active": actions.n_active[action],
        }

    return map(trajectory, pairs, tables, queues, energies)


@dataclass
class RunResult:
    """Aggregated rollout statistics with normal-approximation CIs."""

    scenario_hash: str
    policy_kind: str
    episodes: int
    delay_slots: np.ndarray       # per-user mean delay proxy (slots)
    delay_ms_mean: float          # total across users, milliseconds
    delay_ms_ci: float
    p_up_w: np.ndarray
    p_down_w: np.ndarray
    rate_up: np.ndarray
    rate_down: np.ndarray
    effective_power_w: float = 0.0
    effective_power_ci: float = 0.0

    def to_row(self, budget_w: float = float("nan")) -> dict:
        """The ``ANTENNA_COLUMNS``; :func:`rows_to_csv` picks a table's."""
        return {
            "scenario_hash": self.scenario_hash,
            "policy": self.policy_kind,
            "budget_w": f"{budget_w:.6g}",
            "delay_ms_mean": f"{self.delay_ms_mean:.6g}",
            "delay_ms_ci": f"{self.delay_ms_ci:.6g}",
            "p_up_w": f"{float(np.sum(self.p_up_w)):.6g}",
            "p_down_w": f"{float(np.sum(self.p_down_w)):.6g}",
            "rate_up": f"{float(np.sum(self.rate_up)):.6g}",
            "rate_down": f"{float(np.sum(self.rate_down)):.6g}",
            "episodes": str(self.episodes),
            "effective_power_w": f"{self.effective_power_w:.6g}",
            "effective_power_ci": f"{self.effective_power_ci:.6g}",
        }


def monte_carlo(pairs, episodes: int, horizon: int,
                base_seed: int = 0) -> list:
    """Means and 95% half-widths over independent seeded episodes, one
    :class:`RunResult` per ``(policy, compiled)`` pair, in order; the
    pairs' episodes are stepped together (:func:`run_episodes`), and each
    pair's trajectory is aggregated as soon as it is derived."""
    if episodes < 2:
        raise ValueError("need at least 2 episodes")
    pairs = list(pairs)
    return [_run_result(policy, compiled, traj)
            for (policy, compiled), traj in zip(
                pairs, run_episodes(pairs, episodes, horizon, base_seed))]


def _run_result(policy: Policy, compiled: CompiledScenario,
                traj: dict) -> RunResult:
    cfg = compiled.config
    episodes = traj["queues"].shape[0]
    # per-episode means over the slots, then means over the episodes
    delay_slots = traj["queues"].astype(float).mean(axis=1) / cfg.lam_slot
    delay_ms = delay_slots.sum(axis=1) * cfg.slot_s * 1e3
    n_active = traj["n_active"]
    tx = traj["p_up"].sum(axis=2) + traj["p_down"].sum(axis=2)
    eff_p = (tx * (n_active / cfg.n_r)
             + n_active * cfg.circuit_w_per_antenna).mean(axis=1)
    half = 1.96 / np.sqrt(episodes)
    return RunResult(
        scenario_hash=compiled.scenario_hash,
        policy_kind=policy.kind,
        episodes=episodes,
        delay_slots=delay_slots.mean(axis=0),
        delay_ms_mean=float(delay_ms.mean()),
        delay_ms_ci=float(half * delay_ms.std(ddof=1)),
        p_up_w=traj["p_up"].mean(axis=1).mean(axis=0),
        p_down_w=traj["p_down"].mean(axis=1).mean(axis=0),
        rate_up=traj["served"].astype(float).mean(axis=1).mean(axis=0),
        rate_down=traj["rate_down"].mean(axis=1).mean(axis=0),
        effective_power_w=float(eff_p.mean()),
        effective_power_ci=float(half * eff_p.std(ddof=1)),
    )


# ---------------------------------------------------------------------------
# baseline policies
# ---------------------------------------------------------------------------

BASELINE_KINDS = ("d-opt", "j-opt", "p-opt")
# j-opt's weight on each user's transmit powers and on the circuit power
J_POWER_WEIGHT = 2.0
# the power weight of each HSVI baseline's cost table
BASELINE_POWER_WEIGHTS = {"d-opt": 0.0, "j-opt": J_POWER_WEIGHT}
# p-opt's minimum rate per user on each link (packets/slot): any service
P_OPT_RATE_FLOOR = 1e-6
# root gap at which HSVI exploration stops, for the baselines and the sweeps
DEFAULT_EPS = 5.0


def baseline_cost_table(kind: str, compiled: CompiledScenario) -> np.ndarray:
    """Stage costs of an HSVI baseline: d-opt weighs the delay proxy alone
    (power weight 0); j-opt weighs both transmit powers and the active
    antennas' circuit power by ``J_POWER_WEIGHT``."""
    if kind not in BASELINE_POWER_WEIGHTS:
        raise ValueError(f"no HSVI cost table for baseline kind {kind!r}")
    return build_cost_table(compiled, BASELINE_POWER_WEIGHTS[kind])


def solve_two_layer(compiled: CompiledScenario, cost_table: np.ndarray,
                    eps: float, **hsvi_kw):
    """Inner power-level solve per antenna mask, then, with more than one
    mask, the outer mask-selection solve.

    Returns (joint policy, [(label, HsviResult)]) in solve order."""
    mask_ids = np.unique(compiled.actions.mask_id).tolist()
    inner, solves = {}, []
    for m in mask_ids:
        inner[m], res = solve_inner_beamforming(
            compiled, m, cost_table, eps=eps, **hsvi_kw)
        solves.append((f"inner mask {m}", res))
    if len(mask_ids) == 1:
        return inner[mask_ids[0]], solves
    policy, res = solve_outer_selection(
        compiled, inner, cost_table, eps=eps, **hsvi_kw)
    return policy, solves + [("outer selection", res)]


def baseline_policy(kind: str, compiled: CompiledScenario,
                    eps: float = DEFAULT_EPS, **hsvi_kw):
    """Reference controllers: d-opt and j-opt solve their
    :func:`baseline_cost_table` in two layers; p-opt is delay-blind — per
    (energy, level) observation it plays the cheapest admissible action
    meeting ``P_OPT_RATE_FLOOR`` on each link, independent of the queue.

    Returns (policy, [(label, HsviResult)]); p-opt's list is empty, but
    its solver arguments are checked as the solvers' are."""
    check_solver_args(eps, hsvi_kw.get("max_iterations", 0))
    if kind == "p-opt":
        return _p_opt_policy(compiled), []
    policy, solves = solve_two_layer(
        compiled, baseline_cost_table(kind, compiled), eps, **hsvi_kw)
    policy.kind = kind
    return policy, solves


def _p_opt_policy(compiled: CompiledScenario) -> Policy:
    """CSI/ESI-only minimum-power controller, constant across queue states.

    Per observation: the cheapest payable action (total power ascending,
    ties by index) that gives every user ``P_OPT_RATE_FLOOR`` on both links
    at its observed level; failing that, the payable action with the most
    service (ties by index); failing that, action 0."""
    space, actions = compiled.space, compiled.actions
    acts = user_action_table(space, actions)
    pays = meets = True
    for u in range(space.n_users):
        pays = pays & space.spread(u, acts.pays[u])
        meets = meets & space.spread(u, (acts.served[u] >= P_OPT_RATE_FLOOR)
                                     & (actions.rate_down[:, u]
                                        >= P_OPT_RATE_FLOOR))
    by_power = np.argsort(actions.p_up.sum(axis=1)
                          + actions.p_down.sum(axis=1), kind="stable")
    by_service = np.argsort(-actions.served.sum(axis=(1, 2)), kind="stable")
    ok = (pays & meets)[:, by_power]
    fallback = pays[:, by_service]
    table = np.where(
        ok.any(axis=1), by_power[ok.argmax(axis=1)],
        np.where(fallback.any(axis=1), by_service[fallback.argmax(axis=1)],
                 0))
    return Policy(action_of=table, scenario_hash=compiled.scenario_hash,
                  kind="p-opt")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# light solver budget for the qualitative sweeps; policies stabilize well
# before full convergence at desk scale
SWEEP_HSVI_KW = {"max_iterations": 8, "depth_cap": 25}


def rows_to_csv(rows, columns: tuple = CSV_COLUMNS) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(row[c] for c in columns))
    return "\n".join(lines) + "\n"


def sweep_power(cfg: ScenarioConfig, budgets, policies=("d-opt", "j-opt",
                                                        "p-opt"),
                episodes: int = 30, horizon: int = 300,
                eps: float = DEFAULT_EPS, seed: int = 0, **hsvi_kw):
    """Delay-versus-power-budget table, one row per (budget, policy).

    The budget restricts the per-slot power grid; the special policy name
    ``hd`` runs the delay-optimal controller on the half-duplex variant of
    the same configuration. Each duplex mode is calibrated once, at the
    widest budget, and solved there first; every narrower budget's model
    is :func:`restrict`-ed from it and shares its kernel. All rows'
    episodes are stepped in one rollout. Returns (rows, [(label,
    HsviResult)]) in (budget, policy) order, each label prefixed with
    ``"<policy> <budget> W: "``."""
    budgets, policies = list(budgets), list(policies)
    if not budgets or not policies:
        raise ValueError("a power sweep needs at least one budget and one "
                         "policy")
    if budgets != sorted(set(budgets)):
        raise ValueError("budgets must be strictly increasing")
    if len(set(policies)) < len(policies):
        raise ValueError(f"policies {policies} repeat a policy")
    hsvi_kw = {**SWEEP_HSVI_KW, **hsvi_kw}
    bases = [replace(cfg, duplex="hd") if kind == "hd" else cfg
             for kind in policies]
    # every budget's configs first: one that admits no level fails before
    # any calibration
    subs = [[with_budget(base, budget) for base in bases]
            for budget in budgets]
    models, cells = {}, {}      # one model per distinct config
    for i in reversed(range(len(budgets))):
        for j, kind in enumerate(policies):
            sub = subs[i][j]
            if sub not in models:
                models[sub] = (compile_scenario(sub) if i == len(budgets) - 1
                               else restrict(models[subs[-1][j]], sub))
            policy, done = baseline_policy("d-opt" if kind == "hd" else kind,
                                           models[sub], eps=eps, **hsvi_kw)
            policy.kind = kind
            cells[i, j] = (policy, models[sub]), done
    order = sorted(cells)
    solves = [(f"{policies[j]} {budgets[i]:g} W: {label}", res)
              for i, j in order for label, res in cells[i, j][1]]
    runs = monte_carlo([cells[ij][0] for ij in order], episodes=episodes,
                       horizon=horizon, base_seed=seed)
    rows = [run.to_row(budget_w=budgets[i])
            for (i, _j), run in zip(order, runs)]
    return rows, solves


def sweep_antennas(cfg: ScenarioConfig, n_r_list, episodes: int = 30,
                   horizon: int = 300, eps: float = DEFAULT_EPS,
                   seed: int = 0, **hsvi_kw):
    """Effective power versus array size, with antenna selection on and
    off: per array size n_r, one j-opt two-layer solve over a shortlist of
    masks (``select-n<n_r>``), then one rollout of it and the full array.

    The shortlist's last mask is the full array, so each n_r is calibrated
    once, the full-array model is :func:`restrict`-ed from the shortlist's
    with that mask's actions in order, and that mask's inner solve is the
    full array's solve: its greedy policy is the ``full-n<n_r>`` row, and
    its record is relabelled ``full-n<n_r>: inner mask 0``. Effective power
    is the transmit power scaled by the active-antenna fraction plus a
    circuit cost per active antenna. Returns the rows, with the
    ``ANTENNA_COLUMNS`` (the ``budget_w`` column holds n_r), and [(label,
    HsviResult)], each label prefixed with ``"<policy>: "``."""
    n_r_list = list(n_r_list)
    if not n_r_list:
        raise ValueError("an antenna sweep needs at least one array size")
    if len(set(n_r_list)) < len(n_r_list):
        raise ValueError(f"array sizes {n_r_list} repeat a size")
    hsvi_kw = {**SWEEP_HSVI_KW, **hsvi_kw}
    rows, solves = [], []
    for n_r in n_r_list:
        min_mask = cfg.k * cfg.n_u
        if n_r < min_mask:
            raise ValueError(f"n_r={n_r} below ZF minimum {min_mask}")
        # masks below twice the ZF minimum are excluded (ill-conditioned
        # inversions, no array gain); small arrays therefore collapse to the
        # full mask and the two curves coincide there
        floor = 2 * min_mask
        shortlist = sorted({m for m in (floor, n_r // 2, n_r)
                            if floor <= m <= n_r} | {n_r})
        select = compile_scenario(replace(cfg, n_r=n_r, n_t=n_r,
                                          mask_sizes=tuple(shortlist)))
        policy, done = baseline_policy("j-opt", select, eps=eps, **hsvi_kw)
        # cut after the solve, so that the view shares what it built
        full = restrict(select, replace(select.config, mask_sizes=(n_r,)))
        policy.kind = f"select-n{n_r}"
        last = dict(done)[f"inner mask {len(shortlist) - 1}"]
        full_policy = greedy_policy(full, last.bounds.lower)
        full_policy.kind = f"full-n{n_r}"
        solves += [(f"{policy.kind}: {label}", res) for label, res in done]
        solves.append((f"{full_policy.kind}: inner mask 0", last))
        runs = monte_carlo([(policy, select), (full_policy, full)],
                           episodes=episodes, horizon=horizon, base_seed=seed)
        rows += [run.to_row(budget_w=float(n_r)) for run in runs]
    return rows, solves

"""Reference loops that the vectorized production code must match exactly.

Each function is the earlier, one-item-at-a-time form of a production
routine: the per-action degraded effect, the per-slot rollout and its
per-episode reduction. Tests compare the production arrays with these
using exact equality.
"""

from dataclasses import replace

import numpy as np

from swiptctl.dynamics import arrival_pmf
from swiptctl.harness import episode_rng


def admissible(effect, energies) -> bool:
    """Every user can pay the action's energy price."""
    return all(effect.used_units[u] <= energies[u]
               for u in range(len(energies)))


def effective_effect(effect, energies):
    """Per-user degraded action: users who cannot pay the energy price fall
    back to no transmission (the kernel's fallback)."""
    if admissible(effect, energies):
        return effect
    served = effect.served.copy()
    used = effect.used_units.copy()
    p_up = np.asarray(effect.p_up, dtype=float).copy()
    rate_up = np.asarray(effect.rate_up, dtype=float).copy()
    for u, e in enumerate(energies):
        if effect.used_units[u] > e:
            served[u, :] = 0
            used[u] = 0
            p_up[u] = 0.0
            rate_up[u] = 0.0
    return replace(effect, served=served, used_units=used, p_up=p_up,
                   rate_up=rate_up)


def reference_run_episode(policy, compiled, horizon, seed, episode=0):
    """One rollout slot by slot and user by user, with one
    ``Generator.choice`` call per draw; returns per-slot records."""
    space = compiled.space
    level = compiled.level
    rng = episode_rng(seed, episode)
    pmf = arrival_pmf(compiled.arrivals)
    n_users = space.n_users
    q = np.zeros(n_users, dtype=int)
    e = np.full(n_users, space.e_max, dtype=int)
    mask_sizes = compiled.calibration.mask_sizes
    traj = []
    for _t in range(horizon):
        levels = rng.choice(level.probs.size, size=n_users, p=level.probs)
        obs_levels = np.array([
            rng.choice(level.probs.size, p=level.obs_confusion[lv])
            for lv in levels])
        obs = space.encode(tuple((int(q[u]), int(e[u]), int(obs_levels[u]))
                                 for u in range(n_users)))
        a = policy.action(obs)
        eff = effective_effect(compiled.effects[a], e)
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
            "n_active": mask_sizes[compiled.effects[a].mask_id],
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

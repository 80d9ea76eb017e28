"""Lagrangian constrained control on top of the compiled scenario.

The stage cost is the per-user delay proxy plus multiplier-weighted
constraint terms (power caps, minimum rates, delay cap). Multipliers adapt
by projected subgradient ascent on measured rollout violations. Policies
are solved in two layers: beamforming power levels with the antenna mask
frozen, then mask selection with the power policy frozen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
from scipy import sparse

from .dynamics import ActionEffect, InadmissibleActionError
from .pomdp import PomdpModel, solve_hsvi
from .scenario import CompiledScenario


class HashMismatchError(ValueError):
    """Policy applied to a scenario other than the one it was solved for."""


@dataclass(frozen=True)
class ConstraintSpec:
    """Per-user operating limits: power caps (W), delay cap (slots) and
    minimum sustained rates (packets/slot)."""

    p_max_up: float
    p_max_down: float
    tau_up: float
    r_min_up: float
    r_min_down: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


FAMILIES = ("p_up", "p_down", "r_up", "r_down", "delay")


@dataclass
class Multipliers:
    """Nonnegative multiplier per user for each constraint family, plus the
    positive per-user delay weights."""

    nu: dict                       # family -> (n_users,) array
    varrho: np.ndarray             # (n_users,) positive

    def __post_init__(self):
        self.varrho = np.asarray(self.varrho, dtype=float)
        if (self.varrho <= 0).any():
            raise ValueError("delay weights must be positive")
        clean = {}
        for fam in FAMILIES:
            v = np.asarray(self.nu.get(fam, np.zeros_like(self.varrho)),
                           dtype=float)
            if (v < 0).any():
                raise ValueError(f"multiplier {fam} must be nonnegative")
            clean[fam] = v
        self.nu = clean

    @classmethod
    def zeros(cls, n_users: int, varrho=None) -> "Multipliers":
        w = np.ones(n_users) if varrho is None else np.asarray(varrho, float)
        return cls(nu={}, varrho=w)

    def copy(self) -> "Multipliers":
        return Multipliers(nu={f: v.copy() for f, v in self.nu.items()},
                           varrho=self.varrho.copy())


def effective_effect(effect: ActionEffect, energies) -> ActionEffect:
    """Per-user degraded action: users who cannot pay the energy price fall
    back to no transmission (matches the kernel's fallback semantics)."""
    if effect.admissible(energies):
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


def _stage_terms(nu: Multipliers, users, effect: ActionEffect,
                 spec: ConstraintSpec, lam_slot: float) -> float:
    total = 0.0
    for u, (q, _e, lv) in enumerate(users):
        delay = q / lam_slot
        total += nu.varrho[u] * delay
        total += nu.nu["p_up"][u] * (float(effect.p_up[u]) - spec.p_max_up)
        total += nu.nu["p_down"][u] * (float(effect.p_down[u]) - spec.p_max_down)
        total += nu.nu["r_up"][u] * (spec.r_min_up - float(effect.served[u, lv]))
        total += nu.nu["r_down"][u] * (spec.r_min_down - float(effect.rate_down[u]))
        total += nu.nu["delay"][u] * (delay - spec.tau_up)
    return total


def stage_cost(nu: Multipliers, users, effect: ActionEffect,
               spec: ConstraintSpec, lam_slot: float) -> float:
    """Lagrangian cost of one (state, action) pair.

    ``users`` is the decoded per-user (q, e, level) tuple. The delay proxy
    is q / mean-arrivals-per-slot (queue length in units of arrival
    interarrival times)."""
    energies = [e for (_q, e, _lv) in users]
    if not effect.admissible(energies):
        raise InadmissibleActionError(
            f"action {effect.label!r} inadmissible at energies {energies}")
    return _stage_terms(nu, users, effect, spec, lam_slot)


def belief_cost(nu: Multipliers, b, action: int, compiled: CompiledScenario,
                spec: ConstraintSpec) -> float:
    """Belief-weighted stage cost; inadmissible support states contribute
    their degraded-action cost (the cost the kernel semantics realize)."""
    b = np.asarray(b, dtype=float)
    effect = compiled.effects[action]
    total = 0.0
    for s in np.flatnonzero(b > 0.0):
        users = compiled.space.decode(int(s))
        eff = effective_effect(effect, [e for (_q, e, _l) in users])
        total += b[s] * _stage_terms(nu, users, eff, spec,
                                     compiled.config.lam_slot)
    return total


def build_cost_table(compiled: CompiledScenario, nu: Multipliers,
                     spec: ConstraintSpec,
                     extra_action_cost=None) -> np.ndarray:
    """(n_states, n_actions) table of degraded-action stage costs.

    ``extra_action_cost`` is an optional per-action constant (e.g. weighted
    circuit power of the active mask) added to every state's cost."""
    n = compiled.space.size
    table = np.empty((n, compiled.n_actions))
    decoded = [compiled.space.decode(s) for s in range(n)]
    for a, effect in enumerate(compiled.effects):
        for s, users in enumerate(decoded):
            eff = effective_effect(effect, [e for (_q, e, _l) in users])
            table[s, a] = _stage_terms(nu, users, eff, spec,
                                       compiled.config.lam_slot)
    if extra_action_cost is not None:
        table += np.asarray(extra_action_cost, dtype=float)[None, :]
    return table


# ---------------------------------------------------------------------------
# measured metrics and multiplier adaptation
# ---------------------------------------------------------------------------

def trajectory_metrics(traj, varrho, lam_slot: float) -> dict:
    """Time averages over one rollout: weighted delay proxy, per-user powers
    and realized rates. ``traj`` is a sequence of per-slot records with
    ``queues``, ``p_up``, ``p_down``, ``rate_up``, ``rate_down`` arrays."""
    if not traj:
        raise ValueError("trajectory must be nonempty")
    varrho = np.asarray(varrho, dtype=float)
    qs = np.array([rec["queues"] for rec in traj], dtype=float)
    raw_delay = (qs / lam_slot).mean(axis=0)
    return {
        "delay": raw_delay * varrho,
        "delay_raw": raw_delay,
        "p_up": np.array([rec["p_up"] for rec in traj]).mean(axis=0),
        "p_down": np.array([rec["p_down"] for rec in traj]).mean(axis=0),
        "r_up": np.array([rec["rate_up"] for rec in traj]).mean(axis=0),
        "r_down": np.array([rec["rate_down"] for rec in traj]).mean(axis=0),
    }


def constraint_violations(metrics: dict, spec: ConstraintSpec) -> dict:
    """Signed violations, positive when the constraint is broken."""
    return {
        "p_up": metrics["p_up"] - spec.p_max_up,
        "p_down": metrics["p_down"] - spec.p_max_down,
        "r_up": spec.r_min_up - metrics["r_up"],
        "r_down": spec.r_min_down - metrics["r_down"],
        "delay": metrics.get("delay_raw", metrics["delay"]) - spec.tau_up,
    }


def update_multipliers(nu: Multipliers, metrics: dict, spec: ConstraintSpec,
                       step: float) -> Multipliers:
    """Projected subgradient ascent nu' = [nu + step * violation]^+."""
    if step <= 0:
        raise ValueError("step must be positive")
    viol = constraint_violations(metrics, spec)
    new = {fam: np.maximum(nu.nu[fam] + step * viol[fam], 0.0)
           for fam in FAMILIES}
    return Multipliers(nu=new, varrho=nu.varrho.copy())


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass
class Policy:
    """Observation-indexed action table with the scenario fingerprint.

    Actions with an unpayable energy price execute through the per-user
    no-transmit fallback, so the realized expenditure never exceeds the
    stored energy."""

    action_of: np.ndarray          # (n_obs,) joint action indices
    scenario_hash: str
    kind: str = "d-opt"

    def action(self, obs: int) -> int:
        return int(self.action_of[obs])

    def check_hash(self, compiled: CompiledScenario) -> None:
        if self.scenario_hash != compiled.scenario_hash:
            raise HashMismatchError(
                f"policy hash {self.scenario_hash} != scenario "
                f"{compiled.scenario_hash}")

    def to_json(self) -> str:
        return json.dumps({"scenario_hash": self.scenario_hash,
                           "kind": self.kind,
                           "action_of": self.action_of.tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Policy":
        d = json.loads(text)
        return cls(action_of=np.asarray(d["action_of"], dtype=int),
                   scenario_hash=d["scenario_hash"], kind=d.get("kind", ""))


def _level_product(space, qe_pairs, level_pmfs) -> np.ndarray:
    """Joint distribution of independent users, user u at its exact
    ``qe_pairs[u] = (q, e)`` with channel levels distributed as
    ``level_pmfs[u]``: the Kronecker product of the per-user vectors."""
    vecs = []
    for (q, e), pmf in zip(qe_pairs, level_pmfs):
        v = np.zeros((space.q_max + 1, space.e_max + 1, space.n_levels))
        v[q, e] = pmf
        vecs.append(v.ravel())
    return reduce(np.kron, vecs)


def _obs_belief(compiled: CompiledScenario, obs: int) -> np.ndarray:
    """Posterior over states given an observation and the stationary level
    prior: queue/energy are read exactly, levels via Bayes through the
    confusion matrix."""
    level = compiled.level
    users_obs = compiled.space.decode(obs)
    posts = []
    for (_q, _e, ol) in users_obs:
        w = level.probs * level.obs_confusion[:, ol]
        posts.append(w / w.sum())
    return _level_product(compiled.space, [(q, e) for q, e, _ in users_obs],
                          posts)


def greedy_policy(compiled: CompiledScenario, lower_bound,
                  action_map=None, kind: str = "d-opt") -> Policy:
    """Greedy policy of a PWLC lower bound, tabulated per observation.

    ``action_map`` translates sub-model action indices back to joint action
    indices when the bound was solved on an action subset."""
    n = compiled.space.size
    table = np.empty(n, dtype=int)
    for obs in range(n):
        b = _obs_belief(compiled, obs)
        _, a, _ = lower_bound.best(b)
        table[obs] = action_map[a] if action_map is not None else a
    return Policy(action_of=table, scenario_hash=compiled.scenario_hash,
                  kind=kind)


# ---------------------------------------------------------------------------
# two-layer solve
# ---------------------------------------------------------------------------

def _make_model(compiled: CompiledScenario, cost_table: np.ndarray,
                action_ids) -> PomdpModel:
    return PomdpModel(
        transitions=[compiled.kernel.matrices[a] for a in action_ids],
        observations=[compiled.obs_matrix] * len(action_ids),
        cost=cost_table[:, list(action_ids)],
        discount=compiled.config.discount,
        action_labels=[compiled.effects[a].label for a in action_ids])


def uniform_initial_belief(compiled: CompiledScenario,
                           q0: int = 0, e0: int | None = None) -> np.ndarray:
    """Deterministic start (empty queue, full buffer) with levels drawn from
    the stationary level distribution."""
    space = compiled.space
    e0 = space.e_max if e0 is None else e0
    return _level_product(space, [(q0, e0)] * space.n_users,
                          [compiled.level.probs] * space.n_users)


def solve_inner_beamforming(compiled: CompiledScenario, mask_id: int,
                            nu: Multipliers, spec: ConstraintSpec,
                            eps: float = 0.5, b0=None,
                            cost_table=None, **hsvi_kw):
    """Power-level HSVI with the antenna mask frozen.

    Returns (policy restricted to this mask's actions, solver result,
    action id map)."""
    ids = [a for a, eff in enumerate(compiled.effects)
           if eff.mask_id == mask_id]
    if not ids:
        raise ValueError(f"no actions for mask {mask_id}")
    if cost_table is None:
        cost_table = build_cost_table(compiled, nu, spec)
    model = _make_model(compiled, cost_table, ids)
    b0 = uniform_initial_belief(compiled) if b0 is None else b0
    result = solve_hsvi(model, b0, eps=eps, **hsvi_kw)
    policy = greedy_policy(compiled, result.bounds.lower, action_map=ids)
    return policy, result, ids


def solve_outer_selection(compiled: CompiledScenario, inner_policies: dict,
                          nu: Multipliers, spec: ConstraintSpec,
                          eps: float = 0.5, b0=None,
                          cost_table=None, **hsvi_kw):
    """Mask-level HSVI with the power policy frozen per mask.

    Each outer action plays mask m with the power level the inner policy
    prescribes at the state's own observation digitwise (exact queue/energy,
    true level read as observed); rows of the outer kernel and cost are
    gathered from the corresponding joint actions.
    Returns (joint policy, solver result, mask ids)."""
    if not inner_policies:
        raise ValueError("need at least one inner policy")
    if cost_table is None:
        cost_table = build_cost_table(compiled, nu, spec)
    mask_ids = sorted(inner_policies)
    n = compiled.space.size
    outer_t, outer_cost, chosen = [], [], []
    for m in mask_ids:
        inner = inner_policies[m]
        acts = inner.action_of           # state index == obs index proxy
        rows = sparse.vstack([compiled.kernel.matrices[acts[s]].getrow(s)
                              for s in range(n)]).tocsr()
        outer_t.append(rows)
        outer_cost.append(cost_table[np.arange(n), acts])
        chosen.append(acts)
    model = PomdpModel(transitions=outer_t,
                       observations=[compiled.obs_matrix] * len(mask_ids),
                       cost=np.column_stack(outer_cost),
                       discount=compiled.config.discount,
                       action_labels=[f"mask{m}" for m in mask_ids])
    b0 = uniform_initial_belief(compiled) if b0 is None else b0
    result = solve_hsvi(model, b0, eps=eps, **hsvi_kw)
    mask_choice = greedy_policy(compiled, result.bounds.lower)
    joint = np.empty(n, dtype=int)
    for obs in range(n):
        m = mask_ids[mask_choice.action_of[obs]]
        joint[obs] = chosen[mask_ids.index(m)][obs]
    policy = Policy(action_of=joint, scenario_hash=compiled.scenario_hash)
    return policy, result, mask_ids


@dataclass
class SolveReport:
    policy: Policy
    multiplier_trace: list
    violation_trace: list
    converged: bool
    diagnostic: str = ""


def full_solve(compiled: CompiledScenario, spec: ConstraintSpec,
               varrho=None, rounds: int = 8, step0: float = 1.0,
               eps: float = 0.5, episodes: int = 10, horizon: int = 200,
               tol: float = 0.05, seed: int = 0, **hsvi_kw) -> SolveReport:
    """Alternate two-layer solves with projected multiplier ascent.

    Violations are measured by Monte Carlo rollouts; if no feasible iterate
    appears within the budget, the least-violating policy is returned with
    a diagnostic."""
    # deferred: harness uses Policy
    from .harness import monte_carlo, solve_two_layer

    nu = Multipliers.zeros(compiled.space.n_users, varrho)
    trace, viols = [], []
    best = None
    for n_round in range(1, rounds + 1):
        policy = solve_two_layer(compiled, nu, spec, "d-opt", eps, **hsvi_kw)
        run = monte_carlo(policy, compiled, episodes=episodes,
                          horizon=horizon, base_seed=seed)
        metrics = {"delay_raw": run.delay_slots,
                   "delay": run.delay_slots * nu.varrho,
                   "p_up": run.p_up_w, "p_down": run.p_down_w,
                   "r_up": run.rate_up, "r_down": run.rate_down}
        viol = constraint_violations(metrics, spec)
        worst = max(float(np.max(v)) for v in viol.values())
        trace.append(nu.copy())
        viols.append(viol)
        if best is None or worst < best[0]:
            best = (worst, policy)
        if worst <= tol * max(spec.p_max_up, 1e-12):
            return SolveReport(policy=policy, multiplier_trace=trace,
                               violation_trace=viols, converged=True)
        nu = update_multipliers(nu, metrics, spec, step0 / np.sqrt(n_round))
    return SolveReport(policy=best[1], multiplier_trace=trace,
                       violation_trace=viols, converged=False,
                       diagnostic=(f"worst residual {best[0]:.4g} after "
                                   f"{rounds} rounds"))

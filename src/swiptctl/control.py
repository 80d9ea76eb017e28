"""Power-weighted control on top of the compiled scenario.

The stage cost is the per-user delay proxy plus one power weight times the
transmit powers and the active antennas' circuit power; weight 0 prices
delay alone. Policies are solved in two layers by one routine
(:func:`solve_layer`): beamforming power levels with the antenna mask
frozen, then mask selection with the power policy frozen.

Users are independent given the action, so the tables are built per user:
the cost table spreads per-user terms over the joint states, the greedy
policy scores the Kronecker-factored observation posteriors in one matrix
product, and a layer model applies the kernel's per-user factors, with no
loop over joint states and no joint transition matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dynamics import user_action_table
from .pomdp import PomdpModel, solve_hsvi
from .pomdp.model import KroneckerTransitions
from .scenario import CompiledScenario


class HashMismatchError(ValueError):
    """Policy applied to a scenario other than the one it was solved for."""


def build_cost_table(compiled: CompiledScenario,
                     power_weight: float) -> np.ndarray:
    """(n_states, n_actions) table of stage costs under the degraded
    action: a user who cannot pay the action's energy price neither
    transmits nor is served (the kernel's fallback, read from
    :func:`user_action_table`).

    User by user, the delay proxy q / mean-arrivals-per-slot and
    ``power_weight`` times each transmit power depend only on that user's
    (q, e, level) and the action: they are tabulated over one user's
    states and spread over the joint states, one term at a time. Then
    ``power_weight`` times the active antennas' circuit power is added per
    action."""
    space, actions = compiled.space, compiled.actions
    acts = user_action_table(space, actions)
    delay = (space.user_digits()[0] / compiled.config.lam_slot)[:, None]
    shape = (space.per_user, compiled.n_actions)
    table = np.zeros((space.size, compiled.n_actions))
    for u in range(space.n_users):
        for term in (delay, power_weight * acts.p_up[u],
                     power_weight * actions.p_down[:, u]):
            table += space.spread(u, np.broadcast_to(term, shape))
    table += (power_weight * compiled.config.circuit_w_per_antenna
              * actions.n_active)[None, :]
    return table


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

    def check_hash(self, compiled: CompiledScenario) -> None:
        """Refuse a policy solved for another scenario, or whose table is
        not one integer action id in [0, n_actions) per observation."""
        if self.scenario_hash != compiled.scenario_hash:
            raise HashMismatchError(
                f"policy hash {self.scenario_hash} != scenario "
                f"{compiled.scenario_hash}")
        table = np.asarray(self.action_of)
        if (table.dtype.kind not in "iu"
                or table.shape != (compiled.space.size,)
                or table.min() < 0 or table.max() >= compiled.n_actions):
            raise ValueError(
                f"policy table must hold {compiled.space.size} integer "
                f"action ids in [0, {compiled.n_actions})")

    def to_json(self) -> str:
        return json.dumps({"scenario_hash": self.scenario_hash,
                           "kind": self.kind,
                           "action_of": self.action_of.tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Policy":
        d = json.loads(text)      # ids keep their JSON type for check_hash
        if not isinstance(d, dict) or not {"action_of",
                                           "scenario_hash"} <= d.keys():
            raise ValueError("policy file needs action_of and scenario_hash")
        return cls(action_of=np.asarray(d["action_of"]),
                   scenario_hash=d["scenario_hash"], kind=d.get("kind", ""))


def greedy_policy(compiled: CompiledScenario, lower_bound) -> Policy:
    """Greedy policy of a PWLC lower bound, tabulated per observation.

    One product scores every alpha at every observation posterior (built
    once per compiled scenario); the lowest index wins ties. The table
    holds the bound's own action ids."""
    scores = lower_bound.scores(compiled.obs_posteriors)
    actions = np.array([alpha.action for alpha in lower_bound.alphas])
    return Policy(action_of=actions[np.argmax(scores, axis=1)],
                  scenario_hash=compiled.scenario_hash)


# ---------------------------------------------------------------------------
# two-layer solve
# ---------------------------------------------------------------------------

def uniform_initial_belief(compiled: CompiledScenario) -> np.ndarray:
    """Deterministic start (empty queue, full buffer) with levels drawn from
    the stationary level distribution."""
    space = compiled.space
    q, e, lv = space.user_digits()
    user = np.where((q == 0) & (e == space.e_max), compiled.level.probs[lv],
                    0.0)
    return reduce(np.kron, [user] * space.n_users)


def layer_model(compiled: CompiledScenario, chosen: np.ndarray,
                cost_table: np.ndarray) -> PomdpModel:
    """The model whose action i plays joint action ``chosen[i, s]`` at
    state s, its costs gathered state by state and its transitions the
    kernel's factors with ``chosen`` (:class:`KroneckerTransitions`); a
    power layer, a run of actions each played everywhere (the action table
    is mask-major), shares the kernel's factor array."""
    states = np.arange(compiled.space.size)
    kernel = compiled.kernel
    return PomdpModel(
        transitions=KroneckerTransitions(kernel.factors, kernel.levels,
                                         chosen),
        observations=[compiled.obs_matrix] * len(chosen),
        cost=cost_table[states[:, None], chosen.T],
        discount=compiled.config.discount,
        posteriors=compiled.obs_posteriors)


def solve_layer(compiled: CompiledScenario, chosen: np.ndarray,
                cost_table: np.ndarray, eps: float, **hsvi_kw):
    """HSVI on :func:`layer_model` from the uniform initial belief; each
    observation o, read as a state (levels as observed), plays
    ``chosen[i, o]`` for its greedy layer action i.

    Returns (joint policy, solver result)."""
    if not len(chosen):
        raise ValueError("a layer needs at least one action")
    model = layer_model(compiled, chosen, cost_table)
    result = solve_hsvi(model, uniform_initial_belief(compiled), eps=eps,
                        **hsvi_kw)
    pick = greedy_policy(compiled, result.bounds.lower).action_of
    return Policy(action_of=chosen[pick, np.arange(pick.size)],
                  scenario_hash=compiled.scenario_hash), result


def solve_inner_beamforming(compiled: CompiledScenario, mask_id: int,
                            cost_table: np.ndarray, eps: float, **hsvi_kw):
    """Power layer: action i plays the mask's i-th joint action at every
    state. Returns (joint policy, solver result)."""
    ids = np.flatnonzero(compiled.actions.mask_id == mask_id)
    chosen = np.broadcast_to(ids[:, None], (ids.size, compiled.space.size))
    return solve_layer(compiled, chosen, cost_table, eps, **hsvi_kw)


def solve_outer_selection(compiled: CompiledScenario, inner_policies: dict,
                          cost_table: np.ndarray, eps: float, **hsvi_kw):
    """Mask layer: action i plays the inner policy of the i-th mask id in
    sorted order. Returns (joint policy, solver result)."""
    chosen = np.array([inner_policies[m].action_of
                       for m in sorted(inner_policies)])
    return solve_layer(compiled, chosen, cost_table, eps, **hsvi_kw)

"""Power-weighted stage costs, policies, and the two-layer solve."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from oracles import (DEFAULT_PRUNE_MARGIN, ClosureError, ObservationMdp,
                     constant_layer, decode, effective_effect, encode,
                     exact_value_iteration, explicit_model, kernel_matrices,
                     layer_matrices, root_seeds_off, states)
from test_pomdp import fib_seed
from swiptctl.control import (ConstraintSpec, HashMismatchError, Policy,
                              build_cost_table, greedy_policy, layer_model,
                              solve_inner_beamforming, solve_outer_selection,
                              uniform_initial_belief)
from swiptctl.dynamics import ActionTable, LevelModel, build_kernel
from swiptctl.harness import (J_POWER_WEIGHT, SWEEP_HSVI_KW,
                              baseline_cost_table, baseline_policy,
                              default_constraints)
from swiptctl.pomdp import (HsviResult, PomdpModel, initial_bounds, solve_hsvi,
                            solver)
from swiptctl.pomdp.model import emitted
from swiptctl.scenario import compile_scenario, desk_scenario


def hand_actions():
    """A one-action table for two users."""
    return ActionTable(
        served=np.array([[[1, 2], [0, 1]]]),
        harvested=np.array([[[0, 1], [1, 2]]]),
        used_units=np.array([[2, 1]]),
        p_up=np.array([[0.01, 0.02]]),
        p_down=np.array([[0.2, 0.3]]),
        rate_down=np.array([[0.8, 1.2]]),
        mask_id=np.zeros(1, int), n_active=np.full(1, 16))


def hand_spec():
    return ConstraintSpec(p_max_up=0.05, p_max_down=0.5, r_min_up=0.5,
                          r_min_down=1.0)


@pytest.mark.parametrize("case", ["unpayable", "hand-actions"])
def test_replaced_action_table_brings_its_own_kernel(case, desk_compiled,
                                                     unpayable):
    compiled = (unpayable[1] if case == "unpayable"
                else replace(desk_compiled, actions=hand_actions()))
    want = build_kernel(compiled.space, compiled.arrival_pmf, compiled.level,
                        compiled.actions)

    def arrays(kernel):
        return [[(a.dtype, a.tolist()) for a in (m.data, m.indices, m.indptr)]
                for m in kernel.matrices]

    assert arrays(compiled.kernel) == arrays(want)
    assert arrays(compiled.kernel) != arrays(desk_compiled.kernel)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_constraint_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstraintSpec(p_max_up=0.0, p_max_down=1.0, r_min_up=1.0,
                       r_min_down=1.0)


# ---------------------------------------------------------------------------
# degraded actions
# ---------------------------------------------------------------------------

def test_effective_effect_passthrough_when_admissible():
    actions = hand_actions()
    out = effective_effect(actions, 0, [2, 1])
    for name, values in vars(out).items():
        np.testing.assert_array_equal(values, getattr(actions, name)[0])


def test_effective_effect_degrades_only_broke_users():
    actions = hand_actions()
    out = effective_effect(actions, 0, [2, 0])  # user 1 cannot pay 1 unit
    assert np.all(out.served[0] == actions.served[0, 0])
    assert np.all(out.served[1] == 0)
    assert out.used_units[1] == 0 and out.used_units[0] == 2
    assert out.p_up[1] == 0.0 and out.p_up[0] == actions.p_up[0, 0]
    # harvesting and downlink are not gated by stored energy
    np.testing.assert_array_equal(out.harvested, actions.harvested[0])
    np.testing.assert_array_equal(out.p_down, actions.p_down[0])
    np.testing.assert_array_equal(out.rate_down, actions.rate_down[0])


# ---------------------------------------------------------------------------
# stage cost and cost table
# ---------------------------------------------------------------------------

def reference_stage_terms(weight, users, effect, spec, lam_slot):
    """Stage cost of one decoded joint state under ``effect``, one user
    and one term at a time: the delay proxy plus ``weight`` times each
    transmit power's excess over its cap."""
    total = 0.0
    for u, (q, _e, _lv) in enumerate(users):
        total += q / lam_slot
        total += weight * (float(effect.p_up[u]) - spec.p_max_up)
        total += weight * (float(effect.p_down[u]) - spec.p_max_down)
    return total


def reference_cost_table(compiled, weight, spec):
    """The per-user terms state by state, each action degraded at the
    state's own energies; the circuit power is not included."""
    space = compiled.space
    table = np.empty((space.size, compiled.n_actions))
    for s, users in states(space):
        for a in range(compiled.n_actions):
            eff = effective_effect(compiled.actions, a,
                                   [e for (_q, e, _l) in users])
            table[s, a] = reference_stage_terms(weight, users, eff, spec,
                                                compiled.config.lam_slot)
    return table


def weighted_circuit(compiled, weight):
    """(n_actions,) weighted circuit power of the active antennas."""
    return (weight * compiled.config.circuit_w_per_antenna
            * compiled.actions.n_active)


def test_stage_cost_at_weight_zero_is_the_delay_proxy(desk_compiled):
    compiled = replace(desk_compiled, actions=hand_actions())
    assert compiled.config.lam_slot == 0.5
    users = ((3, 2, 1), (4, 1, 0))
    table = build_cost_table(compiled, hand_spec(), 0.0)
    assert table[encode(compiled.space, users), 0] == 3 / 0.5 + 4 / 0.5


def test_stage_cost_full_arithmetic(desk_compiled):
    compiled = replace(desk_compiled, actions=hand_actions())
    spec = hand_spec()
    lam = compiled.config.lam_slot
    users = ((3, 2, 1), (4, 1, 0))       # energies (2, 1) pay (2, 1)
    got = build_cost_table(compiled, spec, 3.0)[
        encode(compiled.space, users), 0]
    # independent term-by-term evaluation
    want = 3 / lam + 4 / lam                                # delay proxies
    want += 3.0 * (0.01 - spec.p_max_up + 0.02 - spec.p_max_up)   # uplinks
    want += 3.0 * (0.2 - spec.p_max_down + 0.3 - spec.p_max_down)  # downlinks
    want += 3.0 * compiled.config.circuit_w_per_antenna * 16  # 16 antennas
    assert got == pytest.approx(want)


# d-opt's weight, j-opt's, and the weight model's
WEIGHTS = (0.0, J_POWER_WEIGHT, 28.0)


def assert_pointwise_at_every_weight(compiled):
    spec = default_constraints(compiled.config)
    for weight in WEIGHTS:
        table = build_cost_table(compiled, spec, weight)
        assert table.shape == (compiled.space.size, compiled.n_actions)
        np.testing.assert_array_equal(
            table, reference_cost_table(compiled, weight, spec)
            + weighted_circuit(compiled, weight))


def test_build_cost_table_matches_pointwise(desk_compiled):
    assert_pointwise_at_every_weight(desk_compiled)


def test_build_cost_table_matches_pointwise_two_masks(two_mask_compiled):
    assert len(np.unique(two_mask_compiled.actions.n_active)) == 2
    assert_pointwise_at_every_weight(two_mask_compiled)


def test_build_cost_table_matches_pointwise_three_users(three_user_compiled):
    compiled = three_user_compiled
    # the 2-unit top level is unaffordable below a full buffer
    assert compiled.actions.used_units.max() > compiled.space.e_max - 1
    assert_pointwise_at_every_weight(compiled)


@pytest.mark.parametrize("case", ["desk", "two-mask", "three-user"])
def test_weight_zero_table_is_the_delay_proxy_table(request, case):
    compiled = request.getfixturevalue(
        {"desk": "desk_compiled", "two-mask": "two_mask_compiled",
         "three-user": "three_user_compiled"}[case])
    space = compiled.space
    proxy = space.user_digits()[0] / compiled.config.lam_slot
    delay = sum(space.spread(u, proxy) for u in range(space.n_users))
    table = build_cost_table(compiled, default_constraints(compiled.config),
                             0.0)
    assert table.tobytes() == np.repeat(
        delay[:, None], compiled.n_actions, axis=1).tobytes()


def test_baseline_cost_table_adds_the_circuit_power_to_j_opt(
        two_mask_compiled):
    compiled = two_mask_compiled
    spec = default_constraints(compiled.config)
    for kind, weight in (("d-opt", 0.0), ("j-opt", J_POWER_WEIGHT)):
        assert baseline_cost_table(kind, compiled, spec).tobytes() \
            == build_cost_table(compiled, spec, weight).tobytes()
    # j-opt minus d-opt: the weighted transmit-power excess, which depends
    # on the state, plus the weighted circuit power of each mask size
    extra = (baseline_cost_table("j-opt", compiled, spec)
             - baseline_cost_table("d-opt", compiled, spec))
    transmit = (reference_cost_table(compiled, J_POWER_WEIGHT, spec)
                - reference_cost_table(compiled, 0.0, spec))
    circuit = weighted_circuit(compiled, J_POWER_WEIGHT)
    assert len(np.unique(circuit)) == 2          # one value per mask size
    np.testing.assert_allclose(extra - transmit,
                               np.broadcast_to(circuit, extra.shape))
    for kind in ("p-opt", "mystery"):
        with pytest.raises(ValueError):
            baseline_cost_table(kind, compiled, spec)


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_policy_json_round_trip():
    pol = Policy(action_of=np.array([0, 2, 1]), scenario_hash="abc",
                 kind="d-opt")
    again = Policy.from_json(pol.to_json())
    np.testing.assert_array_equal(again.action_of, pol.action_of)
    assert again.scenario_hash == "abc" and again.kind == "d-opt"


def test_policy_hash_check(desk_compiled):
    pol = Policy(action_of=np.zeros(desk_compiled.space.size, dtype=int),
                 scenario_hash="deadbeef")
    with pytest.raises(HashMismatchError):
        pol.check_hash(desk_compiled)


def test_effective_spend_never_exceeds_energy(desk_compiled):
    a = desk_compiled.n_actions - 1
    assert np.all(desk_compiled.actions.used_units[a] > 0)
    eff = effective_effect(desk_compiled.actions, a, [0, 0])
    np.testing.assert_array_equal(eff.used_units, [0, 0])


def enumerated_level_product(space, qe_pairs, level_pmfs):
    """Reference joint vector: users at exact (q, e), levels independent with
    the given pmfs, filled one joint level combination at a time."""
    b = np.zeros(space.size)
    for combo in itertools.product(range(space.n_levels),
                                   repeat=space.n_users):
        p = 1.0
        for u, lv in enumerate(combo):
            p *= level_pmfs[u][lv]
        b[encode(space, tuple((q, e, lv) for (q, e), lv
                             in zip(qe_pairs, combo)))] = p
    return b


def obs_belief(compiled, obs):
    """Row ``obs`` of the greedy policy's observation posteriors."""
    return compiled.obs_posteriors[obs].toarray().ravel()


def test_obs_belief_is_consistent_posterior(desk_compiled):
    space = desk_compiled.space
    level = desk_compiled.level
    users_obs = ((3, 2, 1), (1, 4, 0))
    b = obs_belief(desk_compiled, encode(space, users_obs))
    assert b.sum() == pytest.approx(1.0)
    for s in np.flatnonzero(b):
        users = decode(space, int(s))
        assert (users[0][:2], users[1][:2]) == ((3, 2), (1, 4))
    posts = [level.probs * level.obs_confusion[:, ol]
             for _q, _e, ol in users_obs]
    ref = enumerated_level_product(space, [(3, 2), (1, 4)],
                                   [w / w.sum() for w in posts])
    np.testing.assert_array_equal(b, ref)


def test_uniform_initial_belief(desk_compiled):
    b = uniform_initial_belief(desk_compiled)
    assert b.sum() == pytest.approx(1.0)
    space = desk_compiled.space
    for s in np.flatnonzero(b):
        for q, e, _lv in decode(space, int(s)):
            assert q == 0 and e == space.e_max
    ref = enumerated_level_product(space, [(0, space.e_max)] * space.n_users,
                                   [desk_compiled.level.probs] * space.n_users)
    np.testing.assert_array_equal(b, ref)


def test_beliefs_match_enumeration_three_users(three_user_compiled):
    compiled = three_user_compiled
    space, level = compiled.space, compiled.level
    ref = enumerated_level_product(space, [(0, space.e_max)] * 3,
                                   [level.probs] * 3)
    np.testing.assert_array_equal(uniform_initial_belief(compiled), ref)
    users_obs = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
    posts = [level.probs * level.obs_confusion[:, ol]
             for _q, _e, ol in users_obs]
    ref = enumerated_level_product(space, [u[:2] for u in users_obs],
                                   [w / w.sum() for w in posts])
    np.testing.assert_array_equal(
        obs_belief(compiled, encode(space, users_obs)), ref)


# ---------------------------------------------------------------------------
# two-layer solve
# ---------------------------------------------------------------------------

def test_inner_solve_stays_inside_mask(two_mask_compiled):
    compiled = two_mask_compiled
    cost = build_cost_table(compiled, default_constraints(compiled.config),
                            0.0)
    policy, result = solve_inner_beamforming(
        compiled, 1, cost, eps=5.0, max_iterations=4)
    assert (compiled.actions.mask_id[policy.action_of] == 1).all()
    assert result.root_value <= 0.0      # reward orientation: minus cost
    policy.check_hash(compiled)


@pytest.fixture(scope="module")
def two_mask_compiled():
    return compile_scenario(desk_scenario(calib_draws=80,
                                          mask_sizes=(8, 16)))


def test_outer_selection_composes_inner_policies(two_mask_compiled,
                                                 monkeypatch):
    import swiptctl.control as control
    compiled = two_mask_compiled
    cost = jopt_cost(compiled)
    inner = {}
    for m in (0, 1):
        pol, _res = solve_inner_beamforming(
            compiled, m, cost, eps=5.0, max_iterations=3)
        inner[m] = pol
    models = []

    def capture(model, *args, **kwargs):
        models.append(model)
        return solve_hsvi(model, *args, **kwargs)

    monkeypatch.setattr(control, "solve_hsvi", capture)
    joint, _res = solve_outer_selection(
        compiled, inner, cost, eps=5.0, max_iterations=3)
    mask_ids = [0, 1]             # outer action i plays the i-th mask id
    for obs in range(0, compiled.space.size, 97):
        a = int(joint.action_of[obs])
        m = compiled.actions.mask_id[a]
        assert a == int(inner[m].action_of[obs])
    # outer action m plays inner[m] at every state: its kernel rows and
    # costs are that action's, state by state
    (outer,) = models
    kernel = kernel_matrices(compiled.kernel)
    for i, m in enumerate(mask_ids):
        acts = inner[m].action_of
        assert len(np.unique(acts)) > 1
        want = sparse.vstack([kernel[acts[s]].getrow(s)
                              for s in range(compiled.space.size)]).tocsr()
        got = layer_matrices(outer.transitions)[i]
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr),
                                          getattr(want, attr))
        np.testing.assert_array_equal(
            outer.cost[:, i], cost[np.arange(compiled.space.size), acts])


def test_policy_rows_of_a_constant_policy_is_the_action_matrix(
        two_mask_compiled):
    # the corners' policy matvec keeps row pi[s] of every action's product:
    # for a constant pi that is the action's own product, bit for bit, and
    # the materialized action matrix's to round-off
    compiled = two_mask_compiled
    model = layer_model(compiled, constant_layer(compiled),
                        jopt_cost(compiled))
    states = np.arange(model.n_states)
    pi = np.full(model.n_states, 2)
    x = np.random.default_rng(2).normal(size=model.n_states)
    got = model.after(x)[pi, states]
    np.testing.assert_array_equal(got, model.apply(2, x), strict=True)
    want = kernel_matrices(compiled.kernel)[2] @ x
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.abs(x).max())


def test_power_layer_model_holds_the_kernel_matrices(two_mask_compiled):
    # a power layer's actions are one run of the mask-major action table:
    # its model reads their factors of the kernel's array in place, and
    # its matrices are the kernel's
    compiled = two_mask_compiled
    ids = np.flatnonzero(compiled.actions.mask_id == 1)
    cost = jopt_cost(compiled)
    model = layer_model(compiled, constant_layer(compiled, ids), cost)
    assert model.transitions.chosen is None
    kernel = kernel_matrices(compiled.kernel)
    for t, a in zip(layer_matrices(model.transitions), ids):
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(t, part),
                                          getattr(kernel[a], part))
    assert np.shares_memory(model.transitions.factors,
                            compiled.kernel.factors)
    # and a second layer model over the same run shares that one array
    again = layer_model(compiled, constant_layer(compiled, ids), cost)
    assert np.shares_memory(again.transitions.factors,
                            model.transitions.factors)
    assert all(z is compiled.obs_matrix for z in model.observations)
    np.testing.assert_array_equal(model.cost, cost[:, ids])


def reference_greedy(compiled, lower):
    """Greedy table one observation at a time: the enumerated posterior,
    then the bound's own best alpha."""
    space, level = compiled.space, compiled.level
    table = np.empty(space.size, dtype=int)
    for obs, users_obs in states(space):
        posts = [level.probs * level.obs_confusion[:, ol]
                 for _q, _e, ol in users_obs]
        b = enumerated_level_product(space, [u[:2] for u in users_obs],
                                     [w / w.sum() for w in posts])
        _, a, _ = lower.best(b)
        table[obs] = a
    return table


def jopt_cost(compiled):
    """The j-opt baseline's cost table."""
    return baseline_cost_table("j-opt", compiled,
                               default_constraints(compiled.config))


@pytest.mark.parametrize("mask", [None, 1])
def test_greedy_policy_matches_per_observation_loop(two_mask_compiled, mask):
    compiled = two_mask_compiled
    ids = [a for a in range(compiled.n_actions)
           if mask is None or compiled.actions.mask_id[a] == mask]
    model = layer_model(compiled, constant_layer(compiled, ids),
                        jopt_cost(compiled))
    res = solve_hsvi(model, uniform_initial_belief(compiled), eps=0.5,
                     max_iterations=3)
    lower = res.bounds.lower
    assert len(lower) > 2
    # the table holds the layer's own action ids
    got = greedy_policy(compiled, lower)
    want = reference_greedy(compiled, lower)
    np.testing.assert_array_equal(got.action_of, want)
    assert len(np.unique(want)) > 1


def test_two_layer_solve_and_p_opt_decode_no_joint_state(two_mask_compiled):
    from swiptctl.dynamics import StateSpace

    # the scalar decode is the tests' reference only (oracles.decode)
    assert not hasattr(StateSpace, "decode")
    jopt, solves = baseline_policy("j-opt", two_mask_compiled, eps=5.0,
                                   max_iterations=2)
    popt, none = baseline_policy("p-opt", two_mask_compiled)
    assert jopt.action_of.shape == popt.action_of.shape \
        == (two_mask_compiled.space.size,)
    assert (jopt.kind, popt.kind) == ("j-opt", "p-opt")
    # one record per layer solve, in solve order; p-opt solves nothing
    assert [label for label, _res in solves] == [
        "inner mask 0", "inner mask 1", "outer selection"]
    assert all(isinstance(res, HsviResult) for _label, res in solves)
    assert none == []


def test_hsvi_brackets_exact_oracle_on_compiled_jopt():
    # 1 user, q_max = e_max = 1: 8 states, small enough for the exact oracle
    compiled = compile_scenario(desk_scenario(k=1, q_max=1, e_max=1))
    cost = jopt_cost(compiled)
    model = layer_model(compiled, constant_layer(compiled), cost)
    b0 = uniform_initial_belief(compiled)
    assert (model.n_states, model.n_actions) == (8, 4)
    assert initial_bounds(model).gap(b0) > 1.0
    # the root seeds certify the root at any eps here; without them the
    # solve explores
    seeded = solve_hsvi(model, b0, eps=0.1)
    assert seeded.converged and seeded.iterations == 0
    with root_seeds_off():
        res = solve_hsvi(model, b0, eps=0.1)
    assert res.converged and res.iterations > 1
    horizon = 100
    v_exact = exact_value_iteration(model, horizon).value(b0)
    g = model.discount
    # finite-horizon truncation plus the oracle's per-step prune margin
    delta = (g ** horizon * np.abs(cost).max()
             + DEFAULT_PRUNE_MARGIN) / (1.0 - g)
    for bounds in (seeded.bounds, res.bounds):
        lo, hi = bounds.lower.value(b0), bounds.upper.value(b0)
        assert lo - delta <= v_exact <= hi + delta


# ---------------------------------------------------------------------------
# the benchmark's solves against the exact observation MDP
# ---------------------------------------------------------------------------

# the executed select-n16 policy's exact value before the policy alphas
# seeded the lower bound (seed 0)
SELECT_N16_BEFORE = 125.835


def captured(kind, compiled, eps=5.0, **hsvi_kw):
    """``kind`` policy of ``compiled``, with each (model, result) pair that
    its HSVI solves saw."""
    import swiptctl.control as control
    solves = []

    def capture(model, *args, **kwargs):
        res = solve_hsvi(model, *args, **kwargs)
        solves.append((model, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "solve_hsvi", capture)
        policy, _ = baseline_policy(kind, compiled, eps=eps, **hsvi_kw)
    return policy, solves


@pytest.fixture(scope="module")
def bench_solves():
    """The solve-jopt solve and the sweep-antennas selection solves (three
    inner, one outer) of the benchmark at seed 0, and a d-opt solve of the
    solve-jopt config: per case the compiled scenario, the executed policy
    and the captured solves."""
    cfg = desk_scenario(q_max=4, e_max=3, seed=0)
    jopt = compile_scenario(cfg)
    select = compile_scenario(replace(cfg, mask_sizes=(4, 8, 16)))
    return {"solve-jopt": (jopt,) + captured("j-opt", jopt),
            "d-opt": (jopt,) + captured("d-opt", jopt),
            "select-n16": (select,)
            + captured("j-opt", select, **SWEEP_HSVI_KW)}


def with_exact(compiled, caught):
    """Per captured solve: (result, root belief, exact observation MDP, its
    optimal values over the observations, the exact root value)."""
    b0 = uniform_initial_belief(compiled)
    out = []
    for model, res in caught:
        exact = ObservationMdp(compiled, model)
        v = exact.solve()[0]
        out.append((res, b0, exact, v, exact.root(b0, v)))
    return out


def assert_root_bracketed(res, b0, root):
    lo, hi = res.bounds.lower.value(b0), res.bounds.upper.value(b0)
    tol = 1e-9 * abs(root)
    assert lo - tol <= root <= hi + tol


def assert_posteriors_bracketed(res, exact, v):
    # the belief after any observation o is row o of the posterior table,
    # where the exact POMDP value is the observation MDP's value v(o)
    tol = 1e-9 * np.abs(v).max()
    assert (res.bounds.upper.value_many(exact.post) >= v - tol).all()
    assert (res.bounds.lower.scores(exact.post) <= v[:, None] + tol).all()


@pytest.fixture(scope="module")
def bench_exact(bench_solves):
    return [case for compiled, _pol, caught in bench_solves.values()
            for case in with_exact(compiled, caught)]


def test_hsvi_root_bounds_bracket_the_observation_mdp(bench_exact):
    assert len(bench_exact) == 6
    for res, b0, _exact, _v, root in bench_exact:
        assert_root_bracketed(res, b0, root)


def test_bounds_hold_at_every_posterior(bench_exact):
    for res, _b0, exact, v, _root in bench_exact:
        assert_posteriors_bracketed(res, exact, v)


def test_bounds_bracket_the_oracle_where_energy_binds():
    # the top action costs each user 2 units and harvests 1 at both
    # levels, so with e_max 3 its price is paid only from stored energy
    compiled = compile_scenario(desk_scenario(q_max=4, e_max=3, eta=0.03))
    top = len(compiled.actions) - 1
    assert compiled.actions.used_units[top].tolist() == [2, 2]
    assert (compiled.actions.harvested[top] == 1).all()
    b0 = uniform_initial_belief(compiled)
    roots = {}
    for kind in ("d-opt", "j-opt"):
        _policy, caught = captured(kind, compiled, eps=0.1)
        (model, res), = caught
        if kind == "d-opt":
            # about 0 in every desk variant where the top action pays for
            # itself
            assert initial_bounds(model).gap(b0) > 1.0
        assert res.converged and res.iterations == 0
        (_res, _b0, exact, v, roots[kind]), = with_exact(compiled, caught)
        assert_root_bracketed(res, b0, roots[kind])
        assert_posteriors_bracketed(res, exact, v)
    assert roots["d-opt"] == pytest.approx(-55.5626406421, abs=1e-9)
    assert roots["j-opt"] == pytest.approx(86.6899236946, abs=1e-9)


def test_executed_selection_policy_against_the_joint_optimum(bench_solves):
    compiled, policy, _caught = bench_solves["select-n16"]
    model = layer_model(compiled, constant_layer(compiled),
                        jopt_cost(compiled))
    exact = ObservationMdp(compiled, model)
    b0 = uniform_initial_belief(compiled)
    optimum = exact.root(b0, exact.solve()[0])
    executed = exact.executed_root(b0, policy.action_of)
    assert SELECT_N16_BEFORE <= executed <= optimum + 1e-9 * abs(optimum)


@pytest.fixture(scope="module")
def antenna_sweep_models():
    """sweep-antennas' selection models at n_r 8 (masks 4 and 8) and 16
    (masks 4, 8 and 16) of the benchmark config."""
    cfg = desk_scenario(q_max=4, e_max=3)
    return {n_r: compile_scenario(replace(cfg, n_r=n_r, n_t=n_r,
                                          mask_sizes=masks))
            for n_r, masks in ((8, (4, 8)), (16, (4, 8, 16)))}


@pytest.mark.parametrize("kind", ["j-opt", "d-opt"])
@pytest.mark.parametrize("n_r", [8, 16])
def test_two_layer_policy_attains_the_joint_optimum(antenna_sweep_models,
                                                    n_r, kind):
    # the paper's decomposition (power levels per mask, then the mask)
    # loses nothing here: solved to eps 1e-6, the executed two-layer policy
    # is worth the optimum over every (mask, power) action at once
    compiled = antenna_sweep_models[n_r]
    policy, solves = baseline_policy(kind, compiled, eps=1e-6,
                                     **SWEEP_HSVI_KW)
    assert all(res.converged for _label, res in solves)
    cost = baseline_cost_table(kind, compiled,
                               default_constraints(compiled.config))
    exact = ObservationMdp(compiled, layer_model(
        compiled, constant_layer(compiled), cost))
    b0 = uniform_initial_belief(compiled)
    optimum = exact.root(b0, exact.solve()[0])
    executed = exact.executed_root(b0, policy.action_of)
    assert executed == pytest.approx(optimum, rel=1e-9, abs=0)


def test_observation_mdp_refuses_a_model_without_closure(desk_compiled):
    # states observed exactly: the posterior is a point mass, not a row
    # of the level-posterior table
    model = layer_model(desk_compiled, constant_layer(desk_compiled),
                        jopt_cost(desk_compiled))
    exact = PomdpModel(
        transitions=explicit_model(model).transitions,
        observations=[sparse.identity(model.n_states)] * model.n_actions,
        cost=model.cost, discount=model.discount)
    with pytest.raises(ClosureError):
        ObservationMdp(desk_compiled, exact)


# ---------------------------------------------------------------------------
# the closed-form fast informed bound
# ---------------------------------------------------------------------------

def assert_fib_forms_agree(model, b0):
    """The FIB Q-table of ``model``, which carries the posterior table, is
    that of the same model without it (per-entry FIB), at every (s, a) and
    at ``b0``."""
    assert model.posteriors is not None
    closed = fib_seed(model)
    per_entry = fib_seed(PomdpModel(explicit_model(model).transitions,
                                    model.observations, model.cost,
                                    model.discount))
    tol = 1e-9 * np.abs(per_entry).max()
    np.testing.assert_allclose(closed, per_entry, rtol=0, atol=tol)
    assert abs((b0 @ closed).max() - (b0 @ per_entry).max()) <= tol


def test_closed_form_fib_on_the_selection_models(bench_solves):
    compiled, _policy, caught = bench_solves["select-n16"]
    assert compiled.config.n_r == 16
    # the inner models of masks 4, 8 and 16, then the outer selection
    assert [m.n_actions for m, _res in caught] == [4, 4, 4, 3]
    for model, _res in caught:
        assert model.posteriors is compiled.obs_posteriors
        assert_fib_forms_agree(model, uniform_initial_belief(compiled))


def test_closed_form_fib_at_three_users(three_user_compiled):
    compiled = three_user_compiled
    assert compiled.config.k == 3
    model = layer_model(compiled, constant_layer(compiled),
                        jopt_cost(compiled))
    assert_fib_forms_agree(model, uniform_initial_belief(compiled))


def test_closed_form_fib_is_exact_on_the_weight_models(bench_solves,
                                                       monkeypatch):
    # at these power weights the QMDP start is not FIB's greedy policy, so
    # the closed form switches choices and evaluates them; its root upper
    # bound is the optimum of the observation MDP
    compiled = bench_solves["solve-jopt"][0]
    b0 = uniform_initial_belief(compiled)
    sweeps = []
    sweep = solver._closed_sweep

    def counting(*args):
        out = sweep(*args)
        sweeps[-1].append(out[2])
        return out

    monkeypatch.setattr(solver, "_closed_sweep", counting)
    for weight, optimum in ((28, 2194.594533), (32, 2519.971761),
                            (40, 3177.350676)):
        cost = build_cost_table(compiled,
                                default_constraints(compiled.config), weight)
        model = layer_model(compiled, constant_layer(compiled), cost)
        sweeps.append([])
        upper = initial_bounds(model, b0, 1e-6).upper.value(b0)
        exact = ObservationMdp(compiled, model)
        root = exact.root(b0, exact.solve()[0])
        assert root == pytest.approx(optimum, rel=0, abs=1e-6)
        assert upper == pytest.approx(root, rel=1e-9, abs=0)
    assert any(moved for rounds in sweeps for moved in rounds)


def test_closed_form_fib_with_a_level_never_observed(bench_solves,
                                                     monkeypatch):
    # a small calibration can leave an estimated level without a gain: its
    # confusion column is 0, Z never emits its observations, and their
    # posterior rows are 0, not 0/0. The layer model builds, its closed
    # form FIB (which switches a choice here) is the per-entry one, and
    # HSVI solves it.
    jopt = bench_solves["solve-jopt"][0]
    conf = np.array([[1.0, 0.0], [1.0, 0.0]])
    compiled = replace(jopt, level=LevelModel(jopt.level.probs, conf))
    live = emitted([compiled.obs_matrix])
    assert 0 < live.sum() < live.size
    np.testing.assert_allclose(compiled.obs_posteriors.sum(axis=1).A1, live,
                               rtol=0, atol=1e-12)
    cost = build_cost_table(compiled, default_constraints(compiled.config),
                            32)
    model = layer_model(compiled, constant_layer(compiled), cost)
    b0 = uniform_initial_belief(compiled)
    moves = []
    sweep = solver._closed_sweep

    def counting(*args):
        out = sweep(*args)
        moves.append(out[2])
        return out

    monkeypatch.setattr(solver, "_closed_sweep", counting)
    assert_fib_forms_agree(model, b0)
    assert any(moves)
    res = solve_hsvi(model, b0, eps=5.0)
    assert res.converged and np.isfinite(res.bounds.upper.value(b0))

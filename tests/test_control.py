"""Lagrangian stage costs, multiplier updates, and the two-layer solve."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from oracles import (DEFAULT_PRUNE_MARGIN, ClosureError, ObservationMdp,
                     effective_effect, exact_value_iteration, root_seeds_off)
from swiptctl.control import (FAMILIES, ConstraintSpec, HashMismatchError,
                              Multipliers, Policy, _make_model,
                              _obs_posteriors, build_cost_table,
                              constraint_violations, greedy_policy,
                              solve_inner_beamforming, solve_outer_selection,
                              uniform_initial_belief, update_multipliers)
from swiptctl.dynamics import ActionTable, build_kernel
from swiptctl.harness import (SWEEP_HSVI_KW, SolveReport, baseline_policy,
                              default_constraints, full_solve)
from swiptctl.pomdp import PomdpModel, initial_bounds, solve_hsvi
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
    return ConstraintSpec(p_max_up=0.05, p_max_down=0.5, tau_up=100.0,
                          r_min_up=0.5, r_min_down=1.0)


@pytest.mark.parametrize("case", ["unpayable", "hand-actions"])
def test_replaced_action_table_brings_its_own_kernel(case, desk_compiled,
                                                     unpayable):
    compiled = (unpayable[1] if case == "unpayable"
                else replace(desk_compiled, actions=hand_actions()))
    want = build_kernel(compiled.space, compiled.arrivals, compiled.level,
                        compiled.actions)

    def arrays(kernel):
        return [[(a.dtype, a.tolist()) for a in (m.data, m.indices, m.indptr)]
                for m in kernel.matrices]

    assert arrays(compiled.kernel) == arrays(want)
    assert arrays(compiled.kernel) != arrays(desk_compiled.kernel)


# ---------------------------------------------------------------------------
# specs and multipliers
# ---------------------------------------------------------------------------

def test_constraint_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstraintSpec(p_max_up=0.0, p_max_down=1.0, tau_up=1.0,
                       r_min_up=1.0, r_min_down=1.0)


def test_multipliers_zeros_and_copy():
    nu = Multipliers.zeros(2)
    assert all(np.all(v == 0) for v in nu.nu.values())
    np.testing.assert_array_equal(nu.varrho, [1.0, 1.0])
    other = nu.copy()
    other.nu["p_up"][0] = 3.0
    assert nu.nu["p_up"][0] == 0.0


def test_multipliers_reject_negative():
    with pytest.raises(ValueError):
        Multipliers(nu={"p_up": np.array([-1.0])}, varrho=np.array([1.0]))
    with pytest.raises(ValueError):
        Multipliers.zeros(1, varrho=[0.0])


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

def reference_stage_terms(nu, users, effect, spec, lam_slot):
    """Lagrangian cost of one decoded joint state under ``effect``, one
    user and one term at a time."""
    total = 0.0
    for u, (q, _e, lv) in enumerate(users):
        delay = q / lam_slot
        total += nu.varrho[u] * delay
        total += nu.nu["p_up"][u] * (float(effect.p_up[u]) - spec.p_max_up)
        total += nu.nu["p_down"][u] * (float(effect.p_down[u])
                                       - spec.p_max_down)
        total += nu.nu["r_up"][u] * (spec.r_min_up
                                     - float(effect.served[u, lv]))
        total += nu.nu["r_down"][u] * (spec.r_min_down
                                       - float(effect.rate_down[u]))
        total += nu.nu["delay"][u] * (delay - spec.tau_up)
    return total


def reference_cost_table(compiled, nu, spec):
    """The cost table state by state, each action degraded at the state's
    own energies."""
    space = compiled.space
    table = np.empty((space.size, compiled.n_actions))
    for s, users in space.states():
        for a in range(compiled.n_actions):
            eff = effective_effect(compiled.actions, a,
                                   [e for (_q, e, _l) in users])
            table[s, a] = reference_stage_terms(nu, users, eff, spec,
                                                compiled.config.lam_slot)
    return table


def random_multipliers(n_users, seed):
    rng = np.random.default_rng(seed)
    return Multipliers(nu={f: rng.uniform(0.1, 3.0, n_users)
                           for f in FAMILIES},
                       varrho=rng.uniform(0.5, 2.0, n_users))


def test_stage_cost_zero_multipliers_is_weighted_delay(desk_compiled):
    compiled = replace(desk_compiled, actions=hand_actions())
    assert compiled.config.lam_slot == 0.5
    nu = Multipliers.zeros(2, varrho=[1.0, 2.0])
    users = ((3, 2, 1), (4, 1, 0))
    table = build_cost_table(compiled, nu, hand_spec())
    got = table[compiled.space.encode(users), 0]
    assert got == pytest.approx(1.0 * 3 / 0.5 + 2.0 * 4 / 0.5)


def test_stage_cost_full_arithmetic(desk_compiled):
    compiled = replace(desk_compiled, actions=hand_actions())
    spec = hand_spec()
    lam = compiled.config.lam_slot
    nu = Multipliers(
        nu={"p_up": [1.0, 0.0], "p_down": [0.0, 2.0],
            "r_up": [3.0, 0.0], "r_down": [0.0, 4.0],
            "delay": [0.5, 0.0]},
        varrho=np.array([1.0, 1.0]))
    users = ((3, 2, 1), (4, 1, 0))       # energies (2, 1) pay (2, 1)
    got = build_cost_table(compiled, nu, spec)[
        compiled.space.encode(users), 0]
    # independent term-by-term evaluation
    want = 0.0
    want += 3 / lam + 4 / lam                              # delay proxies
    want += 1.0 * (0.01 - spec.p_max_up)                   # user 0 uplink cap
    want += 2.0 * (0.3 - spec.p_max_down)                  # user 1 downlink cap
    want += 3.0 * (spec.r_min_up - 2)                      # user 0 rate floor
    want += 4.0 * (spec.r_min_down - 1.2)                  # user 1 rate floor
    want += 0.5 * (3 / lam - spec.tau_up)                  # user 0 delay cap
    assert got == pytest.approx(want)


def test_build_cost_table_matches_pointwise(desk_compiled):
    nu = random_multipliers(desk_compiled.space.n_users, seed=0)
    spec = default_constraints(desk_compiled.config)
    table = build_cost_table(desk_compiled, nu, spec)
    assert table.shape == (desk_compiled.space.size, desk_compiled.n_actions)
    np.testing.assert_array_equal(
        table, reference_cost_table(desk_compiled, nu, spec))


def test_build_cost_table_matches_pointwise_three_users(three_user_compiled):
    compiled = three_user_compiled
    nu = random_multipliers(3, seed=1)
    spec = hand_spec()
    # the 2-unit top level is unaffordable below a full buffer
    assert compiled.actions.used_units.max() > compiled.space.e_max - 1
    np.testing.assert_array_equal(build_cost_table(compiled, nu, spec),
                                  reference_cost_table(compiled, nu, spec))


def test_build_cost_table_extra_action_cost(desk_compiled):
    nu = Multipliers.zeros(desk_compiled.space.n_users)
    spec = default_constraints(desk_compiled.config)
    base = build_cost_table(desk_compiled, nu, spec)
    extra = np.arange(desk_compiled.n_actions, dtype=float)
    shifted = build_cost_table(desk_compiled, nu, spec,
                               extra_action_cost=extra)
    np.testing.assert_allclose(
        shifted - base, np.broadcast_to(extra, base.shape))


# ---------------------------------------------------------------------------
# measured metrics and updates
# ---------------------------------------------------------------------------

def hand_metrics():
    # time averages of two slots: queues (2, 4) then (4, 0) at 0.5
    # arrivals per slot, and the per-slot powers and rates averaged
    return {"delay_raw": np.array([6.0, 4.0]),
            "delay": np.array([6.0, 4.0]),
            "p_up": np.array([0.2, 0.1]), "p_down": np.array([0.5, 0.3]),
            "r_up": np.array([2.0, 1.0]), "r_down": np.array([1.0, 1.0])}


def test_constraint_violation_signs():
    spec = ConstraintSpec(p_max_up=0.15, p_max_down=1.0, tau_up=5.0,
                          r_min_up=1.5, r_min_down=0.5)
    v = constraint_violations(hand_metrics(), spec)
    np.testing.assert_allclose(v["p_up"], [0.05, -0.05])   # broken iff > 0
    np.testing.assert_allclose(v["r_up"], [-0.5, 0.5])
    np.testing.assert_allclose(v["delay"], [1.0, -1.0])


def test_update_multipliers_projected_ascent():
    nu = Multipliers.zeros(2)
    m = hand_metrics()
    spec = ConstraintSpec(p_max_up=0.15, p_max_down=1.0, tau_up=5.0,
                          r_min_up=1.5, r_min_down=0.5)
    new = update_multipliers(nu, m, spec, step=2.0)
    np.testing.assert_allclose(new.nu["p_up"], [0.1, 0.0])  # clipped at zero
    np.testing.assert_allclose(new.nu["delay"], [2.0, 0.0])
    with pytest.raises(ValueError):
        update_multipliers(nu, m, spec, step=0.0)


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
        b[space.encode(tuple((q, e, lv) for (q, e), lv
                             in zip(qe_pairs, combo)))] = p
    return b


def obs_belief(compiled, obs):
    """Row ``obs`` of the greedy policy's observation posteriors."""
    return _obs_posteriors(compiled)[obs].toarray().ravel()


def test_obs_belief_is_consistent_posterior(desk_compiled):
    space = desk_compiled.space
    level = desk_compiled.level
    users_obs = ((3, 2, 1), (1, 4, 0))
    b = obs_belief(desk_compiled, space.encode(users_obs))
    assert b.sum() == pytest.approx(1.0)
    for s in np.flatnonzero(b):
        users = space.decode(int(s))
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
        for q, e, _lv in space.decode(int(s)):
            assert q == 0 and e == space.e_max
    ref = enumerated_level_product(space, [(0, space.e_max)] * space.n_users,
                                   [desk_compiled.level.probs] * space.n_users)
    np.testing.assert_array_equal(b, ref)


def test_beliefs_match_enumeration_three_users(three_user_compiled):
    compiled = three_user_compiled
    space, level = compiled.space, compiled.level
    ref = enumerated_level_product(space, [(1, 0)] * 3, [level.probs] * 3)
    np.testing.assert_array_equal(
        uniform_initial_belief(compiled, q0=1, e0=0), ref)
    users_obs = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
    posts = [level.probs * level.obs_confusion[:, ol]
             for _q, _e, ol in users_obs]
    ref = enumerated_level_product(space, [u[:2] for u in users_obs],
                                   [w / w.sum() for w in posts])
    np.testing.assert_array_equal(
        obs_belief(compiled, space.encode(users_obs)), ref)


# ---------------------------------------------------------------------------
# two-layer solve
# ---------------------------------------------------------------------------

def test_inner_solve_stays_inside_mask(two_mask_compiled):
    compiled = two_mask_compiled
    nu = Multipliers.zeros(compiled.space.n_users)
    spec = default_constraints(compiled.config)
    cost = build_cost_table(compiled, nu, spec)
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
    joint, _res, mask_ids = solve_outer_selection(
        compiled, inner, cost, eps=5.0, max_iterations=3)
    assert mask_ids == [0, 1]
    for obs in range(0, compiled.space.size, 97):
        a = joint.action(obs)
        m = compiled.actions.mask_id[a]
        assert a == inner[m].action(obs)
    # outer action m plays inner[m] at every state: its kernel rows and
    # costs are that action's, state by state
    (outer,) = models
    for i, m in enumerate(mask_ids):
        acts = inner[m].action_of
        assert len(np.unique(acts)) > 1
        want = sparse.vstack([compiled.kernel.matrices[acts[s]].getrow(s)
                              for s in range(compiled.space.size)]).tocsr()
        got = outer.transitions[i]
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr),
                                          getattr(want, attr))
        np.testing.assert_array_equal(
            outer.cost[:, i], cost[np.arange(compiled.space.size), acts])


def reference_greedy(compiled, lower, action_map=None):
    """Greedy table one observation at a time: the enumerated posterior,
    then the bound's own best alpha."""
    space, level = compiled.space, compiled.level
    table = np.empty(space.size, dtype=int)
    for obs, users_obs in space.states():
        posts = [level.probs * level.obs_confusion[:, ol]
                 for _q, _e, ol in users_obs]
        b = enumerated_level_product(space, [u[:2] for u in users_obs],
                                     [w / w.sum() for w in posts])
        _, a, _ = lower.best(b)
        table[obs] = a if action_map is None else action_map[a]
    return table


def jopt_cost(compiled, w=2.0):
    """j-opt costs, as baseline_policy builds them."""
    n = compiled.space.n_users
    nu = Multipliers(nu={"p_up": np.full(n, w), "p_down": np.full(n, w)},
                     varrho=np.ones(n))
    circuit = np.array([w * compiled.config.circuit_w_per_antenna * int(n)
                        for n in compiled.actions.n_active])
    return build_cost_table(compiled, nu, default_constraints(compiled.config),
                            extra_action_cost=circuit)


@pytest.mark.parametrize("mask", [None, 1])
def test_greedy_policy_matches_per_observation_loop(two_mask_compiled, mask):
    compiled = two_mask_compiled
    ids = [a for a in range(compiled.n_actions)
           if mask is None or compiled.actions.mask_id[a] == mask]
    model = _make_model(compiled, jopt_cost(compiled), ids)
    res = solve_hsvi(model, uniform_initial_belief(compiled), eps=0.5,
                     max_iterations=3)
    lower = res.bounds.lower
    assert len(lower) > 2
    action_map = None if mask is None else ids
    got = greedy_policy(compiled, lower, action_map=action_map)
    want = reference_greedy(compiled, lower, action_map)
    np.testing.assert_array_equal(got.action_of, want)
    assert len(np.unique(want)) > 1


def test_two_layer_solve_and_p_opt_decode_no_joint_state(two_mask_compiled,
                                                          monkeypatch):
    from swiptctl.dynamics import StateSpace

    def refuse(self, idx):
        raise AssertionError("joint state decoded")

    monkeypatch.setattr(StateSpace, "decode", refuse)
    jopt = baseline_policy("j-opt", two_mask_compiled, eps=5.0,
                           max_iterations=2)
    popt = baseline_policy("p-opt", two_mask_compiled)
    assert jopt.action_of.shape == popt.action_of.shape \
        == (two_mask_compiled.space.size,)


def test_full_solve_loose_constraints_converges(desk_compiled):
    spec = default_constraints(desk_compiled.config)
    report = full_solve(desk_compiled, spec, rounds=2, eps=5.0,
                        episodes=4, horizon=100, max_iterations=4)
    assert isinstance(report, SolveReport)
    assert report.converged
    assert len(report.multiplier_trace) == 1     # feasible on round one
    assert all(np.all(v == 0)
               for v in report.multiplier_trace[0].nu.values())


def test_full_solve_tight_power_cap_raises_multiplier(desk_compiled):
    spec = default_constraints(desk_compiled.config)
    from dataclasses import replace
    tight = replace(spec, p_max_up=1e-4)         # below any transmit level
    report = full_solve(desk_compiled, tight, rounds=3, eps=5.0,
                        episodes=4, horizon=100, max_iterations=4)
    assert len(report.multiplier_trace) >= 2
    assert np.all(report.multiplier_trace[1].nu["p_up"] > 0)


def test_hsvi_brackets_exact_oracle_on_compiled_jopt():
    # 1 user, q_max = e_max = 1: 8 states, small enough for the exact oracle
    compiled = compile_scenario(desk_scenario(k=1, q_max=1, e_max=1))
    cost = jopt_cost(compiled)
    model = _make_model(compiled, cost, range(compiled.n_actions))
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


def captured(kind, compiled, **hsvi_kw):
    """``kind`` policy of ``compiled`` at eps 5, with each (model, result)
    pair that its HSVI solves saw."""
    import swiptctl.control as control
    solves = []

    def capture(model, *args, **kwargs):
        res = solve_hsvi(model, *args, **kwargs)
        solves.append((model, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "solve_hsvi", capture)
        policy = baseline_policy(kind, compiled, eps=5.0, **hsvi_kw)
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


@pytest.fixture(scope="module")
def bench_exact(bench_solves):
    """Per captured solve: (result, root belief, exact observation MDP, its
    optimal values over the observations, the exact root value)."""
    out = []
    for compiled, _pol, caught in bench_solves.values():
        b0 = uniform_initial_belief(compiled)
        for model, res in caught:
            exact = ObservationMdp(compiled, model)
            v = exact.solve()[0]
            out.append((res, b0, exact, v, exact.root(b0, v)))
    return out


def test_hsvi_root_bounds_bracket_the_observation_mdp(bench_exact):
    assert len(bench_exact) == 6
    for res, b0, _exact, _v, root in bench_exact:
        lo, hi = res.bounds.lower.value(b0), res.bounds.upper.value(b0)
        tol = 1e-9 * abs(root)
        assert lo - tol <= root <= hi + tol


def test_bounds_hold_at_every_posterior(bench_exact):
    # the belief after any observation o is row o of the posterior table,
    # where the exact POMDP value is the observation MDP's value v(o)
    for res, _b0, exact, v, _root in bench_exact:
        tol = 1e-9 * np.abs(v).max()
        assert (res.bounds.upper.value_many(exact.post) >= v - tol).all()
        assert (res.bounds.lower.scores(exact.post) <= v[:, None] + tol).all()


def test_executed_selection_policy_against_the_joint_optimum(bench_solves):
    compiled, policy, _caught = bench_solves["select-n16"]
    model = _make_model(compiled, jopt_cost(compiled),
                        range(compiled.n_actions))
    exact = ObservationMdp(compiled, model)
    b0 = uniform_initial_belief(compiled)
    optimum = exact.root(b0, exact.solve()[0])
    executed = exact.executed_root(b0, policy.action_of)
    assert SELECT_N16_BEFORE <= executed <= optimum + 1e-9 * abs(optimum)


def test_observation_mdp_refuses_a_model_without_closure(desk_compiled):
    # states observed exactly: the posterior is a point mass, not a row
    # of the level-posterior table
    model = _make_model(desk_compiled, jopt_cost(desk_compiled),
                        range(desk_compiled.n_actions))
    exact = PomdpModel(
        transitions=model.transitions,
        observations=[sparse.identity(model.n_states)] * model.n_actions,
        cost=model.cost, discount=model.discount)
    with pytest.raises(ClosureError):
        ObservationMdp(desk_compiled, exact)

"""Rollout mechanics, Monte Carlo aggregation, baselines and sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import (admissible, decode, encode, reference_monte_carlo,
                     reference_run_episode, states)
from swiptctl.control import HashMismatchError, Policy, build_cost_table
from swiptctl.dynamics import StateSpace
from swiptctl.harness import (ANTENNA_COLUMNS, CSV_COLUMNS, P_OPT_RATE_FLOOR,
                              SWEEP_HSVI_KW, baseline_policy, episode_rng,
                              monte_carlo, rows_to_csv, run_episodes,
                              sweep_antennas, sweep_power)
from swiptctl.pomdp import solve_hsvi
from swiptctl.scenario import (compile_scenario, desk_scenario, restrict,
                               with_budget)


@pytest.fixture(scope="module")
def idle_policy(desk_compiled):
    return Policy(action_of=np.zeros(desk_compiled.space.size, dtype=int),
                  scenario_hash=desk_compiled.scenario_hash, kind="idle")


@pytest.fixture(scope="module")
def p_opt(desk_compiled):
    return baseline_policy("p-opt", desk_compiled)[0]


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def test_episode_rng_reproducible_and_independent():
    a = episode_rng(5, 3).random(4)
    b = episode_rng(5, 3).random(4)
    c = episode_rng(5, 4).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

def test_run_episode_deterministic(desk_compiled, p_opt):
    pairs = [(p_opt, desk_compiled)]
    [t1] = run_episodes(pairs, episodes=3, horizon=60, seed=1)
    [t2] = run_episodes(pairs, episodes=3, horizon=60, seed=1)
    assert t1.keys() == t2.keys()
    for key in t1:
        np.testing.assert_array_equal(t1[key], t2[key])


def test_run_episode_guards(desk_compiled, p_opt):
    with pytest.raises(ValueError):
        run_episodes([(p_opt, desk_compiled)], episodes=1, horizon=0, seed=0)
    alien = Policy(action_of=p_opt.action_of, scenario_hash="feedface")
    with pytest.raises(HashMismatchError):
        run_episodes([(alien, desk_compiled)], episodes=1, horizon=10, seed=0)


def test_idle_policy_drains_nothing(desk_compiled, idle_policy):
    [traj] = run_episodes([(idle_policy, desk_compiled)], episodes=2,
                          horizon=300, seed=0)
    assert np.all(traj["served"] == 0)
    assert np.all(traj["harvested"] == 0)
    # queue saturates at its cap under sustained arrivals
    assert np.all(traj["queues"][:, -1].max(axis=1)
                  == desk_compiled.space.q_max)
    # no spending: buffers stay full
    assert np.all(traj["energies"] == desk_compiled.space.e_max)


def test_bookkeeping_recursions_hold_exactly(desk_compiled, p_opt):
    space = desk_compiled.space
    [traj] = run_episodes([(p_opt, desk_compiled)], episodes=2, horizon=200,
                          seed=3)
    prev = {key: v[:, :-1] for key, v in traj.items()}
    want_q = np.minimum(prev["queues"] - prev["served"] + prev["arrived"],
                        space.q_max)
    np.testing.assert_array_equal(traj["queues"][:, 1:], want_q)
    want_e = (prev["energies"] - prev["used"] + prev["harvested"]
              - prev["discarded"])
    np.testing.assert_array_equal(traj["energies"][:, 1:], want_e)
    assert np.all(traj["energies"] >= 0)
    assert np.all(traj["energies"] <= space.e_max)


def test_energy_conservation_identity(desk_compiled, p_opt):
    space = desk_compiled.space
    [traj] = run_episodes([(p_opt, desk_compiled)], episodes=2, horizon=200,
                          seed=4)
    harvested, used, discarded = (traj[key].sum(axis=1)
                                  for key in ("harvested", "used",
                                              "discarded"))
    last = {key: v[:, -1] for key, v in traj.items()}
    e_final = (last["energies"] - last["used"] + last["harvested"]
               - last["discarded"])
    delta = e_final - space.e_max
    np.testing.assert_array_equal(harvested - used, delta + discarded)


def test_served_never_exceeds_queue_or_energy(desk_compiled, p_opt):
    [traj] = run_episodes([(p_opt, desk_compiled)], episodes=2, horizon=200,
                          seed=5)
    assert np.all(traj["served"] <= traj["queues"])
    assert np.all(traj["used"] <= traj["energies"])


@pytest.fixture(params=["p-opt", "idle", "unpayable", "p-opt-3-users"])
def rollout_case(request, desk_compiled, idle_policy, p_opt,
                 three_user_compiled, unpayable):
    """(policy, compiled scenario) pairs for the reference comparisons."""
    if request.param == "unpayable":
        return unpayable
    if request.param == "p-opt-3-users":
        return baseline_policy("p-opt", three_user_compiled)[0], \
            three_user_compiled
    return {"p-opt": p_opt, "idle": idle_policy}[request.param], \
        desk_compiled


@pytest.mark.parametrize("seed", [0, 7])
def test_run_episodes_match_per_slot_loop(rollout_case, seed):
    policy, compiled = rollout_case
    [traj] = run_episodes([(policy, compiled)], episodes=4, horizon=80,
                          seed=seed)
    ref = [reference_run_episode(policy, compiled, 80, seed, ep)
           for ep in range(4)]
    assert set(traj) == set(ref[0][0]) - {"rate_up"}
    for key, got in traj.items():
        want = np.array([[rec[key] for rec in episode] for episode in ref])
        assert got.dtype == want.dtype, key
        np.testing.assert_array_equal(got, want, err_msg=key)


def test_unpayable_action_falls_back_per_user(unpayable):
    policy, compiled = unpayable
    [traj] = run_episodes([(policy, compiled)], episodes=4, horizon=80, seed=0)
    price = compiled.actions.used_units[traj["action"]]
    broke = price > traj["energies"]
    assert broke[..., 1].all()
    assert broke[..., 0].any() and not broke[..., 0].all()
    assert np.all(traj["used"][broke] == 0)
    assert np.all(traj["served"][broke] == 0)
    assert np.all(traj["p_up"][broke] == 0.0)
    np.testing.assert_array_equal(traj["used"][~broke], price[~broke])


def test_compile_and_rollout_never_walk_joint_states():
    # the program works on per-user arrays; the one-index-at-a-time walk
    # is the tests' reference only (oracles.states), so StateSpace has none
    for name in ("states", "decode", "encode"):
        assert not hasattr(StateSpace, name), name
    compiled = compile_scenario(desk_scenario(calib_draws=80, q_max=1,
                                              e_max=1))
    build_cost_table(compiled, 0.0)
    policy, _ = baseline_policy("p-opt", compiled)
    [traj] = run_episodes([(policy, compiled)], episodes=2, horizon=10, seed=0)
    assert traj["queues"].shape == (2, 10, compiled.space.n_users)


@pytest.mark.parametrize("seed", [0, 7])
def test_monte_carlo_matches_per_episode_loop(rollout_case, seed):
    policy, compiled = rollout_case
    [got] = monte_carlo([(policy, compiled)], episodes=5, horizon=80,
                        base_seed=seed)
    want = reference_monte_carlo(policy, compiled, 5, 80, base_seed=seed)
    assert (got.scenario_hash, got.policy_kind, got.episodes) \
        == (compiled.scenario_hash, policy.kind, 5)
    for key, value in want.items():
        assert np.array_equal(getattr(got, key), value), key


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------

def test_monte_carlo_needs_two_episodes(desk_compiled, p_opt):
    with pytest.raises(ValueError):
        monte_carlo([(p_opt, desk_compiled)], episodes=1, horizon=10)


def test_monte_carlo_deterministic(desk_compiled, p_opt):
    [r1] = monte_carlo([(p_opt, desk_compiled)], episodes=5, horizon=50,
                       base_seed=9)
    [r2] = monte_carlo([(p_opt, desk_compiled)], episodes=5, horizon=50,
                       base_seed=9)
    assert r1.delay_ms_mean == r2.delay_ms_mean
    assert r1.delay_ms_ci == r2.delay_ms_ci


def test_ci_shrinks_like_root_n(desk_compiled, p_opt):
    [small] = monte_carlo([(p_opt, desk_compiled)], episodes=30, horizon=100,
                          base_seed=0)
    [large] = monte_carlo([(p_opt, desk_compiled)], episodes=120, horizon=100,
                          base_seed=0)
    ratio = small.delay_ms_ci / large.delay_ms_ci
    assert 1.6 <= ratio <= 2.4          # fourfold episodes: about half the CI


def test_run_result_row_schema(desk_compiled, p_opt):
    [run] = monte_carlo([(p_opt, desk_compiled)], episodes=3, horizon=50)
    row = run.to_row(budget_w=0.5)
    # every column of either table; rows_to_csv picks the table's own
    assert tuple(row) == ANTENNA_COLUMNS
    assert row["scenario_hash"] == desk_compiled.scenario_hash
    assert row["policy"] == "p-opt"
    assert row["episodes"] == "3"
    assert float(row["budget_w"]) == 0.5


def test_rows_to_csv_layout(desk_compiled, p_opt):
    [run] = monte_carlo([(p_opt, desk_compiled)], episodes=3, horizon=50)
    text = rows_to_csv([run.to_row(budget_w=1.0)])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith(desk_compiled.scenario_hash + ",p-opt,1,")


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_unknown_baseline_rejected(desk_compiled):
    with pytest.raises(ValueError):
        baseline_policy("mystery", desk_compiled)


def test_p_opt_is_queue_blind(desk_compiled, p_opt):
    space = desk_compiled.space
    base = decode(space, 0)
    for q in range(space.q_max + 1):
        users = tuple((q, e, lv) for (_q, e, lv) in base)
        assert p_opt.action_of[encode(space, users)] == p_opt.action_of[0]


def test_p_opt_meets_rate_floors_when_payable(desk_compiled, p_opt):
    space = desk_compiled.space
    full = tuple((0, space.e_max, 1) for _ in range(space.n_users))
    a = int(p_opt.action_of[encode(space, full)])
    actions = desk_compiled.actions
    assert admissible(actions, a, [space.e_max] * space.n_users)
    assert np.all(actions.served[a, :, 1] >= P_OPT_RATE_FLOOR)
    assert np.all(actions.rate_down[a] >= P_OPT_RATE_FLOOR)


def test_p_opt_prefers_cheapest_feasible(desk_compiled, p_opt):
    # among admissible actions meeting the floors, no cheaper one exists
    space = desk_compiled.space
    full = tuple((0, space.e_max, 1) for _ in range(space.n_users))
    actions = desk_compiled.actions
    total = [float(np.sum(actions.p_up[a]) + np.sum(actions.p_down[a]))
             for a in range(desk_compiled.n_actions)]
    price = total[int(p_opt.action_of[encode(space, full)])]
    for a in range(desk_compiled.n_actions):
        meets = (admissible(actions, a, [space.e_max] * space.n_users)
                 and np.all(actions.served[a, :, 1] >= P_OPT_RATE_FLOOR)
                 and np.all(actions.rate_down[a] >= P_OPT_RATE_FLOOR))
        if meets:
            assert total[a] >= price


def reference_p_opt(compiled):
    """The p-opt table one decoded observation at a time, and how many
    observations meet the rate floors."""
    space, actions = compiled.space, compiled.actions
    order = sorted(range(compiled.n_actions),
                   key=lambda a: (float(np.sum(actions.p_up[a])
                                        + np.sum(actions.p_down[a])), a))
    table = np.empty(space.size, dtype=int)
    met = 0
    for obs, users in states(space):
        energies = [e for (_q, e, _l) in users]
        feas = [a for a in order if admissible(actions, a, energies)]
        meets = [a for a in feas
                 if all(actions.served[a, u, lv] >= P_OPT_RATE_FLOOR
                        and actions.rate_down[a, u] >= P_OPT_RATE_FLOOR
                        for u, (_q, _e, lv) in enumerate(users))]
        if meets:
            table[obs] = meets[0]
            met += 1
        else:
            table[obs] = max(feas, key=lambda a: (
                float(np.sum(actions.served[a])), -a)) if feas else 0
    return table, met


def test_p_opt_matches_per_observation_loop(desk_compiled, p_opt):
    want, met = reference_p_opt(desk_compiled)
    np.testing.assert_array_equal(p_opt.action_of, want)
    # both branches: some observations meet the floors, some fall back
    assert 0 < met < desk_compiled.space.size


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_power_requires_increasing_budgets(desk_cfg):
    with pytest.raises(ValueError):
        sweep_power(desk_cfg, [1.0, 0.5], policies=("p-opt",), episodes=2,
                    horizon=10)


def test_sweep_power_row_per_pair(desk_cfg):
    rows, solves = sweep_power(desk_cfg, [10.0], policies=("p-opt",),
                               episodes=2, horizon=30)
    assert len(rows) == 1 and solves == []
    assert rows[0]["policy"] == "p-opt"
    # a row carries every column; the power table shows CSV_COLUMNS
    assert tuple(rows[0]) == ANTENNA_COLUMNS
    assert rows_to_csv(rows).split("\n")[0] == ",".join(CSV_COLUMNS)


def counting_compiles(monkeypatch):
    """The configs that the sweeps compile, in order."""
    import swiptctl.harness as harness
    compiled = []
    real = harness.compile_scenario

    def counting(cfg, *args, **kwargs):
        compiled.append(cfg)
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "compile_scenario", counting)
    return compiled


def test_sweep_power_compiles_each_config_once(monkeypatch):
    # one compile per duplex mode, at the widest budget; the narrower
    # budget's models are restricted from those two, and the rows and the
    # solve records keep their (budget, policy) order
    compiled = counting_compiles(monkeypatch)
    cfg = desk_scenario(calib_draws=80, q_max=1, e_max=1)
    rows, solves = sweep_power(cfg, [0.55, 1.05],
                               policies=("d-opt", "p-opt", "hd"),
                               episodes=2, horizon=10, max_iterations=1)
    assert [r["policy"] for r in rows] == ["d-opt", "p-opt", "hd"] * 2
    assert [r["budget_w"] for r in rows] == ["0.55"] * 3 + ["1.05"] * 3
    assert [label for label, _res in solves] == [
        f"{kind} {b} W: inner mask 0" for b in ("0.55", "1.05")
        for kind in ("d-opt", "hd")]
    assert compiled == [with_budget(cfg, 1.05),
                        with_budget(replace(cfg, duplex="hd"), 1.05)]


def test_sweep_antennas_compiles_each_array_size_once(monkeypatch):
    # the full array's model is restricted from the shortlist's
    compiled = counting_compiles(monkeypatch)
    cfg = desk_scenario(calib_draws=80, q_max=1, e_max=1)
    rows, _solves = sweep_antennas(cfg, (4, 8), episodes=2, horizon=10,
                                   max_iterations=1)
    assert [r["policy"] for r in rows] == ["select-n4", "full-n4",
                                           "select-n8", "full-n8"]
    assert [(c.n_r, c.mask_sizes) for c in compiled] == [(4, (4,)),
                                                         (8, (4, 8))]


def captured_sweep(monkeypatch, cfg, n_r_list, **kwargs):
    """``sweep_antennas``' records, the ``(policy, compiled)`` pairs it
    rolls out, and the number of HSVI solves it runs."""
    import swiptctl.control as control
    import swiptctl.harness as harness
    pairs, solves = [], []
    real_rollout = harness.monte_carlo

    def rollout(batch, *args, **kw):
        pairs.extend(batch)
        return real_rollout(batch, *args, **kw)

    def solve(*args, **kw):
        solves.append(None)
        return solve_hsvi(*args, **kw)

    monkeypatch.setattr(harness, "monte_carlo", rollout)
    monkeypatch.setattr(control, "solve_hsvi", solve)
    _rows, records = sweep_antennas(cfg, n_r_list, **kwargs)
    return records, pairs, len(solves)


@pytest.mark.parametrize("seed", [0, 7])
def test_full_row_is_the_full_arrays_own_solve(monkeypatch, seed):
    # the full array's j-opt solve, run on its own as the sweep once did,
    # gives the table and the record that the sweep reads from the
    # selection solve's last inner layer
    cfg = desk_scenario(q_max=4, e_max=3, seed=seed)
    n_r_list = (4, 8, 16, 32)
    records, pairs, _n = captured_sweep(monkeypatch, cfg, n_r_list,
                                        episodes=2, horizon=10)
    records = dict(records)
    for n_r, (select, full) in zip(n_r_list, zip(pairs[::2], pairs[1::2])):
        assert select[0].kind == f"select-n{n_r}"
        assert full[0].kind == f"full-n{n_r}"
        alone = restrict(select[1], replace(select[1].config,
                                            mask_sizes=(n_r,)))
        assert full[1].config == alone.config
        want, [(label, res)] = baseline_policy("j-opt", alone, eps=5.0,
                                               **SWEEP_HSVI_KW)
        np.testing.assert_array_equal(full[0].action_of, want.action_of)
        assert full[0].scenario_hash == want.scenario_hash
        got = records[f"full-n{n_r}: {label}"]
        assert (got.converged, got.iterations, got.root_gap) == (
            res.converged, res.iterations, res.root_gap)
        assert list(got.log_lines()) == list(res.log_lines())


@pytest.mark.parametrize("n_r,masks", [(4, 1), (8, 2), (16, 3), (32, 3)])
def test_sweep_antennas_solves_each_array_size_once(monkeypatch, n_r, masks):
    # one inner solve per shortlist mask and, with more than one mask, the
    # outer selection solve; the full row solves nothing of its own
    cfg = desk_scenario(calib_draws=80, q_max=1, e_max=1)
    records, _pairs, n_solves = captured_sweep(
        monkeypatch, cfg, (n_r,), episodes=2, horizon=10, max_iterations=1)
    assert n_solves == (masks + 1 if masks > 1 else 1)
    select = [f"select-n{n_r}: inner mask {m}" for m in range(masks)]
    select += [f"select-n{n_r}: outer selection"] if masks > 1 else []
    assert [label for label, _res in records] == select + [
        f"full-n{n_r}: inner mask 0"]
    assert records[-1][1] is records[masks - 1][1]


@pytest.mark.parametrize("budgets,policies,n_r", [
    ([], ("p-opt",), None), ([1.05], (), None), (None, None, [])],
    ids=["no-budget", "no-policy", "no-array-size"])
def test_empty_sweeps_are_refused(desk_cfg, budgets, policies, n_r):
    with pytest.raises(ValueError):
        if n_r is None:
            sweep_power(desk_cfg, budgets, policies=policies, episodes=2,
                        horizon=10)
        else:
            sweep_antennas(desk_cfg, n_r, episodes=2, horizon=10)


# ---------------------------------------------------------------------------
# one stepped rollout for several (policy, scenario) pairs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_pairs():
    """d-opt, p-opt and hd at two budgets, as sweep-power solves them: six
    (policy, compiled scenario) pairs with 3 and 4 actions."""
    cfg = desk_scenario(calib_draws=80, q_max=2, e_max=2)
    pairs = []
    for budget in (0.55, 1.05):
        fd = compile_scenario(with_budget(cfg, budget))
        hd = compile_scenario(with_budget(replace(cfg, duplex="hd"), budget))
        for kind, compiled in (("d-opt", fd), ("p-opt", fd), ("d-opt", hd)):
            policy, _ = baseline_policy(kind, compiled, max_iterations=2)
            pairs.append((policy, compiled))
    return pairs


@pytest.mark.parametrize("seed", [0, 7])
def test_stepped_rollout_matches_the_per_pair_reference(sweep_pairs, seed):
    runs = monte_carlo(sweep_pairs, episodes=4, horizon=60, base_seed=seed)
    assert len(runs) == len(sweep_pairs)
    for (policy, compiled), got in zip(sweep_pairs, runs):
        want = reference_monte_carlo(policy, compiled, 4, 60, base_seed=seed)
        assert (got.scenario_hash, got.policy_kind) == (
            compiled.scenario_hash, policy.kind)
        for key, value in want.items():
            assert np.array_equal(getattr(got, key), value), key
    # and each pair's trajectory is the one it has when stepped alone
    for pair, traj in zip(sweep_pairs, run_episodes(sweep_pairs, 4, 60, seed)):
        [alone] = run_episodes([pair], 4, 60, seed)
        assert traj.keys() == alone.keys()
        for key, got in traj.items():
            assert got.dtype == alone[key].dtype, key
            np.testing.assert_array_equal(got, alone[key], err_msg=key)


@pytest.mark.parametrize("change", [
    {"calib_draws": 60}, {"arrival_rate_hz": 50.0}, {"q_max": 1}],
    ids=["level-model", "arrival-pmf", "state-space"])
def test_stepped_rollout_refuses_pairs_of_other_models(sweep_pairs, change):
    cfg = replace(sweep_pairs[0][1].config, **change)
    other = compile_scenario(cfg)
    policy, _ = baseline_policy("p-opt", other)
    pairs = sweep_pairs[:2] + [(policy, other)]
    with pytest.raises(ValueError, match="stepped rollouts"):
        monte_carlo(pairs, episodes=2, horizon=10)
    with pytest.raises(ValueError, match="stepped rollouts"):
        run_episodes(pairs, episodes=2, horizon=10, seed=0)

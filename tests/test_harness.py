"""Rollout mechanics, Monte Carlo aggregation, baselines and sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from swiptctl.control import HashMismatchError, Policy
from swiptctl.harness import (CSV_COLUMNS, baseline_policy,
                              default_constraints, episode_rng, monte_carlo,
                              rows_to_csv, run_episode, sweep_power)
from swiptctl.scenario import desk_scenario


@pytest.fixture(scope="module")
def idle_policy(desk_compiled):
    return Policy(action_of=np.zeros(desk_compiled.space.size, dtype=int),
                  scenario_hash=desk_compiled.scenario_hash, kind="idle")


@pytest.fixture(scope="module")
def p_opt(desk_compiled):
    return baseline_policy("p-opt", desk_compiled)


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
# single episodes
# ---------------------------------------------------------------------------

def test_run_episode_deterministic(desk_compiled, p_opt):
    t1 = run_episode(p_opt, desk_compiled, horizon=60, seed=1, episode=2)
    t2 = run_episode(p_opt, desk_compiled, horizon=60, seed=1, episode=2)
    for r1, r2 in zip(t1, t2):
        np.testing.assert_array_equal(r1["queues"], r2["queues"])
        assert r1["action"] == r2["action"]


def test_run_episode_guards(desk_compiled, p_opt):
    with pytest.raises(ValueError):
        run_episode(p_opt, desk_compiled, horizon=0, seed=0)
    alien = Policy(action_of=p_opt.action_of, scenario_hash="feedface")
    with pytest.raises(HashMismatchError):
        run_episode(alien, desk_compiled, horizon=10, seed=0)


def test_idle_policy_drains_nothing(desk_compiled, idle_policy):
    traj = run_episode(idle_policy, desk_compiled, horizon=300, seed=0)
    assert all(np.all(rec["served"] == 0) for rec in traj)
    assert all(np.all(rec["harvested"] == 0) for rec in traj)
    # queue saturates at its cap under sustained arrivals
    assert traj[-1]["queues"].max() == desk_compiled.space.q_max
    # no spending: buffers stay full
    assert all(np.all(rec["energies"] == desk_compiled.space.e_max)
               for rec in traj)


def test_bookkeeping_recursions_hold_exactly(desk_compiled, p_opt):
    space = desk_compiled.space
    traj = run_episode(p_opt, desk_compiled, horizon=200, seed=3)
    for prev, nxt in zip(traj, traj[1:]):
        want_q = np.minimum(prev["queues"] - prev["served"]
                            + prev["arrived"], space.q_max)
        np.testing.assert_array_equal(nxt["queues"], want_q)
        want_e = (prev["energies"] - prev["used"] + prev["harvested"]
                  - prev["discarded"])
        np.testing.assert_array_equal(nxt["energies"], want_e)
        assert np.all(nxt["energies"] >= 0)
        assert np.all(nxt["energies"] <= space.e_max)


def test_energy_conservation_identity(desk_compiled, p_opt):
    space = desk_compiled.space
    traj = run_episode(p_opt, desk_compiled, horizon=200, seed=4)
    harvested = sum(rec["harvested"] for rec in traj)
    used = sum(rec["used"] for rec in traj)
    discarded = sum(rec["discarded"] for rec in traj)
    e_final = (traj[-1]["energies"] - traj[-1]["used"]
               + traj[-1]["harvested"] - traj[-1]["discarded"])
    delta = e_final - np.full(space.n_users, space.e_max)
    np.testing.assert_array_equal(harvested - used, delta + discarded)


def test_served_never_exceeds_queue_or_energy(desk_compiled, p_opt):
    traj = run_episode(p_opt, desk_compiled, horizon=200, seed=5)
    for rec in traj:
        assert np.all(rec["served"] <= rec["queues"])
        assert np.all(rec["used"] <= rec["energies"])


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------

def test_monte_carlo_needs_two_episodes(desk_compiled, p_opt):
    with pytest.raises(ValueError):
        monte_carlo(p_opt, desk_compiled, episodes=1, horizon=10)


def test_monte_carlo_deterministic(desk_compiled, p_opt):
    r1 = monte_carlo(p_opt, desk_compiled, episodes=5, horizon=50,
                     base_seed=9)
    r2 = monte_carlo(p_opt, desk_compiled, episodes=5, horizon=50,
                     base_seed=9)
    assert r1.delay_ms_mean == r2.delay_ms_mean
    assert r1.delay_ms_ci == r2.delay_ms_ci


def test_ci_shrinks_like_root_n(desk_compiled, p_opt):
    small = monte_carlo(p_opt, desk_compiled, episodes=30, horizon=100,
                        base_seed=0)
    large = monte_carlo(p_opt, desk_compiled, episodes=120, horizon=100,
                        base_seed=0)
    ratio = small.delay_ms_ci / large.delay_ms_ci
    assert 1.6 <= ratio <= 2.4          # fourfold episodes: about half the CI


def test_run_result_row_schema(desk_compiled, p_opt):
    run = monte_carlo(p_opt, desk_compiled, episodes=3, horizon=50)
    row = run.to_row(budget_w=0.5)
    assert tuple(row) == CSV_COLUMNS
    assert row["scenario_hash"] == desk_compiled.scenario_hash
    assert row["policy"] == "p-opt"
    assert row["episodes"] == "3"
    assert float(row["budget_w"]) == 0.5


def test_rows_to_csv_layout(desk_compiled, p_opt):
    run = monte_carlo(p_opt, desk_compiled, episodes=3, horizon=50)
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
    base = space.decode(0)
    for q in range(space.q_max + 1):
        users = tuple((q, e, lv) for (_q, e, lv) in base)
        assert p_opt.action(space.encode(users)) == p_opt.action(0)


def test_p_opt_meets_rate_floors_when_payable(desk_compiled, p_opt):
    space = desk_compiled.space
    spec = default_constraints(desk_compiled.config)
    full = tuple((0, space.e_max, 1) for _ in range(space.n_users))
    a = p_opt.action(space.encode(full))
    eff = desk_compiled.effects[a]
    assert eff.admissible([space.e_max] * space.n_users)
    assert np.all(eff.served[:, 1] >= spec.r_min_up)
    assert np.all(eff.rate_down >= spec.r_min_down)


def test_p_opt_prefers_cheapest_feasible(desk_compiled, p_opt):
    # among admissible actions meeting the floors, no cheaper one exists
    space = desk_compiled.space
    spec = default_constraints(desk_compiled.config)
    full = tuple((0, space.e_max, 1) for _ in range(space.n_users))
    chosen = desk_compiled.effects[p_opt.action(space.encode(full))]
    price = float(np.sum(chosen.p_up) + np.sum(chosen.p_down))
    for eff in desk_compiled.effects:
        meets = (eff.admissible([space.e_max] * space.n_users)
                 and np.all(eff.served[:, 1] >= spec.r_min_up)
                 and np.all(eff.rate_down >= spec.r_min_down))
        if meets:
            assert float(np.sum(eff.p_up) + np.sum(eff.p_down)) >= price


def reference_p_opt(compiled, spec):
    """The p-opt table one decoded observation at a time."""
    space = compiled.space
    effects = compiled.effects
    order = sorted(range(compiled.n_actions),
                   key=lambda a: (float(np.sum(effects[a].p_up)
                                        + np.sum(effects[a].p_down)), a))
    table = np.empty(space.size, dtype=int)
    for obs, users in space.states():
        energies = [e for (_q, e, _l) in users]
        feas = [a for a in order if effects[a].admissible(energies)]
        meets = [a for a in feas
                 if all(effects[a].served[u, lv] >= spec.r_min_up
                        and effects[a].rate_down[u] >= spec.r_min_down
                        for u, (_q, _e, lv) in enumerate(users))]
        if meets:
            table[obs] = meets[0]
        else:
            table[obs] = max(feas, key=lambda a: (
                float(np.sum(effects[a].served)), -a)) if feas else 0
    return table


@pytest.mark.parametrize("floors", [(1e-6, 1e-6), (2.0, 1.0), (1e3, 1e3)],
                         ids=["default", "binding", "unreachable"])
def test_p_opt_matches_per_observation_loop(desk_compiled, floors):
    spec = replace(default_constraints(desk_compiled.config),
                   r_min_up=floors[0], r_min_down=floors[1])
    got = baseline_policy("p-opt", desk_compiled, spec=spec)
    np.testing.assert_array_equal(got.action_of,
                                  reference_p_opt(desk_compiled, spec))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_power_requires_increasing_budgets(desk_cfg):
    with pytest.raises(ValueError):
        sweep_power(desk_cfg, [1.0, 0.5], policies=("p-opt",), episodes=2,
                    horizon=10)


def test_sweep_power_row_per_pair(desk_cfg):
    rows = sweep_power(desk_cfg, [10.0], policies=("p-opt",), episodes=2,
                       horizon=30)
    assert len(rows) == 1
    assert rows[0]["policy"] == "p-opt"
    assert tuple(rows[0]) == CSV_COLUMNS


def test_sweep_power_compiles_each_config_once(monkeypatch):
    # d-opt and p-opt share the full-duplex model of each budget; hd has its
    # own half-duplex config
    import swiptctl.harness as harness
    compiled = []
    real = harness.compile_scenario

    def counting(cfg, *args, **kwargs):
        compiled.append(cfg)
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "compile_scenario", counting)
    cfg = desk_scenario(calib_draws=80, q_max=1, e_max=1)
    rows = sweep_power(cfg, [0.55, 1.05], policies=("d-opt", "p-opt", "hd"),
                       episodes=2, horizon=10, max_iterations=1)
    assert [r["policy"] for r in rows] == ["d-opt", "p-opt", "hd"] * 2
    assert [c.duplex for c in compiled] == ["fd", "hd"] * 2
    assert len(set(compiled)) == 4

"""End-to-end acceptance gate for the full control stack.

Each test covers one headline guarantee — solver-oracle agreement, bound
sanity, slot-recursion exactness, SINR density fits, perfect-CSI nulling,
the three qualitative sweep shapes, and CLI reproducibility — and prints a
single PASS line with the measured numbers.
"""

import functools
import json
import time

import numpy as np
import pytest
from scipy import stats

from oracles import (InadmissibleActionError, all_on, beta2_moment_match,
                     exact_value_iteration, kernel_matrices, step_energy,
                     step_queue, uplink_equalizer, uplink_eta)
from swiptctl.channel import (BeamformerSet, ChannelPair, Dims, crandn,
                              downlink_sinr, draw_channel, uplink_sinr)
from swiptctl.cli import main as cli_main
from swiptctl.dynamics import ActionTable, StateSpace, user_action_table
from swiptctl.harness import sweep_antennas, sweep_power
from swiptctl.pomdp.model import PomdpModel
from swiptctl.pomdp.solver import solve_hsvi
from swiptctl.scenario import desk_scenario


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# ---------------------------------------------------------------------------
# random POMDP zoo shared by the oracle-equivalence and bound-sanity tests
# ---------------------------------------------------------------------------

ZOO_DIMS = [(4, 4, 4), (5, 3, 3), (6, 2, 4), (7, 3, 2), (8, 2, 2), (6, 3, 3)]
# this member drops its small observation probabilities: from some beliefs
# an observation cannot occur that other states emit
SPARSE_Z_MEMBER = 5
ZOO_EPS = 1e-3
# the exact oracle's horizon and prune margin on the zoo
ZOO_HORIZON, ZOO_PRUNE_MARGIN = 75, 1e-5


def _zoo_pomdp(i: int) -> PomdpModel:
    rng = np.random.default_rng(7000 + i)
    n_s, n_a, n_o = ZOO_DIMS[i]
    trans = [rng.dirichlet(np.ones(n_s) * 0.5, size=n_s) for _ in range(n_a)]
    obs = []
    for _ in range(n_a):
        base = rng.dirichlet(np.ones(n_o) * 0.5, size=n_s)
        peak = np.eye(n_o)[rng.integers(0, n_o, size=n_s)]
        z = 0.7 * peak + 0.3 * base
        if i == SPARSE_Z_MEMBER:
            z[z < 0.1] = 0.0
            z /= z.sum(axis=1, keepdims=True)
        obs.append(z)
    # cost scale keeps the horizon-75 truncation of the oracle well inside
    # the 1e-3 comparison budget: 0.95^75 * 4e-4 / 0.05 ~ 1.7e-4
    cost = rng.uniform(-4e-4, 4e-4, size=(n_s, n_a))
    return PomdpModel(transitions=trans, observations=obs, cost=cost,
                      discount=0.95)


@functools.cache
def zoo_exact(i: int):
    """Exact horizon-75 solution of zoo member i and the seconds it took,
    computed once per session: the other test modules reuse it."""
    t0 = time.perf_counter()
    exact = exact_value_iteration(_zoo_pomdp(i), ZOO_HORIZON,
                                  prune_margin=ZOO_PRUNE_MARGIN)
    return exact, time.perf_counter() - t0


@pytest.fixture(scope="module")
def zoo_results():
    out = []
    for i in range(len(ZOO_DIMS)):
        model = _zoo_pomdp(i)
        b0 = np.full(model.n_states, 1.0 / model.n_states)
        exact, t_exact = zoo_exact(i)
        t0 = time.perf_counter()
        res = solve_hsvi(model, b0, eps=ZOO_EPS, max_iterations=2000,
                         depth_cap=50)
        t_hsvi = time.perf_counter() - t0
        out.append((model, b0, exact.value(b0), res, t_exact, t_hsvi))
    return out


def test_point_based_solver_matches_exact_oracle(zoo_results):
    worst_diff, worst_t = 0.0, 0.0
    for model, b0, v_exact, res, t_exact, t_hsvi in zoo_results:
        assert model.n_states <= 8 and model.n_actions <= 4 and model.n_obs <= 4
        diff = abs(res.root_value - v_exact)
        assert diff <= 1e-3, (model.n_states, diff)
        assert t_exact < 60.0 and t_hsvi < 60.0
        worst_diff = max(worst_diff, diff)
        worst_t = max(worst_t, t_exact, t_hsvi)
    _report("solver-oracle equivalence",
            f"{len(zoo_results)} POMDPs, worst |root diff| {worst_diff:.2e} <= 1e-3, "
            f"slowest solve {worst_t:.1f}s < 60s")


def test_bounds_stay_sandwiched_and_gap_is_monotone(zoo_results):
    rng = np.random.default_rng(99)
    audits, worst_violation = 0, 0.0
    for model, b0, _v, res, _te, _th in zoo_results:
        # the solver audits every explored belief; add fresh random beliefs
        for b in rng.dirichlet(np.ones(model.n_states), size=40):
            res.bounds.audit(b)
        assert res.bounds.audits > 0
        assert res.bounds.worst_violation <= 1e-8
        gaps = [rec[2] - rec[1] for rec in res.log]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        if res.converged and res.log:
            assert gaps[-1] <= ZOO_EPS
        audits += res.bounds.audits
        worst_violation = max(worst_violation, res.bounds.worst_violation)
    _report("bound sanity",
            f"{audits} sandwich audits, worst violation "
            f"{worst_violation:.2e} <= 1e-8, root gaps monotone")


def exhaustive_action_table(q_bound, e_bound):
    """One user's action table in which level l serves l packets and
    harvests min(l, e_bound) units, and action a costs a units: every
    (q, served) and (e, used, harvested) triple of the ranges below."""
    n_levels = q_bound + 1
    space = StateSpace(n_users=1, q_max=q_bound, e_max=e_bound,
                       n_levels=n_levels)
    n_actions = e_bound + 1
    levels = np.broadcast_to(np.arange(n_levels), (n_actions, 1, n_levels))
    ones = np.ones((n_actions, 1))
    actions = ActionTable(served=levels,
                          harvested=np.minimum(levels, e_bound),
                          used_units=np.arange(n_actions)[:, None],
                          p_up=ones, p_down=ones, rate_down=ones,
                          mask_id=np.zeros(n_actions, int),
                          n_active=np.ones(n_actions, int))
    return space, user_action_table(space, actions)


def test_slot_recursions_match_exhaustive_enumeration(desk_compiled):
    # the scalar recursions, and the action table that the kernel, the
    # cost table and the rollout read, on every tuple of the ranges
    q_bound, e_bound = 30, 10
    space, table = exhaustive_action_table(q_bound, e_bound)

    def at(q, e, level, used):
        s = (q * (e_bound + 1) + e) * space.n_levels + level
        return table.q_post[0, s, used], table.e_next[0, s, used]

    checked = 0
    for q in range(q_bound + 1):
        for served in range(q_bound + 1):
            q_post = at(q, 0, served, 0)[0]     # free action: served in full
            for arrived in range(q_bound + 1):
                expect = min(max(q - served, 0) + arrived, q_bound)
                assert step_queue(q, served, arrived, q_bound) == expect
                assert min(q_post + arrived, q_bound) == expect
                checked += 1
    for e in range(e_bound + 1):
        for used in range(e_bound + 1):
            for harvested in range(e_bound + 1):
                q_post, e_next = at(q_bound, e, harvested, used)
                if used > e:
                    with pytest.raises(InadmissibleActionError):
                        step_energy(e, used, harvested, e_bound)
                    # the no-transmit fallback: nothing spent or served
                    assert e_next == step_energy(e, 0, harvested, e_bound)
                    assert q_post == q_bound
                else:
                    expect = min(e - used + harvested, e_bound)
                    assert step_energy(e, used, harvested, e_bound) == expect
                    assert e_next == expect
                    assert q_post == step_queue(q_bound, harvested, 0,
                                                q_bound)
                checked += 1
    row_err = 0.0
    for mat in kernel_matrices(desk_compiled.kernel):
        rows = np.asarray(mat.sum(axis=1)).ravel()
        row_err = max(row_err, float(np.abs(rows - 1.0).max()))
    assert row_err <= 1e-10
    _report("dynamics exactness",
            f"{checked} transition tuples exact, kernel row error "
            f"{row_err:.1e} <= 1e-10")


# ---------------------------------------------------------------------------
# SINR distribution fits (10^5 Monte Carlo draws per case)
# ---------------------------------------------------------------------------

N_GOF = 100_000
N_T_GOF = 16


def _uplink_gof(alpha: float):
    rng = np.random.default_rng(42)
    h = crandn(rng, N_GOF, N_T_GOF)
    num = np.sum(np.abs(h) ** 2, axis=1)
    samples = (1.0 - alpha ** 2) * num / (alpha ** 2 + 1.0)
    # the vectorized sampler must agree with the full evaluator exactly
    sel = all_on(N_T_GOF)
    w = np.ones((1, 1), dtype=complex)
    bf = BeamformerSet(w_up=(w,), w_down=(w,), p_up=[1.0], p_down=[1.0])
    zero = np.zeros((N_T_GOF, 1), dtype=complex)
    for i in range(20):
        pair = ChannelPair(
            h_true=np.sqrt(1 - alpha ** 2) * h[i][:, None],
            h_est=h[i][:, None], delta=zero, alpha=alpha)
        ref = uplink_sinr((pair,), sel, bf, noise=1.0).uplink[0][0]
        assert abs(ref - samples[i]) <= 1e-10 * max(1.0, ref)
    eta = uplink_eta(Dims(N_T_GOF, N_T_GOF, 1, 1), alpha, p_up=1.0, noise=1.0)
    _, p_val = stats.kstest(samples,
                            stats.gamma(a=N_T_GOF, scale=2 * eta ** 2).cdf)
    return p_val


def _downlink_gof(alpha: float, noise_const: float = 1000.0,
                  power_ratio: float = 2.0):
    rng = np.random.default_rng(43)
    a = alpha ** 2 / (1.0 - alpha ** 2)
    r = power_ratio / (1.0 - alpha ** 2)
    f = crandn(rng, N_GOF, N_T_GOF)
    d = crandn(rng, N_GOF, N_T_GOF)
    g = crandn(rng, N_GOF)
    num = np.sum(np.abs(f) ** 2, axis=1)
    err = np.abs(np.sum(d * f.conj(), axis=1)) ** 2 / num
    gam = num / (a * err + r * np.abs(g) ** 2 + noise_const)
    # spot-check the normalized sampler against the full evaluator: with
    # matched-filter precoding and unit uplink weight the evaluator returns
    # exactly the normalized SINR above
    rho, p_d = 0.5, 1.0
    sigma_d = 0.5 * noise_const * (1.0 - alpha ** 2) * p_d
    sigma_s = rho * 0.5 * noise_const * (1.0 - alpha ** 2) * p_d
    sel = all_on(N_T_GOF)
    for i in range(20):
        wdn = (f[i] / np.linalg.norm(f[i]))[:, None]
        pair = ChannelPair(
            h_true=np.sqrt(1 - alpha ** 2) * f[i][:, None]
            + alpha * d[i][:, None],
            h_est=f[i][:, None], delta=d[i][:, None], alpha=alpha)
        bf = BeamformerSet(w_up=(np.ones((1, 1), dtype=complex),),
                           w_down=(wdn,), p_up=[power_ratio * p_d],
                           p_down=[p_d])
        ref = downlink_sinr((pair,), sel, bf, rho=rho, noise_d=sigma_d,
                            noise_s=sigma_s,
                            xtalk=[[np.array([[g[i]]])]]).downlink[0]
        assert abs(ref - gam[i]) <= 1e-10 * max(1.0, ref)
    params = beta2_moment_match(N_T_GOF, 1, alpha, power_ratio,
                                2.0 * noise_const)
    scale = (params.n1 / (params.n2 - 1.0)) / gam.mean()
    _, p_val = stats.kstest(gam * scale,
                            stats.betaprime(params.n1, params.n2).cdf)
    return p_val


def test_sinr_densities_pass_goodness_of_fit():
    t0 = time.perf_counter()
    p_vals = {}
    for alpha in (0.0, 0.2):
        p_vals[f"uplink a={alpha}"] = _uplink_gof(alpha)
        p_vals[f"downlink a={alpha}"] = _downlink_gof(alpha)
    elapsed = time.perf_counter() - t0
    for name, p_val in p_vals.items():
        assert p_val > 0.01, (name, p_val)
    assert elapsed < 300.0
    detail = ", ".join(f"{k} p={v:.2f}" for k, v in p_vals.items())
    _report("SINR distribution fit",
            f"{detail} (all > 0.01), {elapsed:.0f}s < 300s")


def test_perfect_csi_zero_forcing_nulls_interference():
    dims = Dims(16, 16, 2, 3)
    rng = np.random.default_rng(123)
    sel = all_on(16)
    worst = 0.0
    for _ in range(100):
        chans = tuple(draw_channel(dims, 0.0, rng) for _ in range(dims.k))
        w_up = []
        for _k in range(dims.k):
            w = crandn(rng, dims.n_u, dims.n_u)
            w_up.append(w / np.linalg.norm(w))
        wd = crandn(rng, 16, dims.n_u)
        bf = BeamformerSet(w_up=tuple(w_up),
                           w_down=(wd / np.linalg.norm(wd),) * dims.k,
                           p_up=np.ones(dims.k), p_down=np.ones(dims.k))
        eq = uplink_equalizer(chans, sel, bf, 0)
        desired = np.linalg.norm(eq @ sel.select(chans[0].h_true)) ** 2
        leak = sum(
            np.linalg.norm(eq @ sel.select(chans[i].h_true) @ bf.w_up[i]) ** 2
            for i in range(1, dims.k))
        worst = max(worst, leak / desired)
    assert worst < 1e-12
    _report("perfect-CSI nulling",
            f"worst relative residual {worst:.1e} < 1e-12 over 100 draws")


# ---------------------------------------------------------------------------
# qualitative sweeps (shared five-point budget sweep incl. half-duplex rows)
# ---------------------------------------------------------------------------

SWEEP_BUDGETS = (0.55, 0.75, 0.9, 1.05, 1.3)


@pytest.fixture(scope="module")
def power_sweep_rows():
    rows, _ = sweep_power(desk_scenario(), budgets=SWEEP_BUDGETS,
                          policies=("d-opt", "j-opt", "p-opt", "hd"),
                          episodes=30, horizon=300, seed=0)
    table = {}
    for row in rows:
        table[(float(row["budget_w"]), row["policy"])] = (
            float(row["delay_ms_mean"]), float(row["delay_ms_ci"]))
    return table


def test_delay_orders_by_objective_across_budgets(power_sweep_rows):
    t = power_sweep_rows
    for budget in SWEEP_BUDGETS:
        d, j, p = (t[(budget, k)][0] for k in ("d-opt", "j-opt", "p-opt"))
        assert d <= j <= p, (budget, d, j, p)
    b0 = SWEEP_BUDGETS[0]
    (d_mean, d_ci), (p_mean, p_ci) = t[(b0, "d-opt")], t[(b0, "p-opt")]
    assert d_mean + d_ci < p_mean - p_ci, "CIs overlap at lowest budget"
    _report("delay/power trade-off shape",
            f"delay-optimal <= joint <= power-frugal at all "
            f"{len(SWEEP_BUDGETS)} budgets; lowest budget separation "
            f"{d_mean:.3g}+{d_ci:.2g} < {p_mean:.3g}-{p_ci:.2g}")


def test_full_duplex_beats_half_duplex(power_sweep_rows):
    t = power_sweep_rows
    gaps = []
    for budget in SWEEP_BUDGETS:
        fd, hd = t[(budget, "d-opt")][0], t[(budget, "hd")][0]
        assert fd <= hd, (budget, fd, hd)
        gaps.append((hd - fd) / hd)
    assert gaps[-1] < gaps[0], gaps
    _report("duplexing gain shape",
            f"full-duplex <= half-duplex at all budgets; relative gap "
            f"shrinks {gaps[0]:.2f} -> {gaps[-1]:.2f}")


def test_antenna_selection_cuts_effective_power():
    t0 = time.perf_counter()
    rows, _ = sweep_antennas(desk_scenario(), (4, 32), episodes=20,
                             horizon=300, seed=7)
    elapsed = time.perf_counter() - t0
    # (effective power, its CI) per policy, read back from the six
    # significant digits of the rows
    runs = {row["policy"]: (float(row["effective_power_w"]),
                            float(row["effective_power_ci"])) for row in rows}
    (sel4, sel4_ci), (full4, full4_ci) = runs["select-n4"], runs["full-n4"]
    (sel32, sel32_ci), (full32, full32_ci) = (runs["select-n32"],
                                              runs["full-n32"])
    # small array: the two curves coincide (selection floor = full array)
    assert abs(sel4 - full4) <= sel4_ci + full4_ci
    # large array: selection strictly lower, CIs disjoint
    assert sel32 + sel32_ci < full32 - full32_ci
    assert elapsed < 1200.0
    _report("antenna-selection saving",
            f"n_r=4 curves within CI ({sel4:.3f} vs {full4:.3f}); n_r=32 "
            f"selection {sel32:.3f}+{sel32_ci:.3f} < full "
            f"{full32:.3f}-{full32_ci:.3f}; {elapsed:.0f}s < 1200s")


# ---------------------------------------------------------------------------
# command-line reproducibility
# ---------------------------------------------------------------------------

def test_cli_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(desk_scenario(calib_draws=80, q_max=4,
                                      e_max=3).to_json())
    outputs = []
    for tag in ("a", "b"):
        pol = tmp_path / f"pol_{tag}.json"
        log = tmp_path / f"log_{tag}.txt"
        res = tmp_path / f"res_{tag}.json"
        assert cli_main(["solve", "--config", str(cfg_path), "--kind",
                         "d-opt", "--out", str(pol), "--log", str(log),
                         "--max-iterations", "4"]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path), "--policy",
                         str(pol), "--out", str(res), "--episodes", "5",
                         "--horizon", "100", "--seed", "3"]) == 0
        outputs.append((pol.read_bytes(), log.read_bytes(),
                        res.read_bytes()))
    assert outputs[0] == outputs[1]
    _report("reproducibility",
            "solve + evaluate outputs byte-identical across repeated runs "
            "with a fixed seed")

"""Configuration round-trips, calibration statistics, and compilation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from oracles import kernel_matrices, reference_calibrate

from swiptctl import channel, dynamics
from swiptctl.dynamics import ActionTable, LevelModel, StateSpaceBudgetError
from swiptctl.scenario import (ConfigError, ScenarioConfig, calibrate,
                               compile_scenario, desk_scenario, restrict,
                               with_budget)


@pytest.fixture(scope="module")
def tiny_cfg():
    return desk_scenario(calib_draws=80)


@pytest.fixture(scope="module")
def tiny_compiled(tiny_cfg):
    return compile_scenario(tiny_cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = ScenarioConfig()
    assert cfg.n_r == 16 and cfg.k == 3


@pytest.mark.parametrize("kw", [
    {"duplex": "tdd"},
    {"rho": 0.0},
    {"rho": 1.0},
    {"alpha": 1.0},
    {"alpha": -0.1},
    {"discount": 1.0},
    {"bandwidth_hz": 0.0},
    {"noise_w": -1.0},
    {"q_max": 0},
    {"mask_sizes": (2,), "k": 3, "n_u": 2},   # below ZF minimum 6
    {"mask_sizes": (40,)},                    # above the array size
    {"power_levels_up": (0.0, 0.005),         # unpaired grids
     "power_levels_down": (0.0, 0.125, 0.25)},
    {"power_levels_up": (0.0, 0.005, 0.01), "power_levels_down": (0.0,)},
    {"power_levels_up": (), "power_levels_down": ()},
    {"power_levels_up": (0.0, -0.005), "power_levels_down": (0.0, 0.125)},
    {"power_levels_up": (0.0, 0.005), "power_levels_down": (-0.1, 0.125)},
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigError):
        ScenarioConfig(**kw)


def test_lam_slot_arithmetic():
    cfg = ScenarioConfig(arrival_rate_hz=10.0, slot_s=5e-3)
    assert cfg.lam_slot == pytest.approx(0.05)


def test_resolved_mask_sizes_defaults_to_full_array():
    assert ScenarioConfig().resolved_mask_sizes() == (16,)
    assert ScenarioConfig(mask_sizes=(8, 16)).resolved_mask_sizes() == (8, 16)


# ---------------------------------------------------------------------------
# JSON round trip and hashing
# ---------------------------------------------------------------------------

def test_json_round_trip_identity():
    cfg = desk_scenario()
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.scenario_hash() == cfg.scenario_hash()


def test_hash_sensitive_to_any_field():
    base = desk_scenario()
    assert desk_scenario(noise_w=0.21).scenario_hash() != base.scenario_hash()
    assert desk_scenario(seed=1).scenario_hash() != base.scenario_hash()


@pytest.mark.parametrize("cfg, want", [
    (desk_scenario(q_max=4, e_max=3), "668b2e2ec664a1af"),
    (desk_scenario(q_max=4, e_max=3, seed=7), "afe34937dd7eb1bd"),
    (desk_scenario(), "91b3ef8fd2026a36"),
])
def test_scenario_hash_is_pinned(cfg, want):
    # every output file's header carries this hash, so a change to the
    # config's JSON text (a new field, a reordered or retyped one) shows here
    assert cfg.scenario_hash() == want


def test_hash_is_short_hex():
    h = desk_scenario().scenario_hash()
    assert len(h) == 16
    int(h, 16)


def test_from_json_reports_error_line():
    text = '{\n"n_r": 16,\n"oops"\n}'
    with pytest.raises(ConfigError, match="line 4"):
        ScenarioConfig.from_json(text)


def test_from_json_rejects_unknown_keys():
    bad = json.loads(desk_scenario().to_json())
    bad["not_a_knob"] = 1
    with pytest.raises(ConfigError, match="not_a_knob"):
        ScenarioConfig.from_json(json.dumps(bad))


def test_from_json_rejects_non_object():
    with pytest.raises(ConfigError, match="object"):
        ScenarioConfig.from_json("[1, 2]")


REAL_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
               if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", REAL_FIELDS + ["power_levels_up",
                                                "power_levels_down"])
def test_a_boolean_real_is_refused(name, value):
    # a bool passes every range check as 0 or 1, and hashes unlike 0.0 or
    # 1.0, so the same physical config would get two hashes
    assert len(REAL_FIELDS) == 13
    grid = (0.0, 0.005, 0.01, value)
    kw = {name: grid if name.startswith("power_levels") else value}
    with pytest.raises(ConfigError, match="must be a real number"):
        desk_scenario(**kw)


def test_calibrate_refuses_an_empty_level_bin():
    # 5 gains cannot fill 8 equal-mass bins: levels 1, 3 and 5 would get
    # probability 0 and a 0/0 confusion row
    with pytest.raises(ConfigError, match="channel level 1 holds none"):
        calibrate(desk_scenario(k=1, q_max=1, e_max=1, calib_draws=5,
                                n_levels=8))


def test_calibrate_refuses_a_users_empty_level_bin():
    # 8 pooled gains fill all 4 levels, but user 0 draws none at level 2
    # (and user 1 none at level 3): those users' service and harvest means
    # would be 0/0, where a floor of one sample once read them as 0
    cfg = desk_scenario(q_max=1, e_max=1, calib_draws=4, n_levels=4)
    with pytest.raises(ConfigError,
                       match="channel level 2 holds none of user 0's 4 "):
        calibrate(cfg)


# ---------------------------------------------------------------------------
# budget restriction
# ---------------------------------------------------------------------------

def test_with_budget_keeps_zero_and_affordable_levels():
    cfg = desk_scenario()
    sub = with_budget(cfg, 0.3)
    for pu, pd in zip(sub.power_levels_up, sub.power_levels_down):
        assert cfg.k * (pu + pd) <= 0.3 + 1e-12 or (pu == 0 and pd == 0)
    assert sub.power_levels_up[0] == 0.0
    assert len(sub.power_levels_up) < len(cfg.power_levels_up)


def test_with_budget_loose_budget_is_identity():
    cfg = desk_scenario()
    assert with_budget(cfg, 100.0) == cfg


def test_with_budget_too_tight_raises():
    with pytest.raises(ConfigError):
        with_budget(desk_scenario(), 1e-6)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_level_model_is_stochastic(tiny_compiled):
    level = tiny_compiled.level
    assert level.probs.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(level.obs_confusion.sum(axis=1), 1.0)
    # quantile binning gives roughly equal-mass levels
    assert np.all(level.probs > 0.3)


def test_calibration_action_grid(tiny_cfg, tiny_compiled):
    # mask-major: action m * n_powers + p plays mask m at power level p
    actions = tiny_compiled.actions
    masks = tiny_cfg.resolved_mask_sizes()
    n_powers = len(tiny_cfg.power_levels_up)
    assert tiny_compiled.n_actions == len(actions) == len(masks) * n_powers
    np.testing.assert_array_equal(
        actions.mask_id, np.repeat(np.arange(len(masks)), n_powers))
    np.testing.assert_array_equal(actions.n_active,
                                  np.repeat(masks, n_powers))
    shapes = {name: getattr(actions, name).shape
              for name in ActionTable.__dataclass_fields__}
    k, n_levels = tiny_cfg.k, tiny_cfg.n_levels
    assert shapes == {"served": (len(actions), k, n_levels),
                      "harvested": (len(actions), k, n_levels),
                      **dict.fromkeys(("used_units", "p_up", "p_down",
                                       "rate_down"), (len(actions), k)),
                      "mask_id": (len(actions),),
                      "n_active": (len(actions),)}


def test_zero_power_action_is_inert(tiny_compiled):
    actions = tiny_compiled.actions
    assert np.all(actions.served[0] == 0)
    assert np.all(actions.harvested[0] == 0)
    assert np.all(actions.used_units[0] == 0)
    assert np.all(actions.p_up[0] == 0) and np.all(actions.p_down[0] == 0)


def test_energy_units_spent_matches_ceiling(tiny_cfg, tiny_compiled):
    n_powers = len(tiny_cfg.power_levels_up)
    for a, used in enumerate(tiny_compiled.actions.used_units):
        p_up = tiny_cfg.power_levels_up[a % n_powers]
        want = math.ceil(p_up * tiny_cfg.slot_s / tiny_cfg.delta_e_j) \
            if p_up > 0 else 0
        assert np.all(used == want)


def test_service_monotone_in_power(tiny_compiled):
    served = tiny_compiled.actions.served.sum(axis=(1, 2)).tolist()
    assert served == sorted(served)


def test_service_monotone_in_level(tiny_compiled):
    # higher channel-gain level never serves fewer packets
    assert np.all(np.diff(tiny_compiled.actions.served, axis=2) >= 0)


def test_half_duplex_halves_link_time(tiny_cfg):
    from dataclasses import replace
    _, hd = calibrate(replace(tiny_cfg, duplex="hd"))
    _, fd = calibrate(tiny_cfg)
    last = len(tiny_cfg.power_levels_up) - 1
    p_up = tiny_cfg.power_levels_up[last]
    # the radio is on for half the slot: average power and energy spent halve
    np.testing.assert_allclose(hd.p_up[last], 0.5 * fd.p_up[last])
    want = math.ceil(p_up * tiny_cfg.slot_s / 2 / tiny_cfg.delta_e_j)
    assert np.all(hd.used_units[last] == want)


def test_calibration_deterministic(tiny_cfg):
    level_a, a = calibrate(tiny_cfg)
    level_b, b = calibrate(tiny_cfg)
    assert isinstance(level_a, LevelModel) and isinstance(a, ActionTable)
    np.testing.assert_array_equal(a.served, b.served)
    np.testing.assert_array_equal(a.harvested, b.harvested)
    np.testing.assert_array_equal(level_a.obs_confusion, level_b.obs_confusion)


BENCH_DESK = {"q_max": 4, "e_max": 3}
REFERENCE_CASES = {
    "masks-4-8-16": desk_scenario(**BENCH_DESK, mask_sizes=(4, 8, 16)),
    "4-actions": desk_scenario(**BENCH_DESK),
    "hd": desk_scenario(**BENCH_DESK, duplex="hd"),
    "3-users-3-levels": desk_scenario(**BENCH_DESK, k=3, n_levels=3),
    "nu2-k3": ScenarioConfig(k=3, n_u=2, calib_draws=60),
    "fd-self-interference": desk_scenario(**BENCH_DESK, si_power_w=0.3),
}


def assert_fields_identical(got, want, path="calibration"):
    """Every dataclass field equal, arrays with equal dtype and values."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_fields_identical(getattr(got, f.name),
                                    getattr(want, f.name), f"{path}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, path
        np.testing.assert_array_equal(got, want, err_msg=path)
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_fields_identical(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), path


# packets and energy units so small that the tables hold about 1e16 units:
# a last-bit difference in any per-level SINR or harvest mean then changes
# an integer entry, where the benchmark's units would floor it away
FINE_UNITS = {"packet_bits": 1e-11, "delta_e_j": 1e-19, "e_max": 2 ** 62}


@pytest.mark.parametrize("units", ["bench-units", "fine-units"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_calibrate_matches_per_draw_reference(case, seed, units):
    """The array-pass calibration equals the per-draw uplink_sinr /
    downlink_sinr loop bit for bit, in every field."""
    cfg = dataclasses.replace(REFERENCE_CASES[case], seed=seed,
                              **(FINE_UNITS if units == "fine-units" else {}))
    assert_fields_identical(calibrate(cfg), reference_calibrate(cfg))


def test_calibrate_keeps_the_conditioning_check(monkeypatch):
    cfg = desk_scenario(**BENCH_DESK, calib_draws=20)
    calibrate(cfg)                      # the default cap admits these draws
    monkeypatch.setattr(channel, "COND_CAP", 1.0)
    with pytest.raises(channel.ConditioningError):
        reference_calibrate(cfg)
    with pytest.raises(channel.ConditioningError):
        calibrate(cfg)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_compiled_kernel_rows_stochastic(tiny_compiled):
    for mat in kernel_matrices(tiny_compiled.kernel):
        rows = np.asarray(mat.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-9)


def test_compiled_observation_rows_stochastic(tiny_compiled):
    rows = np.asarray(tiny_compiled.obs_matrix.sum(axis=1)).ravel()
    np.testing.assert_allclose(rows, 1.0, atol=1e-9)


def test_compiled_hash_matches_config(tiny_cfg, tiny_compiled):
    assert tiny_compiled.scenario_hash == tiny_cfg.scenario_hash()


def test_state_count_guard(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STATES", 10)
    with pytest.raises(ValueError):
        compile_scenario(desk_scenario(calib_draws=80))


@pytest.mark.parametrize("cfg", [ScenarioConfig(), desk_scenario(k=3)],
                         ids=["reference", "desk-k3"])
def test_state_count_guard_runs_before_calibration(cfg, monkeypatch):
    import swiptctl.scenario as scenario

    def no_calibration(_cfg):
        raise AssertionError("calibrated an oversized model")

    monkeypatch.setattr(scenario, "calibrate", no_calibration)
    with pytest.raises(StateSpaceBudgetError):
        compile_scenario(cfg)


# ---------------------------------------------------------------------------
# restricted views
# ---------------------------------------------------------------------------

def budget_grids(cfg):
    """Every power grid that ``with_budget`` cuts from cfg's, narrowest
    first: one budget at each pair's summed transmit power."""
    return [with_budget(cfg, cfg.k * (up + down))
            for up, down in zip(cfg.power_levels_up[1:],
                                cfg.power_levels_down[1:])]


def shortlist_config(cfg, n_r):
    """sweep-antennas' select config at array size n_r."""
    floor = 2 * cfg.k * cfg.n_u
    masks = sorted({m for m in (floor, n_r // 2, n_r) if floor <= m <= n_r})
    return dataclasses.replace(cfg, n_r=n_r, n_t=n_r, mask_sizes=tuple(masks))


def assert_same_compile(got, want):
    """Field for field, dtypes included, the same kernel factors, and the
    same CSR arrays of the materialized kernel and observation matrix."""
    assert got.config == want.config
    assert got.scenario_hash == want.scenario_hash
    for owner in ("level", "actions"):
        for field in dataclasses.fields(getattr(want, owner)):
            a = getattr(getattr(got, owner), field.name)
            b = getattr(getattr(want, owner), field.name)
            assert a.dtype == b.dtype, (owner, field.name)
            np.testing.assert_array_equal(a, b, err_msg=field.name)
    np.testing.assert_array_equal(got.kernel.factors, want.kernel.factors,
                                  strict=True)
    assert got.kernel.levels is got.level.probs
    want_mats = kernel_matrices(want.kernel)
    mats = list(zip(kernel_matrices(got.kernel), want_mats))
    assert len(mats) == len(want_mats)
    for m, n in mats + [(got.obs_matrix, want.obs_matrix)]:
        for part in ("data", "indices", "indptr"):
            a, b = getattr(m, part), getattr(n, part)
            assert a.dtype == b.dtype, part
            np.testing.assert_array_equal(a, b, err_msg=part)


def check_views(wide_cfg, subs, shared):
    """Views of subs cut before and after wide_cfg's kernel is built equal
    fresh compiles; the later ones take the built kernel's factors, a view
    of its array where ``shared`` says the kept actions run on."""
    wide = compile_scenario(wide_cfg)
    early = [restrict(wide, sub) for sub in subs]
    factors, obs = wide.kernel.factors, wide.obs_matrix
    for sub, view, run in zip(subs, early, shared):
        late = restrict(wide, sub)
        assert late.level is wide.level and late.obs_matrix is obs
        assert "kernel" in vars(late)       # taken, not built on read
        assert np.shares_memory(late.kernel.factors, factors) == run
        want = compile_scenario(sub)
        assert "kernel" not in vars(view)
        assert_same_compile(view, want)
        assert_same_compile(late, want)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("duplex", ["fd", "hd"])
@pytest.mark.parametrize("preset", [{"q_max": 4, "e_max": 3}, {}],
                         ids=["benchmark", "desk"])
def test_restricted_budget_grid_equals_a_fresh_compile(preset, duplex, seed):
    cfg = desk_scenario(**preset, duplex=duplex, seed=seed)
    *subs, wide = budget_grids(cfg)
    assert wide == cfg
    # one mask and a prefix of the power pairs: a run of actions
    check_views(wide, subs, [True] * len(subs))


@pytest.mark.parametrize("n_r", [8, 16, 32])
def test_restricted_antenna_shortlist_equals_a_fresh_compile(n_r):
    select = shortlist_config(desk_scenario(q_max=4, e_max=3), n_r)
    full = dataclasses.replace(select, mask_sizes=(n_r,))
    # masks and power pairs cut together
    both = dataclasses.replace(budget_grids(select)[0],
                               mask_sizes=select.mask_sizes[::2])
    # the full array's mask is the last run of actions; a prefix of the
    # pairs of more than one mask is not
    check_views(select, [full, both], [True, len(both.mask_sizes) == 1])


def test_restrict_to_its_own_config_is_the_same_object(tiny_compiled):
    assert restrict(tiny_compiled, tiny_compiled.config) is tiny_compiled


@pytest.mark.parametrize("change", [
    {"seed": 1}, {"eta": 0.3}, {"n_r": 32, "n_t": 32},
    {"power_levels_up": (0.0, 0.01, 0.005),
     "power_levels_down": (0.0, 0.25, 0.125)},
    {"power_levels_up": (0.0, 0.03), "power_levels_down": (0.0, 0.5)},
    {"mask_sizes": (16, 4)}, {"mask_sizes": (6,)},
], ids=["seed", "eta", "n_r", "reordered-pairs", "new-pair",
        "reordered-masks", "new-mask"])
def test_restrict_refuses_anything_but_a_sub_list(change):
    cfg = desk_scenario(calib_draws=80, q_max=1, e_max=1, mask_sizes=(4, 16))
    compiled, other = compile_scenario(cfg), dataclasses.replace(cfg, **change)
    with pytest.raises(ValueError):
        restrict(compiled, other)

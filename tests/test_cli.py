"""End-to-end command-line behavior: exit codes, headers, determinism."""

import json
import math
from collections import Counter

import pytest

from oracles import root_seeds_off
from swiptctl.cli import main
from swiptctl.pomdp import solve_hsvi
from swiptctl.scenario import compile_scenario, desk_scenario


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    path.write_text(desk_scenario(calib_draws=80, q_max=4, e_max=3).to_json())
    return str(path)


def run(*argv):
    return main(list(argv))


def test_validate_ok(cfg_file, capsys):
    assert run("validate", "--config", cfg_file) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok ")
    assert "states" in out


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n"q_max": \n}')
    assert run("validate", "--config", str(bad)) == 2
    assert "line" in capsys.readouterr().err


def test_unpaired_power_grids_exit_2(tmp_path, capsys):
    cfg = json.loads(desk_scenario().to_json())
    cfg["power_levels_down"] = cfg["power_levels_down"][:-1]
    path = tmp_path / "unpaired.json"
    path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(path)) == 2
    assert "equal length" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("k", 2.0), ("q_max", 4.5), ("n_levels", 2.0), ("calib_draws", 10.5),
    ("mask_sizes", [8.0]), ("mask_sizes", 8), ("k", True), ("seed", -1),
    ("seed", 2 ** 64),
])
def test_config_with_a_bad_count_exits_2(tmp_path, capsys, key, value):
    cfg = json.loads(desk_scenario().to_json())
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key,value", [
    ("eta", True), ("noise_w", True), ("discount", False),
    ("power_levels_down", [False, 0.125, 0.25, True]),
    ("power_levels_up", [0.0, 0.005, 0.01, True]),
])
def test_config_with_a_boolean_real_exits_2(tmp_path, capsys, key, value):
    # JSON true would read as 1.0 but hash unlike it
    cfg = json.loads(desk_scenario().to_json())
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be a real number" in err[0], err


@pytest.mark.parametrize("key,value", [
    ("power_levels_up", [0.0, math.inf, 0.01, 0.02]),
    ("power_levels_down", [0.0, 0.125, math.nan, 0.5]),
    ("circuit_w_per_antenna", math.nan), ("noise_w", math.nan),
    ("slot_s", math.nan), ("bandwidth_hz", math.nan), ("slot_s", math.inf),
    ("alpha", math.nan), ("discount", math.nan), ("si_power_w", math.inf),
])
def test_config_with_a_non_finite_float_exits_2(tmp_path, capsys, key,
                                                value):
    # json writes NaN and Infinity, and reads them back
    cfg = json.loads(desk_scenario().to_json())
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(path)) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key,power", [
    ("power_levels_up", 1e308), ("power_levels_down", 1e308),
    ("power_levels_up", 1e306),
])
def test_config_with_an_overflowing_power_level_exits_2(tmp_path, capsys,
                                                        key, power):
    # finite, so the config accepts it; in the calibration the energy price
    # and the harvest power overflow to infinity at 1e308, and at 1e306
    # the price (1e308 units) is past the int64 price table
    cfg = json.loads(desk_scenario().to_json())
    cfg[key][1] = power
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    link = "uplink" if key == "power_levels_up" else "downlink"
    assert f"{link} power level {power!r} W overflows" in err


@pytest.mark.parametrize("overrides,message", [
    ({"bandwidth_hz": 1e308}, "uplink power level 0.005 W overflows the "
                              "served packet count"),
    ({"packet_bits": 1e-300}, "uplink power level 0.005 W overflows the "
                              "served packet count"),
    ({"bandwidth_hz": 1e308, "power_levels_up": (0.0,) * 4},
     "downlink power level 0.125 W overflows the rate"),
])
def test_config_with_an_overflowing_packet_count_exits_2(tmp_path, capsys,
                                                         overrides, message):
    # finite, so the config accepts it; the calibration's packet counts
    # pass 2**63 before they fill the int64 tables
    path = tmp_path / "huge.json"
    path.write_text(desk_scenario(**overrides).to_json())
    assert run("validate", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_config_with_a_users_empty_level_bin_exits_2(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    path.write_text(desk_scenario(q_max=1, e_max=1, calib_draws=4,
                                  n_levels=4).to_json())
    assert run("validate", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "channel level 2 holds none of user 0's" in err


def test_config_whose_harvest_overflows_fills_the_buffer(tmp_path, capsys):
    # eta * P_eh * slot / dE reaches infinity; capped before its floor, it
    # fills the buffer in one slot wherever the downlink transmits (the
    # uplink levels are all 0 W, so no action has an energy price)
    cfg = desk_scenario(delta_e_j=5e-324, power_levels_up=(0.0,) * 4)
    path = tmp_path / "huge.json"
    path.write_text(cfg.to_json())
    assert run("validate", "--config", str(path)) == 0
    assert capsys.readouterr().err == ""
    actions = compile_scenario(cfg).actions
    transmits = actions.p_down > 0
    assert transmits.any() and not transmits.all()
    assert (actions.harvested[transmits] == cfg.e_max).all()
    assert (actions.harvested[~transmits] == 0).all()


@pytest.mark.parametrize("eta,code", [(1.0, 0), (1.5, 2), (1e308, 2)])
def test_harvester_efficiency_must_lie_in_the_unit_interval(tmp_path, capsys,
                                                            eta, code):
    # a harvester converts at most the power it receives
    cfg = json.loads(desk_scenario(calib_draws=20, q_max=1, e_max=1).to_json())
    cfg["eta"] = eta
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(path)) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0
                   else f"error: eta must lie in (0, 1], got {eta}\n")


ROLLOUT = ("--episodes", "2", "--horizon", "5")


@pytest.mark.parametrize("command", [
    ("validate",),
    ("solve", "--kind", "d-opt", "--out", "pol.json"),
    ("solve", "--kind", "j-opt", "--out", "pol.json"),
    ("solve", "--kind", "p-opt", "--out", "pol.json"),
    ("evaluate", "--policy", "pol.json", "--out", "res.json", *ROLLOUT),
    ("sweep-power", "--budgets", "1.05", "--out", "s.csv", *ROLLOUT),
    ("sweep-antennas", "--n-r", "4", "--out", "a.csv", *ROLLOUT),
], ids=["validate", "solve-d-opt", "solve-j-opt", "solve-p-opt", "evaluate",
        "sweep-power", "sweep-antennas"])
def test_empty_channel_level_bin_exits_2(tmp_path, capsys, command):
    # 5 calibration gains cannot fill 8 equal-mass level bins, and an empty
    # bin's confusion row would be 0/0
    cfg = tmp_path / "sparse.json"
    cfg.write_text(desk_scenario(k=1, q_max=1, e_max=1, calib_draws=5,
                                 n_levels=8).to_json())
    name, *rest = command
    rest = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
            for arg in rest]
    assert run(name, "--config", str(cfg), *rest) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: channel level "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sparse.json"]


def test_never_observed_level_solves(tmp_path, capsys):
    # these 6 calibration gains fill every true level bin but leave
    # estimated level 2 empty: its confusion column is 0, and Z never
    # emits its observations
    cfg = desk_scenario(k=1, q_max=1, e_max=1, calib_draws=6, n_levels=5)
    assert not compile_scenario(cfg).level.obs_confusion[:, 2].any()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert run("validate", "--config", str(path)) == 0
    for kind in ("d-opt", "j-opt"):
        assert run("solve", "--config", str(path), "--kind", kind,
                   "--out", str(tmp_path / f"{kind}.json")) == 0
    assert capsys.readouterr().err == ""


def test_missing_config_exits_2(tmp_path):
    assert run("validate", "--config", str(tmp_path / "nope.json")) == 2


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_missing_policy_file_exits_2(cfg_file, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run("evaluate", "--config", cfg_file, "--policy", str(missing),
               "--out", str(tmp_path / "res.json"), *ROLLOUT) == 2
    assert str(missing) in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("solve", "--out", "{bad}"),
    ("solve", "--out", "{ok}", "--log", "{bad}"),
    ("evaluate", "--policy", "{ok}", "--out", "{bad}", *ROLLOUT),
    ("sweep-power", "--budgets", "1.05", "--out", "{bad}", *ROLLOUT),
    ("sweep-antennas", "--n-r", "4", "--out", "{bad}", *ROLLOUT),
], ids=["solve-out", "solve-log", "evaluate", "sweep-power",
        "sweep-antennas"])
def test_unwritable_output_exits_2_before_any_work(cfg_file, tmp_path,
                                                    capsys, monkeypatch,
                                                    command):
    import swiptctl.cli as cli

    def no_work(*_args, **_kwargs):
        raise AssertionError("the command ran before checking its outputs")

    for name in ("compile_scenario", "baseline_policy", "sweep_power",
                 "sweep_antennas"):
        monkeypatch.setattr(cli, name, no_work)
    bad = tmp_path / "no-such-dir" / "out.txt"
    name, *rest = command
    rest = [arg.format(bad=bad, ok=tmp_path / "ok.txt") for arg in rest]
    assert run(name, "--config", cfg_file, *rest) == 2
    assert one_error_line(capsys) == f"error: cannot write {bad}"
    assert list(tmp_path.iterdir()) == []


def test_output_that_fails_to_open_exits_2(cfg_file, tmp_path, capsys):
    # the directory is writable, but the path names a directory
    assert run("solve", "--config", cfg_file, "--kind", "d-opt",
               "--out", str(tmp_path), "--max-iterations", "2") == 2
    assert str(tmp_path) in one_error_line(capsys)


def test_log_that_is_a_directory_exits_2_before_any_output(cfg_file,
                                                           tmp_path, capsys):
    # the log path is checked with the policy path, before the solve: no
    # policy file is left behind
    out, log = tmp_path / "p.json", tmp_path / "logs"
    log.mkdir()
    assert run("solve", "--config", cfg_file, "--kind", "d-opt",
               "--out", str(out), "--log", str(log),
               "--max-iterations", "2") == 2
    assert one_error_line(capsys) == f"error: cannot write {log}"
    assert not out.exists()


@pytest.mark.parametrize("builder", ["build_observation_matrix",
                                     "level_map_matrix"])
def test_validate_refuses_rows_off_by_1e_9(cfg_file, capsys, monkeypatch,
                                           builder):
    # the observation matrix and the posterior table (built by
    # ``level_map_matrix``) get the solver's row tolerance, 1e-10
    import swiptctl.scenario as scenario
    real = getattr(scenario, builder)

    def scaled(*args):
        m = real(*args)
        m.data *= 1.0 + 1e-9
        return m

    monkeypatch.setattr(scenario, builder, scaled)
    assert run("validate", "--config", cfg_file) == 2
    assert "stochastic" in one_error_line(capsys)


def test_solve_output_has_hash_header_and_is_deterministic(cfg_file,
                                                           tmp_path):
    scenario_hash = desk_scenario(calib_draws=80, q_max=4, e_max=3).scenario_hash()
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        log = tmp_path / (name + ".log")
        assert run("solve", "--config", cfg_file, "--kind", "d-opt",
                   "--out", str(out), "--log", str(log),
                   "--max-iterations", "4") == 0
        assert out.read_text().splitlines()[0] == f"# scenario {scenario_hash}"
        assert log.read_text().startswith(f"# scenario {scenario_hash}")
        outs.append((out.read_bytes(), log.read_bytes()))
    assert outs[0] == outs[1]


def test_evaluate_round_trip(cfg_file, tmp_path):
    pol = tmp_path / "pol.json"
    res = tmp_path / "res.json"
    assert run("solve", "--config", cfg_file, "--kind", "d-opt",
               "--out", str(pol), "--max-iterations", "4") == 0
    assert run("evaluate", "--config", cfg_file, "--policy", str(pol),
               "--out", str(res), "--episodes", "3", "--horizon", "40") == 0
    body = json.loads("".join(ln for ln in res.read_text().splitlines()
                              if not ln.startswith("#")))
    assert body["scenario_hash"] == desk_scenario(
        calib_draws=80, q_max=4, e_max=3).scenario_hash()
    assert body["episodes"] == 3
    assert body["delay_ms_mean"] >= 0.0


def test_evaluate_refuses_foreign_policy(cfg_file, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(desk_scenario(calib_draws=81, q_max=4, e_max=3).to_json())
    pol = tmp_path / "pol.json"
    assert run("solve", "--config", str(other), "--kind", "d-opt",
               "--out", str(pol), "--max-iterations", "2") == 0
    res = tmp_path / "res.json"
    assert run("evaluate", "--config", cfg_file, "--policy", str(pol),
               "--out", str(res), "--episodes", "2",
               "--horizon", "10") == 2
    assert "hash" in capsys.readouterr().err
    assert not res.exists()


def test_kernel_and_observations_are_built_by_their_readers(
        cfg_file, tmp_path, monkeypatch):
    # evaluate rolls out from the action table alone; validate audits the
    # kernel and a solve reads both, each built once
    import swiptctl.scenario as scenario
    builds = Counter()
    for name in ("build_kernel", "build_observation_matrix"):
        def counted(*args, real=getattr(scenario, name), name=name):
            builds[name] += 1
            return real(*args)
        monkeypatch.setattr(scenario, name, counted)

    def builds_of(*argv):
        builds.clear()
        assert run(*argv) == 0
        return builds["build_kernel"], builds["build_observation_matrix"]

    pol = str(tmp_path / "pol.json")
    assert builds_of("validate", "--config", cfg_file) == (1, 1)
    assert builds_of("solve", "--config", cfg_file, "--kind", "j-opt",
                     "--out", pol, "--max-iterations", "2") == (1, 1)
    assert builds_of("evaluate", "--config", cfg_file, "--policy", pol,
                     "--out", str(tmp_path / "res.json"), "--episodes", "2",
                     "--horizon", "10") == (0, 0)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A q_max = e_max = 1 config file and its compiled scenario."""
    cfg = desk_scenario(calib_draws=80, q_max=1, e_max=1)
    path = tmp_path_factory.mktemp("tiny") / "tiny.json"
    path.write_text(cfg.to_json())
    return str(path), compile_scenario(cfg)


def write_policy(path, compiled, action_of):
    path.write_text(json.dumps({"scenario_hash": compiled.scenario_hash,
                                "kind": "hand", "action_of": action_of}))
    return str(path)


def test_evaluate_accepts_hand_written_table(tiny, tmp_path):
    cfg_path, compiled = tiny
    pol = write_policy(tmp_path / "pol.json", compiled,
                       [compiled.n_actions - 1] * compiled.space.size)
    assert run("evaluate", "--config", cfg_path, "--policy", pol,
               "--out", str(tmp_path / "res.json"), "--episodes", "2",
               "--horizon", "5") == 0


# tables with the right hash that are not one integer action id in
# [0, n_actions) per observation, as functions of (n_obs, n_actions)
BAD_TABLES = {
    "negative": lambda n_obs, n_act: [-1] * n_obs,
    "short": lambda n_obs, n_act: [0] * 5,
    "long": lambda n_obs, n_act: [0] * (n_obs + 1),
    "id-99": lambda n_obs, n_act: [0] * (n_obs - 1) + [99],
    "id-n-actions": lambda n_obs, n_act: [n_act] * n_obs,
    "float": lambda n_obs, n_act: [1.0] * n_obs,
    "fraction": lambda n_obs, n_act: [0.5] * n_obs,
    "nested": lambda n_obs, n_act: [[0] * n_obs],
}


@pytest.mark.parametrize("name", list(BAD_TABLES))
def test_evaluate_refuses_malformed_table(tiny, tmp_path, capsys, name):
    cfg_path, compiled = tiny
    pol = write_policy(tmp_path / "pol.json", compiled, BAD_TABLES[name](
        compiled.space.size, compiled.n_actions))
    res = tmp_path / "res.json"
    assert run("evaluate", "--config", cfg_path, "--policy", pol,
               "--out", str(res), "--episodes", "2", "--horizon", "5") == 2
    assert "policy" in capsys.readouterr().err
    assert not res.exists()


def test_evaluate_refuses_policy_without_table(tiny, tmp_path, capsys):
    cfg_path, compiled = tiny
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"scenario_hash": compiled.scenario_hash}))
    assert run("evaluate", "--config", cfg_path, "--policy", str(pol),
               "--out", str(tmp_path / "res.json")) == 2
    assert "action_of" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("solve", "--out", "pol.json"),
    ("sweep-power", "--budgets", "1.05", "--out", "s.csv"),
    ("sweep-antennas", "--n-r", "4", "--out", "a.csv"),
])
def test_time_budget_option_is_gone(tiny, tmp_path, capsys, command):
    # solves stop on iteration and depth caps only, so that host speed
    # cannot change the outputs
    name, *rest = command
    rest = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
            for arg in rest]
    with pytest.raises(SystemExit) as exc:
        run(name, "--config", tiny[0], *rest, "--time-budget-s", "60")
    assert exc.value.code == 2
    assert "--time-budget-s" in capsys.readouterr().err


SOLVER_COMMANDS = [
    ("solve", "--out", "pol.json"),
    ("sweep-power", "--budgets", "1.05", "--out", "s.csv"),
    ("sweep-antennas", "--n-r", "4", "--out", "a.csv"),
    # p-opt runs no solver, but its solver flags are checked all the same
    ("solve", "--kind", "p-opt", "--out", "pol.json"),
    ("sweep-power", "--budgets", "1.05", "--policies", "p-opt", "--out",
     "s.csv"),
]


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("command", SOLVER_COMMANDS)
def test_eps_must_be_positive_and_finite(tiny, tmp_path, capsys, command,
                                         eps):
    # a NaN gap target never certifies, and an infinite one certifies any
    name, *rest = command
    rest = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
            for arg in rest]
    assert run(name, "--config", tiny[0], *rest, f"--eps={eps}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps must be positive and finite")
    assert err.count("\n") == 1, err
    assert not (tmp_path / rest[-1]).exists()


@pytest.mark.parametrize("command", SOLVER_COMMANDS)
def test_max_iterations_must_be_non_negative(tiny, tmp_path, capsys,
                                             command):
    name, *rest = command
    rest = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
            for arg in rest]
    assert run(name, "--config", tiny[0], *rest, "--max-iterations=-1") == 2
    err = capsys.readouterr().err
    assert err == "error: max_iterations must be non-negative, got -1\n"
    assert not (tmp_path / rest[-1]).exists()


def test_zero_max_iterations_is_a_seed_only_solve(tiny, tmp_path):
    log = tmp_path / "solve.log"
    assert run("solve", "--config", tiny[0], "--kind", "j-opt", "--out",
               str(tmp_path / "pol.json"), "--log", str(log),
               "--max-iterations", "0") == 0
    assert "iterations=0" in log.read_text()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("command", [
    ("evaluate", "--out", "res.json"),
    ("sweep-power", "--budgets", "1.05", "--policies", "p-opt", "--out",
     "s.csv"),
])
def test_rollout_seed_must_lie_in_the_config_seed_range(tiny, tmp_path,
                                                        capsys, command,
                                                        seed):
    cfg_path, compiled = tiny
    pol = write_policy(tmp_path / "pol.json", compiled,
                       [0] * compiled.space.size)
    name, *rest = command
    rest = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
            for arg in rest]
    if name == "evaluate":
        rest = ["--policy", pol] + rest
    assert run(name, "--config", cfg_path, *rest, "--episodes", "2",
               "--horizon", "5", f"--seed={seed}") == 2
    err = capsys.readouterr().err
    assert err == f"error: seed must lie in [0, 2**64), got {seed}\n"
    assert not (tmp_path / rest[-1]).exists()


def test_require_convergence_exits_3(cfg_file, tmp_path, capsys):
    out = tmp_path / "pol.json"
    # the root seeds certify this root even at eps 1e-9
    with root_seeds_off():
        assert run("solve", "--config", cfg_file, "--kind", "j-opt",
                   "--out", str(out), "--eps", "1e-9", "--max-iterations",
                   "1", "--require-convergence") == 3
    assert "budget" in capsys.readouterr().err


def test_solve_warns_on_unconverged_solves(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(desk_scenario(calib_draws=80, q_max=1, e_max=1,
                                 mask_sizes=(4, 8)).to_json())
    out, log = tmp_path / "pol.json", tmp_path / "solve.log"
    # the root seeds certify this root even at eps 1e-9
    with root_seeds_off():
        assert run("solve", "--config", str(cfg), "--kind", "j-opt",
                   "--out", str(out), "--log", str(log), "--eps", "1e-9",
                   "--max-iterations", "0") == 0
    # one warning per unconverged solve the log records, in solve order
    labels = [line[3:].split(" converged=")[0]
              for line in log.read_text().splitlines()
              if line.startswith("## ") and "converged=False" in line]
    assert labels[-2:] == ["inner mask 1", "outer selection"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(labels)
    for label, line in zip(labels, err):
        assert line.startswith(
            f"warning: {label} unconverged after 0 iterations, root gap ")
        assert float(line.rsplit("root gap ", 1)[1]) > 1e-9


def test_sweep_power_csv(cfg_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep-power", "--config", cfg_file, "--budgets", "10.0",
               "--policies", "p-opt", "--out", str(out),
               "--episodes", "2", "--horizon", "30") == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# scenario ")
    assert lines[1].split(",")[0] == "scenario_hash"
    assert len(lines) == 3


def test_sweep_power_rejects_unknown_policy(cfg_file, tmp_path, capsys):
    assert run("sweep-power", "--config", cfg_file, "--budgets", "1.0",
               "--policies", "q-opt", "--out", str(tmp_path / "x.csv")) == 2
    assert "q-opt" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("sweep-power", "--budgets", ","),
    ("sweep-power", "--budgets", ""),
    ("sweep-power", "--budgets", "1.05", "--policies", ","),
    ("sweep-antennas", "--n-r", ""),
], ids=["budgets-comma", "budgets-empty", "policies-comma", "n-r-empty"])
def test_empty_sweep_list_exits_2(tiny, tmp_path, capsys, command):
    out = tmp_path / "sweep.csv"
    assert run(*command, "--config", tiny[0], "--out", str(out),
               "--episodes", "2", "--horizon", "5") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    (("sweep-antennas", "--n-r", "8,16,8"), "repeat a size"),
    (("sweep-power", "--budgets", "1.05,1.05"), "strictly increasing"),
    (("sweep-power", "--budgets", "0.55,1.05",
      "--policies", "d-opt,p-opt,d-opt"), "repeat a policy"),
], ids=["n-r", "budgets", "policies"])
def test_repeated_sweep_entry_exits_2(tiny, tmp_path, capsys, command,
                                      message):
    # a repeated entry would solve again and repeat its rows
    out = tmp_path / "sweep.csv"
    assert run(*command, "--config", tiny[0], "--out", str(out),
               "--episodes", "2", "--horizon", "5") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]
    assert not out.exists()


def test_sweep_antennas_csv(cfg_file, tmp_path):
    out = tmp_path / "ant.csv"
    assert run("sweep-antennas", "--config", cfg_file, "--n-r", "4",
               "--out", str(out), "--episodes", "2", "--horizon", "30",
               "--max-iterations", "2") == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# scenario ")
    header = lines[1].split(",")
    assert header[-2:] == ["effective_power_w", "effective_power_ci"]
    assert len(lines) == 4          # header + select + full rows


@pytest.mark.parametrize("command,labels", [
    (("sweep-power", "--budgets", "1.05", "--policies", "j-opt"),
     ["j-opt 1.05 W: inner mask 0"]),
    # one line per solve that stops above eps, in solve order
    (("sweep-antennas", "--n-r", "8"),
     ["select-n8: inner mask 1", "select-n8: outer selection",
      "full-n8: inner mask 0"]),
], ids=["sweep-power", "sweep-antennas"])
def test_sweep_warns_on_unconverged_solves(tmp_path, capsys, command,
                                           labels):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(desk_scenario(calib_draws=80, q_max=1, e_max=1).to_json())
    out = tmp_path / "sweep.csv"
    # the root seeds certify this root even at eps 1e-9
    with root_seeds_off():
        assert run(*command, "--config", str(cfg), "--out", str(out),
                   "--episodes", "2", "--horizon", "10", "--eps", "1e-9",
                   "--max-iterations", "1") == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning: ")]
    assert len(warnings) == len(labels)
    for label, line in zip(labels, warnings):
        assert line.startswith(
            f"warning: {label} unconverged after 1 iterations, root gap ")
        assert float(line.rsplit("root gap ", 1)[1]) > 1e-9


def test_sweep_quiet_when_solves_converge(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(desk_scenario(calib_draws=80, q_max=1, e_max=1).to_json())
    assert run("sweep-power", "--config", str(cfg), "--budgets", "1.05",
               "--policies", "d-opt,p-opt", "--out", str(tmp_path / "s.csv"),
               "--episodes", "2", "--horizon", "10") == 0
    assert "warning" not in capsys.readouterr().err


def test_benchmark_antenna_sweep_certifies_every_solve_at_the_root(
        tmp_path, capsys, monkeypatch):
    # the benchmark's sweep-antennas run at seed 0: every HSVI solve closes
    # its root gap from the seeded bounds, so none explores or warns
    import swiptctl.control as control
    results = []

    def capture(*args, **kwargs):
        res = solve_hsvi(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(control, "solve_hsvi", capture)
    cfg = tmp_path / "bench.json"
    cfg.write_text(desk_scenario(q_max=4, e_max=3).to_json())
    assert run("sweep-antennas", "--config", str(cfg), "--n-r", "16",
               "--seed", "0", "--out", str(tmp_path / "ant.csv")) == 0
    assert not [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning:")]
    # 3 inner and 1 outer selection solve; the full row reads the last
    # inner solve
    assert len(results) == 4
    assert all(res.converged and res.iterations == 0 for res in results)

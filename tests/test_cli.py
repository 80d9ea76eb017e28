"""End-to-end command-line behavior: exit codes, headers, determinism."""

import json
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


def test_missing_config_exits_2(tmp_path):
    assert run("validate", "--config", str(tmp_path / "nope.json")) == 2


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


def test_require_convergence_exits_3(cfg_file, tmp_path, capsys):
    out = tmp_path / "pol.json"
    # the root seeds certify this root even at eps 1e-9
    with root_seeds_off():
        assert run("solve", "--config", cfg_file, "--kind", "j-opt",
                   "--out", str(out), "--eps", "1e-9", "--max-iterations",
                   "1", "--require-convergence") == 3
    assert "budget" in capsys.readouterr().err


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


def test_sweep_warns_on_unconverged_solves(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(desk_scenario(calib_draws=80, q_max=1, e_max=1).to_json())
    out = tmp_path / "sweep.csv"
    # the root seeds certify this root even at eps 1e-9
    with root_seeds_off():
        assert run("sweep-power", "--config", str(cfg), "--budgets", "1.05",
                   "--policies", "j-opt", "--out", str(out), "--episodes",
                   "2", "--horizon", "10", "--eps", "1e-9",
                   "--max-iterations", "1") == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("warning: ")]
    assert len(warnings) == 1
    assert "j-opt 1.05 W: inner mask 0 unconverged after 1 iterations" \
        in warnings[0]
    assert float(warnings[0].rsplit("root gap ", 1)[1]) > 1e-9


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
    assert len(results) == 5
    assert all(res.converged and res.iterations == 0 for res in results)

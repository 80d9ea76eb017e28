"""Guards for the benchmark's trace wrappers and the CLI's start-up.

``perfbench/run.py --trace 1`` wraps each ``SPAN_SITES`` entry by module (or
class) and attribute name; a refactor that moves or renames one of them
would make the traced pass fail with ``AttributeError``, and one that
changes a traced function's signature can break the notes that read its
arguments. Every CLI call pays for the modules that ``swiptctl.cli``
imports. A function that no CLI command runs is named, with its owner, or
deleted.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swiptctl import cli
from swiptctl.scenario import desk_scenario

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("site,attr,name", spans.SPAN_SITES,
                         ids=[f"{s}.{a}" for s, a, _n in spans.SPAN_SITES])
def test_span_site_resolves(site, attr, name):
    owner = spans._resolve(site)
    assert callable(getattr(owner, attr, None)), f"{site}.{attr} ({name})"
    assert name.split(".", 1)[0] in spans.LAYERS


def test_traced_solve_and_evaluate_report_layer_metrics(tmp_path):
    cfg = desk_scenario(q_max=1, e_max=1, calib_draws=20)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    policy, episodes, horizon = tmp_path / "policy.json", 3, 40
    tracer = spans.Tracer("tooling")
    solves = []
    patches = spans.Patches()
    spans.install_spans(patches, tracer,
                        lambda _attrs, _args, _kwargs, res: solves.append(res))
    try:
        codes = [cli.main(["solve", "--config", str(cfg_path), "--kind",
                           "j-opt", "--out", str(policy),
                           "--max-iterations", "2"]),
                 cli.main(["evaluate", "--config", str(cfg_path),
                           "--policy", str(policy),
                           "--out", str(tmp_path / "results.json"),
                           "--episodes", str(episodes),
                           "--horizon", str(horizon)])]
    finally:
        patches.restore()
    assert codes == [0, 0]
    assert solves
    metrics = spans.layer_metrics(tracer, untraced_wall_s=1.0)
    per_user = (cfg.q_max + 1) * (cfg.e_max + 1) * cfg.n_levels
    assert metrics["dynamics.states"] == per_user ** cfg.k
    assert metrics["harness.rollout_slots"] == episodes * horizon
    assert metrics["scenario.compiles"] == 2


def test_traced_two_mask_solve_counts_both_layers(tmp_path):
    # perfbench counts the two layers by the names harness calls
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(desk_scenario(q_max=1, e_max=1, calib_draws=20,
                                      mask_sizes=(4, 16)).to_json())
    tracer = spans.Tracer("tooling")
    patches = spans.Patches()
    spans.install_spans(patches, tracer, lambda *_args: None)
    try:
        code = cli.main(["solve", "--config", str(cfg_path), "--kind",
                         "j-opt", "--out", str(tmp_path / "policy.json"),
                         "--max-iterations", "2"])
    finally:
        patches.restore()
    assert code == 0
    metrics = spans.layer_metrics(tracer, untraced_wall_s=1.0)
    assert metrics["control.inner_solves"] == 2
    assert metrics["control.outer_solves"] == 1
    assert metrics["pomdp.solves"] == 3
    # baseline_cost_table builds the table through the span site
    # harness.build_cost_table
    assert metrics["control.cost_table_s"] > 0


def test_traced_antenna_sweep_solves_each_array_size_once(tmp_path):
    # masks 4 and 8: two inner solves and one outer; the full row reads
    # the mask-8 inner solve instead of solving it again
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(desk_scenario(q_max=1, e_max=1,
                                      calib_draws=20).to_json())
    tracer = spans.Tracer("tooling")
    patches = spans.Patches()
    spans.install_spans(patches, tracer, lambda *_args: None)
    try:
        code = cli.main(["sweep-antennas", "--config", str(cfg_path),
                         "--n-r", "8", "--out", str(tmp_path / "ant.csv"),
                         "--episodes", "2", "--horizon", "10"])
    finally:
        patches.restore()
    assert code == 0
    metrics = spans.layer_metrics(tracer, untraced_wall_s=1.0)
    assert metrics["control.inner_solves"] == 2
    assert metrics["control.outer_solves"] == 1
    assert metrics["pomdp.solves"] == 3


SRC_PATH = Path(cli.__file__).resolve().parent

EXPLORATION = "item 5: HSVI exploration and the prunes"
#: the ``src/`` functions that no CLI command runs on the benchmark config,
#: each with the ROADMAP item (or the reason) that keeps it
UNREACHED = {
    **dict.fromkeys([
        "pomdp.solver.explore", "pomdp.solver.backup", "pomdp.solver._expand",
        "pomdp.solver._successor_posts", "pomdp.solver.q_values",
        "pomdp.solver.excess_uncertainty", "pomdp.bounds.BoundPair.audit",
        "pomdp.bounds.LowerBound.scores", "pomdp.bounds.LowerBound.value_many",
        "pomdp.bounds.UpperBound.value_many", "pomdp.bounds._dense_columns",
        "pomdp.bounds.LowerBound.__len__", "pomdp.bounds.UpperBound.__len__",
        "pomdp.model.PomdpModel.propagate", "pomdp.model.row_entries",
        "pomdp.model.KroneckerTransitions.propagate",
        "pomdp.bounds.LowerBound.prune_pointwise",
        "pomdp.bounds.LowerBound.prune_witness",
        "pomdp.bounds.UpperBound.prune"], EXPLORATION),
    **dict.fromkeys([
        "pomdp.solver._fib_sweep", "pomdp.solver._fixed_choice_step",
        "pomdp.solver._fixed_choice_step.<locals>.step"],
        "item 5: per-entry FIB, for models without closure"),
    **dict.fromkeys([
        "channel.draw_channel", "channel.uplink_sinr", "channel.downlink_sinr",
        "channel._stack_uplink", "channel.ChannelPair.__post_init__",
        "channel.BeamformerSet.__post_init__",
        "channel.SinrReport.__post_init__"],
        "item 9: the per-draw SINR reference that perfbench traces"),
    "scenario.desk_scenario": "preset: configs are built by hand or in tests",
    "dynamics.TransitionKernel.matrices":
        "item 1: perfbench's kernel note counts the stored factors",
}


def src_functions(code, qualname: str = "") -> dict:
    """The named functions compiled into ``code`` (comprehensions and
    lambdas left out), keyed by (file, first line, name), each mapped to
    its qualified name under the ``qualname`` prefix; ``co_qualname``
    needs Python 3.11, so the names are built here."""
    out = {}
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        name = qualname + const.co_name
        if const.co_flags & inspect.CO_NEWLOCALS:       # not a class body
            if not const.co_name.startswith("<"):
                out[const.co_filename, const.co_firstlineno,
                    const.co_name] = name
            name += ".<locals>"
        out.update(src_functions(const, name + "."))
    return out


def test_cli_reaches_every_function_but_the_named_ones(tmp_path):
    # new dead code shows up here: a function that no command runs must be
    # deleted or named, with its owner, in UNREACHED
    cfg = tmp_path / "cfg.json"
    cfg.write_text(desk_scenario(q_max=4, e_max=3).to_json())
    policy = str(tmp_path / "policy.json")
    rollout = ["--episodes", "2", "--horizon", "20"]
    commands = [["validate"]]
    commands += [["solve", "--kind", kind, "--out", policy,
                  "--log", str(tmp_path / "solve.log")]
                 for kind in ("d-opt", "j-opt", "p-opt")]
    commands += [
        ["evaluate", "--policy", policy,
         "--out", str(tmp_path / "results.json"), *rollout],
        ["sweep-power", "--budgets", "0.5,1.05",
         "--policies", "d-opt,j-opt,p-opt,hd",
         "--out", str(tmp_path / "power.csv"), *rollout],
        ["sweep-antennas", "--n-r", "4,32",
         "--out", str(tmp_path / "antennas.csv"), *rollout]]
    called = set()

    def on_call(frame, _event, _arg):
        called.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        codes = [cli.main([name, "--config", str(cfg), *rest])
                 for name, *rest in commands]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(commands)
    defined = {}
    for path in SRC_PATH.rglob("*.py"):
        module = ".".join(path.relative_to(SRC_PATH).with_suffix("").parts)
        defined.update(src_functions(
            compile(path.read_text(), path.as_posix(), "exec"), module + "."))
    ran = {(Path(code.co_filename).resolve().as_posix(), code.co_firstlineno,
            code.co_name) for code in called}
    unreached = {name for key, name in defined.items() if key not in ran}
    assert unreached == set(UNREACHED)


def scipy_modules_loaded_by(module: str, run: str = "pass") -> list:
    """The scipy modules that a fresh interpreter has loaded after
    importing ``module`` and then running the statement ``run``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (f"import json, sys, {module}; {run}; print(json.dumps("
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


# scipy.stats alone once took about 0.7 s of a 1.3 s start-up, and
# scipy.special 0.1 s; scipy.sparse.linalg, with the scipy.linalg it loads,
# cost every command about 10 MB and 0.1 s for one BiCGSTAB call. Only the
# tests' oracles need these modules
SLOW_SCIPY = {"scipy.stats", "scipy.optimize", "scipy.special",
              "scipy.sparse.linalg", "scipy.linalg"}


def test_cli_import_leaves_out_slow_scipy_modules():
    loaded = scipy_modules_loaded_by("swiptctl.cli")
    assert not SLOW_SCIPY & set(loaded), loaded


def test_cli_solve_leaves_out_slow_scipy_modules(tmp_path):
    # an import made inside a function would load only here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(desk_scenario(q_max=1, e_max=1, calib_draws=20).to_json())
    argv = ["solve", "--config", str(cfg), "--kind", "j-opt",
            "--out", str(tmp_path / "policy.json")]
    loaded = scipy_modules_loaded_by(
        "swiptctl.cli", f"assert swiptctl.cli.main({argv!r}) == 0")
    assert "scipy.sparse" in loaded
    assert not SLOW_SCIPY & set(loaded), loaded


def test_channel_import_loads_no_scipy():
    # the link layer is numpy only; the closed-form SINR densities, which
    # need scipy.special, stay in tests/oracles.py
    loaded = scipy_modules_loaded_by("swiptctl.channel")
    assert loaded == [], loaded

"""Guards for the benchmark's trace wrappers and the CLI's start-up.

``perfbench/run.py --trace 1`` wraps each ``SPAN_SITES`` entry by module (or
class) and attribute name; a refactor that moves or renames one of them
would make the traced pass fail with ``AttributeError``, and one that
changes a traced function's signature can break the notes that read its
arguments. Every CLI call pays for the modules that ``swiptctl.cli``
imports.
"""

import importlib.util
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


def scipy_modules_loaded_by(module: str) -> list:
    """The scipy modules that a fresh interpreter has loaded after
    importing ``module``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (f"import json, sys, {module}; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


def test_cli_import_leaves_out_slow_scipy_modules():
    # scipy.stats alone once took about 0.7 s of a 1.3 s start-up, and
    # scipy.special 0.1 s; only the tests' oracles need scipy.optimize or
    # scipy.special
    loaded = scipy_modules_loaded_by("swiptctl.cli")
    slow = {"scipy.stats", "scipy.optimize", "scipy.special"}
    assert not slow & set(loaded), loaded


def test_channel_import_loads_no_scipy():
    # the link layer is numpy only; the closed-form SINR densities, which
    # need scipy.special, stay in tests/oracles.py
    loaded = scipy_modules_loaded_by("swiptctl.channel")
    assert loaded == [], loaded

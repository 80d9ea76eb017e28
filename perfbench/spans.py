"""In-memory span recorder and the call-site wrappers the benchmark installs.

A span is one call into a public swiptctl function: name, start, end, parent
span and run id. Spans live in a list while a pass runs and are written out
when the benchmark ends. A span's self time is its duration minus the time
its direct children cover; calls are single-threaded and nest strictly, so
the children never overlap.

Wrappers replace a name where it is *called from*: ``from .x import y``
binds ``y`` in the importing module, so ``swiptctl.cli.compile_scenario`` and
``swiptctl.harness.compile_scenario`` are patched separately, and
``swiptctl.pomdp.solver.explore`` is patched in its own module so that its
recursive calls are seen too. Only public functions and methods are wrapped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from functools import wraps

perf_counter = time.perf_counter

# (module or class path, attribute, span name). The span name's prefix up to
# the first dot is the layer the span's self time is charged to.
SPAN_SITES = (
    ("swiptctl.scenario", "uplink_sinr", "channel.uplink_sinr"),
    ("swiptctl.scenario", "downlink_sinr", "channel.downlink_sinr"),
    ("swiptctl.scenario", "draw_channel", "channel.draw_channel"),
    ("swiptctl.cli", "compile_scenario", "scenario.compile_scenario"),
    ("swiptctl.harness", "compile_scenario", "scenario.compile_scenario"),
    ("swiptctl.scenario", "calibrate", "scenario.calibrate"),
    ("swiptctl.scenario", "build_kernel", "dynamics.build_kernel"),
    ("swiptctl.scenario", "build_observation_matrix",
     "dynamics.build_observation_matrix"),
    ("swiptctl.control", "solve_hsvi", "pomdp.solve_hsvi"),
    ("swiptctl.pomdp.solver", "initial_bounds", "pomdp.initial_bounds"),
    ("swiptctl.pomdp.solver", "explore", "pomdp.explore"),
    ("swiptctl.pomdp.solver", "backup", "pomdp.backup"),
    ("swiptctl.pomdp.model:PomdpModel", "propagate", "pomdp.propagate"),
    ("swiptctl.pomdp.bounds:UpperBound", "value_many",
     "pomdp.upper_value_many"),
    ("swiptctl.pomdp.bounds:UpperBound", "prune", "pomdp.prune"),
    ("swiptctl.pomdp.bounds:LowerBound", "prune_pointwise", "pomdp.prune"),
    ("swiptctl.pomdp.bounds:LowerBound", "prune_witness", "pomdp.prune"),
    ("swiptctl.harness", "build_cost_table", "control.build_cost_table"),
    ("swiptctl.control", "build_cost_table", "control.build_cost_table"),
    ("swiptctl.control", "greedy_policy", "control.greedy_policy"),
    ("swiptctl.harness", "solve_inner_beamforming",
     "control.solve_inner_beamforming"),
    ("swiptctl.harness", "solve_outer_selection",
     "control.solve_outer_selection"),
    ("swiptctl.cli", "baseline_policy", "harness.baseline_policy"),
    ("swiptctl.harness", "baseline_policy", "harness.baseline_policy"),
    ("swiptctl.cli", "monte_carlo", "harness.monte_carlo"),
    ("swiptctl.harness", "monte_carlo", "harness.monte_carlo"),
    ("swiptctl.cli", "sweep_power", "harness.sweep_power"),
    ("swiptctl.cli", "sweep_antennas", "harness.sweep_antennas"),
)

LAYERS = ("channel", "scenario", "dynamics", "pomdp", "control", "harness",
          "cli")


def _resolve(site: str):
    mod_name, _, cls_name = site.partition(":")
    owner = importlib.import_module(mod_name)
    return getattr(owner, cls_name) if cls_name else owner


class Tracer:
    """Span list plus the stack of open spans. One tracer per traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []     # [name, start, end, parent, attrs]
        self._stack: list = []

    def call(self, name: str, fn, args=(), kwargs=None, note=None):
        """Run ``fn`` inside a span; ``note(attrs, args, kwargs, result)``
        may record counts on the span after the call returns."""
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if note is not None:
            rec[4] = {}
            note(rec[4], args, kwargs or {}, result)
        return result

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _a in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_n, start, end, _p, _a) in enumerate(self.spans)]

    def write(self, path) -> None:
        with open(path, "a") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "attrs": attrs})
                         + "\n")


class Patches:
    """Installed wrappers; ``restore`` puts every original name back."""

    def __init__(self):
        self._saved: list = []

    def wrap(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wraps(original)(make(original)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _kernel_note(attrs, args, _kwargs, kernel):
    space = args[0]
    attrs["states"] = int(space.size)
    attrs["nnz"] = int(sum(m.nnz for m in kernel.matrices))
    attrs["csr_bytes"] = int(sum(m.data.nbytes + m.indices.nbytes
                                 + m.indptr.nbytes for m in kernel.matrices))


def _explore_note(attrs, args, kwargs, _result):
    depth = args[1] if len(args) > 1 else kwargs.get("t")
    stats = args[6] if len(args) > 6 else kwargs.get("stats")
    if depth == 0 and stats is not None:
        attrs["truncations"] = int(stats.truncations)
        attrs["backups"] = int(stats.backups)


def _rollout_note(attrs, args, kwargs, _result):
    episodes = kwargs.get("episodes", args[2] if len(args) > 2 else 0)
    horizon = kwargs.get("horizon", args[3] if len(args) > 3 else 0)
    attrs["slots"] = int(episodes) * int(horizon)


def _baseline_note(attrs, args, kwargs, _result):
    attrs["kind"] = kwargs.get("kind", args[0] if args else "")


NOTES = {
    "dynamics.build_kernel": _kernel_note,
    "pomdp.explore": _explore_note,
    "harness.monte_carlo": _rollout_note,
    "harness.baseline_policy": _baseline_note,
}


def install_spans(patches: Patches, tracer: Tracer, solve_note) -> None:
    """Wrap every site of SPAN_SITES so each call records a span.
    ``solve_note`` also sees every HSVI result (see :func:`install_capture`).
    """
    notes = dict(NOTES, **{"pomdp.solve_hsvi": solve_note})
    for site, attr, name in SPAN_SITES:
        def make(fn, name=name, note=notes.get(name)):
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, note)
            return traced
        patches.wrap(_resolve(site), attr, make)


def install_capture(patches: Patches, solve_note) -> None:
    """Pass-through wrapper, no timing: hands every HSVI result that the
    two-layer control code obtains to ``solve_note``."""
    def make(fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            solve_note({}, args, kwargs, result)
            return result
        return captured
    patches.wrap(_resolve("swiptctl.control"), "solve_hsvi", make)


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict:
    """Per-layer counts and times of one traced pass."""
    self_s = tracer.self_times()
    total = defaultdict(float)
    count = defaultdict(int)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    attrs = defaultdict(list)
    wall = 0.0
    for (name, start, end, parent, a), s in zip(tracer.spans, self_s):
        total[name] += end - start
        count[name] += 1
        own[name] += s
        layer_self[name.split(".", 1)[0]] += s
        if a:
            attrs[name].append(a)
        if parent < 0:
            wall += end - start

    def attr_sum(name, key):
        return sum(a.get(key, 0) for a in attrs[name])

    iterations = attr_sum("pomdp.solve_hsvi", "iterations")
    backups = attr_sum("pomdp.explore", "backups")
    hsvi_explore_s = total["pomdp.solve_hsvi"] - total["pomdp.initial_bounds"]
    slots = attr_sum("harness.monte_carlo", "slots")
    kernels = attrs["dynamics.build_kernel"]
    m = {
        "channel.uplink_sinr_calls": count["channel.uplink_sinr"],
        "channel.uplink_sinr_s": total["channel.uplink_sinr"],
        "channel.downlink_sinr_calls": count["channel.downlink_sinr"],
        "channel.downlink_sinr_s": total["channel.downlink_sinr"],
        "channel.draw_channel_calls": count["channel.draw_channel"],
        "scenario.compiles": count["scenario.compile_scenario"],
        "scenario.compile_s": total["scenario.compile_scenario"],
        "scenario.calibrate_s": total["scenario.calibrate"],
        "scenario.calibrate_self_s": own["scenario.calibrate"],
        "dynamics.states": max((a["states"] for a in kernels), default=0),
        "dynamics.build_kernel_s": total["dynamics.build_kernel"],
        "dynamics.build_obs_s": total["dynamics.build_observation_matrix"],
        "dynamics.kernel_nnz": sum(a["nnz"] for a in kernels),
        "dynamics.kernel_mb": sum(a["csr_bytes"] for a in kernels) / 1e6,
        "pomdp.solves": count["pomdp.solve_hsvi"],
        "pomdp.solve_s": total["pomdp.solve_hsvi"],
        "pomdp.init_bounds_s": total["pomdp.initial_bounds"],
        "pomdp.iterations": iterations,
        "pomdp.s_per_iteration": (hsvi_explore_s / iterations
                                  if iterations else 0.0),
        "pomdp.explore_calls": count["pomdp.explore"],
        "pomdp.backups": backups,
        "pomdp.backup_s": total["pomdp.backup"],
        "pomdp.truncations": attr_sum("pomdp.explore", "truncations"),
        "pomdp.propagations": count["pomdp.propagate"],
        "pomdp.propagations_per_backup": (count["pomdp.propagate"] / backups
                                          if backups else 0.0),
        "pomdp.upper_value_many_calls": count["pomdp.upper_value_many"],
        "pomdp.upper_value_many_s": total["pomdp.upper_value_many"],
        "pomdp.prune_s": total["pomdp.prune"],
        "pomdp.final_alphas": attr_sum("pomdp.solve_hsvi", "alphas"),
        "pomdp.final_upper_points": attr_sum("pomdp.solve_hsvi",
                                             "upper_points"),
        "control.cost_table_s": total["control.build_cost_table"],
        "control.greedy_calls": count["control.greedy_policy"],
        "control.greedy_s": total["control.greedy_policy"],
        "control.inner_solves": count["control.solve_inner_beamforming"],
        "control.outer_solves": count["control.solve_outer_selection"],
        "control.outer_self_s": own["control.solve_outer_selection"],
        "harness.rollout_s": total["harness.monte_carlo"],
        "harness.rollout_slots": slots,
        "harness.slots_per_s": (slots / total["harness.monte_carlo"]
                                if slots else 0.0),
        "harness.p_opt_s": sum(
            (end - start for name, start, end, _p, a in tracer.spans
             if name == "harness.baseline_policy" and a["kind"] == "p-opt"),
            0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["traced_wall_s"] = wall
    m["trace_overhead_frac"] = (wall - untraced_wall_s) / untraced_wall_s
    return m

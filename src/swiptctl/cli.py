"""Command-line front end.

Every output file starts with a ``# scenario <hash>`` header line so results
can always be traced back to the exact configuration that produced them;
given the same config file and seed, outputs are byte-identical across runs.

Exit codes: 0 on success, 2 on configuration errors (including policy/
scenario hash mismatches and malformed policy tables), 3 when the solver's
iteration budget runs out before convergence under --require-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .control import HashMismatchError, Policy
from .harness import (ANTENNA_COLUMNS, BASELINE_KINDS, baseline_policy,
                      monte_carlo, rows_to_csv, sweep_antennas, sweep_power)
from .scenario import ConfigError, ScenarioConfig, compile_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(path: str) -> ScenarioConfig:
    return ScenarioConfig.from_json(_read(path, "config"))


def _write_output(path: str, scenario_hash: str, body: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(f"# scenario {scenario_hash}\n")
            fh.write(body)
            if not body.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _read_body(path: str) -> str:
    """Read a file written by :func:`_write_output`, dropping header lines."""
    return "\n".join(ln for ln in _read(path, "policy").split("\n")
                     if not ln.startswith("#"))


def _list(text: str, kind) -> list:
    return [kind(tok) for tok in text.split(",") if tok.strip()]


def _hsvi_kw(args) -> dict:
    return ({} if args.max_iterations is None
            else {"max_iterations": args.max_iterations})


def _warn_unconverged(solves) -> None:
    for label, res in solves:
        if not res.converged:
            print(f"warning: {label} unconverged after {res.iterations} "
                  f"iterations, root gap {res.root_gap:.6g}", file=sys.stderr)


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    compiled = compile_scenario(cfg)
    # each is built on first read, and each build checks its rows
    compiled.kernel
    compiled.obs_posteriors     # and the observation matrix it reads
    print(f"ok {compiled.scenario_hash}: {compiled.space.size} states, "
          f"{compiled.n_actions} actions")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    compiled = compile_scenario(cfg)
    policy, solves = baseline_policy(args.kind, compiled, eps=args.eps,
                                     **_hsvi_kw(args))
    _write_output(args.out, compiled.scenario_hash, policy.to_json())
    if args.log:
        lines = []
        for label, res in solves:
            lines.append(f"## {label} converged={res.converged} "
                         f"iterations={res.iterations}")
            lines.extend(res.log_lines())
        _write_output(args.log, compiled.scenario_hash, "\n".join(lines))
    _warn_unconverged(solves)
    if args.require_convergence and any(not r.converged for _, r in solves):
        print("solver budget exhausted before the gap target was met",
              file=sys.stderr)
        return EXIT_BUDGET
    print(f"wrote {args.out} ({args.kind}, {compiled.scenario_hash})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    compiled = compile_scenario(cfg)
    policy = Policy.from_json(_read_body(args.policy))
    [run] = monte_carlo([(policy, compiled)], episodes=args.episodes,
                        horizon=args.horizon, base_seed=args.seed)
    record = {**vars(run), "policy": run.policy_kind}
    del record["policy_kind"], record["delay_slots"]
    body = json.dumps(record, sort_keys=True, indent=2,
                      default=np.ndarray.tolist)
    _write_output(args.out, compiled.scenario_hash, body)
    print(f"wrote {args.out}: delay {run.delay_ms_mean:.4g} ms "
          f"± {run.delay_ms_ci:.4g}")
    return EXIT_OK


def cmd_sweep_power(args) -> int:
    cfg = _load_config(args.config)
    budgets = _list(args.budgets, float)
    policies = tuple(tok.strip() for tok in args.policies.split(",")
                     if tok.strip())
    for kind in policies:
        if kind not in BASELINE_KINDS and kind != "hd":
            raise ConfigError(f"unknown policy kind {kind!r}")
    rows, solves = sweep_power(cfg, budgets, policies=policies,
                               episodes=args.episodes, horizon=args.horizon,
                               eps=args.eps, seed=args.seed, **_hsvi_kw(args))
    _warn_unconverged(solves)
    _write_output(args.out, cfg.scenario_hash(), rows_to_csv(rows))
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_sweep_antennas(args) -> int:
    cfg = _load_config(args.config)
    n_r_list = _list(args.n_r, int)
    rows, solves = sweep_antennas(cfg, n_r_list, episodes=args.episodes,
                                  horizon=args.horizon, eps=args.eps,
                                  seed=args.seed, **_hsvi_kw(args))
    _warn_unconverged(solves)
    _write_output(args.out, cfg.scenario_hash(),
                  rows_to_csv(rows, ANTENNA_COLUMNS))
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swiptctl",
        description="Constrained control for a wireless-powered full-duplex "
                    "sensor array: solve, evaluate and sweep policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solver=False, rollout=False):
        p.add_argument("--config", required=True,
                       help="scenario configuration JSON file")
        if solver:
            p.add_argument("--eps", type=float, default=5.0,
                           help="target root bound gap")
            p.add_argument("--max-iterations", type=int, default=None)
        if rollout:
            p.add_argument("--episodes", type=int, default=30)
            p.add_argument("--horizon", type=int, default=300)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="compile a config and audit the "
                       "model invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve one controller and save the "
                       "policy table")
    common(p, solver=True)
    p.add_argument("--kind", choices=sorted(BASELINE_KINDS), default="d-opt")
    p.add_argument("--out", required=True, help="policy JSON output path")
    p.add_argument("--log", default=None, help="solver iteration log path")
    p.add_argument("--require-convergence", action="store_true",
                   help="exit with status 3 if the gap target is not met")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="roll out a saved policy and save "
                       "summary statistics")
    common(p, rollout=True)
    p.add_argument("--policy", required=True, help="policy JSON input path")
    p.add_argument("--out", required=True, help="results JSON output path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-power", help="delay versus power budget, one "
                       "CSV row per (budget, policy)")
    common(p, solver=True, rollout=True)
    p.add_argument("--budgets", required=True,
                   help="comma-separated strictly increasing budgets in watts")
    p.add_argument("--policies", default="d-opt,j-opt,p-opt")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep_power)

    p = sub.add_parser("sweep-antennas", help="effective power versus array "
                       "size with selection on/off")
    common(p, solver=True, rollout=True)
    p.add_argument("--n-r", required=True,
                   help="comma-separated receive array sizes")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep_antennas)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in filter(None, map(vars(args).get, ("out", "log"))):
            if (os.path.isdir(path) or not os.access(
                    os.path.dirname(os.path.abspath(path)), os.W_OK)):
                raise ConfigError(f"cannot write {path}")
        return args.func(args)
    except (ConfigError, HashMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

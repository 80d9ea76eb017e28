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
import sys

import numpy as np

from .control import HashMismatchError, Policy
from .harness import (BASELINE_KINDS, CSV_COLUMNS, baseline_policy,
                      monte_carlo, rows_to_csv, sweep_antennas, sweep_power)
from .scenario import ConfigError, ScenarioConfig, compile_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ScenarioConfig.from_json(text)


def _write_output(path: str, scenario_hash: str, body: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# scenario {scenario_hash}\n")
        fh.write(body)
        if not body.endswith("\n"):
            fh.write("\n")


def _read_body(path: str) -> str:
    """Read a file written by :func:`_write_output`, dropping header lines."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return "".join(lines)


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _hsvi_kw(args) -> dict:
    return ({} if args.max_iterations is None
            else {"max_iterations": args.max_iterations})


class _UnconvergedWarnings:
    """Sweep log sink: one stderr line per solve that stopped above its gap
    target, printed as the solve finishes; no solver result is kept."""

    def append(self, entry) -> None:
        label, res = entry
        if not res.converged:
            print(f"warning: {label} unconverged after {res.iterations} "
                  f"iterations, root gap {res.root_gap:.6g}", file=sys.stderr)


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    compiled = compile_scenario(cfg)
    # the kernel is built on first read, and the build checks its rows
    n_actions = len(compiled.kernel.matrices)
    z = np.asarray(compiled.obs_matrix.sum(axis=1)).ravel()
    if not np.allclose(z, 1.0, atol=1e-9):
        raise ConfigError("observation rows do not sum to 1")
    print(f"ok {compiled.scenario_hash}: {compiled.space.size} states, "
          f"{n_actions} actions")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    compiled = compile_scenario(cfg)
    sink: list = []
    policy = baseline_policy(args.kind, compiled, eps=args.eps,
                             log_sink=sink, **_hsvi_kw(args))
    _write_output(args.out, compiled.scenario_hash, policy.to_json())
    if args.log:
        lines = []
        for label, res in sink:
            lines.append(f"## {label} converged={res.converged} "
                         f"iterations={res.iterations}")
            lines.extend(res.log_lines())
        _write_output(args.log, compiled.scenario_hash, "\n".join(lines))
    if args.require_convergence and any(not r.converged for _, r in sink):
        print("solver budget exhausted before the gap target was met",
              file=sys.stderr)
        return EXIT_BUDGET
    print(f"wrote {args.out} ({args.kind}, {compiled.scenario_hash})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    compiled = compile_scenario(cfg)
    policy = Policy.from_json(_read_body(args.policy))
    run = monte_carlo(policy, compiled, episodes=args.episodes,
                      horizon=args.horizon, base_seed=args.seed)
    body = json.dumps({
        "scenario_hash": run.scenario_hash,
        "policy": run.policy_kind,
        "episodes": run.episodes,
        "delay_ms_mean": run.delay_ms_mean,
        "delay_ms_ci": run.delay_ms_ci,
        "p_up_w": run.p_up_w.tolist(),
        "p_down_w": run.p_down_w.tolist(),
        "rate_up": run.rate_up.tolist(),
        "rate_down": run.rate_down.tolist(),
        "effective_power_w": run.effective_power_w,
        "effective_power_ci": run.effective_power_ci,
    }, sort_keys=True, indent=2)
    _write_output(args.out, compiled.scenario_hash, body)
    print(f"wrote {args.out}: delay {run.delay_ms_mean:.4g} ms "
          f"± {run.delay_ms_ci:.4g}")
    return EXIT_OK


def cmd_sweep_power(args) -> int:
    cfg = _load_config(args.config)
    budgets = _float_list(args.budgets)
    policies = tuple(tok.strip() for tok in args.policies.split(",")
                     if tok.strip())
    for kind in policies:
        if kind not in BASELINE_KINDS and kind != "hd":
            raise ConfigError(f"unknown policy kind {kind!r}")
    rows = sweep_power(cfg, budgets, policies=policies,
                       episodes=args.episodes, horizon=args.horizon,
                       eps=args.eps, seed=args.seed,
                       log_sink=_UnconvergedWarnings(), **_hsvi_kw(args))
    _write_output(args.out, cfg.scenario_hash(), rows_to_csv(rows))
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_sweep_antennas(args) -> int:
    cfg = _load_config(args.config)
    n_r_list = _int_list(args.n_r)
    rows, results = sweep_antennas(cfg, n_r_list, episodes=args.episodes,
                                   horizon=args.horizon, eps=args.eps,
                                   seed=args.seed,
                                   log_sink=_UnconvergedWarnings(),
                                   **_hsvi_kw(args))
    cols = CSV_COLUMNS + ("effective_power_w", "effective_power_ci")
    lines = [",".join(cols)]
    for row, run in zip(rows, results):
        row = dict(row,
                   effective_power_w=f"{run.effective_power_w:.6g}",
                   effective_power_ci=f"{run.effective_power_ci:.6g}")
        lines.append(",".join(row[c] for c in cols))
    _write_output(args.out, cfg.scenario_hash(), "\n".join(lines))
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
                   help="comma-separated increasing budgets in watts")
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
        return args.func(args)
    except (ConfigError, HashMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

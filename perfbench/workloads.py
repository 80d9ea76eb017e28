"""The benchmark's workloads: the CLI commands each one runs, and the checks
that every output those commands write is complete and correct.

Every workload uses the ``desk_scenario()`` preset at the 1600-state size
(``CONFIG``) that the antenna sweep is specified on; README.md says why the
larger 4900-state preset does not fit the benchmark's time budget. The
workload seed sets the config's ``seed`` and every ``--seed``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EPS = 5.0
CONFIG = {"q_max": 4, "e_max": 3}    # desk_scenario() overrides
SWEEP_COLUMNS = ("scenario_hash", "policy", "budget_w", "delay_ms_mean",
                 "delay_ms_ci", "p_up_w", "p_down_w", "rate_up", "rate_down",
                 "episodes")


class CheckFailed(Exception):
    """An output file is missing, malformed or contradicts the paper."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable      # (out dir, config path, seed) -> [argv, ...]
    check: Callable         # (out dir, config dict, hash, solves) -> dict


def config_hash(config_text: str) -> str:
    """The ``# scenario`` header value: the config file is written as the
    preset's canonical JSON, so its hash is the hash of the file's bytes."""
    return hashlib.sha256(config_text.encode()).hexdigest()[:16]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _body(path: Path, scenario_hash: str) -> list:
    _require(path.is_file(), f"{path.name}: missing")
    lines = path.read_text().splitlines()
    _require(bool(lines) and lines[0] == f"# scenario {scenario_hash}",
             f"{path.name}: header does not match scenario {scenario_hash}")
    return lines[1:]


def _finite(path: Path, value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise CheckFailed(f"{path.name}: {value!r} is not a number") from None
    _require(math.isfinite(x), f"{path.name}: non-finite value {value!r}")
    return x


def _csv_rows(path: Path, scenario_hash: str, columns: tuple) -> list:
    rows = list(csv.reader(_body(path, scenario_hash)))
    _require(bool(rows) and tuple(rows[0]) == columns,
             f"{path.name}: unexpected columns {rows[:1]}")
    out = []
    for row in rows[1:]:
        _require(len(row) == len(columns), f"{path.name}: short row {row}")
        rec = dict(zip(columns, row))
        _require(len(rec["scenario_hash"]) == 16
                 and all(c in "0123456789abcdef" for c in rec["scenario_hash"]),
                 f"{path.name}: bad row hash {rec['scenario_hash']!r}")
        for col in columns[2:]:
            rec[col] = _finite(path, rec[col])
        out.append(rec)
    return out


def model_size(cfg: dict) -> tuple:
    """(states, actions) of the compiled model, from the config alone."""
    per_user = (cfg["q_max"] + 1) * (cfg["e_max"] + 1) * cfg["n_levels"]
    masks = max(len(cfg["mask_sizes"]), 1)
    powers = min(len(cfg["power_levels_up"]), len(cfg["power_levels_down"]))
    return per_user ** cfg["k"], masks * powers


def _check_log(path: Path, scenario_hash: str, eps: float) -> list:
    """Per solve section: (converged, iterations, final root gap). Every
    record has lower <= upper and the gap never increases."""
    sections = []
    records = None
    for line in _body(path, scenario_hash):
        if line.startswith("## "):
            fields = dict(tok.split("=", 1) for tok in line.split()
                          if "=" in tok)
            _require(set(fields) == {"converged", "iterations"},
                     f"{path.name}: bad section line {line!r}")
            records = []
            sections.append((fields["converged"] == "True", records))
            continue
        _require(records is not None, f"{path.name}: record before section")
        tok = line.split()
        _require(len(tok) == 5, f"{path.name}: bad record {line!r}")
        it, lo, hi = int(tok[0]), _finite(path, tok[1]), _finite(path, tok[2])
        _require(it == len(records) + 1, f"{path.name}: iteration gap")
        _require(lo <= hi + 1e-9 * max(1.0, abs(hi)),
                 f"{path.name}: lower {lo} above upper {hi}")
        gap = hi - lo
        _require(not records or gap <= records[-1] + 1e-9 * max(1.0, gap),
                 f"{path.name}: root gap rose at iteration {it}")
        records.append(gap)
    _require(bool(sections), f"{path.name}: no solve section")
    out = []
    for converged, gaps in sections:
        if gaps:
            _require(converged == (gaps[-1] <= eps),
                     f"{path.name}: converged flag contradicts final gap")
        out.append((converged, len(gaps), gaps[-1] if gaps else None))
    return out


def _solve_quantities(solves: list) -> dict:
    return {
        "unconverged_frac": sum(not s["converged"] for s in solves)
        / len(solves),
        "root_gap_max": max(s["root_gap"] for s in solves),
    }


# ---------------------------------------------------------------------------
# solve-jopt
# ---------------------------------------------------------------------------

JOPT_EPISODES = 50


def _jopt_commands(out: Path, cfg_path: str, seed: int) -> list:
    return [
        ["solve", "--config", cfg_path, "--kind", "j-opt",
         "--eps", f"{EPS:g}", "--out", str(out / "policy.json"),
         "--log", str(out / "solve.log")],
        ["evaluate", "--config", cfg_path,
         "--policy", str(out / "policy.json"), "--out", str(out / "results.json"),
         "--episodes", str(JOPT_EPISODES), "--horizon", "300",
         "--seed", str(seed)],
    ]


def _jopt_check(out: Path, cfg: dict, scenario_hash: str, solves: list) -> dict:
    n_states, n_actions = model_size(cfg)
    path = out / "policy.json"
    pol = json.loads("\n".join(_body(path, scenario_hash)))
    _require(pol["scenario_hash"] == scenario_hash and pol["kind"] == "j-opt",
             f"{path.name}: wrong hash or kind")
    table = pol["action_of"]
    _require(len(table) == n_states,
             f"{path.name}: {len(table)} entries for {n_states} observations")
    _require(all(isinstance(a, int) and 0 <= a < n_actions for a in table),
             f"{path.name}: action id outside 0..{n_actions - 1}")

    logged = _check_log(out / "solve.log", scenario_hash, EPS)
    _require(len(logged) == len(solves) and all(
        (c, n) == (s["converged"], s["iterations"])
        and (g is None or abs(g - s["root_gap"]) <= 1e-9 * max(1.0, g))
        for (c, n, g), s in zip(logged, solves)),
        "solve.log disagrees with the solver results")

    path = out / "results.json"
    res = json.loads("\n".join(_body(path, scenario_hash)))
    _require(res["scenario_hash"] == scenario_hash and res["policy"] == "j-opt"
             and res["episodes"] == JOPT_EPISODES,
             f"{path.name}: wrong hash, policy or episode count")
    for key in ("delay_ms_mean", "delay_ms_ci", "effective_power_w",
                "effective_power_ci"):
        _finite(path, res[key])
    for key in ("p_up_w", "p_down_w", "rate_up", "rate_down"):
        _require(len(res[key]) == cfg["k"], f"{path.name}: {key} length")
        for v in res[key]:
            _finite(path, v)
    _require(res["delay_ms_mean"] > 0.0, f"{path.name}: zero delay")
    return dict(_solve_quantities(solves), delay_ms=res["delay_ms_mean"])


# ---------------------------------------------------------------------------
# sweep-power
# ---------------------------------------------------------------------------

BUDGETS = (0.55, 1.05)
POWER_POLICIES = ("d-opt", "p-opt", "hd")
POWER_EPISODES = 10


def _power_commands(out: Path, cfg_path: str, seed: int) -> list:
    return [["sweep-power", "--config", cfg_path,
             "--budgets", ",".join(f"{b:g}" for b in BUDGETS),
             "--policies", ",".join(POWER_POLICIES),
             "--episodes", str(POWER_EPISODES), "--seed", str(seed),
             "--out", str(out / "sweep_power.csv")]]


def _power_check(out: Path, cfg: dict, scenario_hash: str,
                 solves: list) -> dict:
    path = out / "sweep_power.csv"
    rows = _csv_rows(path, scenario_hash, SWEEP_COLUMNS)
    expect = [(b, k) for b in BUDGETS for k in POWER_POLICIES]
    _require([(r["budget_w"], r["policy"]) for r in rows] == expect,
             f"{path.name}: rows {[(r['budget_w'], r['policy']) for r in rows]}"
             f" != {expect}")
    _require(all(r["episodes"] == POWER_EPISODES for r in rows),
             f"{path.name}: episode count")
    delay = {(r["budget_w"], r["policy"]): r["delay_ms_mean"] for r in rows}
    for b in BUDGETS:
        _require(delay[b, "d-opt"] <= delay[b, "p-opt"],
                 f"{path.name}: d-opt slower than p-opt at {b} W")
        _require(delay[b, "hd"] >= delay[b, "d-opt"],
                 f"{path.name}: half duplex faster than full at {b} W")
    return dict(_solve_quantities(solves),
                delay_ms=delay[BUDGETS[-1], "d-opt"],
                fd_hd_gap_ms=delay[BUDGETS[0], "hd"] - delay[BUDGETS[0], "d-opt"])


# ---------------------------------------------------------------------------
# sweep-antennas
# ---------------------------------------------------------------------------

N_R = 16


def _antenna_commands(out: Path, cfg_path: str, seed: int) -> list:
    return [["sweep-antennas", "--config", cfg_path, "--n-r", str(N_R),
             "--seed", str(seed), "--out", str(out / "sweep_antennas.csv")]]


def _antenna_check(out: Path, cfg: dict, scenario_hash: str,
                   solves: list) -> dict:
    path = out / "sweep_antennas.csv"
    rows = _csv_rows(path, scenario_hash, SWEEP_COLUMNS
                     + ("effective_power_w", "effective_power_ci"))
    _require([(r["policy"], r["budget_w"]) for r in rows]
             == [(f"select-n{N_R}", N_R), (f"full-n{N_R}", N_R)],
             f"{path.name}: rows {[r['policy'] for r in rows]}")
    select, full = (r["effective_power_w"] for r in rows)
    _require(0.0 < select <= full,
             f"{path.name}: selection {select} W above full array {full} W")
    return dict(_solve_quantities(solves), effective_power_w=select,
                selection_saving=1.0 - select / full)


WORKLOADS = {w.name: w for w in (
    Workload("solve-jopt",
             "the one solve that explores and converges to root gap <= eps; "
             "HSVI (pomdp) dominates, evaluate adds a rollout",
             _jopt_commands, _jopt_check),
    Workload("sweep-power",
             "six compiles of four configs, solves converge at the root; "
             "compile (scenario/dynamics) dominates, HSVI exploration idle",
             _power_commands, _power_check),
    Workload("sweep-antennas",
             "two-layer path: 3 masks x 4 powers, 3 inner + 1 outer "
             "selection solve plus the full array's, capped at 8 iterations; "
             "some stop above eps",
             _antenna_commands, _antenna_check),
)}

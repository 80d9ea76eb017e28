"""Benchmark of the swiptctl command line on three workloads.

    python3 perfbench/run.py --workload solve-jopt --seed 0 --seconds 20
    python3 perfbench/run.py --workload all          # every metric, all three

One run is one fresh Python process. It first times the set-up a CLI call
pays (a fresh interpreter importing ``swiptctl.cli`` and writing the config),
then runs the workload's commands in-process through ``swiptctl.cli.main``,
one after another, repeating the whole command list while the next pass
still fits in ``--seconds``. After each pass it checks every output file.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
spans, with the tracing overhead. The last line of standard output is one
JSON object; the full report, the spans and the outputs are kept under
``.perfbench_out/`` in the checkout. README.md explains the workloads and
what each metric is meant to judge.
"""

from __future__ import annotations

import os

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)   # before anything imports numpy

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans                                                  # noqa: E402
from workloads import CONFIG, WORKLOADS, CheckFailed, config_hash  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BOOKKEEPING = ("cli.log", "spans.jsonl", "report.json")
GATING_SEED = 0
HOLDOUT_SEED = 7
SETUP_REPS = 3
SETUP_CODE = """\
import json, sys
import swiptctl.cli
from swiptctl.scenario import desk_scenario
with open(sys.argv[1], "w") as fh:
    fh.write(desk_scenario(**json.loads(sys.argv[2])).to_json())
"""

# name -> (unit, the workloads it applies to or None for every workload)
E2E = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "solve_s": ("s", ("solve-jopt",)),
    "evaluate_s": ("s", ("solve-jopt",)),
    "peak_rss_mb": ("MB", None),
    "failed_frac": ("frac", None),
    "unconverged_frac": ("frac", None),
    "root_gap_max": ("cost", None),
    "delay_ms": ("ms", ("solve-jopt", "sweep-power")),
    "fd_hd_gap_ms": ("ms", ("sweep-power",)),
    "effective_power_w": ("W", ("sweep-antennas",)),
    "selection_saving": ("frac", ("sweep-antennas",)),
}
# the end-to-end metrics on the last line: those that apply to every
# workload and are never 0 (see BENCHMARK.json)
GATED = ("setup_s", "wall_s", "peak_rss_mb")


LAYER_UNITS = {"trace_overhead_frac": "frac",
               "pomdp.s_per_iteration": "s/iteration",
               "harness.slots_per_s": "slots/s", "dynamics.kernel_mb": "MB",
               "pomdp.propagations_per_backup": "ratio"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def measure_setup(overrides: dict, cfg_path: Path) -> list:
    """Wall time of fresh interpreters that import the CLI and write the
    config, spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(cfg_path),
             json.dumps(overrides)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def run_pass(cli_main, commands: list, log, tracer=None) -> dict:
    """Run the commands in order; a command fails when it raises or exits
    non-zero. Returns per-command wall times and failures."""
    walls, failed = [], []
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in commands:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli_main(argv)
                else:
                    rc = tracer.call(f"cli.{argv[0]}", cli_main, (argv,))
            except Exception:        # a broken command must not end the run
                traceback.print_exc()
                rc = -1
            walls.append(time.perf_counter() - t0)
            failed.append(rc != 0)
    return {"walls": walls, "failed": failed, "wall": sum(walls)}


def outputs(out: Path) -> list:
    """The config and every file the commands wrote."""
    return [p for p in sorted(out.iterdir()) if p.name not in BOOKKEEPING]


def check_pass(wl, out: Path, cfg_text: str, solves: list,
               first_hashes) -> tuple:
    """(error or None, paper quantities, sha256 per output file)."""
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in outputs(out)}
    try:
        quantities = wl.check(out, json.loads(cfg_text), config_hash(cfg_text),
                              solves)
        if first_hashes is not None and hashes != first_hashes:
            raise CheckFailed("outputs differ between passes of one seed")
    except (CheckFailed, KeyError, IndexError, ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}", {}, hashes
    return None, quantities, hashes


def solve_recorder(solves: list):
    """Note for every HSVI result: convergence, explorations actually run
    (log records), final root gap and bound sizes."""
    def note(attrs, args, kwargs, res):
        gaps = [rec[2] - rec[1] for rec in res.log]
        if gaps:
            gap = min(gaps)
        else:
            b0 = args[1] if len(args) > 1 else kwargs["b0"]
            gap = res.bounds.gap(b0)
        summary = {"converged": bool(res.converged),
                   "iterations": len(res.log), "root_gap": float(gap),
                   "alphas": len(res.bounds.lower),
                   "upper_points": len(res.bounds.upper.points)}
        attrs.update(summary)
        solves.append(summary)
    return note


def median(values):
    return statistics.median(values) if values else None


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT / f"{wl.name}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = out / "config.json"
    setup = measure_setup(dict(CONFIG, seed=seed), cfg_path)
    cfg_text = cfg_path.read_text()

    sys.path.insert(0, str(SRC))
    import swiptctl.cli
    if Path(swiptctl.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported swiptctl from {swiptctl.cli.__file__}")
    commands = wl.commands(out, str(cfg_path), seed)

    untraced, traced, errors = [], [], []
    quantities, first_hashes, layer = {}, None, []
    start = time.perf_counter()
    with open(out / "cli.log", "w") as log:
        while True:
            for stale in outputs(out):
                if stale != cfg_path:
                    stale.unlink()
            use_trace = trace and len(traced) < len(untraced)
            solves = []
            patches = spans.Patches()
            tracer = None
            if use_trace:
                tracer = spans.Tracer(f"{wl.name}-seed{seed}-"
                                      f"pass{len(untraced) + len(traced)}")
                spans.install_spans(patches, tracer, solve_recorder(solves))
            else:
                spans.install_capture(patches, solve_recorder(solves))
            try:
                result = run_pass(swiptctl.cli.main, commands, log, tracer)
            finally:
                patches.restore()
            (traced if use_trace else untraced).append(result)
            err, q, hashes = check_pass(wl, out, cfg_text, solves,
                                        first_hashes)
            first_hashes = hashes if first_hashes is None else first_hashes
            if err:
                errors.append(err)
                result["failed"] = [True] * len(commands)
            quantities = quantities or q
            if tracer is not None:
                tracer.write(out / "spans.jsonl")
                layer.append(spans.layer_metrics(
                    tracer, median([p["wall"] for p in untraced])))
            elapsed = time.perf_counter() - start
            next_pass = median([p["wall"] for p in untraced + traced])
            if trace and not traced:
                continue
            if elapsed + next_pass > seconds:
                break

    passes = untraced + traced
    attempted = sum(len(p["failed"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    e2e = {
        "setup_s": median(setup),
        "wall_s": median([p["wall"] for p in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failed_frac": failed / attempted,
    }
    for i, argv in enumerate(commands):
        if f"{argv[0]}_s" in E2E:
            e2e[f"{argv[0]}_s"] = median([p["walls"][i] for p in untraced])
    e2e.update(quantities)
    report = {
        "workload": wl.name, "why": wl.why, "seed": seed,
        "holdout_seed": HOLDOUT_SEED, "seconds": seconds, "trace": trace,
        "machine": machine_info(),
        "commands": [" ".join(["swiptctl"] + argv) for argv in commands],
        "setup_runs_s": setup,
        "untraced_passes": untraced, "traced_passes": traced,
        "errors": errors,
        "outputs_sha256": first_hashes,
        "end_to_end": {name: {"value": e2e.get(name), "unit": unit}
                       for name, (unit, only) in E2E.items()
                       if only is None or wl.name in only},
        "not_applicable": [name for name, (_u, only) in E2E.items()
                           if only is not None and wl.name not in only],
    }
    if layer:
        report["per_layer"] = {
            n: {"value": median([m[n] for m in layer]),
                "unit": layer_unit(n)} for n in layer[0]}
        report["layer_self_sum_s"] = median(
            [sum(m[f"{ly}.self_s"] for ly in spans.LAYERS) for m in layer])
    report["correct"] = not errors and failed == 0
    report["attempted"], report["failed"] = attempted, failed
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"== {report['workload']} seed={report['seed']} "
          f"(holdout {report['holdout_seed']}) trace={int(report['trace'])}")
    print(f"   {m['cpu_model']}, nproc={m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS threads 1, "
          f"commit {m['git_commit']}, src lines {m['src_lines']}")
    for cmd in report["commands"]:
        print(f"   $ {cmd}")
    print(f"   passes: {len(report['untraced_passes'])} untraced, "
          f"{len(report['traced_passes'])} traced; "
          f"commands {report['attempted']}, failed {report['failed']}")
    for err in report["errors"]:
        print(f"   CHECK FAILED {err}")
    for name, rec in report["end_to_end"].items():
        print(f"   {name:<20} {rec['value']!s:<24} {rec['unit']}")
    for name in report["not_applicable"]:
        print(f"   {name:<20} {'n/a':<24} {E2E[name][0]}")
    for name, digest in (report["outputs_sha256"] or {}).items():
        print(f"   sha256 {digest} {name}")
    for name, rec in report.get("per_layer", {}).items():
        print(f"   {name:<32} {rec['value']!s:<24} {rec['unit']}")


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        metrics = {n: report["end_to_end"][n] for n in GATED}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    reports = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            return proc.returncode
        reports.append(json.loads(
            (OUT / f"{name}-seed{args.seed}" / "report.json").read_text()))
    print(f"== end-to-end metrics, seed {args.seed}")
    print(f"   {'metric':<20} {'unit':<6}"
          + "".join(f" {r['workload']:>16}" for r in reports))
    for name, (unit, _only) in E2E.items():
        cells = [r["end_to_end"].get(name, {}).get("value", "n/a")
                 for r in reports]
        print(f"   {name:<20} {unit:<6}"
              + "".join(f" {c:>16.6g}" if isinstance(c, (int, float))
                        else f" {c!s:>16}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "workloads": {r["workload"]: result_line(r) for r in reports}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=GATING_SEED,
                        help=f"workload seed (gating {GATING_SEED}, "
                             f"holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes while the next one still fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "swiptctl" / "__init__.py").is_file():
        print(f"error: no swiptctl sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

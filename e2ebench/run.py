"""End-to-end benchmark of the COCA reproduction.

    python3 e2ebench/run.py --workload autov-paper --seed 2012 --seconds 30 --trace 0

runs rounds of one workload, each in a fresh process, until the next round
would overrun ``--seconds``, and prints the end-to-end metrics (``--trace
0``) or the per-layer metrics of traced rounds (``--trace 1``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` it runs every workload,
untraced and then traced, in an order that alternates with the seed.

One process drives one child at a time, so the benchmark never runs more
than two processes; children get single-threaded BLAS.  See README.md for
the workloads, metrics, seeds and reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench_work")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: A round that has not finished after this long is killed and the run
#: fails (a whole run must end within three minutes).
ROUND_TIMEOUT_S = 150.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slots_per_s": "1/s",
    "slot_ms_p50": "ms",
    "slot_ms_p99": "ms",
    "cost_usd_h": "USD/h",
    "peak_rss_mb": "MB",
}

#: Layer times reported in seconds: layers that run on every workload.
LAYER_SECONDS = (
    "import.s", "traces.s", "scenarios.build_s", "batch.enumerate_s",
    "sim.step_s", "sim.step_self_s", "sim.realize_s",
    "core.decide_s", "core.decide_self_s", "core.slot_problem_s", "core.observe_s",
    "solvers.feasible_s", "solvers.evaluate_s",
)
#: Layer times reported as a share (%) of the traced round's wall time:
#: layers that sit idle on some workload, where a time would read 0.0 s on
#: every run of that workload.  Their seconds are in the printed table.
LAYER_SHARES = (
    "analysis.v_search_s", "baselines.unaware_s",
    "solvers.enum_s", "solvers.gsd_s", "solvers.fill_s",
    "state.checkpoint_s", "state.capture_s", "state.serialize_s", "state.durable_s",
    "serve.poll_s", "serve.resolve_s", "serve.journal_s",
    "monitor.observe_s", "monitor.finalize_s",
    "telemetry.emit_s", "telemetry.percentile_s",
    "advice.decide_s", "advice.decide_self_s", "advice.plan_s",
)
LAYER_COUNTS = (
    "traces.calls", "batch.enumerate_calls", "analysis.v_search_sims", "sim.slots",
    "core.decide_calls", "core.slot_problem_calls", "solvers.enum_calls",
    "solvers.evaluate_calls", "solvers.gsd_calls", "solvers.gsd_inner_solves",
    "solvers.fill_calls", "state.writes", "serve.frames", "monitor.events",
    "telemetry.events", "telemetry.percentile_calls", "advice.plans",
    "advice.advised_slots", "advice.budget_blocks",
)
LAYER_OTHER = {
    "solvers.gsd_cache_hit_ratio": "ratio",
    "solvers.gsd_gap": "ratio",
    "state.bytes": "B",
    "state.last_kb": "kB",
    "trace.unattributed_share": "ratio",
}


def share_name(name: str) -> str:
    """``state.checkpoint_s`` -> ``state.checkpoint_pct``."""
    return name[: -len("_s")] + "_pct"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {name: "s" for name in LAYER_SECONDS}
    units["trace.overhead_s"] = "s"
    units.update({share_name(name): "%" for name in LAYER_SHARES})
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(LAYER_OTHER)
    return units


# ------------------------------------------------------------ rounds
def prepare() -> None:
    """Check the checkout holds the program and byte-compile it, so no
    round pays for compilation inside its set-up time."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"e2ebench: no program sources under {SRC}")
    quiet = 2
    if not (compileall.compile_dir(SRC, quiet=quiet) and compileall.compile_dir(HERE, quiet=quiet)):
        raise SystemExit("e2ebench: byte-compiling the sources failed")
    os.makedirs(WORK, exist_ok=True)


def run_round(workload: str, seed: int, traced: bool) -> dict:
    """One round in a fresh process; returns its JSON result."""
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "one_round.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--work-dir", work_dir,
    ]
    if traced:
        cmd += ["--spans-out", os.path.join(WORK, f"spans-{workload}.jsonl")]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"e2ebench: {workload} round exceeded {ROUND_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"e2ebench: {workload} round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_rounds(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Rounds until the next one would overrun ``seconds``.  Traced runs
    alternate untraced and traced rounds and make at least one of each."""
    started = time.monotonic()
    rounds: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        r = run_round(workload, seed, traced and len(rounds) % 2 == 1)
        r["traced"] = traced and len(rounds) % 2 == 1
        rounds.append(r)
        longest = max(longest, time.monotonic() - t0)
        if traced and len(rounds) < 2:
            continue
        if time.monotonic() - started + longest > seconds:
            return rounds


# ------------------------------------------------------------ reduction
def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default), without numpy."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    slot_s = [s for r in rounds for s in r["slot_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "slots_per_s": statistics.median(
            r["slots"] / (r["wall_s"] - r["setup_s"]) for r in rounds
        ),
        "slot_ms_p50": 1000.0 * statistics.median(slot_s),
        "slot_ms_p99": 1000.0 * percentile(slot_s, 99.0),
        "cost_usd_h": statistics.median(r["cost_usd_h"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def tenths(rounds: list[dict]) -> tuple[float, float]:
    """Median slot time (ms) over the first and the last tenth of each
    round's slot samples, median over rounds: how much later slots cost."""
    first, last = [], []
    for r in rounds:
        n = max(1, len(r["slot_s"]) // 10)
        first.append(1000.0 * statistics.median(r["slot_s"][:n]))
        last.append(1000.0 * statistics.median(r["slot_s"][-n:]))
    return statistics.median(first), statistics.median(last)


def per_layer(rounds: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics as reported, every layer time in seconds) over the traced
    rounds; the untraced rounds of the same run give the tracing overhead."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    names = traced[0]["layers"].keys()
    seconds = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    wall = statistics.median(r["wall_s"] for r in traced)
    seconds["trace.overhead_s"] = wall - statistics.median(r["wall_s"] for r in plain)
    metrics = {}
    for name in per_layer_units():
        if name.endswith("_pct"):
            source = name[: -len("_pct")] + "_s"
            metrics[name] = 100.0 * statistics.median(
                r["layers"][source] / r["wall_s"] for r in traced
            )
        else:
            metrics[name] = seconds[name]
    return metrics, seconds


def summarize(workload: str, rounds: list[dict], traced: bool) -> dict:
    costs = {r["cost_usd_h"] for r in rounds}
    missed = sorted({m for r in rounds for m in r["self_test_missed"]})
    failures: dict[str, int] = {}
    for r in rounds:
        for name, n in r["failures"].items():
            failures[name] = failures.get(name, 0) + n
    problems = []
    if len(costs) != 1:
        problems.append(f"rounds of one seed disagree on cost: {sorted(costs)}")
    if missed:
        problems.append(f"checks that accepted a perturbed record: {missed}")
    if failures:
        problems.append(f"failed checks (operations): {failures}")
    for line in problems:
        print(f"{workload}: {line}")
    if traced:
        metrics, seconds = per_layer(rounds)
        units = per_layer_units()
        print(f"{workload}: per-layer, {sum(r['traced'] for r in rounds)} traced round(s)")
        for name in sorted(seconds):
            print(f"  {name:32s} {seconds[name]:14.6g}")
    else:
        metrics = end_to_end(rounds)
        units = END_TO_END
        print(f"{workload}: {len(rounds)} round(s), "
              f"{sum(len(r['slot_s']) for r in rounds)} slot samples")
        for name, value in metrics.items():
            print(f"  {name:32s} {value:14.6g} {units[name]}")
        first, last = tenths(rounds)
        print(f"  slot ms, median of first / last tenth of slots: {first:.4g} / {last:.4g}")
    return {
        "correct": len(costs) == 1 and not missed,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all of them, untraced then traced)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    prepare()
    if args.workload is not None:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summarize(args.workload, rounds, bool(args.trace))))
        return 0
    order = WORKLOADS if args.seed % 2 == 0 else WORKLOADS[::-1]
    combined = {}
    for workload in order:
        combined[workload] = {
            "end_to_end": summarize(
                workload, run_rounds(workload, args.seed, args.seconds, False), False
            ),
            "per_layer": summarize(
                workload, run_rounds(workload, args.seed, args.seconds, True), True
            ),
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

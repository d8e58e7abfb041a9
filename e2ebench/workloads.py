"""The three end-to-end workloads and how one round of each is run.

Each workload is a real command (or, for GSD, the public API the command
layer does not expose), sized so that one round fits several times into a
benchmark run on a 2-CPU machine.  The program only ever sees the inputs
generated from the seed; nothing here depends on which seed is used.
"""

from __future__ import annotations

import os

#: Scenario seed used when none is given (``paper_scenario``'s own default).
DEFAULT_SEED = 2012
#: Seed kept out of tuning, for confirming later performance claims.
HELD_OUT_SEED = 4242

#: autov-paper: a paper-scale month (216k servers, 200 groups, FIU trace)
#: with V auto-tuned for neutrality: 11 V-search simulations, then the
#: carbon-unaware and the COCA run the command reports.
AUTOV_HORIZON = 720

#: serve-replay: a paper-scale month of the FIU trace, replayed through
#: ``repro serve`` with advice, per-slot checkpoints and default monitors.
#: (Not the MSR trace: its storms set the peak the trace is scaled to, so
#: its mean load, and the cost, vary twofold from seed to seed.)
SERVE_TRACE = "fiu"
SERVE_HORIZON = 720
#: Fixed V of the serve run.  It is the neutral V that
#: ``repro quickstart --scale paper --workload fiu --horizon 720`` tunes
#: for the default seed (11.97), rounded down, so the plain run stays
#: neutral there.
SERVE_V = 11.0
#: The advice layer's robustness knob (the CLI default).
SERVE_LAM = 0.25

#: gsd-fleet: the 216k-server paper fleet cut into 2,000 groups of 108
#: servers, solved by GSD at the CLI's default of 200 iterations.
GSD_GROUPS = 2000
GSD_SERVERS_PER_GROUP = 108
GSD_ITERATIONS = 200
GSD_HORIZON = 12
#: The gsd-fleet inputs are generated for a week and cut to their first
#: GSD_HORIZON hours: ``paper_scenario`` itself fails on short horizons for
#: some seeds (an all-zero wind trace cannot be rescaled), and a week's
#: generation never hit that on seeds 0-1999.
GSD_INPUT_HORIZON = 168
GSD_V = 120.0
GSD_SOLVER_SEED = 7

WORKLOADS = ("autov-paper", "serve-replay", "gsd-fleet")


def horizon(workload: str) -> int:
    """Slots of the run the workload reports."""
    return {
        "autov-paper": AUTOV_HORIZON,
        "serve-replay": SERVE_HORIZON,
        "gsd-fleet": GSD_HORIZON,
    }[workload]


def run_command(workload: str, seed: int, work_dir: str) -> None:
    """Run one round of ``workload``; returns when the command returns.

    ``work_dir`` receives whatever the command writes (serve's checkpoints,
    frame journal and record file).
    """
    if workload == "gsd-fleet":
        _run_gsd(seed)
        return
    from repro.cli import main

    if workload == "autov-paper":
        argv = [
            "quickstart", "--scale", "paper", "--workload", "fiu",
            "--horizon", str(AUTOV_HORIZON), "--seed", str(seed),
        ]
    elif workload == "serve-replay":
        argv = [
            "serve", "--source", "replay", "--scale", "paper",
            "--workload", SERVE_TRACE, "--advice",
            "--horizon", str(SERVE_HORIZON), "--seed", str(seed),
            "--v", repr(SERVE_V), "--advice-lam", repr(SERVE_LAM),
            "--checkpoint-dir", os.path.join(work_dir, "ckpt"),
            "--record-out", os.path.join(work_dir, "record.npz"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro {argv[0]} exited with code {code}")


def gsd_inputs(seed: int):
    """``(model, environment, alpha)`` of the gsd-fleet workload: the
    first GSD_HORIZON hours of a week-long paper scenario on the 2,000-group
    fleet, with the REC allowance cut pro rata."""
    from repro import Environment, RenewablePortfolio, paper_scenario

    scenario = paper_scenario(
        horizon=GSD_INPUT_HORIZON,
        seed=seed,
        num_groups=GSD_GROUPS,
        servers_per_group=GSD_SERVERS_PER_GROUP,
    )
    env = scenario.environment
    portfolio = env.portfolio
    cut = RenewablePortfolio(
        onsite=portfolio.onsite.slice(0, GSD_HORIZON),
        offsite=portfolio.offsite.slice(0, GSD_HORIZON),
        recs=portfolio.recs * GSD_HORIZON / GSD_INPUT_HORIZON,
    )
    environment = Environment(
        workload=env.workload.slice(0, GSD_HORIZON),
        portfolio=cut,
        price=env.price.slice(0, GSD_HORIZON),
    )
    return scenario.model, environment, scenario.alpha


def _run_gsd(seed: int) -> None:
    import numpy as np

    from repro import COCA, GSDSolver, simulate

    model, environment, alpha = gsd_inputs(seed)
    controller = COCA(
        model,
        environment.portfolio,
        v_schedule=GSD_V,
        alpha=alpha,
        solver=GSDSolver(
            iterations=GSD_ITERATIONS, rng=np.random.default_rng(GSD_SOLVER_SEED)
        ),
    )
    simulate(model, controller, environment)

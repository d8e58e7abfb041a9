"""Per-workload assembly of the output checks of ``checks.py``.

An operation is one slot of the reported run (it fails when any per-slot
check fails at that slot) plus each run-level check.  Every check is also
run once against a perturbed copy of the round's own output, which it must
reject; a check that does not is reported in ``self_test_missed``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np

import checks
import workloads


@dataclasses.dataclass
class Outcome:
    cost_usd_h: float
    attempted: int
    failed: int
    failures: dict
    self_test_missed: list
    gsd_gap: float = 0.0


def _tally(cost_usd_h, slot: dict, run: dict, missed: list, gsd_gap=0.0) -> Outcome:
    ok = np.logical_and.reduce(list(slot.values()))
    failures = {name: int((~arr).sum()) for name, arr in slot.items() if not arr.all()}
    failures.update({name: 1 for name, passed in run.items() if not passed})
    return Outcome(
        cost_usd_h=float(cost_usd_h),
        attempted=int(ok.size + len(run)),
        failed=int((~ok).sum() + sum(not passed for passed in run.values())),
        failures=failures,
        self_test_missed=missed,
        gsd_gap=float(gsd_gap),
    )


def _last(records, controller: str):
    found = [r for r in records if r.controller == controller]
    if not found:
        raise RuntimeError(f"the command produced no {controller!r} record")
    return found[-1]


def verify(workload: str, seed: int, work_dir: str, records: list) -> Outcome:
    if workload == "autov-paper":
        return _verify_autov(seed, records)
    if workload == "serve-replay":
        return _verify_serve(seed, work_dir)
    if workload == "gsd-fleet":
        return _verify_gsd(seed, records)
    raise ValueError(f"unknown workload {workload!r}")


def _verify_autov(seed: int, records: list) -> Outcome:
    from repro import paper_scenario

    scenario = paper_scenario(
        horizon=workloads.AUTOV_HORIZON, workload="fiu", seed=seed
    )
    inp = checks.inputs_of(scenario.environment, scenario.alpha)
    coca = _last(records, "COCA")
    unaware = _last(records, "carbon-unaware")
    slot = checks.slot_checks(coca, inp)
    slot["unaware"] = checks.coca_not_below_unaware(coca, unaware)
    run = {
        "neutral": checks.neutral(coca, inp.offsite, inp.recs, inp.alpha),
        "unaware_not_neutral": not checks.neutral(
            unaware, inp.offsite, inp.recs, inp.alpha
        ),
    }

    missed = checks.self_test_slot_checks(coca, inp)
    k = coca.horizon // 2
    below = checks.perturb(coca, "cost", k, unaware.cost[k] * (1 - 1e-6) - 1e-6)
    if checks.coca_not_below_unaware(below, unaware)[k]:
        missed.append("unaware")
    allowance = inp.alpha * (inp.offsite.sum() + inp.recs)
    excess = allowance - coca.brown_energy.sum() + 1.0
    over = checks.perturb(coca, "brown_energy", k, coca.brown_energy[k] + excess)
    if checks.neutral(over, inp.offsite, inp.recs, inp.alpha):
        missed.append("neutral")
    # The reported COCA run is neutral, so standing in for the unaware run
    # it must trip the not-neutral check.
    if not checks.neutral(coca, inp.offsite, inp.recs, inp.alpha):
        missed.append("unaware_not_neutral")
    return _tally(coca.average_cost, slot, run, missed)


def _verify_serve(seed: int, work_dir: str) -> Outcome:
    from repro import COCA, paper_scenario, simulate
    from repro.state import latest_valid_checkpoint, load_record

    rec = load_record(os.path.join(work_dir, "record.npz"))
    scenario = paper_scenario(
        horizon=workloads.SERVE_HORIZON, workload=workloads.SERVE_TRACE, seed=seed
    )
    inp = checks.inputs_of(scenario.environment, scenario.alpha)
    plain = simulate(
        scenario.model,
        COCA(
            scenario.model,
            scenario.environment.portfolio,
            v_schedule=workloads.SERVE_V,
            alpha=scenario.alpha,
        ),
        scenario.environment,
    )
    ckpt_dir = os.path.join(work_dir, "ckpt")
    newest = latest_valid_checkpoint(ckpt_dir)
    lam = workloads.SERVE_LAM
    slot = checks.slot_checks(rec, inp)
    run = {
        "certificate": checks.certified(rec.cost.sum(), plain.cost.sum(), lam),
        "checkpoint": checks.checkpoint_final(
            None if newest is None else newest.slot, rec.horizon
        ),
    }

    missed = checks.self_test_slot_checks(rec, inp)
    scale = (1.0 + lam) * plain.cost.sum() / rec.cost.sum() * (1.0 + 1e-6)
    if checks.certified((rec.cost * scale).sum(), plain.cost.sum(), lam):
        missed.append("certificate")
    # Flip one byte of the newest checkpoint in a copy of the rotation: the
    # loader must fall back to an older file, which names an earlier slot.
    bad_dir = os.path.join(work_dir, "ckpt-perturbed")
    shutil.copytree(ckpt_dir, bad_dir)
    if newest is not None:
        path = os.path.join(bad_dir, os.path.basename(newest.path))
        with open(path, "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-2, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x01]))
    fallback = latest_valid_checkpoint(bad_dir)
    if checks.checkpoint_final(None if fallback is None else fallback.slot, rec.horizon):
        missed.append("checkpoint")
    return _tally(rec.average_cost, slot, run, missed)


def _verify_gsd(seed: int, records: list) -> Outcome:
    model, environment, alpha = workloads.gsd_inputs(seed)
    inp = checks.inputs_of(environment, alpha)
    rec = _last(records, "COCA")
    optimum = checks.enumeration_optimum(rec, model)
    slot = checks.slot_checks(rec, inp)
    slot["oracle"] = checks.gsd_not_below_oracle(rec, optimum)
    realised = rec.v_applied * rec.cost + rec.queue * rec.brown_energy
    gap = float(np.median(realised / optimum - 1.0))

    missed = checks.self_test_slot_checks(rec, inp)
    k = rec.horizon // 2
    low = (optimum[k] * (1 - 1e-6) - 1e-6 - rec.queue[k] * rec.brown_energy[k]) / rec.v_applied[k]
    if checks.gsd_not_below_oracle(checks.perturb(rec, "cost", k, low), optimum)[k]:
        missed.append("oracle")
    return _tally(rec.average_cost, slot, run={}, missed=missed, gsd_gap=gap)

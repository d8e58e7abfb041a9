"""Independent output checks, recomputed from each round's per-slot record.

Nothing here compares against a stored copy of an earlier result.  Every
check recomputes a relation the paper's model implies from the record the
command produced and from the scenario inputs, which are rebuilt from the
seed in this process rather than taken from the run.

A check returns a boolean per slot (per-slot checks) or one boolean
(run-level checks).  :func:`self_test_slot_checks` (and its run-level
counterparts in ``verify.py``) perturb the real record of the
round once per check and confirm that the check rejects it, so a check
that can no longer fail is caught on every round.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Relative tolerance of the float relations.  On a paper-scale run the
#: recomputed values agree to ~1e-12, and exactly where no float reduction
#: is involved.
REL_TOL = 1e-9


def _close(a, b, *scale) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ref = np.maximum.reduce([np.ones_like(a), np.abs(a), np.abs(b)] + [np.abs(s) for s in scale])
    return np.abs(a - b) <= REL_TOL * ref


# ------------------------------------------------------------ per-slot
def load_conserved(rec) -> np.ndarray:
    """``served + dropped == arrival_actual``, with nothing dropped."""
    return _close(rec.served + rec.dropped, rec.arrival_actual) & (rec.dropped == 0.0)


def brown_balance(rec, onsite: np.ndarray) -> np.ndarray:
    """``brown == max(facility_power - onsite, 0)`` (hourly slots: MW = MWh)."""
    return _close(rec.brown_energy, np.maximum(rec.facility_power - onsite, 0.0))


def electricity_billed(rec, price: np.ndarray) -> np.ndarray:
    """``electricity_cost == price * brown``."""
    return _close(rec.electricity_cost, price * rec.brown_energy)


def cost_sum(rec) -> np.ndarray:
    """``cost == electricity_cost + delay_cost``."""
    return _close(rec.cost, rec.electricity_cost + rec.delay_cost)


def queue_dynamics(rec, offsite: np.ndarray, recs: float, alpha: float) -> np.ndarray:
    """Eq. (17): ``q(t+1) = max(q(t) + brown(t) - a*f(t) - a*RECs/J, 0)``.

    ``rec.queue`` holds ``q(t)`` as each slot's decision saw it; slot 0
    checks ``q(0) == 0`` and slot ``t`` checks the update into it.
    """
    q = np.asarray(rec.queue, dtype=np.float64)
    n = rec.horizon
    ok = np.zeros(n, dtype=bool)
    if q.shape != (n,):
        return ok
    service = alpha * offsite + alpha * recs / n
    expected = np.maximum(q[:-1] + rec.brown_energy[:-1] - service[:-1], 0.0)
    ok[0] = q[0] == 0.0
    ok[1:] = _close(q[1:], expected, q[:-1], rec.brown_energy[:-1], service[:-1])
    return ok


def coca_not_below_unaware(coca, unaware) -> np.ndarray:
    """COCA's cost is at least the carbon-unaware cost in every slot: the
    unaware policy minimises each slot's cost exactly (on a switching-free
    fleet, slots are independent)."""
    return (coca.cost >= unaware.cost) | _close(coca.cost, unaware.cost)


def gsd_not_below_oracle(rec, optimum: np.ndarray) -> np.ndarray:
    """GSD's realised objective ``V*cost + q*brown`` is no lower than the
    exact optimum of the same slot problem."""
    realised = rec.v_applied * rec.cost + rec.queue * rec.brown_energy
    return (realised >= optimum) | _close(realised, optimum)


def enumeration_optimum(rec, model) -> np.ndarray:
    """Exact P3 optimum of every slot, rebuilt from the record's inputs and
    the applied ``(V, q)``, solved by homogeneous enumeration."""
    from repro import HomogeneousEnumerationSolver

    solver = HomogeneousEnumerationSolver()
    out = np.empty(rec.horizon)
    for t in range(rec.horizon):
        problem = model.slot_problem(
            arrival_rate=float(rec.arrival_predicted[t]),
            onsite=float(rec.onsite[t]),
            price=float(rec.price[t]),
            q=float(rec.queue[t]),
            V=float(rec.v_applied[t]),
        )
        out[t] = solver.solve(problem).objective
    return out


# ------------------------------------------------------------ run-level
def neutral(rec, offsite: np.ndarray, recs: float, alpha: float) -> bool:
    """Eq. (10): ``sum(brown) <= alpha * (sum(offsite) + RECs)``."""
    return bool(rec.brown_energy.sum() <= alpha * (offsite.sum() + recs))


def certified(advised_total: float, plain_total: float, lam: float) -> bool:
    """The advice layer's documented certificate against the independent
    plain-COCA run: ``advised <= (1 + lam) * plain``."""
    return bool(advised_total <= (1.0 + lam) * plain_total)


def checkpoint_final(slot: int | None, horizon: int) -> bool:
    """The newest valid checkpoint names the final slot."""
    return slot is not None and int(slot) == int(horizon)


# ------------------------------------------------------------ assembly
@dataclasses.dataclass
class Inputs:
    """What the checks need beside the records; rebuilt from the seed."""

    onsite: np.ndarray
    offsite: np.ndarray
    price: np.ndarray
    recs: float
    alpha: float


def inputs_of(environment, alpha: float) -> Inputs:
    portfolio = environment.portfolio
    return Inputs(
        onsite=portfolio.onsite.values,
        offsite=portfolio.offsite.values,
        price=environment.price.values,
        recs=float(portfolio.recs),
        alpha=float(alpha),
    )


def slot_checks(rec, inp: Inputs) -> dict[str, np.ndarray]:
    """The per-slot relations every workload's reported run must satisfy."""
    return {
        "load": load_conserved(rec),
        "brown": brown_balance(rec, inp.onsite),
        "electricity": electricity_billed(rec, inp.price),
        "cost": cost_sum(rec),
        "queue": queue_dynamics(rec, inp.offsite, inp.recs, inp.alpha),
    }


def perturb(rec, name: str, k: int, value: float):
    arr = np.array(getattr(rec, name), dtype=np.float64)
    arr[k] = value
    return dataclasses.replace(rec, **{name: arr})


def _bump(x: float) -> float:
    return float(x) * (1.0 + 1e-6) + 1e-6


def self_test_slot_checks(rec, inp: Inputs) -> list[str]:
    """Names of per-slot checks that did not reject a perturbed record."""
    k = rec.horizon // 2
    cases = {
        "load": perturb(rec, "served", k, rec.served[k] * (1 - 1e-6) - 1e-6),
        "brown": perturb(rec, "brown_energy", k, _bump(rec.brown_energy[k])),
        "electricity": perturb(rec, "electricity_cost", k, _bump(rec.electricity_cost[k])),
        "cost": perturb(rec, "cost", k, _bump(rec.cost[k])),
        "queue": perturb(rec, "queue", k, _bump(rec.queue[k])),
    }
    missed = []
    for name, bad in cases.items():
        if slot_checks(bad, inp)[name][k]:
            missed.append(name)
    return missed

"""Renewable-supply portfolios (paper section 2.2).

The paper's data center draws on three renewable sources:

* **On-site** generation ``r(t)`` (solar panels / wind turbines at the
  facility) directly offsets power draw within the slot: electricity cost
  and brown energy are computed on ``[p(t) - r(t)]^+``.
* **Off-site** generation ``f(t)`` (power purchasing agreements): fed into
  the grid elsewhere, it cannot power the servers but offsets brown energy
  in the carbon-neutrality ledger.
* **RECs** ``Z``: a fixed tradable credit purchased ahead of the budgeting
  period (see :mod:`repro.energy.rec`).

:class:`RenewablePortfolio` bundles the two traces and the REC total, plus
the constructors the experiments need: an on-site mix scaled to ~20% of a
consumption total, and an off-site/REC split of a carbon budget (the paper's
default budget is 40% off-site + 60% RECs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..traces.base import Trace
from ..traces.solar import solar_trace
from ..traces.wind import wind_trace

__all__ = ["RenewablePortfolio", "onsite_mix"]


def onsite_mix(
    horizon: int,
    *,
    solar_fraction: float = 0.6,
    seed: int = 7,
    rng: np.random.Generator | None = None,
) -> Trace:
    """A normalized on-site supply: convex mix of solar and wind shapes.

    The result has unit *total* energy; scale it with
    :meth:`Trace.scale_to_total` to a target share of consumption (the paper
    scales on-site supply to ~20% of total energy use).  A short horizon
    can draw a component with zero total (a calm wind window); that
    component's weight then goes to the other one.  Only when both are
    zero is there nothing to mix, and a ``ValueError`` says so.
    """
    if not 0.0 <= solar_fraction <= 1.0:
        raise ValueError("solar_fraction must be in [0, 1]")
    gen = rng if rng is not None else np.random.default_rng(seed)
    sol = solar_trace(horizon, rng=gen)
    wnd = wind_trace(horizon, rng=gen)
    if sol.total <= 0 and wnd.total <= 0:
        raise ValueError(
            f"on-site mix over {horizon} slot(s): both the solar and the "
            "wind draw have zero total energy"
        )
    if wnd.total <= 0:
        mixed = sol.scale_to_total(1.0).values
    elif sol.total <= 0:
        mixed = wnd.scale_to_total(1.0).values
    else:
        mixed = (
            solar_fraction * sol.scale_to_total(1.0).values
            + (1.0 - solar_fraction) * wnd.scale_to_total(1.0).values
        )
    return Trace(mixed, name="onsite-renewables", unit="MW")


@dataclass(frozen=True)
class RenewablePortfolio:
    """On-site trace, off-site trace, and REC total for a budgeting period.

    Attributes
    ----------
    onsite:
        ``r(t)`` in MW (slot energy MWh).
    offsite:
        ``f(t)`` in MW.
    recs:
        Total RECs ``Z`` in MWh purchased ahead of the period.
    """

    onsite: Trace
    offsite: Trace
    recs: float

    def __post_init__(self) -> None:
        if len(self.onsite) != len(self.offsite):
            raise ValueError("on-site and off-site traces must share a horizon")
        if self.recs < 0:
            raise ValueError("REC total must be non-negative")
        if self.onsite.values.min() < 0 or self.offsite.values.min() < 0:
            raise ValueError("renewable supply must be non-negative")

    @property
    def horizon(self) -> int:
        """Number of slots covered."""
        return len(self.onsite)

    @property
    def carbon_budget(self) -> float:
        """Total off-site energy plus RECs (MWh): the right-hand side of the
        neutrality constraint (10) before scaling by alpha."""
        return self.offsite.total + self.recs

    @property
    def offsite_fraction(self) -> float:
        """Share of the carbon budget supplied by off-site energy."""
        budget = self.carbon_budget
        return self.offsite.total / budget if budget > 0 else 0.0

    def with_budget_split(
        self, total_budget: float, offsite_fraction: float
    ) -> "RenewablePortfolio":
        """Rescale the off-site trace and REC total so that the carbon
        budget equals ``total_budget`` MWh with the given off-site share.

        This implements the paper's sensitivity knob: "with different
        combinations of off-site renewables and RECs (but with the same
        total amount), COCA achieves almost the same cost".
        """
        if total_budget < 0:
            raise ValueError("budget must be non-negative")
        if not 0.0 <= offsite_fraction <= 1.0:
            raise ValueError("offsite_fraction must be in [0, 1]")
        offsite_total = total_budget * offsite_fraction
        if offsite_total > 0 and self.offsite.total <= 0:
            raise ValueError("cannot scale a zero off-site trace to a total")
        new_offsite = (
            self.offsite.scale_to_total(offsite_total)
            if offsite_total > 0
            else self.offsite.scale(0.0)
        )
        return replace(
            self, offsite=new_offsite, recs=total_budget * (1.0 - offsite_fraction)
        )

    @classmethod
    def energy_capping(cls, horizon: int, cap: float) -> "RenewablePortfolio":
        """The paper's energy-capping variant (section 2.2, last paragraph):
        no on-site or off-site renewables; the REC parameter becomes the
        desired total electricity cap."""
        zero = Trace(np.zeros(horizon), name="zero", unit="MW")
        return cls(onsite=zero, offsite=zero, recs=cap)

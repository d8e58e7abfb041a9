"""The learning-augmented controller: COCA plus gated forecast advice.

:class:`AdvisedController` wraps a plain :class:`~repro.core.coca.COCA`
instance.  Every slot it first runs the wrapped controller verbatim -- the
*shadow* decision: plain COCA's per-slot decision on the committed path's
state -- then, when a trusted advice frame covers the slot, solves the
advised alternative (P3 at the advice multiplier) and lets the
:class:`~repro.advice.trust.TrustGuard` pick which action to commit.

The shadow is not an independent plain-COCA run: :meth:`observe` feeds
the *committed* outcome into the inner COCA, so after the first advised
slot its deficit queue follows the advised path, and the guard's
``(1+λ)`` budget certifies cumulative cost against these path-dependent
shadow decisions only.  Certifying against a separate plain-COCA lane is
open (ROADMAP item 3).

The wrapper preserves the repo's replay-determinism contract: the shadow
solve always happens first on the inner controller's own solver and state,
and the advised solve runs on a *separate* solver instance, so when advice
is absent, disabled, or never trusted the committed actions -- and every
derived record array -- are bit-identical to a plain COCA run.

Serving integration: :meth:`ingest_frame` accepts each resolved
:class:`~repro.serve.signals.SignalFrame` and forwards its optional
``forecast`` payload to a :class:`~repro.advice.forecast.FeedForecastProvider`;
a frame that arrives stale, synthesized, or without a payload simply
yields no advice window, so feed degradation lands on the plain-COCA
fallback path instead of stalling the slot loop.
"""

from __future__ import annotations

import numpy as np

from ..core.coca import COCA, default_solver
from ..core.controller import Controller, SlotObservation, SlotOutcome
from ..solvers.base import SlotSolution, SlotSolver
from ..solvers.degraded import solve_with_failed_groups
from ..solvers.problem import InfeasibleError
from .advisor import Advice, ForecastAdvisor
from .trust import TrustGuard

__all__ = ["AdvisedController"]

#: Fields scored for realized forecast error, with the floor applied to
#: each denominator (so near-zero actuals do not blow the error up).
_ERROR_FIELDS = ("arrival", "onsite", "price")
_ERROR_FLOOR = 1e-3


class AdvisedController(Controller):
    """COCA with untrusted forecast advice and a certified fallback.

    Parameters
    ----------
    inner:
        The plain COCA instance to wrap (and to fall back to).
    advisor:
        Advice source; ``None`` makes the wrapper a transparent shell
        around ``inner`` (useful for differential tests).
    guard:
        Trust policy; defaults to a :class:`TrustGuard` with λ = 0.25.
    advice_solver:
        P3 engine for advised solves.  Defaults to a fresh
        :func:`~repro.core.coca.default_solver` instance -- deliberately
        *not* the inner controller's solver, so advised solves cannot
        perturb the shadow path's state.
    """

    def __init__(
        self,
        inner: COCA,
        *,
        advisor: ForecastAdvisor | None = None,
        guard: TrustGuard | None = None,
        advice_solver: SlotSolver | None = None,
    ) -> None:
        self.inner = inner
        self.advisor = advisor
        self.guard = guard if guard is not None else TrustGuard()
        self._advice_solver = (
            advice_solver if advice_solver is not None else default_solver(inner.model)
        )
        self._advice: Advice | None = None
        self._frame_started = -1
        self._prev_committed_on: np.ndarray | None = None
        self._failed: frozenset[int] = frozenset()
        self._injector = None
        self._horizon = inner.portfolio.horizon

    # ------------------------------------------------------------------
    @property
    def model(self):
        return self.inner.model

    @property
    def solver(self):
        """The shadow path's P3 engine (what fault injection wires into)."""
        return self.inner.solver

    @property
    def queue_at_decision(self) -> list[float]:
        return self.inner.queue_at_decision

    @property
    def v_history(self) -> list[float]:
        return self.inner.v_history

    def bind_telemetry(self, telemetry) -> None:
        # The advice solver stays unbound on purpose: advised solves are
        # tentative (committed only when trusted), and their engine events
        # would double-count the slot's solve attribution.
        super().bind_telemetry(telemetry)
        self.inner.bind_telemetry(telemetry)

    def attach_injector(self, injector) -> None:
        """Route advice windows through the fault injector's forecast
        degradation (called by the simulator when chaos is active)."""
        self._injector = injector

    def set_failed_groups(self, failed: frozenset[int]) -> None:
        self._failed = frozenset(failed)
        self.inner.set_failed_groups(failed)

    def set_solve_deadline(self, budget_ms: float | None) -> None:
        self.inner.set_solve_deadline(budget_ms)
        if hasattr(self._advice_solver, "deadline_ms"):
            self._advice_solver.deadline_ms = budget_ms

    # ------------------------------------------------------------------
    def start(self, environment) -> None:
        self.inner.start(environment)
        if self.advisor is not None and environment.horizon != self.advisor.horizon:
            raise ValueError(
                f"advisor horizon {self.advisor.horizon} does not match "
                f"environment horizon {environment.horizon}"
            )
        if self.telemetry.enabled:
            guard = self.guard
            self.telemetry.emit(
                "advice.config",
                controller=self.name(),
                lam=guard.lam,
                error_threshold=guard.error_threshold,
                regret_threshold=guard.regret_threshold,
                distrust_after=guard.distrust_after,
                trust_after=guard.trust_after,
                initial_trust=guard.initial_trust,
                frame_length=None if self.advisor is None else self.advisor.frame_length,
                provider=None if self.advisor is None else self.advisor.provider.describe(),
            )
            self.telemetry.metrics.gauge("advice.trusted").set(1.0 if guard.trusted else 0.0)

    def decide(self, observation: SlotObservation) -> SlotSolution:
        # Shadow first, on the inner controller's own state: this line is
        # byte-for-byte what a plain COCA run would execute this slot.
        shadow = self.inner.decide(observation)
        if self.advisor is None:
            self._prev_committed_on = shadow.action.on_counts(self.model.fleet)
            return shadow

        t = observation.t
        T = self.advisor.frame_length
        frame = t // T
        if t % T == 0 and frame != self._frame_started:
            self._refresh_advice(t)
            self._frame_started = frame
        # History feedback happens after the frame's window was produced,
        # so causal providers never see the slot they are predicting.
        self.advisor.provider.record_observation(observation)

        advice = self._advice
        error: float | None = None
        advised: SlotSolution | None = None
        if advice is not None and advice.covers(t):
            error = self._window_error(advice, observation)
            advised = self._advised_solve(observation, advice.mu)

        advised_cost = None if advised is None else advised.evaluation.cost
        before = len(self.guard.transitions)
        use_advice = self.guard.assess(
            t,
            error=error,
            advised_cost=advised_cost,
            shadow_cost=shadow.evaluation.cost,
            has_advice=advised is not None,
        )
        committed = advised if use_advice and advised is not None else shadow
        self._prev_committed_on = committed.action.on_counts(self.model.fleet)

        tele = self.telemetry
        if tele.enabled:
            if len(self.guard.transitions) > before:
                at, trusted = self.guard.transitions[-1]
                tele.emit("advice.transition", t=int(at), trusted=bool(trusted))
                tele.metrics.counter("advice.transitions").inc()
            tele.emit(
                "advice.decision",
                t=t,
                used=use_advice,
                trusted=self.guard.trusted,
                has_advice=advised is not None,
                error=error,
                error_ewma=self.guard.error_ewma,
                advised_cost=advised_cost,
                shadow_cost=shadow.evaluation.cost,
                cost_ratio=self.guard.cost_ratio,
                mu=None if advice is None else advice.mu,
            )
            tele.metrics.counter(
                "advice.advised_slots" if use_advice else "advice.fallback_slots"
            ).inc()
            tele.metrics.gauge("advice.trusted").set(1.0 if self.guard.trusted else 0.0)
        return committed

    def _refresh_advice(self, t: int) -> None:
        provider = self.advisor.provider
        window = provider.window(t, self.advisor.frame_length)
        degraded = False
        if window is not None and self._injector is not None:
            fields = window.as_fields()
            out = self._injector.degrade_forecast(t, fields)
            if out is None:
                window = None  # dropout: the forecast is lost entirely
                degraded = True
            elif out is not fields:
                from .forecast import ForecastWindow

                window = ForecastWindow.from_fields(t, out)
                degraded = True
        self._advice = None if window is None else self.advisor.advise(t, window)
        if self.telemetry.enabled:
            advice = self._advice
            self.telemetry.emit(
                "advice.frame",
                t=t,
                has_advice=advice is not None,
                degraded=degraded,
                mu=None if advice is None else advice.mu,
                feasible=None if advice is None else advice.feasible,
                planned_cost=None if advice is None else advice.planned_cost,
                budget=None if advice is None else advice.budget,
            )
            if advice is None:
                self.telemetry.metrics.counter("advice.frames_skipped").inc()
            else:
                self.telemetry.metrics.counter("advice.frames_advised").inc()

    def _window_error(self, advice: Advice, observation: SlotObservation) -> float:
        """Mean relative error of the frame's forecast at this slot."""
        i = observation.t - advice.start
        window = advice.window
        actuals = {
            "arrival": observation.arrival_rate,
            "onsite": observation.onsite,
            "price": observation.price,
        }
        total = 0.0
        for name in _ERROR_FIELDS:
            actual = float(actuals[name])
            predicted = float(getattr(window, name)[i])
            total += abs(predicted - actual) / max(abs(actual), _ERROR_FLOOR)
        return total / len(_ERROR_FIELDS)

    def _advised_solve(
        self, observation: SlotObservation, mu: float
    ) -> SlotSolution | None:
        problem = self.model.slot_problem(
            arrival_rate=observation.arrival_rate,
            onsite=observation.onsite,
            price=observation.price,
            network_delay=observation.network_delay,
            pue_override=observation.pue,
            q=mu,
            V=1.0,
            prev_on_counts=self._prev_committed_on,
        )
        try:
            if self._failed:
                return solve_with_failed_groups(self._advice_solver, problem, self._failed)
            return self._advice_solver.solve(problem)
        except InfeasibleError:
            return None

    # ------------------------------------------------------------------
    def on_fallback(self, observation: SlotObservation, solution: SlotSolution) -> None:
        self.inner.on_fallback(observation, solution)
        self._prev_committed_on = solution.action.on_counts(self.model.fleet)
        if self.advisor is not None:
            # Keep causal forecast history aligned with the slot index.
            self.advisor.provider.record_observation(observation)

    def observe(self, outcome: SlotOutcome) -> None:
        self.inner.observe(outcome)
        if self.advisor is not None:
            self.advisor.provider.record_offsite(outcome.offsite)
        if self.telemetry.enabled and outcome.t == self._horizon - 1:
            self.telemetry.emit("advice.summary", **self.guard.summary())

    # ------------------------------------------------------------ serving
    def ingest_frame(self, frame) -> None:
        """Feed hook: forward a resolved signal frame's forecast payload to
        a feed-backed provider (no-op for every other provider kind)."""
        if self.advisor is None:
            return
        ingest = getattr(self.advisor.provider, "ingest", None)
        if ingest is not None:
            ingest(getattr(frame, "forecast", None))

    def status_dict(self) -> dict:
        status = self.inner.status_dict()
        status["advice"] = {
            "enabled": self.advisor is not None,
            "trusted": self.guard.trusted,
            "lam": self.guard.lam,
            "cost_ratio": self.guard.cost_ratio,
            "advised_slots": self.guard.advised_slots,
            "fallback_slots": self.guard.fallback_slots,
            "error_ewma": self.guard.error_ewma,
        }
        return status

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        from ..state.serialize import encode_array

        provider_state = None
        if self.advisor is not None:
            get = getattr(self.advisor.provider, "state_dict", None)
            provider_state = get() if get is not None else None
        return {
            "inner": self.inner.state_dict(),
            "guard": self.guard.state_dict(),
            "frame_started": int(self._frame_started),
            "advice": None if self._advice is None else self._advice.to_dict(),
            "prev_committed_on": encode_array(self._prev_committed_on),
            "failed": sorted(self._failed),
            "advice_solver": self._advice_solver.state_dict(),
            "provider": provider_state,
        }

    def load_state_dict(self, state: dict) -> None:
        from ..state.serialize import decode_array

        self.inner.load_state_dict(state["inner"])
        self.guard.load_state_dict(state["guard"])
        self._frame_started = int(state["frame_started"])
        advice = state["advice"]
        self._advice = None if advice is None else Advice.from_dict(advice)
        self._prev_committed_on = decode_array(state["prev_committed_on"])
        self._failed = frozenset(int(g) for g in state["failed"])
        self._advice_solver.load_state_dict(state["advice_solver"])
        if self.advisor is not None and state.get("provider") is not None:
            load = getattr(self.advisor.provider, "load_state_dict", None)
            if load is not None:
                load(state["provider"])

    def name(self) -> str:
        return "COCA+advice"

"""Layer-by-layer tracing from outside the program.

The traced round wraps public calls of each layer (the table in
README.md) with a span recorder.  Spans are parent-linked, kept in memory
and written out once when the round ends; a layer's self time is its span
time minus the time of its traced children.  Nothing under ``src/`` is
modified: the wrappers replace module and class attributes in this process
only, and :meth:`Patches.restore` puts the originals back before the
output checks run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, name: str, wrapper_of) -> None:
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, wrapper_of(orig))

    def function(self, module: str, name: str, wrapper_of) -> None:
        """Replace a module-level function everywhere ``repro`` imported it."""
        orig = getattr(importlib.import_module(module), name)
        wrapped = wrapper_of(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo.clear()


class SpanRecorder:
    """Parent-linked spans in flat lists (one entry per traced call)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]

    def wrapper(self, name: str, on_return=None):
        """A decorator factory: the wrapped call becomes a span ``name``;
        ``on_return(args, result)`` sees each call's result."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = len(names)
                names.append(name)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    stack.pop()
                if on_return is not None:
                    on_return(args, result)
                return result

            return traced

        return wrap

    # ------------------------------------------------------------ analysis
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

        A span nested inside a span of the same name (a layer calling
        itself) adds to ``calls`` but not again to ``s``.
        """
        dur = self.durations()
        names, parents = self.names, self.parents
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                row["s"] += dur[i]
        return out

    def under(self, name: str, ancestor: str) -> tuple[int, float]:
        """Calls and inclusive seconds of ``name`` spans nested (at any
        depth) inside an ``ancestor`` span."""
        calls, total = 0, 0.0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            if p >= 0:
                calls += 1
                total += self.ends[i] - self.starts[i]
        return calls, total

    def root_seconds(self) -> float:
        """Wall time covered by spans without a traced parent."""
        return sum(
            e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0
        )

    def write(self, path: str) -> None:
        """Write every span as one JSON line (once, at the end of a round)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parents[i],
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                        }
                    )
                    + "\n"
                )


class LayerTrace:
    """Installs the span wrappers of every layer and reduces them to the
    per-layer metrics."""

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        self.patches = Patches()
        self.gsd = {"inner_solves": 0, "cache_hits": 0, "evaluations": 0}
        self.state = {"writes": 0, "bytes": 0, "last_bytes": 0}
        self.frames = 0
        self.advised = []

    def install(self) -> None:
        # Modules the command imports lazily are imported here, so their
        # names exist before they are wrapped.
        import repro.advice
        import repro.analysis
        import repro.monitor
        import repro.serve
        import repro.solvers.batched
        import repro.state
        from repro.advice import AdvisedController, ForecastAdvisor
        from repro.baselines import CarbonUnaware
        from repro.core import COCA, DataCenterModel
        from repro.monitor.suite import MonitorSuite
        from repro.serve import (
            FrameJournal,
            LiveEnvironment,
            ReplaySignalSource,
            StalenessResolver,
        )
        from repro.sim.engine import SlotRunner
        from repro.solvers import GSDSolver, HomogeneousEnumerationSolver, SlotProblem
        from repro.state import CheckpointWriter
        from repro.telemetry import Telemetry
        from repro.telemetry.metrics import Histogram

        span, p = self.spans.wrapper, self.patches
        for module, name in (
            ("repro.traces.workload_fiu", "fiu_workload"),
            ("repro.traces.workload_msr", "msr_workload"),
            ("repro.traces.price", "price_trace"),
            ("repro.energy.renewables", "onsite_mix"),
        ):
            p.function(module, name, span("traces"))
        p.function("repro.scenarios", "paper_scenario", span("scenarios.build"))
        p.function("repro.solvers.batch", "batch_enumerate", span("batch.enumerate"))
        p.function("repro.analysis.sweep", "find_neutral_v", span("analysis.v_search"))
        p.function("repro.sim.engine", "simulate", span("sim.simulate"))
        p.function("repro.sim.engine", "realize_action", span("sim.realize"))
        p.method(SlotRunner, "step", span("sim.step"))
        p.method(CarbonUnaware, "decide", span("baselines.unaware"))
        p.method(COCA, "decide", span("core.decide"))
        p.method(COCA, "observe", span("core.observe"))
        p.method(DataCenterModel, "slot_problem", span("core.slot_problem"))
        p.method(HomogeneousEnumerationSolver, "solve", span("solvers.enum"))
        p.method(SlotProblem, "check_feasible", span("solvers.feasible"))
        p.method(SlotProblem, "evaluate", span("solvers.evaluate"))
        p.method(GSDSolver, "solve", span("solvers.gsd", self._on_gsd))
        p.function("repro.solvers.load_distribution", "distribute_load", span("solvers.fill"))
        p.function("repro.solvers.batched", "distribute_load_batch", span("solvers.fill"))
        p.method(CheckpointWriter, "maybe_write", span("state.checkpoint", self._on_checkpoint))
        p.method(SlotRunner, "capture", span("state.capture"))
        p.function("repro.state.checkpoint", "dumps_checkpoint", span("state.serialize"))
        p.function("repro.state.atomic", "atomic_write_bytes", span("state.durable"))
        p.method(ReplaySignalSource, "poll", span("serve.poll"))
        p.method(StalenessResolver, "resolve", span("serve.resolve", self._on_frame))
        p.method(LiveEnvironment, "append", span("serve.journal"))
        p.method(FrameJournal, "append", span("serve.journal"))
        p.method(MonitorSuite, "observe", span("monitor.observe"))
        p.method(MonitorSuite, "finalize", span("monitor.finalize"))
        p.method(Telemetry, "emit", span("telemetry.emit"))
        p.method(Histogram, "percentile", span("telemetry.percentile"))
        p.method(AdvisedController, "decide", span("advice.decide", self._on_advised))
        p.method(ForecastAdvisor, "advise", span("advice.plan"))

    def restore(self) -> None:
        self.patches.restore()

    # ------------------------------------------------------------ hooks
    def _on_gsd(self, args, solution) -> None:
        fp = solution.info.get("fastpath") or {}
        for key in self.gsd:
            self.gsd[key] += int(fp.get(key, 0))

    def _on_checkpoint(self, args, path) -> None:
        if path is None:
            return
        size = os.path.getsize(path)
        self.state["writes"] += 1
        self.state["bytes"] += size
        self.state["last_bytes"] = size

    def _on_frame(self, args, frame) -> None:
        self.frames += 1

    def _on_advised(self, args, solution) -> None:
        controller = args[0]
        if not any(c is controller for c in self.advised):
            self.advised.append(controller)

    # ------------------------------------------------------------ metrics
    def metrics(self, *, import_s: float, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced round, in seconds and counts.

        ``import_s`` (timed before the wrappers were installed) is owned by
        the import layer; ``trace.unattributed_share`` is the part of
        ``wall_s`` owned by no traced layer.
        """
        rows = self.spans.summarize()

        def s(name):
            return rows.get(name, {}).get("s", 0.0)

        def self_s(name):
            return rows.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return rows.get(name, {}).get("calls", 0)

        sims, _ = self.spans.under("sim.simulate", "analysis.v_search")
        _, durable = self.spans.under("state.durable", "state.checkpoint")
        guard = [c.guard.summary() for c in self.advised]
        gsd = self.gsd
        owned = import_s + self.spans.root_seconds()
        return {
            "import.s": import_s,
            "traces.s": s("traces"),
            "traces.calls": calls("traces"),
            "scenarios.build_s": s("scenarios.build"),
            "batch.enumerate_s": s("batch.enumerate"),
            "batch.enumerate_calls": calls("batch.enumerate"),
            "analysis.v_search_s": s("analysis.v_search"),
            "analysis.v_search_sims": sims,
            "baselines.unaware_s": s("baselines.unaware"),
            "sim.slots": calls("sim.step"),
            "sim.step_s": s("sim.step"),
            "sim.step_self_s": self_s("sim.step"),
            "sim.realize_s": s("sim.realize"),
            "core.decide_s": s("core.decide"),
            "core.decide_self_s": self_s("core.decide"),
            "core.decide_calls": calls("core.decide"),
            "core.slot_problem_s": s("core.slot_problem"),
            "core.slot_problem_calls": calls("core.slot_problem"),
            "core.observe_s": s("core.observe"),
            "solvers.enum_s": s("solvers.enum"),
            "solvers.enum_calls": calls("solvers.enum"),
            "solvers.feasible_s": s("solvers.feasible"),
            "solvers.evaluate_s": s("solvers.evaluate"),
            "solvers.evaluate_calls": calls("solvers.evaluate"),
            "solvers.gsd_s": s("solvers.gsd"),
            "solvers.gsd_calls": calls("solvers.gsd"),
            "solvers.gsd_inner_solves": gsd["inner_solves"],
            "solvers.gsd_cache_hit_ratio": (
                gsd["cache_hits"] / gsd["evaluations"] if gsd["evaluations"] else 0.0
            ),
            "solvers.fill_s": s("solvers.fill"),
            "solvers.fill_calls": calls("solvers.fill"),
            "state.writes": self.state["writes"],
            "state.checkpoint_s": s("state.checkpoint"),
            "state.capture_s": s("state.capture"),
            "state.serialize_s": s("state.serialize"),
            "state.durable_s": durable,
            "state.bytes": self.state["bytes"],
            "state.last_kb": self.state["last_bytes"] / 1000.0,
            "serve.frames": self.frames,
            "serve.poll_s": s("serve.poll"),
            "serve.resolve_s": s("serve.resolve"),
            "serve.journal_s": s("serve.journal"),
            "monitor.events": calls("monitor.observe"),
            "monitor.observe_s": s("monitor.observe"),
            "monitor.finalize_s": s("monitor.finalize"),
            "telemetry.events": calls("telemetry.emit"),
            "telemetry.emit_s": s("telemetry.emit"),
            "telemetry.percentile_calls": calls("telemetry.percentile"),
            "telemetry.percentile_s": s("telemetry.percentile"),
            "advice.decide_s": s("advice.decide"),
            "advice.decide_self_s": self_s("advice.decide"),
            "advice.plans": calls("advice.plan"),
            "advice.plan_s": s("advice.plan"),
            "advice.advised_slots": sum(g["advised_slots"] for g in guard),
            "advice.budget_blocks": sum(g["budget_blocks"] for g in guard),
            "trace.unattributed_share": max(0.0, 1.0 - owned / wall_s),
        }

"""One round of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object as its last line.  The process
clock starts on the first statement, before ``repro`` is imported, so
``setup_s`` and ``wall_s`` include the package import.

Untraced rounds carry one instrument: a pair of clock reads around each
``SlotRunner.step``.  The first of them marks the end of set-up.  (The
round also keeps the records ``SlotRunner.finish`` returns, for the
output checks.)  Traced rounds add the layer wrappers of ``layers.py``.
The output checks run after the command has returned and are not timed.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    t_import = perf_counter()
    import repro.cli  # noqa: F401

    import_s = perf_counter() - t_import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")

    import workloads
    from layers import Patches
    from repro.sim.engine import SlotRunner

    slot_starts: list[float] = []
    slot_ends: list[float] = []
    finished: list = []

    def clocked_step(step):
        def step_with_clock(self, t):
            slot_starts.append(perf_counter())
            step(self, t)
            slot_ends.append(perf_counter())

        return step_with_clock

    def keep_record(finish):
        def finish_and_keep(self):
            record = finish(self)
            finished.append(record)
            return record

        return finish_and_keep

    probes = Patches()
    probes.method(SlotRunner, "step", clocked_step)
    probes.method(SlotRunner, "finish", keep_record)
    trace = None
    if args.trace:
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install()

    workloads.run_command(args.workload, args.seed, args.work_dir)
    t_end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        trace.restore()
    probes.restore()
    if not slot_starts:
        raise SystemExit("no SlotRunner.step call observed; set-up end is undefined")

    import verify

    outcome = verify.verify(args.workload, args.seed, args.work_dir, finished)
    result = {
        "setup_s": slot_starts[0] - T0,
        "wall_s": t_end - T0,
        "import_s": import_s,
        "slots": workloads.horizon(args.workload),
        "slot_s": [e - s for s, e in zip(slot_starts, slot_ends)],
        "cost_usd_h": outcome.cost_usd_h,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "self_test_missed": outcome.self_test_missed,
    }
    if trace is not None:
        layer = trace.metrics(import_s=import_s, wall_s=result["wall_s"])
        layer["solvers.gsd_gap"] = outcome.gsd_gap
        result["layers"] = layer
        if args.spans_out:
            trace.spans.write(args.spans_out)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: set up, say "ready", run whole passes, report as JSON.

Run by ``run.py``; each workload runs in a fresh process like this one, as a
single client in a closed loop (one query at a time, no threads or pools).

    python3 perfbench/worker.py --workload bounds --seed 1 --passes 3 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
LAUNCHER = os.path.join(HERE, "launcher.py")


def run_passes(workload, passes: int, probe, tracer=None) -> dict:
    """Run the query list ``passes`` times; time each call, then check it.

    Times are net of the speed probe's interruptions, and are also given
    scaled to the reference speed ("scaled").
    """
    latencies: list[list[float]] = []
    scaled: list[list[float]] = []
    failures: list[str] = []
    for _ in range(passes):
        workload.state.clear()
        times, times_scaled = [], []
        for index, query in enumerate(workload.queries):
            if tracer is not None:
                tracer.query_id = len(latencies) * len(workload.queries) + index
            spent = probe.spent
            start = time.perf_counter()
            try:
                result = query.run()
                ok = True
            except Exception as exc:  # a failed query is counted, not fatal
                result, ok = exc, False
            end = time.perf_counter()
            times.append(end - start - (probe.spent - spent))
            times_scaled.append(times[-1] * probe.scale(start, end))
            if tracer is not None:
                tracer.active = False
            try:
                ok = ok and bool(query.check(result))
            except Exception:
                ok = False
            if tracer is not None:
                tracer.active = True
            if not ok:
                failures.append(f"{query.label}: {result!r}"[:300])
        latencies.append(times)
        scaled.append(times_scaled)
    workload.state.clear()
    return {"labels": [q.label for q in workload.queries], "latencies": latencies,
            "scaled": scaled, "attempted": passes * len(workload.queries),
            "failed": len(failures), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The worker and the command-line children it starts share one core, so
    # that the speed probe times the core the queries run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import speed
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    spans_dir = workdir if args.trace and args.workload == "cli" else None
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, workdir, LAUNCHER, spans_dir)
        print("ready", flush=True)
        # The parent scales the setup time by the speed measured right after it.
        print(f"reference {speed.reference_now()!r}", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:  # after set-up, whose library calls are not queries
            tracer = tracing.Tracer()
            tracing.install(tracer)
        with speed.SpeedProbe() as probe:
            report = run_passes(workload, args.passes, probe, tracer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        report["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        report["queries"] = len(workload.queries)
        if tracer is not None:
            if spans_dir:
                for name in sorted(os.listdir(spans_dir)):  # q<index>.<pass>.tsv
                    if name.startswith("q") and name.endswith(".tsv"):
                        index, pass_ = map(int, name[1:-4].split("."))
                        query_id = pass_ * len(workload.queries) + index
                        tracer.absorb(os.path.join(spans_dir, name), query_id)
            tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.tsv.gz"))
            report["layers"] = tracer.layer_totals()
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

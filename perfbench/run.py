"""The blockperm benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload graph --seed 1 --seconds 20 --trace 0

Workloads are ``graph``, ``codes``, ``bounds`` and ``cli`` (see workloads.py
and README.md).  Each runs in a fresh worker process as one client in a closed
loop.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` an untraced and a traced worker run the same passes and the
per-layer metrics come from the traced one.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import speed
from launcher import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("graph", "codes", "bounds", "cli")

#: single-pass seconds on a 2-core Xeon, used to size a run to --seconds
NOMINAL_PASS_S = {"graph": 17.5, "codes": 9.2, "bounds": 1.0, "cli": 11.7}

#: fresh processes that only set up; setup_s is their median with the main worker's
SETUP_PROBES = 6

#: a run must end well within the 180 s the harness allows
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("correct_frac", "fraction"),
)

#: traced layer -> the stats reported for it
LAYERS = {
    "perm.block_distance": ("calls", "self_s"),
    "perm.distance_by_definition": ("calls", "self_s"),
    "perm.char_set": ("calls", "self_s"),
    "enumeration.enumerate_spheres": ("calls", "self_s", "perms_scanned"),
    "enumeration.ball_size_exact": ("calls", "self_s"),
    "enumeration.myers_count": ("calls", "self_s"),
    "enumeration.ball_size_bounds": ("calls", "self_s"),
    "constructions.syndrome_classes": ("calls", "self_s", "perms_scanned"),
    "constructions.syndrome_class": ("calls", "self_s", "perms_scanned"),
    "constructions.largest_syndrome_class": ("calls", "self_s"),
    "constructions.ham_decomp_code": ("calls", "self_s"),
    "constructions.in_syndrome_class": ("calls", "self_s"),
    "constructions.verify_min_distance": ("calls", "self_s", "word_pairs"),
    "constructions.families": ("calls", "self_s"),
    "bounds.bound_report": ("calls", "self_s"),
    "bounds.gv_lower": ("calls", "self_s"),
    "bounds.sp_upper": ("calls", "self_s"),
    "bounds.new_upper": ("calls", "self_s"),
    "bounds.table1": ("calls", "self_s"),
    "graph.build_graph": ("calls", "self_s"),
    "graph.graph_on": ("calls", "self_s", "vertex_pairs", "edges"),
    "graph.exact_independent_set": ("calls", "self_s", "vertices"),
    "graph.neighborhood_stats": ("calls", "self_s"),
    "graph.greedy_independent_set": ("calls", "self_s"),
    **{f"selftest.criterion_{k}": ("self_s",) for k in range(1, 11)},
}

SUBCOMMANDS = ("dist", "charset", "spheres", "ball", "construct", "verify", "bounds", "graph",
               "selftest")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in order."""
    metrics = [(f"{layer}.{stat}", "s" if stat == "self_s" else "count")
               for layer, stats in LAYERS.items() for stat in stats]
    metrics += [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    metrics += [(f"cli.{sub}.p50_ms", "ms") for sub in SUBCOMMANDS]
    metrics.append(("trace.overhead_s", "s"))
    return metrics


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def left(self) -> float:
        left = self.at - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


class Setup(NamedTuple):
    raw_s: float  # process start to "ready"
    scaled_s: float  # the same at the reference speed measured right after it


def spawn_worker(workload: str, seed: int, passes: int, trace: int, deadline: Deadline,
                 setup_only: bool = False) -> tuple[Setup, dict | None]:
    """Start a worker; return its setup time (start to "ready") and its report."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    left = deadline.left()
    start = time.perf_counter()
    # A session of its own, so that a stop also ends the command-line children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(ROOT),
                            cwd=ROOT, start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(left, stop)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        reference = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            stop()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or not reference.startswith("reference ") or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[1:])} failed with exit code {code}")
    setup = Setup(setup_s, setup_s * speed.REF_S / float(reference.split()[1]))
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples above it, which is the
    11th largest sample (nearest rank).  Returns (value, percentile, samples
    above)."""
    ordered = sorted(samples)
    above = min(10, len(ordered) - 1)
    rank = len(ordered) - above
    return ordered[rank - 1], 100 * rank / len(ordered), above


def timings(passes: list[list[float]], setups: list[float]) -> dict:
    pooled = [t for times in passes for t in times]
    value, level, above = tail(pooled)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(times) for times in passes),
        "query_p50_ms": statistics.median(pooled) * 1e3,
        "query_tail_ms": value * 1e3,
        "tail_percentile": level, "tail_samples": len(pooled), "tail_samples_above": above,
    }


def end_to_end(report: dict, setups: list[Setup]) -> tuple[dict, dict]:
    """Metrics at the reference speed, and a record holding the raw times too."""
    metrics = timings(report["scaled"], [s.scaled_s for s in setups])
    extra = {k: metrics.pop(k) for k in ("tail_percentile", "tail_samples",
                                         "tail_samples_above")}
    metrics["peak_rss_mb"] = report["peak_rss_kb"] / 1024
    metrics["correct_frac"] = 1 - report["failed"] / report["attempted"]
    raw = timings(report["latencies"], [s.raw_s for s in setups])
    extra["raw"] = {k: raw[k] for k in ("setup_s", "wall_s", "query_p50_ms", "query_tail_ms")}
    return metrics, extra


def _median_ms(cmd: list[str], runs: int = 5, printed: bool = False) -> float:
    """Median wall time of fresh processes, or of the seconds they print."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(ROOT),
                             cwd=ROOT, timeout=60, check=True).stdout
        times.append(float(out) if printed else time.perf_counter() - start)
    return statistics.median(times) * 1e3


def per_layer(workload: str, base: dict, traced: dict, passes: int) -> dict:
    layers = traced["layers"]
    metrics = {}
    for layer, stats in LAYERS.items():
        for stat in stats:
            metrics[f"{layer}.{stat}"] = layers.get(layer, {}).get(stat, 0) / passes
    metrics["cli.interpreter_ms"] = _median_ms([sys.executable, "-c", "pass"])
    metrics["cli.import_ms"] = _median_ms(
        [sys.executable, "-c", "import time; t = time.perf_counter(); import blockperm.cli; "
                               "print(time.perf_counter() - t)"], printed=True)
    by_sub: dict[str, list[float]] = {}
    if workload == "cli":
        for times in base["latencies"]:
            for label, t in zip(base["labels"], times):
                by_sub.setdefault(label.split()[0], []).append(t)
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(by_sub.get(sub, [0.0])) * 1e3
    walls = [statistics.median(sum(t) for t in r["scaled"]) for r in (traced, base)]
    metrics["trace.overhead_s"] = walls[0] - walls[1]
    return metrics


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "system": platform.system()}


def commit() -> str | None:
    """HEAD of the source checkout, when it is a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "blockperm", "__init__.py")):
        print(f"error: no blockperm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    deadline = Deadline(DEADLINE_S)
    nominal = NOMINAL_PASS_S[args.workload]
    try:
        if args.trace:
            passes = max(1, round(args.seconds / 2 / nominal))
            _, base = spawn_worker(args.workload, args.seed, passes, 0, deadline)
            _, traced = spawn_worker(args.workload, args.seed, passes, 1, deadline)
            metrics = per_layer(args.workload, base, traced, passes)
            units = dict(per_layer_metrics())
            reports, extra = (base, traced), {}
        else:
            passes = max(2, round(args.seconds / nominal))
            setups = [spawn_worker(args.workload, args.seed, 0, 0, deadline, setup_only=True)[0]
                      for _ in range(SETUP_PROBES)]
            setup_s, report = spawn_worker(args.workload, args.seed, passes, 0, deadline)
            metrics, extra = end_to_end(report, setups + [setup_s])
            units = dict(END_TO_END)
            reports = (report,)
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes, "queries_per_pass": reports[0]["queries"],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": [f for r in reports for f in r["failures"]][:20],
        "commit": commit(), "machine": machine(), **extra,
    }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if "tail_percentile" in extra:
        print(f"query_tail_ms is p{extra['tail_percentile']:.4g} of {extra['tail_samples']} "
              f"samples, {extra['tail_samples_above']} above it")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

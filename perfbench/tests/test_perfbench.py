"""Tests of the benchmark itself (not of blockperm).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from launcher import child_env  # noqa: E402
from worker import run_passes  # noqa: E402


def _build(name, seed, tmp_path):
    return workloads.build(name, seed, ROOT, str(tmp_path), os.path.join(BENCH, "launcher.py"))


def _small(name, tmp_path):
    """A cheap prefix or tail of a workload whose queries only use each other."""
    w = _build(name, 1, tmp_path)
    if name == "graph":
        w.queries = w.queries[:15]  # the n = 5 graphs
    elif name == "codes":
        first = next(i for i, q in enumerate(w.queries) if q.label.startswith("even_n_code"))
        w.queries = w.queries[first:]
    return w


def _answers(w):
    out = []
    for query in w.queries:
        result = query.run()
        assert query.check(result), query.label
        out.append(result)
    w.state.clear()
    return out


@pytest.mark.parametrize("name", ["graph", "codes", "bounds"])
def test_wrapped_and_unwrapped_calls_give_identical_answers(name, tmp_path):
    w = _small(name, tmp_path)
    plain = _answers(w)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = _answers(w)
    finally:
        uninstall()
    assert traced == plain
    totals = tracer.layer_totals()
    assert totals and all(t["calls"] > 0 and t["self_s"] >= 0 for t in totals.values())
    import blockperm
    assert not hasattr(blockperm.build_graph, "__wrapped__")


def test_wrappers_reach_every_namespace_that_binds_a_function():
    import blockperm
    from blockperm import bounds, cli, enumeration, selftest
    uninstall = tracing.install(tracing.Tracer())
    try:
        wrapped = [blockperm.ball_size_exact, enumeration.ball_size_exact, bounds.ball_size_exact,
                   cli.ball_size_exact, *selftest.CRITERIA]
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
    finally:
        uninstall()
    assert not hasattr(bounds.ball_size_exact, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("t.inner", lambda: sum(range(200_000)))
    outer = tracer.wrap("t.outer", lambda: inner() + inner())
    outer()
    totals = tracer.layer_totals()
    duration = tracer.end[0] - tracer.start[0]
    assert totals["t.inner"]["calls"] == 2
    assert totals["t.outer"]["self_s"] + totals["t.inner"]["self_s"] == pytest.approx(duration)
    assert totals["t.outer"]["self_s"] < totals["t.inner"]["self_s"]


def test_corrupted_expected_value_shows_in_failed_frac(tmp_path, monkeypatch):
    w = _build("bounds", 1, tmp_path)
    w.queries = w.queries[-3:]
    assert [q.label for q in w.queries][1:] == ["table1()", "table1_deviations()"]
    monkeypatch.setattr(workloads, "PINNED_TABLE1_DEVIATION", "(18,11): no deviation")
    with speed.SpeedProbe() as probe:
        report = run_passes(w, 2, probe)
    report["peak_rss_kb"] = 1024
    metrics, _ = run.end_to_end(report, [run.Setup(0.1, 0.1)])
    assert report["failed"] == 2 and report["attempted"] == 6
    assert metrics["correct_frac"] == 1 - 2 / 6
    assert all(f.startswith("table1_deviations()") for f in report["failures"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seeds_change_inputs_but_not_query_count(name, tmp_path):
    for sub in ("one", "two", "again"):
        (tmp_path / sub).mkdir()
    one = _build(name, 1, tmp_path / "one")
    two = _build(name, 2, tmp_path / "two")
    again = _build(name, 1, tmp_path / "again")
    assert len(one.queries) == len(two.queries)
    assert one.inputs == again.inputs
    if name == "bounds":  # nothing random: the tables are fixed
        assert one.inputs == two.inputs == {}
    else:
        assert one.inputs.keys() == two.inputs.keys()
        assert all(one.inputs[k] != two.inputs[k] for k in one.inputs)


def test_traced_cli_child_writes_spans(tmp_path):
    spans = tmp_path / "q0.0.tsv"
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "launcher.py"), "dist", "1 2 3 4",
                           "3 4 1 2", "--check-definition"], capture_output=True, text=True,
                          env=child_env(ROOT, str(spans)), cwd=ROOT, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "1\n")
    tracer = tracing.Tracer()
    tracer.absorb(str(spans), 7)
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["perm.distance_by_definition"]["calls"] == 1
    assert set(tracer.query) == {7}


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail(list(range(1, 1001))) == (990, 99.0, 10)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], capture_output=True,
                          text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric of ``BENCHMARK.json`` is emitted with a legal name
and a unit, that the oracle rejects tampered outputs, that the seeded configs
are reproducible, and that traced call counts repeat exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pathlib
import re

import pytest

import children
import oracle
import program
import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> workloads.Workload:
    """The workload at a few points (and a small envelope)."""
    w = workloads.WORKLOADS[name]
    base = copy.deepcopy(w.base)
    if "envelope" in base:
        base["envelope"]["count"] = 40
    return dataclasses.replace(w, base=base, plan_count=4)


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_RUNS", 2)
    monkeypatch.setattr(run, "TRACE_OUT", tmp_path / "spans")
    return tmp_path


def measure(name: str, trace: bool, workdir, seed: int = 0):
    workdir.mkdir(exist_ok=True)
    return run.measure(tiny(name), seed, 0.0, trace, workdir)


def test_spec_names_and_units_are_legal():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(quick, name, trace):
    metrics, tally, _plain = measure(name, trace, quick / "work")
    assert tally.failed == 0, tally.messages
    assert tally.attempted > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in listed]
    for m in listed:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m
    line = json.loads(run.result_line(tally, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_traced_counts_repeat_and_self_times_fit(quick):
    w = tiny("sweep_family_a")
    doc = w.config()
    tally = run.Tally()
    reference = w.render(w.run(doc))
    loop = run.closed_loop(w, doc, 0.0, reference, tally, traced=True)
    walls, tracers = loop.walls, loop.tracers
    assert tally.failed == 0
    counts = [{k: v for k, (v, unit) in spans.layer_metrics(t.spans).items() if unit == "count"}
              for t in tracers]
    assert all(c == counts[0] for c in counts)
    ok_cells = sum(1 for row in w.run(doc) if row["status"] == "ok")
    assert counts[0]["direct_method.approximate.calls"] == 2 * ok_cells * 4
    ratio = spans.layer_metrics(tracers[0].spans)["direct_method.approximate.distinct_ratio"][0]
    assert ratio == pytest.approx(4 / (2 * ok_cells * 4))
    for tracer, wall in zip(tracers, walls):
        selfs = spans.self_times(tracer.spans)
        assert all(s >= 0 for s in selfs)
        assert sum(s for s, sp in zip(selfs, tracer.spans) if sp[0] != "harness.render") <= wall


def test_wrappers_are_removed_after_a_traced_run():
    from jensenlab import direct_method, harness, space

    before = (harness.approximate, direct_method.approximate, space.NormedSpace.norm)
    with spans.installed(spans.Tracer()):
        assert harness.approximate is not before[0]
    assert (harness.approximate, direct_method.approximate, space.NormedSpace.norm) == before


def test_self_times_subtract_direct_children():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 6]
    spans_ = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
              ("c", 5.0, 6.0, 0)]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_default_seed_is_the_sample_config():
    for w in workloads.WORKLOADS.values():
        path = program.ROOT / "configs" / f"{w.name}.json"
        if not path.is_file():
            pytest.skip("sample configs are not in this checkout")
        committed = json.loads(path.read_text(encoding="utf-8"))
        doc = w.config(workloads.DEFAULT_SEED)
        if w.plan_count is not None:
            committed["plan"]["count"] = w.plan_count
        assert doc == committed


def test_seeds_are_reproducible_and_distinct():
    w = workloads.WORKLOADS["verify_power_measured"]
    assert w.config(7) == w.config(7)
    a, b = w.config(7), w.config(8)
    assert a["plan"]["seed"] != b["plan"]["seed"]
    assert a["envelope"]["seed"] != b["envelope"]["seed"]
    assert (a["function"]["perturbation"]["direction_seed"]
            != b["function"]["perturbation"]["direction_seed"])


def _output(name: str):
    w = tiny(name)
    doc = w.config()
    return w.to_data(w.run(doc)), doc


def test_oracle_rejects_tampered_verify():
    data, doc = _output("verify_power_measured")
    assert oracle.check_verify(data, doc) == []
    bad = copy.deepcopy(data)
    bad["summary"]["passed"] = False
    assert oracle.check_verify(bad, doc)
    bad = copy.deepcopy(data)
    bad["points"][1]["deviation"] = bad["points"][1]["bound"] + 1e-6
    assert len(oracle.check_verify(bad, doc)) == 2  # the point, and passed=true


def test_oracle_rejects_tampered_sweep():
    rows, doc = _output("sweep_family_a")
    assert oracle.check_sweep(rows, doc) == []
    for column, value in [("status", "divergent"), ("admissible", False),
                          ("paper_constant", 1.0), ("derived_constant", "divergent"),
                          ("max_violation", 1e-3)]:
        bad = copy.deepcopy(rows)
        bad[0][column] = value
        assert oracle.check_sweep(bad, doc), column
    assert oracle.check_sweep(rows[:-1], doc)


def test_oracle_rejects_tampered_audit():
    data, doc = _output("audit_backward_dyadic")
    assert oracle.check_audit(data, doc) == []
    for path, value in [(("verdicts", "empirical_le_derived"), False),
                        (("verdicts", "derived_matches_paper"), "consistent"),
                        (("paper_constant",), 1.0),
                        (("derived_constant",), 0.6),
                        (("empirical_sup",), 10.0)]:
        bad = copy.deepcopy(data)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert oracle.check_audit(bad, doc), path


def test_oracle_reads_sweep_csv_like_the_rows():
    w = tiny("sweep_family_a")
    doc = w.config()
    rows = w.run(doc)
    parsed = oracle.parse_csv(w.render(rows))
    assert oracle.check_sweep(parsed, doc) == []
    assert [r["status"] for r in parsed] == [r["status"] for r in rows]


def test_child_reports_exit_code_and_its_own_memory(tmp_path):
    import sys

    import numpy as np

    ballast = np.ones(25_000_000)  # 200 MB in this process, none in the child
    ok = children.run_child([sys.executable, "-c", "print('hi')"], tmp_path, "ok")
    assert (ok.exit_code, ok.stdout.strip()) == (0, "hi")
    assert ok.wall_s > 0 and 1 < ok.peak_rss_mb < 100
    big = children.run_child([sys.executable, "-c", "import numpy; a = numpy.ones(25_000_000)"],
                             tmp_path, "big")
    assert big.peak_rss_mb > 200
    bad = children.run_child([sys.executable, "-c", "raise SystemExit(3)"], tmp_path, "bad")
    assert bad.exit_code == 3
    del ballast


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        stat = (pathlib.Path("/proc") / str(pid) / "stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_child_past_its_timeout_is_killed_with_its_launcher(tmp_path, monkeypatch):
    import sys
    import time

    monkeypatch.setattr(children, "CHILD_TIMEOUT_S", 1.0)
    pid_file = tmp_path / "pid"
    code = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(60)"
    run = children.run_child([sys.executable, "-c", code], tmp_path, "slow")
    assert run.exit_code == -9
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)

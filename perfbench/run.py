"""Run a benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload verify_power_measured --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep_family_a --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seconds 4

Each workload runs in this process as a closed loop: one caller, and the next
run starts when the previous one has finished. Every output is checked by the
oracle, and repeats of one run must render byte-identical reports.

``--trace 0`` reports the end-to-end metrics: the median in-process wall
time of one run after a warm-up, the work rate, the set-up and CLI wall time
and CLI peak memory measured in fresh child processes, and the error of the
approximant against its exact limit. Times are given at a reference machine
speed (see ``speed``). ``--trace 1`` spends half of ``--seconds`` untraced
and half with span wrappers installed, reports the per-layer metrics, and
writes the spans to ``.bench_out/``.

Exit status: 0 when every output passed the oracle, 1 when one did not,
2 when the checkout has no program to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import children
import oracle
import program
import spans
import speed

#: Fresh set-up children per run.
SETUP_RUNS = 4
#: Closed-loop repeats made even when ``--seconds`` runs out first.
MIN_RUNS = 3

SCRATCH = program.ROOT / ".bench_tmp"
TRACE_OUT = program.ROOT / ".bench_out"


class Tally:
    """Attempted and failed operations (points, cells), with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, items: int, failures: list, where: str):
        self.attempted += items
        self.failed += min(len(failures), items)
        self.messages += [f"{where}: {m}" for m in failures]


def _median(values: list) -> float:
    return float(statistics.median(values))


@dataclass
class Loop:
    """Per repeat: wall time, the same at the reference speed, and its tracer."""

    walls: list = field(default_factory=list)
    ref_walls: list = field(default_factory=list)
    tracers: list = field(default_factory=list)


def closed_loop(w, doc: dict, seconds: float, reference: str, tally: Tally,
                traced: bool = False, between=None) -> Loop:
    """Repeat the workload for ``seconds`` (at least MIN_RUNS times).

    A repeat is started only if, at the pace of the last one, it ends within
    ``seconds``. ``between(i)``, when given, runs after the i-th repeat,
    outside its timing. Each repeat has its own tracer when traced.
    """
    loop = Loop()
    begin = perf_counter()
    last = 0.0
    while len(loop.walls) < MIN_RUNS or perf_counter() + last <= begin + seconds:
        started = perf_counter()
        gc.collect()
        if traced:
            tracer = spans.Tracer(run_id=len(loop.walls))
            loop.tracers.append(tracer)
            with spans.installed(tracer):
                result, wall, factor = speed.timed(lambda: w.run(doc))
                text = tracer.wrap("harness.render", w.render)(result)
        else:
            result, wall, factor = speed.timed(lambda: w.run(doc))
            text = w.render(result)
        loop.walls.append(wall)
        loop.ref_walls.append(wall * factor)
        check(w, doc, result, text, reference, tally, f"run {len(loop.walls)}")
        if between:
            between(len(loop.walls))
        last = perf_counter() - started
    return loop


def check(w, doc: dict, result, text: str, reference: str, tally: Tally, where: str):
    items = w.items(result)
    failures = oracle.CHECKS[w.subcommand](w.to_data(result), doc)
    if text != reference:
        failures = [f"report differs from the first run's ({len(text)} vs "
                    f"{len(reference)} bytes)"] * items
    tally.add(items, failures, where)


def setup_children(config_path: Path, workdir: Path, runs: int, tally: Tally) -> tuple:
    """(set-up times at the reference speed, import times) of ``runs`` fresh children.

    This process has already imported the package, so its bytecode is cached
    and its files are in the page cache, as they are for a user's repeat run.
    """
    ref_walls, imports = [], []
    for i in range(runs):
        (run, timing), _wall, factor = speed.timed(
            lambda: children.setup_child(config_path, workdir, f"setup{i}"))
        tally.add(1, [] if timing else [f"exit {run.exit_code}: {run.stderr[-500:]}"],
                  f"setup child {i}")
        if timing:
            ref_walls.append(run.wall_s * factor)
            imports.append(timing["import_s"])
    return ref_walls, imports


def cli_sample(w, doc: dict, items: int, config_path: Path, workdir: Path, tally: Tally,
              i: int) -> tuple:
    """(ChildRun, its wall time at the reference speed) of one ``python -m
    jensenlab`` child, whose output is checked by the oracle.

    ``items`` is the work count of one run, all failed if the child fails.
    """
    out_path = workdir / f"cli{i}.out"
    run, _wall, factor = speed.timed(
        lambda: children.cli_child(w.subcommand, config_path, out_path, workdir, f"cli{i}"))
    if run.exit_code != 0:
        failures = [f"exit {run.exit_code}: {run.stderr[-500:]}"] * items
    else:
        text = out_path.read_text(encoding="utf-8")
        data = oracle.parse_csv(text) if w.subcommand == "sweep" else json.loads(text)
        failures = oracle.CHECKS[w.subcommand](data, doc)
    tally.add(items, failures, f"cli child {i}")
    out_path.unlink(missing_ok=True)
    return run, run.wall_s * factor


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple:
    """(metrics {name: (value, unit)}, Tally, plain wall-time medians) of one run.

    Times in the metrics are at the reference speed (see ``speed``); the
    plain medians are printed beside them for reading.
    """
    tally = Tally()
    doc = w.config(seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")

    setup_walls, import_times = setup_children(config_path, workdir, SETUP_RUNS, tally)

    warm = w.run(doc)  # warm-up; its report is the reference for every repeat
    reference = w.render(warm)
    check(w, doc, warm, reference, reference, tally, "warm-up")

    if not trace:
        # One CLI child after each in-process run, so both sample the same
        # stretch of machine load.
        cli_runs = []
        loop = closed_loop(w, doc, seconds, reference, tally, between=lambda i: cli_runs.append(
            cli_sample(w, doc, w.items(warm), config_path, workdir, tally, i)))
        wall = _median(loop.ref_walls)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (w.items(warm) / wall, "items/s"),
            "setup_s": (_median(setup_walls), "s"),
            "cli_wall_s": (_median([ref for _run, ref in cli_runs]), "s"),
            "peak_rss_mb": (_median([run.peak_rss_mb for run, _ref in cli_runs]), "MB"),
            "limit_err_over_tol": (w.limit_err_over_tol(doc), "ratio"),
        }
        plain = {"wall_s": _median(loop.walls),
                 "cli_wall_s": _median([run.wall_s for run, _ref in cli_runs])}
        return metrics, tally, plain

    untraced = closed_loop(w, doc, seconds / 2, reference, tally)
    traced = closed_loop(w, doc, seconds / 2, reference, tally, traced=True)
    per_run = [spans.layer_metrics(t.spans) for t in traced.tracers]
    metrics = {name: (_median([m[name][0] for m in per_run]), unit)
               for name, (_v, unit) in per_run[0].items()}
    for tracer, wall in zip(traced.tracers, traced.walls):
        selfs = spans.self_times(tracer.spans)
        in_run = sum(t for s, t in zip(tracer.spans, selfs) if s[0] != "harness.render")
        if in_run > wall:
            raise AssertionError("span self times exceed the traced wall time")
    metrics["harness.render.bytes"] = (len(reference.encode("utf-8")), "bytes")
    metrics["cli.import_s"] = (_median(import_times), "s")
    metrics["trace.overhead_s"] = (_median(traced.ref_walls) - _median(untraced.ref_walls), "s")
    TRACE_OUT.mkdir(exist_ok=True)
    spans.write_spans(traced.tracers, TRACE_OUT / f"{w.name}-seed{seed}.spans.jsonl.gz")
    return metrics, tally, {}


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def print_table(workload: str, tally: Tally, metrics: dict, plain: dict):
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    rows = [*metrics.items(), ("failed_ops_frac", (frac, "ratio")),
            *((f"{name} (plain wall time)", (value, "s")) for name, value in plain.items())]
    for name, (value, unit) in rows:
        print(f"{workload:24s} {name:45s} {value:>14.6g} {unit}")
    for message in tally.messages[:20]:
        print(f"{workload}: FAILED {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the sample configs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="closed-loop measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    # One CPU for this process and its children, so that the speed probes run
    # where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    SCRATCH.mkdir(exist_ok=True)
    total, combined = Tally(), {}
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
        try:
            metrics, tally, plain = measure(workloads.WORKLOADS[name], args.seed,
                                            args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_table(name, tally, metrics, plain)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    if not any(SCRATCH.iterdir()):
        SCRATCH.rmdir()
    print(result_line(total, combined))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Fresh child processes: set-up time, CLI wall time and peak memory.

Each child is reaped with ``os.wait4``, which gives that child's own resource
usage; ``RUSAGE_CHILDREN`` would give the maximum over every child so far.
Linux also folds the resident size of the process a child was forked from
into the child's ``ru_maxrss`` when the child calls ``exec``. So a child is
not started from this process, whose numpy and workload data are large, but
from a small launcher interpreter, which times and reaps it. Children run
with ``PYTHONPATH`` pointing at the checkout's ``src`` and with BLAS/OpenMP
pinned to one thread. Their output goes to files in a scratch directory of
the benchmark, never into the repository's tracked files.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from program import ROOT, SRC, THREAD_PINS

#: A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0

#: Fresh interpreter -> import jensenlab -> harness.build_experiment(config).
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
from jensenlab import harness
t1 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
harness.build_experiment(doc)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
"""


#: Run argv[4:] with stdout/stderr to argv[2]/argv[3]; write its exit code,
#: wall time (spawn to reaping) and ru_maxrss as JSON to argv[1].
LAUNCHER = """\
import json, os, subprocess, sys, time
result, out, err, *argv = sys.argv[1:]
with open(out, "wb") as fo, open(err, "wb") as fe:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
with open(result, "w", encoding="utf-8") as fh:
    json.dump({"exit_code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}, fh)
"""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _kill_group(pgid: int):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def run_child(argv: list, workdir: Path, tag: str) -> ChildRun:
    """Run ``argv`` to completion through the launcher.

    A child still running after CHILD_TIMEOUT_S is killed with its launcher
    and reported with exit code -9 and the timeout as its wall time.
    """
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    result_path = workdir / f"{tag}.json"
    launcher = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", LAUNCHER, str(result_path), str(out_path),
         str(err_path), *argv],
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True)
    try:
        _out, launcher_err = launcher.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(launcher.pid)
        launcher.communicate()
        return ChildRun(-9, CHILD_TIMEOUT_S, 0.0, "", f"killed after {CHILD_TIMEOUT_S} s")
    finally:
        if launcher.returncode is None:  # interrupted: take the child down too
            _kill_group(launcher.pid)
            launcher.wait()
    if launcher.returncode != 0:
        raise RuntimeError(f"child launcher failed: {launcher_err.decode(errors='replace')}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return ChildRun(exit_code=result["exit_code"], wall_s=result["wall_s"],
                    peak_rss_mb=result["maxrss_kib"] / 1024.0,  # Linux reports KiB
                    stdout=out_path.read_text(encoding="utf-8"),
                    stderr=err_path.read_text(encoding="utf-8"))


def setup_child(config_path: Path, workdir: Path, tag: str) -> tuple:
    """(ChildRun, {"import_s", "build_s"} or None) for one fresh set-up."""
    run = run_child([sys.executable, "-c", SETUP_CHILD, str(config_path)], workdir, tag)
    if run.exit_code != 0:
        return run, None
    return run, json.loads(run.stdout.strip().splitlines()[-1])


def cli_child(subcommand: str, config_path: Path, out_path: Path, workdir: Path,
              tag: str) -> ChildRun:
    """``python -m jensenlab <subcommand> --config ... --out ...``."""
    return run_child([sys.executable, "-m", "jensenlab", subcommand,
                      "--config", str(config_path), "--out", str(out_path)], workdir, tag)

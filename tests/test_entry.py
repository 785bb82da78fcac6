"""The process entry: a ``python -m`` child writes what an in-process ``cli.main`` writes,
only ``cli.entry`` freezes the collector before the process exits, and a crash exits 3."""

import dataclasses
import gc
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jensenlab
from jensenlab import cli, harness

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "verify_power_measured.json"


def run_child(module, args, launch="-m"):
    """(exit code, stdout bytes, stderr text) of ``python -m <module> <args>`` on this checkout,
    or of ``python -c <module> <args>`` with ``launch="-c"``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", launch, module, *args],
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr.decode()


def in_process(args, out):
    code = cli.main([*args, "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("module", ["jensenlab", "jensenlab.cli"])
def test_child_writes_the_in_process_bytes(module, tmp_path):
    args = ["verify", "--config", str(CONFIG)]
    code, expected = in_process(args, tmp_path / "main.json")
    assert code == cli.EXIT_PASS
    out = tmp_path / "child.json"
    assert run_child(module, [*args, "--out", str(out)])[:2] == (code, b"")
    assert out.read_bytes() == expected
    # on stdout too: freezing before the exit loses no buffered output
    child_code, stdout, stderr = run_child(module, args)
    assert (child_code, stdout) == (code, expected)
    assert stderr.startswith("verify: PASS max_violation=")


def test_child_exits_1_on_a_violation(tmp_path):
    doc = {**json.loads(CONFIG.read_text()), "control": {"kind": "zero"}}
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    args = ["verify", "--config", str(cfg)]
    code, expected = in_process(args, tmp_path / "main.json")
    assert code == cli.EXIT_VIOLATION
    assert run_child("jensenlab", args)[:2] == (code, expected)


#: a child that runs ``cli.entry`` with ``harness.run_verify`` raising ZeroDivisionError
CRASHING_CHILD = ("from jensenlab import cli, harness; "
                  "harness.run_verify = lambda doc: 1 / 0; cli.entry()")


def test_child_exits_3_on_a_crash(tmp_path, monkeypatch):
    # an exception that is not an error of the package is no bound violation (exit 1)
    out = tmp_path / "report.json"
    code, stdout, stderr = run_child(CRASHING_CHILD, ["verify", "--config", str(CONFIG),
                                                      "--out", str(out)], launch="-c")
    assert (code, stdout) == (cli.EXIT_RUNTIME, b"")
    assert stderr.startswith("Traceback (most recent call last):\n")
    assert stderr.splitlines()[-1].startswith("ZeroDivisionError: ")
    assert not out.exists()
    # in process, cli.main still raises
    monkeypatch.setattr(harness, "run_verify", lambda doc: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.main(["verify", "--config", str(CONFIG), "--out", str(out)])


@pytest.mark.parametrize("config, changes, field", [
    # envelope.shells past a C long made measure_envelope's shell edges index an empty array
    (CONFIG, {"envelope": {"count": 1000, "shells": 2 ** 63}}, "envelope.shells"),
    # trunc_terms past a C long: a power control's term count did not fit its int array (on
    # CONFIG's measured control the series summed 2^63 terms)
    (ROOT / "configs" / "verify_linf_dim3.json", {"trunc_terms": 2 ** 63}, "trunc_terms"),
], ids=["envelope.shells", "trunc_terms"])
def test_child_exits_3_naming_a_count_past_its_bound(config, changes, field, tmp_path):
    cfg, out = tmp_path / "big.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({**json.loads(config.read_text()), **changes}))
    code, stdout, stderr = run_child("jensenlab", ["verify", "--config", str(cfg),
                                                   "--out", str(out)])
    assert (code, stdout) == (cli.EXIT_RUNTIME, b"")
    assert stderr.startswith(f"error[config]: config: {field} must be at most ")
    assert stderr.endswith(f", got {2 ** 63}\n")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["verify"], "the following arguments are required: --config"),
    (["verify", "--config", str(CONFIG), "--format", "xml"], "argument --format: invalid choice"),
], ids=["missing-config", "unknown-format"])
def test_usage_error_exits_3(args, message):
    # argparse's own usage exit (2) would read as a parameter outcome
    code, stdout, stderr = run_child("jensenlab", args)
    assert (code, stdout) == (cli.EXIT_RUNTIME, b"")
    assert stderr.startswith("usage: jensenlab verify ") and message in stderr
    with pytest.raises(SystemExit) as exit_:
        cli.main(args)
    assert exit_.value.code == cli.EXIT_RUNTIME


def test_main_does_not_freeze_the_collector(tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["verify", "--config", str(CONFIG), "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == before


def test_entry_freezes_then_exits_with_the_code(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["jensenlab", "verify", "--config", str(CONFIG),
                                      "--out", str(tmp_path / "out")])
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        assert exit_.value.code == cli.EXIT_PASS
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_no_package_class_is_a_dataclass():
    """A dataclass writes, compiles and runs the source of its methods at every import,
    with or without a bytecode cache, and every CLI process pays for that: for the
    package's 17 records it was about a quarter of ``import jensenlab.cli`` with numpy
    already imported. The records are plain classes."""
    modules = [importlib.import_module(f"jensenlab.{m.name}")
               for m in pkgutil.iter_modules(jensenlab.__path__)]
    classes = [c for module in modules for c in vars(module).values()
               if inspect.isclass(c) and c.__module__ == module.__name__]
    assert len(classes) > 17
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_the_package_does_not_use_numpy_random():
    # every sample point, random core and hashed direction reads the package's counter hash,
    # whose bits no numpy release can move (numpy's Generator promises no stable stream)
    for path in sorted((ROOT / "src" / "jensenlab").glob("*.py")):
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path.name


#: run cli.main on every sample config, then report which of numpy.random's imports happened
_RUN_ALL = """
import sys
from pathlib import Path
import numpy
before = "numpy.random" in sys.modules
from jensenlab import cli
command, configs, out = sys.argv[1:]
codes = [cli.main([command, "--config", str(c), "--out", out])
         for c in sorted(Path(configs).glob("*.json"))]
print(before, "numpy.random" in sys.modules, codes)
"""


@pytest.mark.parametrize("command", ["verify", "audit", "sweep", "defect", "approximate"])
def test_a_run_does_not_import_numpy_random(command, tmp_path):
    # the import costs a CLI process 10-17 ms (python -X importtime)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL, command, str(ROOT / "configs"),
                           str(tmp_path / "out")], stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path}, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after, codes = proc.stdout.split(" ", 2)
    if before == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert after == "False"
    assert "0" in codes  # at least one sample config ran its subcommand to a pass

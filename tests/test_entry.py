"""The process entry: a ``python -m`` child writes what an in-process ``cli.main`` writes,
and only ``cli.entry`` freezes the collector before the process exits."""

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
from jensenlab import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "verify_power_measured.json"


def run_child(module, args):
    """(exit code, stdout bytes, stderr text) of ``python -m <module> <args>`` on this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module, *args],
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

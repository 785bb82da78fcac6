"""Locating and importing the program under test from the checkout.

The benchmark imports ``jensenlab`` from the checkout's ``src`` directory, as
the tier-1 test command does with ``PYTHONPATH=src``; the package need not be
installed. A ``jensenlab`` found anywhere else is refused, so that a checkout
without ``src`` fails instead of measuring some other copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS/OpenMP thread, in this process and in every child it starts.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ProgramMissing(ImportError):
    """The checkout has no ``src/jensenlab`` to benchmark."""


def load():
    """Pin threads (before numpy first loads), then import ``jensenlab`` from ``src``."""
    os.environ.update(THREAD_PINS)
    if not (SRC / "jensenlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no jensenlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jensenlab

    if Path(jensenlab.__file__).resolve().parent != SRC / "jensenlab":
        raise ProgramMissing(f"jensenlab imported from {jensenlab.__file__}, not {SRC}")
    return jensenlab

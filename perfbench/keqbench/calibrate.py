"""Calibration: fixed work that runs no keq code.

The shared hosts this benchmark runs on change speed by tens of percent
over minutes, and every part of an operation slows with them.  So each
measured operation is followed by one calibration, and the end-to-end
times are reported as multiples of it (unit ``cal``): a change in host
speed moves both and cancels, a change in keq's own cost moves only the
operation.  The raw seconds are printed in the detail line.

In-process operations are calibrated with ``work()``.  A job run as a
fresh subprocess is calibrated with this file run as a script, which
also pays for interpreter start and for importing numpy and scipy.linalg.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np


def work() -> None:
    """Interpreter loops, small-array numpy calls and dense linear
    algebra, the mix of keq's numerical layers: about 0.12 s on a
    2-vCPU cloud VM."""
    total = 0
    for i in range(400_000):
        total += i * i
    rng = np.random.default_rng(0)
    small = rng.random(64)
    for _ in range(4_000):
        small = np.exp(-small) + small.mean()
    a = rng.random((150, 150)) + 150.0 * np.eye(150)
    for _ in range(40):
        np.linalg.solve(a, a)


def in_process() -> float:
    """Wall time of ``work()`` in this process."""
    t = time.perf_counter()
    work()
    return time.perf_counter() - t


def fresh(env: dict, cwd) -> float:
    """Wall time of this file run in a fresh interpreter."""
    t = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, cwd=cwd, check=True)
    return time.perf_counter() - t


if __name__ == "__main__":
    import scipy.linalg  # noqa: F401  (import cost, like the start of a keq job)

    work()

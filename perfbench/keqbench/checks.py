"""Output checks.  An operation with any failed check counts as failed."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent.parent / "reference.json"
# The roadmap lets a speed-up move equated values by at most this much.
REF_TOL = 1e-10
# Summaries of equated values (bias, SEE, RMSE) may move by a few times that.
DERIVED_TOL = 1e-9
ERRORS_SHOWN = 5


class Tally:
    """Operations attempted, the errors found in each, and the largest
    deviation from the recorded reference values."""

    def __init__(self, workload: str, seed: int):
        self.errors: dict[int, list[str]] = {}
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self._ref = data["workloads"][workload] if seed == data["seed"] else None
        self.ref_max_abs_dev = 0.0 if self._ref is not None else None

    def op(self, index: int) -> list[str]:
        return self.errors.setdefault(index, [])

    def fail(self, index: int, message: str) -> None:
        self.op(index).append(message)

    @property
    def attempted(self) -> int:
        return len(self.errors)

    @property
    def failed(self) -> int:
        return sum(1 for errs in self.errors.values() if errs)

    def first_errors(self) -> list[str]:
        return [f"op {i}: {e}" for i, errs in sorted(self.errors.items())
                for e in errs][:ERRORS_SHOWN]

    def equated(self, index: int, values, what: str) -> None:
        """Equated values must be finite and nondecreasing."""
        self.op(index)
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)):
            self.fail(index, f"{what}: non-finite value")
        elif np.any(np.diff(v) < 0.0):
            self.fail(index, f"{what}: values decrease")

    def reference(self, index: int, key: str, values) -> None:
        """Compare with the value recorded for ``key`` on the reference seed."""
        self.op(index)
        if self._ref is None or key not in self._ref:
            return
        ref = np.asarray(self._ref[key], dtype=float)
        v = np.asarray(values, dtype=float)
        if v.shape != ref.shape:
            self.fail(index, f"{key}: shape {v.shape} differs from reference {ref.shape}")
            return
        dev = float(np.max(np.abs(v - ref)))
        self.ref_max_abs_dev = max(self.ref_max_abs_dev, dev)
        if not dev <= REF_TOL:
            self.fail(index, f"{key}: deviates {dev:.3g} from the reference values")

    def close(self, index: int, a, b, what: str, tol: float = REF_TOL) -> None:
        """Arrays of one shape that differ by at most ``tol`` anywhere."""
        self.op(index)
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.all(np.abs(a - b) <= tol):
            self.fail(index, f"{what}: results differ by more than {tol:g}")

    def same(self, index: int, a, b, what: str) -> None:
        """Byte-identical arrays (or bytes)."""
        self.op(index)
        if isinstance(a, bytes):
            ok = a == b
        else:
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            ok = a.shape == b.shape and a.tobytes() == b.tobytes()
        if not ok:
            self.fail(index, f"{what}: results differ")


def parse_equating_csv(data: bytes) -> np.ndarray:
    """The ``equated`` column of a ``keq equate`` output table."""
    rows = [line for line in data.decode("utf-8").splitlines()
            if line and not line.startswith("#")]
    if not rows or rows[0].split(",")[:2] != ["score", "equated"]:
        raise ValueError("not an equating table")
    return np.array([float(r.split(",")[1]) for r in rows[1:]])

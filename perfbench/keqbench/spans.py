"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the span that caused it and the id
of the operation it belongs to.  Spans are kept in a list and written
out once, when the run ends.

While an operation is open, the public functions listed in ``WRAPPED``
are replaced, wherever a keq module (or this package) looks them up, by
wrappers that open a span around each call and then call the original.
The program itself runs unchanged; the originals are put back when the
operation closes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np


def _records(data) -> dict:
    return {"records": data.n}


# (span name, defining module, attribute, attributes of a call from (args, result))
WRAPPED = (
    ("core.read_csv", "keq.core", "read_person_csv", lambda a, out: _records(out)),
    ("core.coerce", "keq.core", "coerce_dataset", lambda a, out: _records(out)),
    ("core.take", "keq.core", "Dataset.take", lambda a, out: _records(out)),
    ("core.tabulate", "keq.equate", "NecInput.from_datasets",
     lambda a, out: {"records": a[1].n + a[2].n}),
    ("simulate.gen", "keq.simulate", "gen_population", lambda a, out: _records(out)),
    ("presmooth.fit", "keq.presmooth", "presmooth_counts",
     lambda a, out: {"iterations": out.iterations, "converged": out.converged}),
    ("probmix.target", "keq.probmix", "nec_target_probs", None),
    ("continuize.bandwidth", "keq.continuize", "select_bandwidth", None),
    ("equate.invert", "keq.equate", "EquatingMap.__call__",
     lambda a, out: {"points": int(np.size(a[1]))}),
    ("equate.gke", "keq.equate", "equate_gke", None),
    ("equate.covariate", "keq.equate", "equate_covariate", None),
    ("equate.sequential", "keq.equate", "equate_sequential", None),
    ("uncertainty.replicates", "keq.uncertainty", "bootstrap_replicates",
     lambda a, out: {"replicates": len(out[0]) + len(out[1])}),
    ("metrics.report", "keq.metrics", "MetricsReport.from_replicates", None),
    ("cli.write", "keq.cli", "write_equating_table", None),
    ("cli.write", "keq.cli", "write_metrics_report", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None
        self._tag = None

    @contextmanager
    def operation(self, op_id, name: str, tag: str):
        """Root span of one operation; every span opened inside shares its id."""
        self._op, self._tag = op_id, tag
        try:
            with ExitStack() as stack:
                for target in WRAPPED:
                    stack.enter_context(self._wrapped(*target))
                with self.span(name) as attrs:
                    yield attrs
        finally:
            self._op = self._tag = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans), "op": self._op, "tag": self._tag, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def _wrapped(self, name: str, module: str, attribute: str, describe):
        """Replace ``module.attribute`` by a spanning wrapper while open."""
        owner = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        fn = original.__func__ if isinstance(original, classmethod) else original

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, out))
                return out

        if path:  # a method: patch the class
            sites = [owner]
            replacement = classmethod(wrapper) if fn is not original else wrapper
        else:  # a function: patch every module that imported it by name
            sites = [m for n, m in list(sys.modules.items())
                     if n.split(".")[0] in ("keq", "keqbench") and vars(m).get(leaf) is fn]
            replacement = wrapper
        for site in sites:
            setattr(site, leaf, replacement)
        try:
            yield
        finally:
            for site in sites:
                setattr(site, leaf, original)

    def write(self, path: Path) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        out = [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans]
        path.write_text(json.dumps(out) + "\n", encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out

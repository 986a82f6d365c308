"""Call counts of the bandwidth search's kernel stages.

Run from the root of a checkout; it imports ``keq`` from that checkout's
``src/``::

    python3 tools/search_counts.py

It counts the calls to ``_Smoothing.pen1``, ``pen2`` and ``pen2_floors``
and prints their means in two settings:

- ``s5 per replication``: GKE and sequential GKE on scenario 5, seed 0,
  replications 0-9, each on freshly drawn datasets;
- ``sparse per search``: ``select_bandwidth`` at kpen 1 on the 20
  pass-through tables of ``identity_digest.py``.

The counts do not depend on the machine.  It takes a few seconds on one CPU.
"""

from collections import Counter
from contextlib import contextmanager

from identity_digest import sparse_tables  # also puts the checkout's src/ on sys.path

from keq.continuize import _Smoothing, select_bandwidth
from keq.core import substream
from keq.equate import PipelineSpec
from keq.simulate import OTHER_SCORE, ScenarioSpec, gen_population

STAGES = ("pen1", "pen2", "pen2_floors")


@contextmanager
def counting(counts: Counter):
    """Count each call to the ``STAGES`` methods of ``_Smoothing`` into ``counts``."""
    originals = {name: getattr(_Smoothing, name) for name in STAGES}

    def spy(name, method):
        def counted(self, *args, **kwargs):
            counts[name] += 1
            return method(self, *args, **kwargs)
        return counted

    for name, method in originals.items():
        setattr(_Smoothing, name, spy(name, method))
    try:
        yield counts
    finally:
        for name, method in originals.items():
            setattr(_Smoothing, name, method)


def line(label: str, counts: Counter, runs: int) -> str:
    return label + ": " + " ".join(f"{name} {counts[name] / runs:.2f}" for name in STAGES)


def main() -> None:
    scenario, specs = ScenarioSpec.from_table(5), (PipelineSpec("GKE"),
                                                   PipelineSpec("sequential GKE", OTHER_SCORE))
    with counting(Counter()) as counts:
        for rep in range(10):
            p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                    for key, pop in enumerate("PQ"))
            for spec in specs:
                spec.run(p, q)
    print(line("s5 per replication", counts, 10))
    tables = list(sparse_tables())
    with counting(Counter()) as counts:
        for dist in tables:
            select_bandwidth(dist, 1.0)
    print(line("sparse per search", counts, len(tables)))


if __name__ == "__main__":
    main()

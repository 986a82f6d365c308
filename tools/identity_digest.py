"""Digests of keq's equated values, for checking that a change moves no bit.

Run from the root of a checkout; it imports ``keq`` from that checkout's
``src/``::

    python3 tools/identity_digest.py

To compare two trees, run it in each and diff the output::

    (cd old && python3 tools/identity_digest.py) > old.txt
    (cd new && python3 tools/identity_digest.py) > new.txt
    diff old.txt new.txt

Each line is a sha256 over one set of results:

- ``s5``: GKE and sequential GKE on scenario 5, seed 0, replications 0-29:
  every equated vector and the repr of every diagnostics dict (which holds
  the bandwidths h_x and h_y);
- ``scenarios kpen=K``: the same for scenarios 1-12, replications 0-1, at
  kpen 1 and 0.5;
- ``sparse``: ``select_bandwidth`` on 20 pass-through tables of 20-400
  draws on 20-100 score points, at kpen 0, 0.5 and 1.

It takes a few seconds on one CPU.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from keq.continuize import select_bandwidth  # noqa: E402
from keq.core import ScoreDistribution, ScoreScale, substream  # noqa: E402
from keq.equate import GkePipelineConfig, PipelineSpec  # noqa: E402
from keq.simulate import OTHER_SCORE, ScenarioSpec, gen_population  # noqa: E402


def scenario_digest(scenario_ids, reps: int, kpen: float = 1.0) -> str:
    """sha256 over the equated vectors and diagnostics of GKE and
    sequential GKE, replications 0..reps-1 at seed 0."""
    digest = hashlib.sha256()
    config = GkePipelineConfig(kpen=kpen)
    specs = (PipelineSpec("GKE", config=config),
             PipelineSpec("sequential GKE", OTHER_SCORE, config=config))
    for scenario_id in scenario_ids:
        scenario = ScenarioSpec.from_table(scenario_id)
        for rep in range(reps):
            p, q = (gen_population(pop, scenario, seed=substream(0, rep, key))
                    for key, pop in enumerate("PQ"))
            for spec in specs:
                table = spec.run(p, q)
                digest.update(np.asarray(table.equated, dtype=float).tobytes())
                digest.update(repr(table.diagnostics).encode())
    return digest.hexdigest()


def sparse_tables():
    """20 pass-through tables of 20-400 draws on 20-100 score points."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        j, n, p = rng.integers(20, 101), rng.integers(20, 401), rng.uniform(0.05, 0.95)
        counts = np.bincount(rng.binomial(j - 1, p, n), minlength=j)
        yield ScoreDistribution(ScoreScale(0, int(j) - 1), counts / counts.sum())


def sparse_digest() -> str:
    """sha256 over the bandwidths of the sparse tables at kpen 0, 0.5, 1."""
    hs = [select_bandwidth(dist, kpen) for kpen in (0.0, 0.5, 1.0) for dist in sparse_tables()]
    return hashlib.sha256(np.array(hs).tobytes()).hexdigest()


def main() -> None:
    print("s5", scenario_digest([5], reps=30))
    for kpen in (1.0, 0.5):
        print(f"scenarios kpen={kpen}", scenario_digest(range(1, 13), reps=2, kpen=kpen))
    print("sparse", sparse_digest())


if __name__ == "__main__":
    main()

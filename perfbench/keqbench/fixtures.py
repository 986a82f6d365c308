"""Workload inputs, made only from the workload seed.

Scenario pairs use the substream keys of ``run_scenario``: replication
``rep`` of ``seed`` draws P from ``(seed, rep, 0)`` and Q from
``(seed, rep, 1)``.  CSV fixtures hold integers only, so the same seed
always writes byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from keq.core import substream
from keq.simulate import ATTEMPT, OTHER_SCORE, SCHOOL, GeneratorParams, ScenarioSpec, gen_population

COVARIATES = (SCHOOL, ATTEMPT, OTHER_SCORE)
PARAMS = GeneratorParams()


def scenario_pair(scenario_id: int, seed: int, rep: int = 0):
    scenario = ScenarioSpec.from_table(scenario_id)
    return tuple(gen_population(pop, scenario, PARAMS, substream(seed, rep, k))
                 for k, pop in enumerate(("P", "Q")))


def write_person_csv(data, path: Path) -> None:
    table = np.column_stack(
        [data.scores] + [np.asarray(data.columns[c], dtype=np.int64) for c in COVARIATES]
    )
    np.savetxt(path, table, fmt="%d", delimiter=",",
               header=",".join(("score",) + COVARIATES), comments="")


def cli_argv(p_csv: Path, q_csv: Path, out: Path) -> list[str]:
    """``keq equate`` flags of the cli-nec-50k job."""
    return ["equate", "--design", "nec", "--p", str(p_csv), "--q", str(q_csv),
            "--covariates", ",".join(COVARIATES),
            "--bin", f"{OTHER_SCORE}=50,60,70,80,100",
            "--scale", "0,100", "--precision", "full", "--out", str(out)]

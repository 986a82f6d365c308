"""Record the equated values that the benchmark's checks compare against.

The values are those of the checked-out program on seed 0.  Run it from
the root of a checkout of the commit whose values are the reference,
only when the benchmark's inputs change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from keq.uncertainty import BootstrapConfig, PipelineSpec, bootstrap_see  # noqa: E402

from keqbench.checks import REFERENCE  # noqa: E402
from keqbench.fixtures import scenario_pair, write_person_csv  # noqa: E402
from keqbench.workloads import (  # noqa: E402
    BOOT_REPLICATES,
    direct_gke,
    direct_replication,
    in_process_gke,
    op_seed,
)

SEED = 0
REPLICATIONS = 10


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        paths = [Path(tmp) / name for name in ("p.csv", "q.csv")]
        for data, path in zip(scenario_pair(6, SEED), paths):
            write_person_csv(data, path)
        cli = {"cli-job": in_process_gke(*paths).equated.tolist()}
    mc = {}
    for rep in range(REPLICATIONS):
        for method, equated in direct_replication(*scenario_pair(5, SEED, rep)).items():
            mc[f"rep{rep}/{method}"] = equated.tolist()
    p, q = scenario_pair(5, SEED)
    see = bootstrap_see(p, q, PipelineSpec("GKE"),
                        BootstrapConfig(BOOT_REPLICATES, op_seed(SEED, 0))).see
    boot = {"boot-point": direct_gke(p, q).equated.tolist(), "boot-see": see.tolist()}
    data = {"seed": SEED, "workloads": {"cli-nec-50k": cli, "mc-s5": mc, "boot-s5-t2": boot}}
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

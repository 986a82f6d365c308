"""Tests of the benchmark's own code.  Run with
``python -m pytest perfbench/tests`` from the root of the repository."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import keq.equate
import keq.uncertainty
from keq.core import KeqError
from keq.equate import NecInput, equate_sequential
from keq.uncertainty import BootstrapConfig, PipelineSpec, bootstrap_replicates

from keqbench import WORKLOADS, workloads
from keqbench.checks import Tally
from keqbench.fixtures import scenario_pair, write_person_csv
from keqbench.spans import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def pair():
    return scenario_pair(5, 3)


def test_fixtures_are_deterministic(tmp_path):
    written = {}
    for seed, run in ((4, "a"), (4, "b"), (5, "a")):
        for data, pop in zip(scenario_pair(6, seed), "pq"):
            path = tmp_path / f"{seed}{run}{pop}.csv"
            write_person_csv(data, path)
            written[seed, run, pop] = path.read_bytes()
    for pop in "pq":
        assert written[4, "a", pop] == written[4, "b", pop]
        assert written[4, "a", pop] != written[5, "a", pop]
    assert written[4, "a", "p"].startswith(b"score,school,attempt,other_score\n")


def test_traced_run_equals_entry_points(pair):
    p, q = pair
    config = BootstrapConfig(2, seed=11)
    gke = workloads.direct_gke(p, q).equated
    seq = equate_sequential(p, q, "other_score").equated
    rows, _ = bootstrap_replicates(p, q, PipelineSpec("GKE"), config)
    originals = (keq.equate.equate_gke, vars(NecInput)["from_datasets"], workloads.equate_gke)
    tracer = Tracer()
    with tracer.operation(0, "op", "primary"):
        assert keq.equate.equate_gke is not originals[0]
        traced_gke = workloads.direct_gke(p, q).equated
        traced_seq = keq.equate.equate_sequential(p, q, "other_score").equated
        traced_rows, _ = keq.uncertainty.bootstrap_replicates(p, q, PipelineSpec("GKE"), config)
    assert (keq.equate.equate_gke, vars(NecInput)["from_datasets"],
            workloads.equate_gke) == originals
    assert traced_gke.tobytes() == gke.tobytes()
    assert traced_seq.tobytes() == seq.tobytes()
    assert np.vstack(traced_rows).tobytes() == np.vstack(rows).tobytes()
    workloads.label_spans(tracer.spans)
    names = {s["name"] for s in tracer.spans}
    assert {"core.tabulate", "core.take", "presmooth.fit_p", "presmooth.fit_q",
            "probmix.target", "continuize.bandwidth", "equate.invert", "equate.gke",
            "equate.gke.nested", "equate.covariate", "equate.sequential",
            "uncertainty.replicates"} <= names
    assert all(s["end"] >= s["start"] and s["op"] == 0 for s in tracer.spans)


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},
        {"id": 3, "parent": 0, "start": 8.0, "end": 12.0},
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 4.0}


def test_metric_names_and_units():
    for group, produced in (("end_to_end", workloads.END_TO_END),
                            ("per_layer", workloads.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert declared == produced
        for name, unit in declared.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


def test_times_are_multiples_of_the_calibration():
    # Each time is divided by the mean of the calibrations on either side;
    # the failed (NaN) operation is left out.
    metrics, detail = workloads.latency_metrics([2.0, 4.0, np.nan, 9.0],
                                                [1.0, 1.0, 3.0, 5.0, 1.0], 1.0)
    assert metrics["op_rel_p50"] == 2.0
    assert metrics["throughput_rel"] == pytest.approx(3 / 7)
    assert (detail["op_s_p50"], detail["calibration_s_p50"]) == (4.0, 2.0)


def test_wrong_output_is_counted_as_failure(tmp_path, pair):
    ctx = workloads.Context(ROOT, 1, 1.0, "cli-nec-50k", work=tmp_path)
    cli = workloads.CliKind(ctx, *pair, "t")
    cli.job(0)
    assert (ctx.tally.attempted, ctx.tally.failed) == (1, 0)
    cli.expected = cli.expected.replace(b"GKE", b"EG")
    cli.job(1)
    assert (ctx.tally.attempted, ctx.tally.failed) == (2, 1)
    assert "job output: results differ" in ctx.tally.first_errors()[0]

    tally = Tally("mc-s5", 1)
    tally.close(3, [0.0, 1.0], [0.0, 1.0 + 1e-9], "moved")
    tally.equated(0, [0.0, 2.0, 1.0], "decreasing")
    tally.equated(1, [0.0, np.nan], "not finite")
    tally.equated(2, [0.0, 1.0], "fine")
    assert (tally.attempted, tally.failed) == (4, 3)


def test_failed_replication_is_counted(tmp_path, pair, monkeypatch):
    def broken(p, q):
        raise KeqError("no support")

    monkeypatch.setattr(workloads, "direct_replication", broken)
    ctx = workloads.Context(ROOT, 1, 1.0, "mc-s5", work=tmp_path)
    workloads.ReplicationKind(ctx).op(0, *pair)
    assert (ctx.tally.attempted, ctx.tally.failed) == (1, 1)


def test_reference_deviation_is_counted_as_failure():
    tally = Tally("boot-s5-t2", 0)
    ref = np.array(json.loads((ROOT / "perfbench/reference.json").read_text())
                   ["workloads"]["boot-s5-t2"]["boot-point"])
    tally.reference(0, "boot-point", ref)
    tally.reference(1, "boot-point", ref + 1e-9)
    assert tally.failed == 1
    assert tally.ref_max_abs_dev == pytest.approx(1e-9, rel=1e-3)
    assert Tally("boot-s5-t2", 1).ref_max_abs_dev is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-s5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

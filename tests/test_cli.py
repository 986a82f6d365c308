"""End-to-end tests of the command-line interface."""

import argparse
import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import keq
from keq.cli import (
    build_parser,
    main,
    read_equating_table,
    read_metrics_csv,
    write_equating_table,
    write_metrics_report,
)
from keq.core import (
    Binned,
    Categorical,
    CovariateSpace,
    EquatingTable,
    ScoreScale,
    coerce_dataset,
    read_person_csv,
)
from keq.equate import GkePipelineConfig, PipelineSpec
from keq.metrics import MetricsReport
from keq.presmooth import LoglinearSpec
from keq.simulate import METHOD_SEQ, GeneratorParams, ScenarioSpec, gen_population, run_scenario


def write_person_csv(path, dataset):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = list(dataset.columns)
        writer.writerow(["score"] + names)
        for i in range(dataset.n):
            writer.writerow([dataset.scores[i]] + [dataset.columns[n][i] for n in names])


@pytest.fixture()
def person_files(tmp_path):
    sc = replace(ScenarioSpec.from_table(1), n=1500)
    p = gen_population("P", sc, seed=10)
    q = gen_population("Q", sc, seed=11)
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    write_person_csv(p_path, p)
    write_person_csv(q_path, q)
    return p_path, q_path


NEC_FLAGS = [
    "--covariates", "school,attempt,other_score",
    "--bin", "other_score=50,60,70,80,100",
    "--scale", "0,100",
]


class TestCmdEquate:
    def test_nec_happy_path(self, person_files, tmp_path):
        p_path, q_path = person_files
        out = tmp_path / "table.csv"
        code = main(["equate", "--design", "nec", "--p", str(p_path),
                     "--q", str(q_path), *NEC_FLAGS, "--out", str(out)])
        assert code == 0
        table = read_equating_table(out)
        assert table.method == "GKE"
        assert table.source_scale == ScoreScale(0, 100)
        assert np.all(np.diff(table.equated) >= -1e-9)

    @pytest.mark.parametrize("flags, config", [
        (["--presmooth-degree", "4"], GkePipelineConfig(presmooth=LoglinearSpec(score_degree=4))),
        (["--interaction-degree", "2"],
         GkePipelineConfig(presmooth=LoglinearSpec(interaction_degree=2))),
        (["--covariate-terms", "variables"],
         GkePipelineConfig(presmooth=LoglinearSpec(covariate_terms="variables"))),
        (["--bandwidth-y", "0.8"], GkePipelineConfig(bandwidth_y=0.8)),
        (["--score", "total"], GkePipelineConfig()),
    ], ids=["presmooth-degree", "interaction-degree", "covariate-terms", "bandwidth-y",
            "score"])
    def test_flag_matches_library_call(self, person_files, tmp_path, flags, config):
        paths = person_files
        score = "score"
        if flags[0] == "--score":
            score = flags[1]
            paths = [tmp_path / f"renamed_{path.name}" for path in person_files]
            for old, new in zip(person_files, paths):
                text = old.read_text(encoding="utf-8")
                new.write_text(text.replace("score", score, 1), encoding="utf-8")
        out = tmp_path / "cli.csv"
        assert main(["equate", "--design", "nec", "--p", str(paths[0]), "--q", str(paths[1]),
                     *NEC_FLAGS, *flags, "--precision", "full", "--out", str(out)]) == 0
        space = CovariateSpace((Categorical("school", ("0", "1")),
                                Categorical("attempt", ("0", "1")),
                                Binned("other_score", (50, 60, 70, 80, 100))))
        p, q = (coerce_dataset(read_person_csv(path, score_column=score), ScoreScale(0, 100),
                               space) for path in paths)
        expected = PipelineSpec("GKE", config=config).run(p, q).equated
        assert np.array_equal(read_equating_table(out).equated, expected)
        if flags[0] != "--score":  # the flag changes the result
            assert not np.array_equal(expected, PipelineSpec("GKE").run(p, q).equated)

    def test_unconverged_presmoothing_warns_on_stderr(self, person_files, tmp_path,
                                                     capsys, monkeypatch):
        p_path, q_path = person_files
        argv = ["equate", "--design", "nec", "--p", str(p_path), "--q", str(q_path),
                *NEC_FLAGS, "--precision", "full"]
        assert main([*argv, "--out", str(tmp_path / "converged.csv")]) == 0
        assert capsys.readouterr().err == ""
        fit = keq.presmooth.fit_loglinear
        monkeypatch.setattr(keq.presmooth, "fit_loglinear",
                            lambda *a, **kw: fit(*a, **{**kw, "max_iter": 1}))
        for out in ("quiet.csv", "verbose.csv"):
            flags = ["--verbose"] if out == "verbose.csv" else []
            assert main([*argv, *flags, "--out", str(tmp_path / out)]) == 0
            err = capsys.readouterr().err.splitlines()
            assert [line[:23] for line in err] == ["warning: presmoothing P",
                                                   "warning: presmoothing Q"]
            assert all("IRLS stopped after 1 iterations" in line for line in err)
        assert ((tmp_path / "quiet.csv").read_bytes()
                == (tmp_path / "verbose.csv").read_bytes())

    def test_unconverged_covariate_run_presmoothing_warns(self, person_files, tmp_path,
                                                          capsys, monkeypatch):
        p_path, q_path = person_files
        fit = keq.presmooth.fit_loglinear
        monkeypatch.setattr(keq.presmooth, "fit_loglinear",
                            lambda *a, **kw: fit(*a, **{**kw, "max_iter": 1}))
        assert main(["equate", "--design", "nec", "--p", str(p_path), "--q", str(q_path),
                     *NEC_FLAGS, "--equate-covariate", "other_score",
                     "--out", str(tmp_path / "seq.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1] for line in err] == [
            " presmoothing P", " presmoothing Q",
            " presmoothing P (covariate run)", " presmoothing Q (covariate run)"]
        assert all("IRLS stopped after 1 iterations" in line for line in err)

    def test_sequential_records_covariate_summary(self, person_files, tmp_path):
        p_path, q_path = person_files
        out = tmp_path / "seq.csv"
        code = main(["equate", "--design", "nec", "--p", str(p_path),
                     "--q", str(q_path), *NEC_FLAGS, "--equate-covariate", "other_score",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "# method: sequential GKE" in text
        assert "# covariate_mean_shift:" in text
        assert read_equating_table(out).method == "sequential GKE"

    def test_identical_files_give_identity(self, person_files, tmp_path):
        p_path, _ = person_files
        out = tmp_path / "ident.csv"
        code = main(["equate", "--design", "eg", "--p", str(p_path),
                     "--q", str(p_path), "--scale", "0,100",
                     "--out", str(out), "--precision", "full"])
        assert code == 0
        table = read_equating_table(out)
        assert np.max(np.abs(table.equated - table.source_scale.points)) < 1e-6

    def test_bootstrap_appends_see(self, person_files, tmp_path):
        p_path, q_path = person_files
        out = tmp_path / "boot.csv"
        code = main(["equate", "--design", "eg", "--p", str(p_path),
                     "--q", str(q_path), "--scale", "0,100", "--no-presmooth",
                     "--bootstrap", "12", "--seed", "5", "--out", str(out),
                     "--dump-replicates", str(tmp_path / "reps.csv")])
        assert code == 0
        table = read_equating_table(out)
        assert table.see is not None
        assert np.all(table.see >= 0)
        reps = (tmp_path / "reps.csv").read_text(encoding="utf-8").splitlines()
        assert reps[0].startswith("score,replicate_0")
        assert len(reps) == 102

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("score,g\n3,a\n,b\n", encoding="utf-8")
        ok = tmp_path / "ok.csv"
        ok.write_text("score,g\n3,a\n", encoding="utf-8")
        for p_path, q_path in ((bad, ok), (ok, bad)):
            code = main(["equate", "--design", "eg", "--p", str(p_path),
                         "--q", str(q_path), "--out", str(tmp_path / "o.csv")])
            assert code == 2
            assert f"{bad}: line 3: missing score value" in one_line_error(capsys)

    @pytest.mark.parametrize("content, message", [
        (b"score,g\n3,a\n99999999999999999999,b\n",
         "line 3: score '99999999999999999999' outside the 64-bit integer range"),
        (b"score,g\n3,a\n4,\xff\n", "line 3: not UTF-8 text: invalid start byte at byte 14"),
        (b"score,g,g\n3,a,b\n", "line 1: duplicate column 'g'"),
    ], ids=["int64-overflow", "not-utf8", "duplicate-header"])
    def test_malformed_person_csv_exits_2_naming_file_and_line(self, tmp_path, capsys,
                                                               content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code = main(["equate", "--design", "nec", "--p", str(bad), "--q", str(bad),
                     "--covariates", "g", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert one_line_error(capsys) == f"error: {bad}: {message}\n"

    def test_nec_without_covariates_exits_2(self, person_files, tmp_path, capsys):
        p_path, q_path = person_files
        code = main(["equate", "--design", "nec", "--p", str(p_path), "--q", str(q_path),
                     "--scale", "0,100", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "--covariates" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--bin", "other_score=a,b"],
        ["--scale", "0"],
        ["--omega", "2"],
        ["--kpen", "-1"],
        ["--bandwidth-x", "0"],
        ["--seed", "-1", "--bootstrap", "3"],
    ])
    def test_malformed_flag_exits_2(self, person_files, tmp_path, capsys, flags):
        p_path, q_path = person_files
        argv = ["equate", "--design", "nec", "--p", str(p_path), "--q", str(q_path),
                *NEC_FLAGS, *flags, "--out", str(tmp_path / "o.csv")]
        assert exit_code(argv) == 2
        assert f"argument {flags[0]}: expected" in capsys.readouterr().err

    def test_empty_score_scale_flag_exits_2(self, person_files, tmp_path, capsys):
        p_path, q_path = person_files
        code = main(["equate", "--design", "eg", "--p", str(p_path), "--q", str(q_path),
                     "--scale", "5,3", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "error: empty score scale [5, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--design", "eg", *NEC_FLAGS, "--equate-covariate", "other_score"],
         "--equate-covariate"),
        (["--design", "nec", *NEC_FLAGS, "--equate-covariate", "nosuch"],
         "--equate-covariate"),
        (["--design", "nec", *NEC_FLAGS, "--equate-covariate", "school"],
         "--equate-covariate"),
        (["--design", "nec", "--covariates", "school", "--bin", "nosuch=1,2"], "--bin"),
        (["--design", "eg", "--dump-replicates", "r.csv"], "--dump-replicates"),
    ])
    def test_inconsistent_flags_exit_2(self, person_files, tmp_path, capsys, flags, named):
        p_path, q_path = person_files
        code = main(["equate", "--p", str(p_path), "--q", str(q_path), *flags,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"error: {named}" in capsys.readouterr().err

    def test_malformed_keq_threads_exits_2(self, person_files, tmp_path, capsys,
                                           monkeypatch):
        p_path, q_path = person_files
        monkeypatch.setenv("KEQ_THREADS", "x")
        argv = ["equate", "--design", "eg", "--p", str(p_path), "--q", str(q_path),
                "--out", str(tmp_path / "o.csv")]
        assert exit_code(argv) == 2
        assert "KEQ_THREADS" in capsys.readouterr().err
        assert main([*argv, "--threads", "1"]) == 0

    def test_non_finite_bin_threshold_exits_2(self, person_files, tmp_path, capsys):
        p_path, q_path = person_files
        code = main(["equate", "--design", "nec", "--p", str(p_path), "--q", str(q_path),
                     "--covariates", "other_score", "--bin", "other_score=nan,60",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert one_line_error(capsys) == (
            "error: binned 'other_score': thresholds must be finite\n")
        assert not (tmp_path / "o.csv").exists()

    def test_too_few_bootstrap_replicates_exits_2(self, person_files, tmp_path, capsys):
        p_path, q_path = person_files
        code = main(["equate", "--design", "eg", "--p", str(p_path), "--q", str(q_path),
                     "--bootstrap", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "bootstrap replicates" in capsys.readouterr().err


def one_line_error(capsys) -> str:
    """The captured stderr, which must be one ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv", [
    ["equate", "--design", "eg", "--p", "{d}/nosuch.csv", "--q", "{q}", "--out", "{d}/o.csv"],
    ["equate", "--design", "eg", "--p", "{p}", "--q", "{q}", "--out", "{d}/nodir/o.csv"],
    ["plot-data", "{d}/nosuch.csv", "--out", "{d}/o.csv"],
    ["chain", "--plan", "{d}/nosuch.json", "--out-dir", "{d}/out"],
    ["simulate", "--scenario-config", "{d}/nosuch.json", "--reps", "2", "--out", "{d}/m.csv"],
], ids=["equate-input", "equate-output", "plot-data", "chain", "scenario-config"])
def test_file_that_cannot_be_opened_exits_2(person_files, tmp_path, capsys, argv):
    p_path, q_path = person_files
    assert main([a.format(d=tmp_path, p=p_path, q=q_path) for a in argv]) == 2
    assert "No such file or directory" in one_line_error(capsys)


def exit_code(argv) -> int:
    """``main``'s return value, or the status of the exit argparse takes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_every_option_is_listed():
    """Each subcommand's options (38 in all), so that adding one edits this list."""
    expected = {
        "equate": ["--design", "--p", "--q", "--score", "--covariates", "--bin", "--scale",
                   "--omega", "--kpen", "--bandwidth-x", "--bandwidth-y", "--no-presmooth",
                   "--presmooth-degree", "--interaction-degree", "--covariate-terms",
                   "--equate-covariate", "--bootstrap", "--dump-replicates", "--seed",
                   "--threads", "--precision", "--verbose", "--out"],
        "simulate": ["--scenario", "--scenario-config", "--reps", "--seed", "--methods",
                     "--score-range", "--threads", "--precision", "--out"],
        "chain": ["--plan", "--precision", "--out-dir"],
        "plot-data": ["inputs", "--out", "--svg"],
    }
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    listed = {name: [a.option_strings[0] if a.option_strings else a.dest
                     for a in sub._actions if not isinstance(a, argparse._HelpAction)]
              for name, sub in commands.items()}
    assert listed == expected


def test_import_and_equate_run_load_no_scipy(person_files, tmp_path):
    src = str(Path(keq.__file__).resolve().parents[1])
    p_path, q_path = person_files
    argv = ["equate", "--design", "nec", "--p", str(p_path), "--q", str(q_path),
            *NEC_FLAGS, "--out", str(tmp_path / "o.csv")]
    code = ("import sys, keq, keq.cli; "
            f"assert keq.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_exported_names_resolve_and_no_package_name_shadows_a_module():
    for info in pkgutil.iter_modules(keq.__path__):
        module = importlib.import_module(f"keq.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"keq.{info.name}.__all__ names missing {missing}"
        assert getattr(keq, info.name) is module, f"keq.{info.name} is not the module"


class TestCmdSimulate:
    def test_smoke_report(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--scenario", "1", "--reps", "2", "--seed", "1",
                     "--score-range", "0,60", "--out", str(out)])
        assert code == 0
        per_method, summary = read_metrics_csv(out)
        assert set(per_method) == {"GKE", "sequential GKE"}
        for vecs in per_method.values():
            assert np.all(np.isfinite(vecs["bias"]))
            assert np.all(np.isfinite(vecs["see"]))
            assert np.all(np.isfinite(vecs["rmse"]))
        assert "mean_ediff" in summary and "dtm_exceed" in summary

    def test_unknown_scenario_exits_2(self, tmp_path):
        code = main(["simulate", "--scenario", "99", "--reps", "2",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        args = ["simulate", "--scenario", "1", "--reps", "2", "--seed", "7",
                "--score-range", "0,60"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_custom_scenario_config(self, tmp_path):
        config = {
            "relationship": "weak", "alpha": 0.5, "beta": 30.0,
            "covariate_shift": 10.0, "y_transform": [1.0, 0.0], "n": 800,
            "generator": {"score_range": [0, 80], "error_sd": 8.0},
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "m.csv"
        code = main(["simulate", "--scenario-config", str(cfg_path),
                     "--reps", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        per_method, _ = read_metrics_csv(out)
        assert per_method["GKE"]["score"][-1] == 80

    @pytest.mark.parametrize("flags", [["--score-range", "60"], ["--reps", "1"],
                                       ["--seed", "-1"]])
    def test_malformed_flag_exits_2(self, tmp_path, capsys, flags):
        argv = ["simulate", "--scenario", "1", "--reps", "2", *flags,
                "--out", str(tmp_path / "m.csv")]
        assert exit_code(argv) == 2
        assert f"argument {flags[0]}: expected" in capsys.readouterr().err

    def test_empty_score_range_flag_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "5", "--reps", "2",
                     "--score-range", "100,0", "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "error: empty score scale [100, 0]" in capsys.readouterr().err

    def test_empty_score_range_in_config_exits_2(self, tmp_path, capsys):
        config = {"relationship": "strong", "n": 800,
                  "generator": {"score_range": [80, 0]}}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["simulate", "--scenario-config", str(cfg_path), "--reps", "2",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "error: empty score scale [80, 0]" in capsys.readouterr().err

    @pytest.mark.parametrize("config, named", [
        ({"n": 800, "generator": {"nosuch": 1}}, "unknown key 'nosuch'"),
        ({"n": 800, "generator": {"score_range": [0, 80, 5]}}, "bad score_range [0, 80, 5]"),
        ({"n": 800, "generator": {"pop_p": [0.3, 0.8]}}, "bad pop_p [0.3, 0.8]"),
        ({"relationship": "weak"}, "missing 'n'"),
        ({"n": "abc"}, "bad n 'abc'"),
        ([{"n": 800}], "expected a JSON object"),
        ({"n": 800, "alpha": True}, "bad alpha True"),
        ({"n": 800, "generator": {"error_sd": True}}, "bad error_sd True"),
        ({"n": 800, "covariate_shift": "10"}, "bad covariate_shift '10'"),
        ({"n": 300.7}, "bad n 300.7"),
        ({"n": 800, "id": 2.5}, "bad id 2.5"),
        ({"n": 800, "covariate_shift": float("nan")}, "bad covariate_shift nan"),
        ({"n": 800, "alpha": float("inf")}, "bad alpha inf"),
        ({"n": 800, "generator": {"error_sd": -1.0}}, "error_sd must be positive"),
        ({"n": 800, "generator": {"covariate_range": [100.0, 0.0]}},
         "covariate_range [100.0, 0.0] must ascend"),
    ], ids=["generator-key", "score-range", "pop-p", "no-n", "n", "array",
            "alpha-bool", "generator-bool", "shift-string", "n-fraction", "id-fraction",
            "shift-nan", "alpha-infinity", "negative-sd", "descending-range"])
    def test_malformed_scenario_config_exits_2(self, tmp_path, capsys, config, named):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["simulate", "--scenario-config", str(cfg_path), "--reps", "2",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert named in one_line_error(capsys)

    def test_methods_flag_matches_library_call(self, tmp_path):
        out, direct = tmp_path / "cli.csv", tmp_path / "direct.csv"
        assert main(["simulate", "--scenario", "1", "--reps", "2", "--seed", "4",
                     "--score-range", "0,60", "--methods", "seq", "--precision", "full",
                     "--out", str(out)]) == 0
        report = run_scenario(ScenarioSpec.from_table(1), 2, methods=(METHOD_SEQ,), seed=4,
                              params=GeneratorParams(score_range=(0, 60)))
        write_metrics_report(report, direct, "full")
        assert out.read_bytes() == direct.read_bytes()
        assert list(read_metrics_csv(out)[0]) == ["sequential GKE"]

    def test_scenario_flags_are_exclusive(self, tmp_path):
        assert main(["simulate", "--reps", "2",
                     "--out", str(tmp_path / "m.csv")]) == 2


def write_chain_fixture(tmp_path, cyclic=False):
    rng = np.random.default_rng(3)
    forms = {}
    for name, shift in (("s2017", 0), ("s2018", 1), ("f2017", -4), ("f2018", -3)):
        n = 1200
        school = rng.integers(0, 2, size=n)
        scores = np.clip(np.round(rng.normal(25 + 3 * school + shift, 6, n)),
                         0, 50).astype(int)
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["score", "school"])
            for i in range(n):
                writer.writerow([scores[i], school[i]])
        forms[name] = f"{name}.csv"
    steps = [
        {"source": "s2018", "target": "s2017", "design": "eg"},
        {"source": "f2018", "target": "f2017", "design": "eg"},
        {"source": "f2017", "target": "s2017", "design": "nec",
         "covariates": ["school"]},
    ]
    if cyclic:
        steps.append({"source": "g1", "target": "g2", "design": "eg"})
        steps.append({"source": "g2", "target": "g1", "design": "eg"})
    plan = {
        "baseline": "s2017",
        "scale": [0, 50],
        "covariates": {"school": {"type": "categorical"}},
        "datasets": forms,
        "steps": steps,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return plan_path


class TestCmdChain:
    def test_chain_runs_and_writes_tables(self, tmp_path):
        plan_path = write_chain_fixture(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["chain", "--plan", str(plan_path), "--out-dir", str(out_dir),
                     "--precision", "full"])
        assert code == 0
        step_files = sorted(f.name for f in out_dir.glob("step_*.csv"))
        assert len(step_files) == 3
        composed = sorted(f.name for f in out_dir.glob("composed_*.csv"))
        assert composed == ["composed_f2017.csv", "composed_f2018.csv",
                            "composed_s2018.csv"]
        for f in out_dir.glob("*.csv"):
            table = read_equating_table(f)
            assert np.all(np.diff(table.equated) >= -1e-9)

    def test_unconverged_presmoothing_warns_per_step(self, tmp_path, capsys, monkeypatch):
        plan_path = write_chain_fixture(tmp_path)
        argv = ["chain", "--plan", str(plan_path), "--precision", "full"]
        assert main([*argv, "--out-dir", str(tmp_path / "converged")]) == 0
        assert capsys.readouterr().err == ""
        fit = keq.presmooth.fit_loglinear
        monkeypatch.setattr(keq.presmooth, "fit_loglinear",
                            lambda *a, **kw: fit(*a, **{**kw, "max_iter": 1}))
        assert main([*argv, "--out-dir", str(tmp_path / "warned")]) == 0
        err = capsys.readouterr().err.splitlines()
        expected = [f"warning: step '{step}': presmoothing {pop}: IRLS stopped after 1 "
                    for step in ("s2018->s2017", "f2018->f2017", "f2017->s2017")
                    for pop in "PQ"]
        assert [line[:len(start)] for line, start in zip(err, expected)] == expected
        assert len(err) == len(expected)
        # The warnings leave the written tables as they are.
        monkeypatch.setattr(keq.cli, "_warn_unconverged", lambda *a, **kw: None)
        assert main([*argv, "--out-dir", str(tmp_path / "silent")]) == 0
        assert capsys.readouterr().err == ""
        for f in (tmp_path / "warned").iterdir():
            assert f.read_bytes() == (tmp_path / "silent" / f.name).read_bytes()

    def test_one_step_chain_matches_cmd_equate(self, tmp_path):
        plan_path = write_chain_fixture(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["chain", "--plan", str(plan_path),
                     "--out-dir", str(out_dir), "--precision", "full"]) == 0
        direct = tmp_path / "direct.csv"
        assert main(["equate", "--design", "eg",
                     "--p", str(tmp_path / "s2018.csv"),
                     "--q", str(tmp_path / "s2017.csv"),
                     "--covariates", "school", "--scale", "0,50",
                     "--out", str(direct), "--precision", "full"]) == 0
        chain_table = read_equating_table(out_dir / "step_s2018-_s2017.csv")
        direct_table = read_equating_table(direct)
        assert np.allclose(chain_table.equated, direct_table.equated, atol=1e-12)

    def test_cyclic_plan_exits_2(self, tmp_path, capsys):
        plan_path = write_chain_fixture(tmp_path, cyclic=True)
        code = main(["chain", "--plan", str(plan_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "cycle" in capsys.readouterr().err

    def test_step_omega_outside_unit_interval_exits_2(self, tmp_path, capsys):
        plan_path = write_chain_fixture(tmp_path)
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        plan["steps"][2]["omega"] = 2
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        code = main(["chain", "--plan", str(plan_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "omega 2 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda plan: plan["steps"][2].update(covariates=["nosuch"]),
         "'f2017' has no covariate 'nosuch'"),
        (lambda plan: plan["steps"][2].update(equated_covariates={"nosuch": "s2018->s2017"}),
         "step 'f2017->s2017': equated_covariates names 'nosuch', which is not one of"),
        (lambda plan: plan["steps"][2].update(
            target_equated_covariates={"nosuch": "s2018->s2017"}),
         "step 'f2017->s2017': target_equated_covariates names 'nosuch', which is not"),
        (lambda plan: plan["steps"][2].update(equated_covariates={"school": 5}),
         "references unknown step 5"),
        (lambda plan: plan["steps"][2].update(
            equated_covariates={"school": "s2018->s2017"}),
         "covariate 'school' is categorical"),
        (lambda plan: plan["steps"][2].update(
            target_equated_covariates={"school": "s2018->s2017"}),
         "covariate 'school' is categorical"),
        (lambda plan: plan["steps"][0].pop("source"), "step 0: missing 'source'"),
        (lambda plan: plan.update(scale=[0, 100, 5]), "bad scale [0, 100, 5]"),
        (lambda plan: plan.update(datasets=sorted(plan["datasets"].values())), "bad datasets"),
        (lambda plan: plan["covariates"].update(
            nl={"type": "binned", "thresholds": ["low", "high"]}),
         "bad thresholds ['low', 'high']"),
        (lambda plan: plan["covariates"].update(
            nl={"type": "binned", "thresholds": [float("nan"), 60]}),
         "bad thresholds [nan, 60]"),
        (lambda plan: plan["steps"][2].update(omega=True), "step 2: bad omega True"),
        (lambda plan: plan["steps"][2].update(equated_covariates={"school": []}),
         "step 'f2017->s2017': equated_covariates gives 'school' no step ids"),
    ], ids=["step-covariates", "equated-covariates", "target-equated-covariates",
            "equated-step-id", "categorical-equated", "categorical-target-equated",
            "no-source", "scale", "datasets-list", "thresholds", "nan-threshold", "omega-bool",
            "empty-step-ids"])
    def test_malformed_plan_exits_2(self, tmp_path, capsys, edit, named):
        plan_path = write_chain_fixture(tmp_path)
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        edit(plan)
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        code = main(["chain", "--plan", str(plan_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert named in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_plan_is_checked_before_any_csv_is_read(self, tmp_path, capsys):
        plan_path = write_chain_fixture(tmp_path)
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        plan["steps"][2]["equated_covariates"] = {"school": "nope"}
        plan["datasets"]["f2018"] = "absent.csv"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        code = main(["chain", "--plan", str(plan_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "references unknown step 'nope'" in one_line_error(capsys)

    def test_byte_identical_reruns(self, tmp_path):
        plan_path = write_chain_fixture(tmp_path)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["chain", "--plan", str(plan_path), "--out-dir", str(d1)]) == 0
        assert main(["chain", "--plan", str(plan_path), "--out-dir", str(d2)]) == 0
        for f1 in sorted(d1.glob("*.csv")):
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()


class TestCmdPlotData:
    def test_metrics_reshape_to_three_panels(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        assert main(["simulate", "--scenario", "1", "--reps", "2", "--seed", "2",
                     "--score-range", "0,60", "--out", str(metrics)]) == 0
        out = tmp_path / "plot.csv"
        assert main(["plot-data", str(metrics), "--out", str(out),
                     "--svg", str(tmp_path / "svg")]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,series,value,panel"
        panels = {line.split(",")[-1] for line in lines[1:]}
        assert panels == {"bias", "see", "rmse"}
        series = {line.split(",")[1] for line in lines[1:]}
        assert series == {"GKE", "sequential GKE"}
        svgs = sorted(f.name for f in (tmp_path / "svg").glob("*.svg"))
        assert svgs == ["bias.svg", "rmse.svg", "see.svg"]

    def test_tables_overlay_with_identity_and_see_bands(self, tmp_path):
        t1 = EquatingTable(ScoreScale(0, 4), [0.5, 1.4, 2.5, 3.6, 4.4],
                           see=[0.1] * 5, method="GKE")
        t2 = EquatingTable(ScoreScale(0, 4), [0.2, 1.2, 2.2, 3.2, 4.2],
                           method="sequential GKE")
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_equating_table(t1, p1, "full")
        write_equating_table(t2, p2, "full")
        out = tmp_path / "plot.csv"
        assert main(["plot-data", str(p1), str(p2), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        series = {line.split(",")[1] for line in lines}
        assert series == {"GKE", "GKE +see", "GKE -see", "sequential GKE",
                          "identity"}

    def test_repeated_input_is_read_once(self, tmp_path, monkeypatch):
        metrics = tmp_path / "metrics.csv"
        assert main(["simulate", "--scenario", "1", "--reps", "2", "--seed", "2",
                     "--score-range", "0,60", "--out", str(metrics)]) == 0
        table = tmp_path / "t.csv"
        write_equating_table(EquatingTable(ScoreScale(0, 4), [0.5, 1.4, 2.5, 3.6, 4.4]),
                             table, "full")
        reads = []
        read = keq.cli._read_result_csv
        monkeypatch.setattr(keq.cli, "_read_result_csv",
                            lambda path: reads.append(path) or read(path))
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert main(["plot-data", str(metrics), str(table), "--out", str(once)]) == 0
        assert reads == [str(metrics), str(table)]
        assert main(["plot-data", str(table), str(metrics), str(table), str(metrics),
                     "--out", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["plot-data", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        bad.write_bytes(b"\xff\xfe")
        assert main(["plot-data", str(bad), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("text, line", [
        ("# method: GKE\nscore,equated,see,method\n0,0.5,,GKE\n1.5,1.4,,GKE\n", 4),
        ("score,method,bias,see,rmse\n0,GKE,0.1,0.2,0.3\n1,GKE,abc,0.2,0.3\n", 3),
        ("score,method,bias,see,rmse\n0,GKE,0.1,0.2,0.3\nmean_ediff,\ndtm_exceed,0.5\n", 3),
        ("score,method,bias,see,rmse\n0,GKE,0.1,0.2,0.3\nmean_ediff\n", 3),
    ], ids=["table-score", "metrics-bias", "summary-empty", "summary-missing"])
    def test_malformed_value_exits_2_naming_the_line(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        assert main(["plot-data", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: {bad}: line {line}: " in one_line_error(capsys)


class TestRoundTrip:
    def test_equating_table_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        equated = np.cumsum(rng.uniform(0.3, 1.4, size=21)) - 3.123456789
        table = EquatingTable(ScoreScale(0, 20), equated,
                              see=rng.uniform(0.0, 1.0, size=21), method="GKE")
        path = tmp_path / "t.csv"
        write_equating_table(table, path, "full")
        back = read_equating_table(path)
        assert back.source_scale == table.source_scale
        assert np.array_equal(back.equated, table.equated)
        assert np.array_equal(back.see, table.see)
        assert back.method == table.method

    def test_metrics_report_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        points = np.arange(0, 11)
        replicates = {m: points + rng.normal(0.0, 0.7, size=(6, 11))
                      for m in ("GKE", "sequential GKE")}
        report = MetricsReport.from_replicates(points, points, replicates,
                                               header={"scenario": 5})
        path = tmp_path / "m.csv"
        write_metrics_report(report, path, "full")
        per_method, summary = read_metrics_csv(path)
        assert list(per_method) == list(report.per_method)
        for method, vecs in report.per_method.items():
            assert per_method[method]["score"] == list(points)
            for key in ("bias", "see", "rmse"):
                assert np.array_equal(per_method[method][key], vecs[key])
        assert summary == {"mean_ediff": report.mean_ediff,
                           "dtm_exceed": report.dtm_exceed_fraction}

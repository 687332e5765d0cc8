"""The experiment runner: config handling, exit codes, reports, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopspace_lab
from loopspace_lab.cli import load_config, main, run_suite
from loopspace_lab.errors import ConfigInvalid, UnknownSuite
from loopspace_lab.suites import CHECKS, ORACLE, SUITES, ExperimentConfig


def fast_config(suite, tmp_path, **kw):
    base = dict(suite=suite, resolution=32, samples=10, ode_steps=64,
                out_dir=str(tmp_path), seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_bad_resolution(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(suite="metric", resolution=24).validated()

    def test_bad_tolerance(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(suite="metric", oracle_tol=-1.0).validated()

    def test_bad_manifold(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(suite="metric", manifold="moebius").validated()

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            ExperimentConfig(suite="no-such-suite").validated()

    def test_flags_win_over_file(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"suite": "metric", "seed": 1,
                                        "resolution": 64}))
        cfg = load_config(str(cfg_file), {"seed": 9, "manifold": None})
        assert cfg.seed == 9 and cfg.resolution == 64 and cfg.suite == "metric"

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"suite": "metric", "bogus": 1}))
        with pytest.raises(ConfigInvalid):
            load_config(str(cfg_file), {})


@pytest.mark.parametrize("bad", [
    ["--seed", "-1"], ["--tol", "inf"], ["--tol", "nan"],
    {"resolution": 128.0}, {"seed": "abc"}, {"manifold": 5}, {"samples": "10"},
    {"ode_steps": "200"}, {"out_dir": 5}, {"suite": ["metric"]}, {"path_grid": 16.5},
    pytest.param({"oracle_tol": 10 ** 400}, id="oracle_tol beyond the float range"),
    # tags that parse to a manifold whose own tag differs
    {"manifold": "flat:03"}, {"manifold": "flat: 3"}, {"manifold": "flat:+3"},
    {"manifold": "flat:1_0"},
], ids=lambda bad: " ".join(bad) if isinstance(bad, list) else json.dumps(bad))
def test_malformed_value_exits_3_without_a_report(tmp_path, monkeypatch, bad):
    flags, values = (bad, {}) if isinstance(bad, list) else ([], bad)
    # a relative out_dir such as 5 would be written under the working directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "metric", "resolution": 32, "samples": 2,
                               "out_dir": "out", **values}))
    assert main(["run", "--config", str(cfg), *flags, "--quiet"]) == 3
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_integer_tolerance_from_file_and_flag_write_one_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "metric", "resolution": 32, "samples": 2,
                               "oracle_tol": 1, "out_dir": str(tmp_path / "file")}))
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    assert main(["run", "--suite", "metric", "--resolution", "32", "--samples", "2",
                 "--tol", "1", "--out", str(tmp_path / "flag"), "--quiet"]) == 0
    report = (tmp_path / "file" / "metric-0.json").read_bytes()
    assert report == (tmp_path / "flag" / "metric-0.json").read_bytes()
    assert json.loads(report)["config"]["oracle_tol"] == 1.0


class TestRunSuite:
    def test_report_files_written(self, tmp_path):
        cfg = fast_config("metric", tmp_path)
        report = run_suite(cfg)
        assert report.all_pass
        stem = tmp_path / "metric-3"
        data = json.loads((tmp_path / "metric-3.json").read_text())
        assert data["schema"] == "loopspace-lab/report-v1"
        assert data["all_pass"] is True
        assert data["config"]["resolution"] == 32
        for check in data["checks"]:
            assert set(check) == {"check_id", "anchor", "residual",
                                  "tolerance", "pass"}
            assert check["pass"] == (check["residual"] <= check["tolerance"])
        csv_lines = (tmp_path / "metric-3.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "check_id,anchor,residual,tolerance,pass"
        assert len(csv_lines) == len(data["checks"]) + 1
        meta = json.loads((tmp_path / "metric-3.meta.json").read_text())
        assert meta["wall_time_s"] > 0
        assert "wall_time_s" not in data

    def test_every_check_has_an_anchor(self, tmp_path):
        assert list(dict.fromkeys(key.split("/")[0] for key in CHECKS)) == list(SUITES)
        for suite in SUITES:
            cfg = fast_config(suite, tmp_path)
            report = run_suite(cfg)
            assert all(c.anchor for c in report.checks), suite
            declared = [(key.split("/")[1], identity, cfg.oracle_tol if tol is ORACLE else tol)
                        for key, (identity, tol, *_) in CHECKS.items()
                        if key.startswith(f"{suite}/")]
            assert [(c.check_id, c.anchor, c.tolerance) for c in report.checks] == declared

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_suite(fast_config("chart-roundtrip", a, out_dir=str(a)))
        run_suite(fast_config("chart-roundtrip", b, out_dir=str(b)))
        for ext in (".json", ".csv"):
            assert (a / f"chart-roundtrip-3{ext}").read_bytes() == \
                (b / f"chart-roundtrip-3{ext}").read_bytes()


class TestMainExitCodes:
    def test_pass_run(self, tmp_path, capsys):
        code = main(["run", "--suite", "metric", "--resolution", "32",
                     "--samples", "10", "--seed", "1",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "metric-1.json").exists()

    def test_unknown_suite_exits_2(self, tmp_path):
        code = main(["run", "--suite", "no-such-suite", "--out", str(tmp_path)])
        assert code == 2

    def test_invalid_config_exits_3(self, tmp_path):
        code = main(["run", "--suite", "metric", "--resolution", "24",
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("under", [False, True], ids=["a file", "a path under a file"])
    def test_unwritable_out_exits_3_before_the_suite(self, tmp_path, monkeypatch, under):
        calls = []
        monkeypatch.setitem(SUITES, "metric", lambda cfg, rng, out: calls.append(cfg))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "reports" if under else blocker
        assert main(["run", "--suite", "metric", "--out", str(out), "--quiet"]) == 3
        assert calls == []
        assert [p.name for p in tmp_path.rglob("*")] == ["blocker"]

    @pytest.mark.parametrize("blocked", ["json", "csv", "meta.json"])
    def test_unwritable_report_exits_3_with_one_error_line(self, tmp_path, capsys, blocked):
        # a directory where one report file goes: the suite runs, that write fails
        (tmp_path / f"metric-0.{blocked}").mkdir()
        code = main(["run", "--suite", "metric", "--resolution", "32", "--samples", "2",
                     "--seed", "0", "--out", str(tmp_path), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1

    def test_failing_check_exits_1_with_report(self, tmp_path):
        # an absurdly small oracle tolerance forces a failing record
        code = main(["run", "--suite", "geodesic-pointwise",
                     "--resolution", "32", "--ode-steps", "16",
                     "--tol", "1e-16", "--seed", "0",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        data = json.loads((tmp_path / "geodesic-pointwise-0.json").read_text())
        assert data["all_pass"] is False

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once; a flag of one call must not reach the next
        # and a parse error still exits 2
        from loopspace_lab.cli import _build_parser
        assert _build_parser() is _build_parser()
        args = ["run", "--suite", "metric", "--resolution", "32", "--samples", "10",
                "--out", str(tmp_path), "--quiet"]
        assert main(args + ["--seed", "4"]) == 0
        assert main(args) == 0
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "metric-0.json", "metric-0.meta.json", "metric-4.json", "metric-4.meta.json"]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--resolution", "many"])
        assert exc.value.code == 2

    def test_every_config_field_has_a_run_flag(self):
        # main reads one override per config field, by the field's name
        from loopspace_lab.cli import _build_parser
        dests = vars(_build_parser().parse_args(["run"]))
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= dests.keys()

    def test_list_suites(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(SUITES)
        assert len(out) == 16

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 3
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "suite": "metric", "resolution": 32, "samples": 10,
            "seed": 5, "out_dir": str(tmp_path)}))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "metric-5.json").exists()

    @pytest.mark.parametrize("manifold,seed,resolution", [
        ("torus2", 10, 128), ("flat:3", 5, 128), ("flat:3", 6, 128),
        ("flat:3", 16, 128), ("flat:3", 23, 128),
        ("torus2", 2136207832, 1024)])
    def test_fibration_seed_section_stays_in_patch(self, tmp_path, manifold,
                                                   seed, resolution):
        # unclamped, these seeds draw a seed section whose base point leaves
        # the trivializing patch: the suite raises OutsidePatch, which exits 1
        # with a suite-error report
        code = main(["run", "--suite", "fibration", "--manifold", manifold,
                     "--seed", str(seed), "--resolution", str(resolution),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        data = json.loads((tmp_path / f"fibration-{seed}.json").read_text())
        assert data["all_pass"] is True

    @pytest.mark.parametrize("manifold", ["sphere2", "torus2", "flat:1", "flat:3"])
    @pytest.mark.parametrize("suite", ["metric", "fibration"])
    def test_section_suites_pass_at_the_smallest_resolution(self, tmp_path,
                                                            suite, manifold):
        # these suites build sections but no random loop, so the N/4
        # bandwidth guard of random loops must not stop them at N = 8
        code = main(["run", "--suite", suite, "--manifold", manifold,
                     "--resolution", "8", "--samples", "2", "--seed", "0",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert json.loads((tmp_path / f"{suite}-0.json").read_text())["all_pass"]

    @pytest.mark.parametrize("args,suite,error", [
        (["--suite", "tube-lp", "--resolution", "8"], "tube-lp", "ValueError: "),
        (["--suite", "transport-pointwise", "--ode-steps", "8"],
         "transport-pointwise", "IntegrationDiverged: ")])
    def test_suite_error_exits_1_with_report(self, tmp_path, args, suite, error):
        code = main(["run", *args, "--samples", "2", "--seed", "0",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        data = json.loads((tmp_path / f"{suite}-0.json").read_text())
        assert data["all_pass"] is False
        [check] = data["checks"]
        assert check["check_id"] == "suite-error"
        assert check["anchor"].startswith(error)
        assert (check["residual"], check["tolerance"], check["pass"]) == \
            (1.0, 0.5, False)
        assert (tmp_path / f"{suite}-0.csv").exists()

    def test_chart_roundtrip_sphere_seed7_example(self, tmp_path):
        code = main(["run", "--suite", "chart-roundtrip",
                     "--manifold", "sphere2", "--resolution", "128",
                     "--seed", "7", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        data = json.loads((tmp_path / "chart-roundtrip-7.json").read_text())
        roundtrip = [c for c in data["checks"]
                     if c["check_id"] == "psi-roundtrip"][0]
        assert roundtrip["residual"] < 1e-7


@pytest.mark.parametrize("resolution", [8, 32])
@pytest.mark.parametrize("manifold", ["sphere2", "torus2", "flat:1", "flat:3"])
@pytest.mark.parametrize("suite", list(SUITES))
def test_sweep_ends_with_an_honest_outcome(tmp_path, suite, manifold, resolution):
    # every accepted configuration passes, or fails with a written report
    code = main(["run", "--suite", suite, "--manifold", manifold,
                 "--resolution", str(resolution), "--samples", "2",
                 "--ode-steps", "16", "--path-grid", "16", "--seed", "0",
                 "--out", str(tmp_path), "--quiet"])
    assert code in (0, 1)
    if code == 1:
        data = json.loads((tmp_path / f"{suite}-0.json").read_text())
        assert data["all_pass"] is False


NUMPY_ONLY_RUN = """
import sys
import loopspace_lab.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"import loopspace_lab.cli loaded {loaded}")
sys.modules["scipy"] = None  # from here on every scipy import fails
sys.exit(loopspace_lab.cli.main(["run", "--suite", "transport-pointwise",
                                 "--resolution", "32", "--seed", "0",
                                 "--out", sys.argv[1], "--quiet"]))
"""


def test_runtime_needs_numpy_only(tmp_path):
    # a fresh interpreter, so that no scipy module loaded by the tests is reused
    src = str(Path(loopspace_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "transport-pointwise-0.json").read_text())["all_pass"]

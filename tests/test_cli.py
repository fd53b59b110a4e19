import json
import re

import pytest

from pwkit import GridSpec, make_bump, save_function
from pwkit.cli import ConfigError, Report, RunConfig, build_parser, main, run


class TestConfig:
    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            RunConfig("plot")

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError):
            RunConfig("radon", tolerances={"evenness": -1})

    def test_bad_preset(self):
        with pytest.raises(ConfigError):
            RunConfig("radon", preset="huge")

    def test_grid_flag_parsing(self):
        args = build_parser().parse_args(["radon", "--grid", "129,1.0"])
        assert args.grid == "129,1.0"

    def test_bad_grid_flag(self):
        from pwkit.cli import _parse_grid
        with pytest.raises(ConfigError):
            _parse_grid("129")


class TestWeylPipeline:
    def test_certify_b_pair(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["weyl", "certify", "--family", "B", "--k", "4",
                     "--n", "2", "--d", "6", "--report", str(report_path)])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["all_passed"]
        names = [r["name"] for r in data["records"]]
        assert any("surjectivity" in n for n in names)

    def test_certify_d_pair_obstruction_is_expected(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["weyl", "certify", "--family", "D", "--k", "5",
                     "--n", "4", "--d", "4", "--report", str(report_path)])
        assert code == 0  # the obstruction is the certified outcome
        data = json.loads(report_path.read_text())
        assert any("obstruction" in r["name"] for r in data["records"])

    def test_determinism_of_pass_vector(self):
        cfg = RunConfig("weyl", family="B", k_rank=3, n_rank=2, degree=4,
                        seed=7)
        r1, r2 = run(cfg), run(cfg)
        assert r1.pass_vector() == r2.pass_vector()


class TestReportShape:
    def test_records_carry_anchor_and_mesh(self):
        cfg = RunConfig("weyl", family="B", k_rank=3, n_rank=2, degree=4)
        report = run(cfg)
        assert len(report.records) >= 5
        for r in report.records:
            assert r["anchor"]
            assert "defect" in r and "threshold" in r and "runtime_s" in r

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig("weyl", family="B", k_rank=3, n_rank=2, degree=4,
                        report_path=str(tmp_path / "r.json"))
        run(cfg)
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["subcommand"] == "weyl"
        assert data["seed"] == 7


    def test_nonfinite_defect_is_written_as_strict_json(self, tmp_path):
        def no_constants(name):
            raise ValueError("non-standard JSON constant %s" % name)
        report = Report(RunConfig("weyl"))
        report.check("finite", "plumbing", lambda: 0.25, 0.5)
        report.check("ratio", "plumbing", lambda: float("inf"), 4.0,
                     compare="ge")
        report.check("undefined", "plumbing", lambda: float("nan"), 0.5)
        path = tmp_path / "r.json"
        report.write(str(path))
        data = json.loads(path.read_text(), parse_constant=no_constants)
        finite, ratio, undefined = data["records"]
        assert finite["defect"] == 0.25 and "nonfinite" not in finite
        assert ratio["defect"] is None and ratio["nonfinite"] == "inf"
        assert ratio["passed"]
        assert undefined["defect"] is None and undefined["nonfinite"] == "nan"
        # the in-memory records keep the floats
        assert report.records[1]["defect"] == float("inf")


class TestFileDriven:
    def test_radon_subcommand_writes_sinogram(self, tmp_path):
        g = GridSpec(2, 1.5, 129)
        f = make_bump([0.1, 0.0], 0.5, 1.0, g)
        fpath = tmp_path / "f.csv"
        save_function(f, str(fpath))
        spath = tmp_path / "s.csv"
        code = main(["radon", "--in", str(fpath), "--out", str(spath),
                     "--directions", "32",
                     "--report", str(tmp_path / "rep.json")])
        assert code == 0
        assert spath.exists()
        assert (tmp_path / "s.csv.directions").exists()

    def test_radon_subcommand_on_a_3d_function(self, tmp_path):
        g = GridSpec(3, 1.5, 33)
        f = make_bump([0.1, 0.0, -0.1], 0.6, 1.0, g)
        fpath = tmp_path / "f.csv"
        save_function(f, str(fpath))
        spath = tmp_path / "s.csv"
        rpath = tmp_path / "rep.json"
        code = main(["radon", "--in", str(fpath), "--out", str(spath),
                     "--report", str(rpath)])
        assert spath.exists()
        data = json.loads(rpath.read_text())
        # the exit code follows the checks: at 33^3 the zeroth moment misses
        # its 1e-6 bound (the transform truncates the spline's ringing
        # outside the support), which is a finding, not a crash
        assert code == (0 if data["all_passed"] else 1)
        assert [r["name"] for r in data["records"]] == [
            "radon evenness", "radon support localization",
            "zeroth moment equals total mass"]
        assert data["records"][0]["defect"] == 0.0
        # 64 requested directions map to sphere(7), as in the pw checks
        assert {r["mesh"]["Q"] for r in data["records"]} == {8 * 16}

    @pytest.mark.parametrize("subcommand, names", [
        ("slice", ["fourier slice identity", "motion-group plancherel",
                   "plancherel refinement", "pointwise inversion",
                   "projection compatibility"]),
        ("pw", ["moment homogeneity", "homogeneity violation detected",
                "support radius recovery",
                "growth stability at the critical type",
                "growth divergence below the critical type",
                "extension consistency", "evenness of the slice extension",
                "decay seminorms finite"]),
    ], ids=["slice", "pw"])
    def test_3d_function_keeps_every_record(self, tmp_path, subcommand,
                                            names):
        # checks written for 2-D inputs raise on a 3-D file; each one that
        # does is recorded as failed with its error, and the report is kept
        def no_constants(name):
            raise ValueError("non-standard JSON constant %s" % name)
        g = GridSpec(3, 1.5, 33)
        fpath = tmp_path / "f.csv"
        save_function(make_bump([0.1, 0.0, -0.1], 0.6, 1.0, g), str(fpath))
        rpath = tmp_path / "rep.json"
        code = main([subcommand, "--in", str(fpath), "--report", str(rpath)])
        data = json.loads(rpath.read_text(), parse_constant=no_constants)
        assert [r["name"] for r in data["records"]] == names
        errors = [r for r in data["records"] if "error" in r]
        assert errors
        for r in errors:
            assert r["defect"] is None and r["nonfinite"] == "nan"
            assert not r["passed"]
            assert re.match(r"\w+: ", r["error"])
        assert code == 1

import hashlib
import json
import math
import re

import numpy as np
import pytest

import pwkit
from pwkit import (DirectionSet, GridSpec, MultivariatePolynomial,
                   SampledFunction, cap_bump, make_bump, save_function,
                   save_profile)
from pwkit import cli, fourier, pw, radon, sphere, weyl
from pwkit.cli import ConfigError, Report, RunConfig, build_parser, main, run


# each flag with a value and the RunConfig fields it sets
FLAG_VALUES = {
    "--grid": ("129,1.0", {"grid_points": 129, "half_width": 1.0}),
    "--directions": ("32", {"directions": 32}),
    # no subcommand takes these: the homogeneity degree and the seminorm
    # order are the constants cli.KMAX and cli.SEMINORM_ORDER
    "--kmax": ("4", None),
    "--N": ("3", None),
    "--preset": ("thorough", {"preset": "thorough"}),
    "--seed": ("3", {"seed": 3}),
    "--report": ("r.json", {"report_path": "r.json"}),
    "--in": ("f.csv", {"input_path": "f.csv"}),
    "--out": ("s.csv", {"output_path": "s.csv"}),
    "--n": ("2", {"sphere_dim": 2}),
    "--d": ("4", {"degree": 4}),
}
# the flags that each subcommand's pipelines read; weyl certify's
# required flags are in its command
SUBCOMMAND_FLAGS = {
    "radon": ("--grid", "--directions", "--preset", "--seed", "--report",
              "--in", "--out"),
    "slice": ("--grid", "--directions", "--preset", "--seed", "--report",
              "--in"),
    "pw": ("--grid", "--directions", "--preset", "--seed", "--report",
           "--in"),
    "sphere": ("--n", "--in", "--report"),
    "weyl certify --family D --k 5 --n 4": ("--d", "--seed", "--report"),
    "all": ("--grid", "--directions", "--preset", "--seed", "--report",
            "--in", "--out"),
}


def captured_config(monkeypatch, argv):
    """The RunConfig that `main(argv)` hands to `run`, which does not run."""
    seen = []
    monkeypatch.setattr(cli, "run",
                        lambda config: seen.append(config) or Report(config))
    main(argv)
    [config] = seen
    return config


class TestConfig:
    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            RunConfig("plot")

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

    @pytest.mark.parametrize("grid", ["129", "129,x"])
    def test_malformed_grid_flag_is_a_config_error(self, grid, capsys):
        # reported as a config error with exit code 2, like a bad preset,
        # not raised
        assert main(["radon", "--grid", grid]) == 2
        assert "config error: --grid expects M,L" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, fields", [
        ("pw --grid 129,1.0 --directions 32",
         {"grid_points": 129, "half_width": 1.0, "directions": 32}),
        ("sphere --n 2", {"sphere_dim": 2}),
        ("weyl certify --family D --k 5 --n 4",
         {"family": "D", "k_rank": 5, "n_rank": 4, "degree": 6}),
        ("all --in f.csv --report r.json",
         {"input_path": "f.csv", "report_path": "r.json"}),
    ] + [(name, {}) for name in ("radon", "slice", "pw", "sphere", "all")])
    def test_each_flag_lands_in_its_config_field(self, monkeypatch, argv,
                                                 fields):
        # every other field keeps RunConfig's default
        config = captured_config(monkeypatch, argv.split())
        expected = vars(RunConfig(config.subcommand, **fields))
        assert vars(config) == expected

    WEYL_FIELDS = {"family": "D", "k_rank": 5, "n_rank": 4}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in SUBCOMMAND_FLAGS.items()
        for flag in flags])
    def test_a_flag_the_subcommand_reads_sets_its_field(self, monkeypatch,
                                                        command, flag):
        value, fields = FLAG_VALUES[flag]
        config = captured_config(monkeypatch, command.split() + [flag, value])
        if command.startswith("weyl"):
            fields = dict(self.WEYL_FIELDS, **fields)
        assert vars(config) == vars(RunConfig(config.subcommand, **fields))

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in SUBCOMMAND_FLAGS.items()
        for flag in FLAG_VALUES
        if flag not in flags and flag not in command.split()])
    def test_a_flag_no_pipeline_reads_is_refused(self, monkeypatch, capsys,
                                                 command, flag):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exit_:
            main(command.split() + [flag, FLAG_VALUES[flag][0]])
        assert exit_.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("radon --grid 128,1.5", "grid: points-per-axis must be odd"),
        ("slice --grid 31,1.5", "grid: points-per-axis must be odd"),
        ("all --grid 129,0", "grid: half-width must be positive"),
        ("radon --directions 0", "directions must be at least 1"),
        ("pw --directions -4", "directions must be at least 1"),
        # a file brings its own grid
        ("radon --grid 65,1.5 --in f.csv",
         "--grid and --in exclude each other"),
        ("all --in f.csv --grid 129,1.0",
         "--grid and --in exclude each other"),
    ])
    def test_grid_or_directions_outside_the_rule_is_a_config_error(
            self, monkeypatch, capsys, argv, message):
        # refused before any pipeline runs, with exit code 2
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
        assert main(argv.split()) == 2
        assert "config error: %s" % message in capsys.readouterr().err


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
        assert ([(r["name"], r["passed"]) for r in r1.records]
                == [(r["name"], r["passed"]) for r in r2.records])


def _record(report, name):
    [record] = [r for r in report.records if r["name"] == name]
    return record


class TestRecordMeshes:
    """Each record's mesh describes what that record computed."""

    @staticmethod
    def spy(monkeypatch, module, fn_name, measure):
        """Patch module.fn_name; return a dict that maps each record name to
        the list of measure(args, result) over the calls its check made."""
        seen, current = {}, []
        real = getattr(module, fn_name)

        def spied(*args, **kwargs):
            out = real(*args, **kwargs)
            current.append(measure(args, out))
            return out
        monkeypatch.setattr(module, fn_name, spied)
        real_check = Report.check

        def check(self, name, *args, **kwargs):
            current.clear()
            value = real_check(self, name, *args, **kwargs)
            seen[name] = list(current)
            return value
        monkeypatch.setattr(Report, "check", check)
        return seen

    @pytest.mark.parametrize("subcommand, module, name", [
        ("radon", radon, "radon round trip"),
        ("slice", radon, "pointwise inversion"),
        ("pw", pw, "extension consistency"),
    ], ids=["round-trip", "inversion", "extension"])
    def test_direction_count(self, monkeypatch, subcommand, module, name):
        seen = self.spy(monkeypatch, module, "radon_transform",
                        lambda args, s: len(s.directions))
        report = run(RunConfig(subcommand, grid_points=65, directions=32))
        assert set(seen[name]) == {_record(report, name)["mesh"]["Q"]}

    def test_plancherel_refinement_rungs(self, monkeypatch):
        name = "plancherel refinement"
        seen = self.spy(monkeypatch, fourier, "plancherel_defect",
                        lambda args, out: (args[0].grid.points,
                                           len(args[1].directions)))
        report = run(RunConfig("slice", grid_points=65, directions=32))
        mesh = _record(report, name)["mesh"]
        assert seen[name] == [(mesh["M"], mesh["Q"]),
                              (mesh["M_fine"], mesh["Q_fine"])]
        assert (mesh["M_fine"], mesh["Q_fine"]) == (129, 64)

    def test_projection_compatibility_directions_and_bumps(self,
                                                           monkeypatch):
        name = "projection compatibility"
        bumps = self.spy(monkeypatch, fourier,
                         "projection_compatibility_defect",
                         lambda args, out: args[0].grid.points)
        dirs = self.spy(monkeypatch, fourier, "radon_transform",
                        lambda args, s: len(s.directions))
        report = run(RunConfig("slice", grid_points=65, directions=32))
        mesh = _record(report, name)["mesh"]
        assert bumps[name] == [mesh["M3"]] * mesh["bumps"]
        assert set(dirs[name]) == {mesh["Q"]}

    def test_fourier_slice_radii(self, monkeypatch):
        name = "fourier slice identity"
        seen = self.spy(monkeypatch, fourier, "fourier_on_rays",
                        lambda args, out: max(args[1]))
        report = run(RunConfig("slice", grid_points=65, directions=32))
        # 65 points over [-1.5, 1.5]: the Nyquist radius is 32/3
        assert set(seen[name]) == {_record(report, name)["mesh"]["r_max"]}
        assert _record(report, name)["mesh"]["r_max"] == 10.5

    @pytest.mark.parametrize("points, extent", [(65, 32 / 3), (129, 12.0)],
                             ids=["65", "129"])
    def test_extension_mesh_extent(self, monkeypatch, points, extent):
        # the real extent of the extension mesh stops at the Nyquist
        # radius 1/(2h), 32/3 on 65 points over [-1.5, 1.5]; from 129
        # points on it is the largest slice radius, 12
        name = "extension consistency"
        seen = self.spy(monkeypatch, pw, "_slice_transform",
                        lambda args, out: abs(args[1].real).max())
        report = run(RunConfig("pw", grid_points=points, directions=16))
        assert set(seen[name]) == {
            _record(report, name)["mesh"]["z_re_extent"]}
        assert _record(report, name)["mesh"]["z_re_extent"] == extent

    def test_sphere_support_samples(self, monkeypatch):
        name = "sphere support equivalence"
        seen = self.spy(monkeypatch, sphere, "sphere_support_check",
                        lambda args, out: len(args[0].values))
        report = run(RunConfig("sphere"))
        assert set(seen[name]) == {_record(report, name)["mesh"]["T"]}

    def test_lift_spec_and_degree(self, monkeypatch):
        # the certificate runs the requested D5 -> D4 pair; the lift record
        # runs its own pair and must say so
        name = "averaging-decomposition lift"
        seen = self.spy(monkeypatch, weyl, "ow1_lift",
                        lambda args, out: (args[1].family, args[1].rank,
                                           args[2].rank, args[0].degree()))
        report = run(RunConfig("weyl", family="D", k_rank=5, n_rank=4,
                               degree=4))
        mesh = _record(report, name)["mesh"]
        assert {call[:3] for call in seen[name]} == {
            (mesh["family"], mesh["k"], mesh["n"])}
        assert max(call[3] for call in seen[name]) == mesh["d"]
        assert _record(report, "restriction obstruction certified")[
            "mesh"] == {"family": "D", "k": 5, "n": 4, "d": 4}

    def test_lift_record_checks_invariance_under_the_whole_group(
            self, monkeypatch):
        # (x1^2 - x2^2)(x3^2 + x4^2) restricts to 0 and is fixed by every
        # element of W(B4) that maps {x1, x2} to itself, but not by the
        # swap of x1 and x2, so adding it breaks invariance
        bad = MultivariatePolynomial(4, {(2, 0, 2, 0): 1, (2, 0, 0, 2): 1,
                                         (0, 2, 2, 0): -1, (0, 2, 0, 2): -1})
        real = weyl.ow1_lift
        monkeypatch.setattr(weyl, "ow1_lift",
                            lambda *args: real(*args) + bad)
        report = run(RunConfig("weyl"))
        assert not _record(report, "averaging-decomposition lift")["passed"]


class TestSharedInputs:
    """The radon, slice and pw pipelines certify one set of inputs per run."""

    @staticmethod
    def spy(monkeypatch):
        """Patch every binding of radon_transform; return the list of
        (function values, direction set) digests of its calls."""
        calls = []
        real = radon.radon_transform

        def digest(a):
            return a.shape, hashlib.sha256(a.tobytes()).hexdigest()

        def spied(f, *args, **kwargs):
            s = real(f, *args, **kwargs)
            calls.append((digest(f.values), digest(s.directions.vectors)))
            return s
        for module in (radon, fourier, pw, pwkit):
            monkeypatch.setattr(module, "radon_transform", spied)
        return calls

    # at --directions 256 the run's rule is the circle of the pointwise
    # inversion (slice) and of the round trip (radon), so neither transforms
    # the first function again
    @pytest.mark.parametrize("subcommand, count", [
        ("all", 32), ("slice", 256), ("radon", 256)],
        ids=["all", "inversion", "round-trip"])
    def test_no_function_is_transformed_twice_on_one_direction_set(
            self, monkeypatch, subcommand, count):
        calls = self.spy(monkeypatch)
        run(RunConfig(subcommand, grid_points=65, directions=count))
        assert calls
        assert len(set(calls)) == len(calls)

    def test_inversion_records_read_one_sinogram(self, monkeypatch):
        # the round trip and the pointwise inversion invert one sinogram of
        # the first function on circle(256), built once per run
        received = []
        for module, name in ((radon, "inverse_radon"),
                             (fourier, "pointwise_inversion")):
            def spied(s, *args, real=getattr(module, name), **kwargs):
                received.append(s)
                return real(s, *args, **kwargs)
            monkeypatch.setattr(module, name, spied)
        run(RunConfig("all", grid_points=65, directions=32))
        [round_trip, inversion] = received
        assert round_trip is inversion
        np.testing.assert_array_equal(round_trip.directions.vectors,
                                      DirectionSet.circle(256).vectors)

    @pytest.mark.parametrize("subcommand", ["weyl", "sphere"])
    def test_pipelines_without_sinograms_build_none(self, monkeypatch,
                                                    subcommand):
        calls = self.spy(monkeypatch)
        run(RunConfig(subcommand))
        assert calls == []

    def test_all_calls_every_pipeline_through_the_table(self, monkeypatch):
        # perfbench's tracer wraps the entries of cli.PIPELINES, so `run`
        # must look each pipeline up there at call time; every pipeline
        # gets the same loader, which builds the inputs once
        shared = object()
        loads = []
        monkeypatch.setattr(cli, "_load_or_suite",
                            lambda config: loads.append(config) or shared)
        calls = []
        for name in list(cli.PIPELINES):
            def spied(config, report, inputs, name=name):
                calls.append((name, inputs))
                assert inputs() is shared
            monkeypatch.setitem(cli.PIPELINES, name, spied)
        config = RunConfig("all")
        report = run(config)
        assert [name for name, _ in calls] == list(cli.PIPELINES)
        assert len({id(inputs) for _, inputs in calls}) == 1
        assert loads == [config]
        assert report.records == []


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
        # each record's mesh states what it ran on; the report has no grid
        assert "grid" not in data


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


    def test_report_records_its_environment(self, tmp_path, monkeypatch):
        def no_constants(name):
            raise ValueError("non-standard JSON constant %s" % name)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        report = Report(RunConfig("weyl"))
        report.check("finite", "plumbing", lambda: 0.25, 0.5)
        path = tmp_path / "r.json"
        report.write(str(path))
        env = json.loads(path.read_text(), parse_constant=no_constants)[
            "environment"]
        assert set(env) == {"python", "numpy", "scipy", "platform", "blas",
                            "cpu_count", "thread_variables", "git_sha"}
        assert env["numpy"] == cli.np.__version__ and env["python"]
        assert env["thread_variables"]["OMP_NUM_THREADS"] == "1"
        assert env["git_sha"] is None or len(env["git_sha"]) == 40

        # no git, and a numpy without a readable build configuration
        def missing(*args, **kwargs):
            raise FileNotFoundError("git")
        monkeypatch.setattr(cli.subprocess, "run", missing)
        monkeypatch.setattr(cli.np, "show_config", missing)
        env = report.to_dict()["environment"]
        assert env["git_sha"] is None and env["blas"] is None

    def test_records_carry_their_margin(self, tmp_path):
        # defect/threshold for "le", threshold/defect for "ge"; a
        # non-finite margin is written as null
        def no_constants(name):
            raise ValueError("non-standard JSON constant %s" % name)
        report = Report(RunConfig("weyl"))
        report.check("inside", "plumbing", lambda: 0.25, 0.5)
        report.check("outside", "plumbing", lambda: 3.0, 2.0)
        report.check("ratio", "plumbing", lambda: 8.0, 4.0, compare="ge")
        report.check("unbounded ratio", "plumbing", lambda: float("inf"), 4.0,
                     compare="ge")
        report.check("zero ratio", "plumbing", lambda: 0.0, 4.0, compare="ge")
        report.check("raised", "plumbing", lambda: 1 / 0, 0.0)
        margins = [r["margin"] for r in report.records]
        assert margins[:4] == [0.5, 1.5, 0.5, 0.0]
        assert margins[4] == math.inf and math.isnan(margins[5])
        path = tmp_path / "r.json"
        report.write(str(path))
        data = json.loads(path.read_text(), parse_constant=no_constants)
        assert [r["margin"] for r in data["records"]] == [0.5, 1.5, 0.5, 0.0,
                                                          None, None]


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

    @pytest.mark.parametrize("n, record", [
        (2, "sphere slice identity (rho = 1/2)"),
        (3, "sphere slice identity (rho = 1)"),
    ], ids=["n2", "n3"])
    def test_sphere_file_is_certified_on_its_own_sphere(self, tmp_path, n,
                                                         record):
        # the profile is read once, on S^n, and only that sphere's slice
        # identity is certified
        fpath = tmp_path / "cap.csv"
        save_profile(cap_bump(0.8, n), str(fpath))
        rpath = tmp_path / "rep.json"
        code = main(["sphere", "--in", str(fpath), "--n", str(n),
                     "--report", str(rpath)])
        data = json.loads(rpath.read_text())
        assert [r["name"] for r in data["records"]] == [
            record, "slice constant stability"]
        assert code == 0 and data["all_passed"]

    @pytest.mark.parametrize("argv, records", [
        (["--n", "2"], ["sphere slice identity (rho = 1/2)",
                        "slice constant stability"]),
        (["--n", "3"], ["sphere slice identity (rho = 1)",
                        "slice constant stability",
                        "sphere support equivalence"]),
        ([], ["sphere slice identity (rho = 1)",
              "sphere slice identity (rho = 1/2)",
              "slice constant stability", "sphere support equivalence"]),
    ], ids=["n2", "n3", "both"])
    def test_synthetic_sphere_run_keeps_to_its_sphere(self, tmp_path, argv,
                                                      records):
        # without --in, --n selects the sphere of the synthetic caps, and
        # no --n selects both; the support record runs on S^3 only
        rpath = tmp_path / "rep.json"
        code = main(["sphere"] + argv + ["--report", str(rpath)])
        data = json.loads(rpath.read_text())
        assert [r["name"] for r in data["records"]] == records
        assert code == 0 and data["all_passed"]

    def test_all_reads_its_file_as_a_function_only(self, tmp_path):
        # the --in file of `pwkit all` is an n-D function; the sphere
        # pipeline certifies both spheres' synthetic caps, as without --in
        fpath = tmp_path / "f.csv"
        save_function(make_bump([0.1, 0.0], 0.5, 1.0, GridSpec(2, 1.5, 65)),
                      str(fpath))
        rpath = tmp_path / "rep.json"
        main(["all", "--in", str(fpath), "--directions", "32",
              "--report", str(rpath)])
        data = json.loads(rpath.read_text())
        names = [r["name"] for r in data["records"]]
        assert "sphere pipeline" not in names
        # the records state the file's grid, not the default 257
        assert "grid" not in data
        meshes = [r["mesh"] for r in data["records"] if "M" in r["mesh"]]
        assert meshes and {m["M"] for m in meshes} == {65}
        assert {"sphere slice identity (rho = 1)",
                "sphere slice identity (rho = 1/2)"} <= set(names)

    def test_zero_file_fails_each_record_it_leaves_undefined(self, tmp_path):
        # the inversion error relative to max |f|, the Plancherel defect
        # relative to ||f||^2 and the growth mesh of height 3/rs are
        # undefined for the zero function: those five records fail with a
        # ZeroInput error, and no record reads NaN without an error
        fpath = tmp_path / "z.csv"
        g = GridSpec(2, 1.5, 65)
        save_function(SampledFunction(g, np.zeros((65, 65))), str(fpath))
        rpath = tmp_path / "rep.json"
        main(["all", "--in", str(fpath), "--directions", "32",
              "--report", str(rpath)])
        records = json.loads(rpath.read_text())["records"]
        errors = {r["name"]: r["error"] for r in records if "error" in r}
        assert set(errors) == {
            "radon round trip", "pointwise inversion",
            "motion-group plancherel",
            "growth stability at the critical type",
            "growth divergence below the critical type"}
        assert all(e.startswith("ZeroInput: ") for e in errors.values())
        assert all("error" in r for r in records if r["defect"] is None)

    def test_2d_file_leaves_out_the_plancherel_refinement(self, tmp_path):
        # the refinement's fine rung is the suite's first bump on the finer
        # grid, and a file has no finer samples of its own function, so a
        # file-driven run leaves the record out and a synthetic one keeps it
        fpath = tmp_path / "f.csv"
        save_function(make_bump([0.1, 0.0], 0.5, 1.0, GridSpec(2, 1.5, 65)),
                      str(fpath))
        rpath = tmp_path / "rep.json"
        main(["slice", "--in", str(fpath), "--directions", "32",
              "--report", str(rpath)])
        names = [r["name"] for r in json.loads(rpath.read_text())["records"]]
        synthetic = run(RunConfig("slice", grid_points=65, directions=32))
        assert [r["name"] for r in synthetic.records
                if r["name"] != "plancherel refinement"] == names
        assert "plancherel refinement" in {r["name"]
                                           for r in synthetic.records}

    @pytest.mark.parametrize("subcommand, name", [
        ("pw", "support radius recovery"),
        ("slice", "projection compatibility"),
    ], ids=["support", "compat"])
    def test_records_take_the_half_width_of_the_file(
            self, tmp_path, monkeypatch, subcommand, name):
        # the bumps a record draws for itself are scaled to the file's
        # L = 1.0 and sampled on grids of that half-width
        fpath = tmp_path / "f.csv"
        save_function(make_bump([0.1, 0.0], 0.5, 1.0, GridSpec(2, 1.0, 129)),
                      str(fpath))
        seen = TestRecordMeshes.spy(monkeypatch, pwkit.grid, "make_bump",
                                    lambda args, f: f.grid.half_width)
        report = run(RunConfig(subcommand, input_path=str(fpath),
                               directions=32))
        assert "error" not in _record(report, name)
        assert seen[name] and set(seen[name]) == {1.0}

    @pytest.mark.parametrize("subcommand", ["pw", "radon"])
    def test_unreadable_input_keeps_the_report(self, tmp_path, subcommand):
        # the input is read before the first check; its error becomes a
        # failed record and the report is still written
        def no_constants(name):
            raise ValueError("non-standard JSON constant %s" % name)
        fpath = tmp_path / "f.csv"
        fpath.write_text("garbage\n")
        rpath = tmp_path / "rep.json"
        code = main([subcommand, "--in", str(fpath), "--report", str(rpath)])
        assert code == 1
        data = json.loads(rpath.read_text(), parse_constant=no_constants)
        assert not data["all_passed"]
        [record] = data["records"]
        assert record["name"] == "%s pipeline" % subcommand
        assert not record["passed"]
        assert record["defect"] is None and record["nonfinite"] == "nan"
        assert record["error"].startswith("ValueError: ")

    def test_unreadable_input_fails_each_pipeline_that_reads_it(self,
                                                                tmp_path):
        # `all` records one failed "<name> pipeline" per pipeline that reads
        # the file, in pipeline order, runs the sphere (synthetic caps) and
        # weyl checks in full and still writes the report
        fpath = tmp_path / "f.csv"
        fpath.write_text("garbage\n")
        rpath = tmp_path / "rep.json"
        code = main(["all", "--in", str(fpath), "--report", str(rpath)])
        assert code == 1
        data = json.loads(rpath.read_text())
        failed = ["radon pipeline", "slice pipeline", "pw pipeline"]
        assert [r["name"] for r in data["records"]] == failed + [
            "sphere slice identity (rho = 1)",
            "sphere slice identity (rho = 1/2)",
            "slice constant stability", "sphere support equivalence",
            "group enumeration orders",
            "restricted stabilizer equals the smaller Weyl group",
            "type-D restriction gives all sign changes",
            "restriction surjectivity certified",
            "averaging-decomposition lift"]
        for r in data["records"][:3]:
            assert not r["passed"] and re.match(r"\w+: ", r["error"])
        assert all(r["passed"] for r in data["records"][3:])

    @pytest.mark.parametrize("subcommand, names", [
        ("slice", ["fourier slice identity", "motion-group plancherel",
                   "projection compatibility"]),
        ("pw", ["moment homogeneity", "homogeneity violation detected",
                "growth stability at the critical type",
                "growth divergence below the critical type",
                "extension consistency", "evenness of the slice extension",
                "decay seminorms finite"]),
    ], ids=["slice", "pw"])
    def test_3d_function_keeps_every_record(self, tmp_path, subcommand,
                                            names):
        # the checks written for 2-D inputs (plancherel refinement,
        # pointwise inversion, support radius recovery) are left out on a
        # 3-D file, and every other check runs without raising
        def no_constants(name):
            raise ValueError("non-standard JSON constant %s" % name)
        g = GridSpec(3, 1.5, 33)
        fpath = tmp_path / "f.csv"
        save_function(make_bump([0.1, 0.0, -0.1], 0.6, 1.0, g), str(fpath))
        rpath = tmp_path / "rep.json"
        code = main([subcommand, "--in", str(fpath), "--report", str(rpath)])
        data = json.loads(rpath.read_text(), parse_constant=no_constants)
        assert [r["name"] for r in data["records"]] == names
        assert not [r for r in data["records"] if "error" in r]
        assert code == (0 if data["all_passed"] else 1)

    def test_a_check_that_raises_is_recorded_and_the_run_goes_on(
            self, monkeypatch):
        def broken(s):
            raise RuntimeError("no growth ladder")
        monkeypatch.setattr(pw, "support_radius_estimate", broken)
        report = run(RunConfig("pw", grid_points=65, directions=32))
        names = [r["name"] for r in report.records]
        at = names.index("support radius recovery")
        record = report.records[at]
        assert record["error"] == "RuntimeError: no growth ladder"
        assert not record["passed"] and math.isnan(record["defect"])
        assert names[at + 1:] == [
            "growth stability at the critical type",
            "growth divergence below the critical type",
            "extension consistency", "evenness of the slice extension",
            "decay seminorms finite"]
        assert all("error" not in r for r in report.records[at + 1:])

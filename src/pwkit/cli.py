"""Command-line driver: per-module certification pipelines, JSON reports,
and CSV artifact emission.

Subcommands: radon, slice, pw, sphere, weyl, all.  Every check record in
the report carries the name of the mathematical identity it certifies (or
"plumbing" for bookkeeping checks), the measured defect, the pass
threshold, the margin (how close the defect came to the threshold; below 1
passes), and mesh metadata, so reports are diff-able across runs; with a
fixed seed the pass/fail vector is deterministic.  A check that raises is
recorded as failed, with the exception in its "error" field, and the run
goes on; an exception outside every check ends only its pipeline, as one
failed "<pipeline> pipeline" record, and the report is still written.
"""

import argparse
import functools
import json
import math
import operator
import os
import platform
import subprocess
import sys
import time

import numpy as np
from numpy.random import default_rng

from . import grid as _grid
from . import radon as _radon
from . import fourier as _fourier
from . import pw as _pw
from . import sphere as _sphere
from . import weyl as _weyl

__all__ = ["RunConfig", "Report", "ConfigError", "run", "main"]


class ConfigError(ValueError):
    pass


DEFAULT_TOLERANCES = {
    "evenness": 1e-8,
    "support_localization": 1e-10,
    "homogeneity": 1e-6,
    "violation_floor": 0.5,
    "round_trip": 1e-3,
    "fourier_slice": 1e-5,
    "plancherel": 1e-4,
    "plancherel_ratio": 4.0,
    "inversion": 1e-3,
    "projection_compat": 1e-5,
    "support_recovery": 0.05,
    "growth_stable": 2.0,
    "growth_divergent": 2.0,
    "extension_consistency": 1e-5,
    "extension_evenness": 1e-10,
    "sphere_slice_n3": 1e-6,
    "sphere_slice_n2": 1e-4,
    "sphere_constant": 1e-8,
    "moment_k0": 1e-6,
}

# fixed meshes of single records, each used by its computation and its mesh
INVERSION_DIRECTIONS = 256    # Q of both 2-D inversion records
SPHERE_M_MAX = 12             # highest zonal degree of the sphere records
SUPPORT_SAMPLES = 2049        # profile samples of the sphere support check
COMPAT_BUMPS = 2              # 3-D bumps of the projection compatibility check
KMAX = 6                      # highest Taylor degree of the homogeneity check
SEMINORM_ORDER = 2            # weight (1 + |z|^2)^N of the growth seminorms
GROUP_ORDERS = {("A", 2): 6, ("B", 2): 8, ("D", 4): 192}
B_RESTRICTIONS = [(k, n) for k in range(3, 6) for n in range(2, k)]
D_RESTRICTIONS = [(k, n) for k in (4, 5) for n in range(2, k)]
LIFT_FAMILY, LIFT_K, LIFT_N, LIFT_DEGREE = "B", 4, 2, 6
# all that a preset sets: the suite size and the 3-D grid points per axis
PRESETS = {"desk": {"suite_size": 3, "grid3_points": 97},
           "thorough": {"suite_size": 5, "grid3_points": 161}}


class RunConfig:
    """Configuration of one pipeline run; the seed makes the randomized
    test-function suite replayable."""

    def __init__(self, subcommand, grid_points=257, half_width=1.5,
                 directions=64, preset="desk", seed=7, report_path=None,
                 input_path=None, output_path=None, sphere_dim=None,
                 family="B", k_rank=4, n_rank=2, degree=6):
        if subcommand not in ("radon", "slice", "pw", "sphere", "weyl", "all"):
            raise ConfigError("unknown subcommand %r" % (subcommand,))
        if preset not in PRESETS:
            raise ConfigError("preset must be %s" % " or ".join(PRESETS))
        self.subcommand = subcommand
        self.grid_points = int(grid_points)
        self.half_width = float(half_width)
        self.directions = int(directions)
        try:
            _grid.GridSpec(2, self.half_width, self.grid_points)
        except ValueError as exc:
            raise ConfigError("grid: %s" % exc) from None
        if self.directions < 1:
            raise ConfigError("directions must be at least 1")
        self.preset = preset
        self.seed = int(seed)
        self.report_path = report_path
        self.input_path = input_path
        self.output_path = output_path
        self.sphere_dim = None if sphere_dim is None else int(sphere_dim)
        self.family = family
        self.k_rank = int(k_rank)
        self.n_rank = int(n_rank)
        self.degree = int(degree)
        vars(self).update(PRESETS[preset])


class Report:
    """Ordered list of check records plus run metadata."""

    def __init__(self, config):
        self.config = config
        self.records = []
        self.started = time.perf_counter()

    def check(self, name, anchor, fn, threshold, mesh=None, compare="le"):
        """Run one check and append its record.  A check that raises is
        recorded as failed with a NaN defect and "error" set to
        "<ExcType>: <message>", and the run goes on."""
        beats = {"le": operator.le, "ge": operator.ge}[compare]
        record = {"name": name, "anchor": anchor, "threshold": threshold,
                  "mesh": mesh or {}}
        t0 = time.perf_counter()
        try:
            value = float(fn())
        except Exception as exc:  # one broken check must not lose the report
            value = math.nan
            record["error"] = "%s: %s" % (type(exc).__name__, exc)
        record.update(defect=value, passed=bool(beats(value, threshold)),
                      margin=_margin(value, threshold, compare),
                      runtime_s=round(time.perf_counter() - t0, 3))
        self.records.append(record)
        return value

    @property
    def all_passed(self):
        return all(r["passed"] for r in self.records)

    def to_dict(self):
        return {
            "subcommand": self.config.subcommand,
            "preset": self.config.preset,
            "seed": self.config.seed,
            "total_runtime_s": round(time.perf_counter() - self.started, 3),
            "all_passed": self.all_passed,
            "environment": _environment(),
            "records": [_json_record(r) for r in self.records],
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _environment():
    """What the run ran on, so that two reports can be diffed: the python,
    numpy and scipy versions, the platform, numpy's BLAS, the CPU count, the
    thread variables that are set, and the git sha of the checkout that
    holds this package.  A field that cannot be read is None; this never
    raises.  pwkit does not use scipy: its version is None when scipy
    cannot be imported, and it is imported here, when a report is built,
    not at start-up."""
    def read(field):
        try:
            return field()
        except Exception:
            return None

    def scipy_version():
        import scipy
        return scipy.__version__
    return {
        "python": read(platform.python_version),
        "numpy": np.__version__,
        "scipy": read(scipy_version),
        "platform": read(platform.platform),
        "blas": read(lambda: np.show_config(mode="dicts")
                     ["Build Dependencies"]["blas"]["name"]),
        "cpu_count": os.cpu_count(),
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES
                             if k in os.environ},
        "git_sha": read(_git_sha),
    }


def _git_sha():
    """HEAD of the git work tree that holds this package, or None when the
    package is not in one."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"],
                          cwd=os.path.dirname(os.path.abspath(__file__)),
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _margin(value, threshold, compare):
    """How close a check came to its threshold, 1 at the threshold and
    below 1 inside it: defect/threshold for "le", threshold/defect for
    "ge"; a positive numerator over 0 is inf and 0/0 or NaN is NaN."""
    num, den = (value, threshold) if compare == "le" else (threshold, value)
    if den == 0:
        return math.inf if num > 0 else math.nan
    return num / den


def _json_record(record):
    """The record as strict JSON: a non-finite defect is written as null,
    with "nonfinite" set to "inf", "-inf" or "nan", and a non-finite margin
    as null."""
    d, m = record["defect"], record["margin"]
    out = dict(record, margin=m if np.isfinite(m) else None)
    if not np.isfinite(d):
        kind = "nan" if np.isnan(d) else ("inf" if d > 0 else "-inf")
        out.update(defect=None, nonfinite=kind)
    return out


def _load_or_suite(cfg):
    """The grid, the `--in` file's function or the seeded suite, the
    direction rule, one sinogram per function, the mesh they share, and the
    first function's inversion sinogram, built on first use (2-D only)."""
    if cfg.input_path:
        f = _grid.load_function(cfg.input_path)
        g, funcs = f.grid, [f]
    else:
        g = _grid.GridSpec(2, cfg.half_width, cfg.grid_points)
        funcs = _grid.random_bump_suite(g, cfg.suite_size, cfg.seed)
    dirs = _grid._directions_for(g.n, cfg.directions)
    sinos = [_radon.radon_transform(f, directions=dirs) for f in funcs]
    mesh = {"M": g.points, "L": g.half_width, "Q": len(dirs)}

    @functools.cache
    def inversion_sinogram():   # the shared one when the rule is its circle
        if len(dirs) == INVERSION_DIRECTIONS:
            return sinos[0]
        circle = _grid.DirectionSet.circle(INVERSION_DIRECTIONS)
        return _radon.radon_transform(funcs[0], directions=circle)
    return g, funcs, dirs, sinos, mesh, inversion_sinogram


def _inversion_error(approx, exact, f):
    """max |approx - exact| / max |f|, the error of both inversion records;
    raises ZeroInput for the zero function."""
    peak = np.abs(f.values).max()
    if peak == 0:
        raise _grid.ZeroInput("inversion error undefined for the zero input")
    return float(np.abs(approx - exact).max() / peak)


def run_radon(cfg, report, inputs):
    g, funcs, dirs, sinos, mesh, inversion_sinogram = inputs()

    # 0 by construction: radon_transform samples one direction of each
    # antipodal pair, so this checks the bookkeeping of the reuse
    report.check(
        "radon evenness", "plumbing",
        lambda: max(_radon.evenness_defect(s) for s in sinos),
        DEFAULT_TOLERANCES["evenness"], mesh)

    def outside_mass(f, s):
        outside = np.abs(s.offsets) > f.support_radius + g.spacing
        return float(np.abs(s.values[outside]).max()) if outside.any() else 0.0
    report.check("radon support localization",
                 "support of the transform inside the support radius",
                 lambda: max(map(outside_mass, funcs, sinos)),
                 DEFAULT_TOLERANCES["support_localization"], mesh)

    def moment_error(f, s):
        return float(np.abs(_radon.moment(s, 0) - _grid.integrate(f)).max())
    report.check("zeroth moment equals total mass", "moment compatibility",
                 lambda: max(map(moment_error, funcs, sinos)),
                 DEFAULT_TOLERANCES["moment_k0"], mesh)

    def round_trip():
        f = funcs[0]
        rec = _radon.inverse_radon(inversion_sinogram(), grid=f.grid)
        return _inversion_error(rec.values, f.values, f)
    if g.n == 2:
        report.check("radon round trip", "inversion formula", round_trip,
                     DEFAULT_TOLERANCES["round_trip"],
                     dict(mesh, Q=INVERSION_DIRECTIONS))

    if cfg.output_path and sinos:
        _radon.save_sinogram(sinos[0], cfg.output_path,
                             direction_path=cfg.output_path + ".directions")


def run_slice(cfg, report, inputs):
    g, funcs, dirs, sinos, mesh, inversion_sinogram = inputs()

    report.check(
        "fourier slice identity", "fourier-slice identity",
        lambda: max(map(_fourier.fourier_slice_defect, funcs, sinos)),
        DEFAULT_TOLERANCES["fourier_slice"],
        dict(mesh, r_max=float(_fourier._slice_radii(g)[-1])))

    report.check(
        "motion-group plancherel", "plancherel identity, d tau = sigma_n r^{n-1} dr",
        lambda: max(map(_fourier.plancherel_defect, funcs, sinos)),
        DEFAULT_TOLERANCES["plancherel"], mesh)

    fine_mesh = dict(mesh, M_fine=2 * g.points - 1, Q_fine=2 * len(dirs))

    def plancherel_ratio():
        coarse = _fourier.plancherel_defect(funcs[0], sinos[0])
        g2 = _grid.GridSpec(2, g.half_width, fine_mesh["M_fine"])
        # the suite draws its bumps in turn: a suite of one has its first
        f2 = _grid.random_bump_suite(g2, 1, cfg.seed)[0]
        s2 = _radon.radon_transform(
            f2, directions=_grid.DirectionSet.circle(fine_mesh["Q_fine"]))
        fine = _fourier.plancherel_defect(f2, s2)
        return coarse / fine if fine > 0 else np.inf
    # the ratio's fine rung and the inversion's points are 2-D, and the fine
    # rung is a suite bump: an `--in` file has no finer samples of its own
    if g.n == 2 and not cfg.input_path:
        report.check("plancherel refinement",
                     "plancherel identity, d tau = sigma_n r^{n-1} dr",
                     plancherel_ratio, DEFAULT_TOLERANCES["plancherel_ratio"],
                     fine_mesh, compare="ge")

    def inversion():
        f = funcs[0]
        rng = default_rng(cfg.seed + 1)
        ax = f.grid.axis()
        idx = rng.integers(0, f.grid.points, size=(20, 2))
        vals = _fourier.pointwise_inversion(inversion_sinogram(), ax[idx])
        return _inversion_error(vals, f.values[idx[:, 0], idx[:, 1]], f)
    if g.n == 2:
        report.check("pointwise inversion", "inversion formula", inversion,
                     DEFAULT_TOLERANCES["inversion"],
                     dict(mesh, Q=INVERSION_DIRECTIONS))

    def compat():
        g3 = _grid.GridSpec(3, g.half_width, cfg.grid3_points)
        rng = default_rng(cfg.seed + 2)
        scale = g.half_width / 1.5
        # each bump draws its centre, then its radius
        return max(_fourier.projection_compatibility_defect(
            _grid.make_bump(rng.uniform(-0.25, 0.25, size=3) * scale,
                            rng.uniform(0.5, 0.7) * scale, 1.0, g3))
                   for _ in range(COMPAT_BUMPS))
    report.check("projection compatibility", "marginal projection / slice square",
                 compat, DEFAULT_TOLERANCES["projection_compat"],
                 {"M3": cfg.grid3_points, "Q": _fourier.COMPAT_AZIMUTHS,
                  "bumps": COMPAT_BUMPS})


def run_pw(cfg, report, inputs):
    g, funcs, dirs, sinos, mesh, _ = inputs()
    mesh = dict(mesh, kmax=KMAX, N=SEMINORM_ORDER)

    report.check(
        "moment homogeneity", "homogeneous-moment condition",
        lambda: max(_pw.homogeneity_defect(s, KMAX) for s in sinos),
        DEFAULT_TOLERANCES["homogeneity"], mesh)

    def violation():
        th = np.arctan2(dirs.vectors[:, 1], dirs.vectors[:, 0])
        prof = np.exp(-sinos[0].offsets**2)
        bad = _radon.Sinogram(sinos[0].offsets, dirs,
                              np.outer(prof, np.cos(3 * th)))
        return _pw.homogeneity_defect(bad, 0)
    report.check("homogeneity violation detected", "homogeneous-moment condition",
                 violation, DEFAULT_TOLERANCES["violation_floor"], mesh,
                 compare="ge")

    def support_recovery():
        rng = default_rng(cfg.seed + 3)
        scale = g.half_width / 1.5

        def error(radius, shift):
            c = np.zeros(2)
            if shift:
                c = rng.uniform(-1, 1, 2)
                c *= rng.uniform(0.1, 0.3) / np.linalg.norm(c)
            f = _grid.make_bump(c * scale, radius * scale, 1.0, g)
            est = _pw.support_radius_estimate(
                _radon.radon_transform(f, directions=dirs))
            return abs(est - f.support_radius) / f.support_radius
        return max(error(radius, shift) for radius in (0.3, 0.6, 0.9)
                   for shift in (False, True))
    if g.n == 2:   # its bumps are 2-D
        report.check("support radius recovery",
                     "support radius from exponential type", support_recovery,
                     DEFAULT_TOLERANCES["support_recovery"], mesh)

    def _growth_ratios(s, exp_type, doublings):
        """Ratios of successive growth seminorms of s at `exp_type` as the
        imaginary extent of the mesh [-2, 2] x i[-3/rs, 3/rs] doubles."""
        if s.support_radius == 0:
            raise _grid.ZeroInput("growth mesh and type undefined for rs = 0")
        cg = _pw.ComplexGrid(2.0, 3.0 / s.support_radius, 9, 9)
        vals = [_pw.pw_seminorm(s, SEMINORM_ORDER, exp_type, cg)]
        for _ in range(doublings):
            cg = cg.doubled_imaginary()
            vals.append(_pw.pw_seminorm(s, SEMINORM_ORDER, exp_type, cg))
        return [b / a for a, b in zip(vals, vals[1:])]

    report.check(
        "growth stability at the critical type", "growth dichotomy",
        lambda: max(_growth_ratios(s, 2 * np.pi * s.support_radius, 1)[0]
                    for s in sinos),
        DEFAULT_TOLERANCES["growth_stable"], mesh)
    report.check(
        "growth divergence below the critical type", "growth dichotomy",
        lambda: min(min(_growth_ratios(s, np.pi * s.support_radius, 2))
                    for s in sinos),
        DEFAULT_TOLERANCES["growth_divergent"], mesh, compare="ge")

    ext = _pw._extension_mesh(g)
    ext_dirs = len(_grid._directions_for(g.n, _pw.EXTENSION_DIRECTIONS))
    report.check(
        "extension consistency", "slice extension agrees with the sphere extension",
        lambda: max(_pw.extension_consistency_defect(f) for f in funcs),
        DEFAULT_TOLERANCES["extension_consistency"],
        dict(mesh, Q=ext_dirs, z_mesh="%dx%d" % (ext.n_re, ext.n_im),
             z_re_extent=ext.re_extent))

    def extension_evenness(s):
        zs = np.array([0.3 + 0.2j, -1.1 + 0.4j, 0.7 - 0.35j])
        j = np.arange(0, len(s.directions), 8)
        a = _pw.complex_slice_eval(s, zs, j)
        b = _pw.complex_slice_eval(s, -zs, s.directions.antipodal_index()[j])
        return float(np.abs(a - b).max())
    report.check("evenness of the slice extension", "even extension",
                 lambda: max(map(extension_evenness, sinos)),
                 DEFAULT_TOLERANCES["extension_evenness"], mesh)

    def schwartz_finite():
        finite = all(np.isfinite(_pw.schwartz_seminorm(sinos[0], kk, ll))
                     for kk in range(5) for ll in range(5))
        return 0.0 if finite else np.inf
    # 0 or inf against 0.5: this checks that the seminorms are finite, not
    # that they decay
    report.check("decay seminorms finite", "plumbing", schwartz_finite, 0.5,
                 mesh)


def run_sphere(cfg, report, inputs):
    # profiles by sphere dimension: under `pwkit sphere` a file is one
    # profile on S^n, n = --n (3 if not given); otherwise the synthetic caps
    # are on S^n, or on both spheres if --n is not given.  `pwkit all` has
    # no --n, and its --in file is an n-D function for the other pipelines
    from_file = cfg.input_path and cfg.subcommand == "sphere"
    if from_file:
        n = cfg.sphere_dim or 3
        caps = {n: [_sphere.load_profile(cfg.input_path, n)]}
    else:
        caps = {n: [_sphere.cap_bump(t, n) for t in (0.5, 1.2)]
                for n in ((cfg.sphere_dim,) if cfg.sphere_dim else (3, 2))}
    profiles = [p for ps in caps.values() for p in ps]
    mesh = {"T": len(profiles[0].values), "m_max": SPHERE_M_MAX}

    # both sides of each profile's slice identity, made once per run for
    # the slice records and the constants; a failure is not kept, so each
    # record that asks sees it
    pair = functools.cache(lambda p: _sphere._slice_pair(p, SPHERE_M_MAX))
    slice_records = {
        3: ("sphere slice identity (rho = 1)", "sphere_slice_n3"),
        2: ("sphere slice identity (rho = 1/2)", "sphere_slice_n2")}
    for n, ps in caps.items():
        name, tolerance = slice_records[n]
        report.check(
            name, "cosine-kernel slice identity",
            lambda ps=ps: max(_sphere._slice_defect(p, *pair(p)) for p in ps),
            DEFAULT_TOLERANCES[tolerance], mesh)

    def constant_spread(p):
        c = _sphere.SLICE_CONSTANT[p.n]
        fh, I = pair(p)
        return float(np.abs(fh / I - c).max() / c)
    report.check("slice constant stability", "cosine-kernel slice identity",
                 lambda: max(map(constant_spread, profiles)),
                 DEFAULT_TOLERANCES["sphere_constant"], mesh)

    def support_gap(t):
        p = _sphere.cap_bump(t, 3, samples=SUPPORT_SAMPLES)
        rp, rr = _sphere.sphere_support_check(p)
        return abs(rp - rr) / p.step
    if 3 in caps and not from_file:
        report.check("sphere support equivalence", "zonal support theorem",
                     lambda: max(map(support_gap, (0.3, 0.5, 0.8, 1.2))),
                     1.0, {"T": SUPPORT_SAMPLES})


def _check_holds(report, name, anchor, holds, mesh):
    """Record a check that holds or not: its defect is 0 if holds() is
    true and 1 if not, against the threshold 0.5."""
    report.check(name, anchor, lambda: 0.0 if holds() else 1.0, 0.5, mesh)


def run_weyl(cfg, report, inputs):
    spec = _weyl.RootSystemSpec
    _check_holds(
        report, "group enumeration orders", "plumbing",
        lambda: all(len(_weyl.weyl_group(spec(*key))) == order
                    for key, order in GROUP_ORDERS.items()),
        {"groups": ["%s%d" % key for key in GROUP_ORDERS]})

    _check_holds(
        report, "restricted stabilizer equals the smaller Weyl group",
        "restriction of Weyl groups",
        lambda: all(set(_weyl.restricted_group(spec("B", k), n))
                    == set(_weyl.weyl_group(spec("B", n)))
                    for k, n in B_RESTRICTIONS),
        {"family": "B", "k_n": B_RESTRICTIONS})

    _check_holds(
        report, "type-D restriction gives all sign changes",
        "restriction of Weyl groups",
        lambda: all(len(_weyl.restricted_group(spec("D", k), n))
                    == 2**n * math.factorial(n) for k, n in D_RESTRICTIONS),
        {"family": "D", "k_n": D_RESTRICTIONS})

    obstructed = cfg.family == "D" and cfg.n_rank < cfg.k_rank

    def surjectivity():
        spec_n = spec(cfg.family, cfg.n_rank)
        cert = _weyl.surjectivity_certificate(
            spec(cfg.family, cfg.k_rank), spec_n, cfg.degree)
        if obstructed:
            down = cert.downstairs_basis
            pf_odd = [i for i, b in enumerate(down) if b.degree() > 0
                      and all(all(a % 2 == 1 for a in e) for e in b.terms)]
            return set(cert.obstruction) == set(pf_odd) and not cert.surjective
        return cert.surjective and all(
            cert.preimage(t).restrict(spec_n.ambient_vars) == q
            for t, q in enumerate(cert.downstairs_basis))
    name = ("restriction obstruction certified" if obstructed
            else "restriction surjectivity certified")
    _check_holds(report, name, "invariant restriction surjectivity",
                 surjectivity, {"family": cfg.family, "k": cfg.k_rank,
                                "n": cfg.n_rank, "d": cfg.degree})

    def lift_random():
        rng = default_rng(cfg.seed + 4)
        lift_k = spec(LIFT_FAMILY, LIFT_K)
        lift_n = spec(LIFT_FAMILY, LIFT_N)
        basis = _weyl.invariant_basis(lift_n, LIFT_DEGREE)
        # invariance under the generators is invariance under W(k)
        simple = _weyl._simple_reflections(lift_k)
        for _ in range(10):
            target = _weyl._combination(
                [int(rng.integers(-4, 5)) for _ in basis], basis,
                lift_n.ambient_vars)
            H = _weyl.ow1_lift(target, lift_k, lift_n)
            if (H.restrict(lift_n.ambient_vars) != target
                    or any(H.apply(w) != H for w in simple)):
                return False
        return True
    _check_holds(report, "averaging-decomposition lift",
                 "invariant extension pipeline", lift_random,
                 {"family": LIFT_FAMILY, "k": LIFT_K, "n": LIFT_N,
                  "d": LIFT_DEGREE})


PIPELINES = {
    "radon": run_radon,
    "slice": run_slice,
    "pw": run_pw,
    "sphere": run_sphere,
    "weyl": run_weyl,
}


def run(config):
    """Execute the configured pipeline(s) and return the Report.  Every
    pipeline gets the same loader of the shared inputs, which builds them
    on its first successful call (sphere and weyl never call it).  An
    exception outside a pipeline's checks (an unreadable input file, a
    sinogram that cannot be built) is recorded as a failed "<name>
    pipeline" record carrying the error, so the records made so far and
    the report are kept; a later pipeline tries the inputs again."""
    report = Report(config)
    names = (list(PIPELINES) if config.subcommand == "all"
             else [config.subcommand])
    inputs = functools.cache(lambda: _load_or_suite(config))
    for nm in names:
        try:
            PIPELINES[nm](config, report, inputs)
        except Exception as exc:  # the report must survive a broken input
            def reraise():
                raise exc
            report.check("%s pipeline" % nm, "plumbing", reraise, 0.0)
    if config.report_path:
        report.write(config.report_path)
    return report


def _parse_grid(text):
    try:
        m, L = text.split(",")
        return int(m), float(L)
    except Exception:
        raise ConfigError("--grid expects M,L") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pwkit",
        description="Certification pipelines for Radon / motion-group Fourier "
                    "/ sphere transforms and Weyl-group invariant restriction.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # no defaults here: a flag that is not given keeps RunConfig's default
    flags = {
        "--grid": {"metavar": "M,L",
                   "help": "grid points per axis and half-width"},
        "--directions": {"type": int, "metavar": "Q"},
        "--preset": {"choices": PRESETS},
        "--seed": {"type": int},
        "--report": {"dest": "report_path", "metavar": "PATH"},
        "--in": {"dest": "input_path", "metavar": "PATH"},
        "--out": {"dest": "output_path", "metavar": "PATH"},
    }

    def add(parent, name, *names):
        """A subcommand that takes the named flags, each only in full: an
        abbreviation such as --d for --directions is refused too."""
        p = parent.add_parser(name, allow_abbrev=False)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    # each subcommand takes the flags its pipelines read
    suite = ("--grid", "--directions", "--preset", "--seed", "--report",
             "--in")
    add(sub, "radon", *suite, "--out")
    add(sub, "slice", *suite)
    add(sub, "pw", *suite)
    add(sub, "all", *flags)
    sphere = add(sub, "sphere", "--in", "--report")
    sphere.add_argument("--n", type=int, dest="sphere_dim", choices=(2, 3))

    wsub = sub.add_parser("weyl").add_subparsers(dest="weyl_action",
                                                 required=True)
    cert = add(wsub, "certify", "--seed", "--report")
    cert.add_argument("--family", choices=tuple("ABCD"), required=True)
    cert.add_argument("--k", type=int, dest="k_rank", metavar="K",
                      required=True)
    cert.add_argument("--n", type=int, dest="n_rank", metavar="N",
                      required=True)
    cert.add_argument("--d", type=int, dest="degree", metavar="D")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items()
              if v is not None and k != "weyl_action"}
    try:
        if "grid" in kwargs and "input_path" in kwargs:
            raise ConfigError("--grid and --in exclude each other: a run "
                              "with --in takes its grid from the file")
        if "grid" in kwargs:
            kwargs["grid_points"], kwargs["half_width"] = _parse_grid(
                kwargs.pop("grid"))
        report = run(RunConfig(**kwargs))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    for r in report.records:
        status = "PASS" if r["passed"] else "FAIL"
        print("%-55s %s  defect=%.3g  threshold=%.3g  (%.2fs)%s"
              % (r["name"], status, r["defect"], r["threshold"],
                 r["runtime_s"], "  " + r["error"] if "error" in r else ""))
    print("overall: %s" % ("PASS" if report.all_passed else "FAIL"))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

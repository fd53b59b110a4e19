"""Command-line driver: per-module certification pipelines, JSON reports,
and CSV artifact emission.

Subcommands: radon, slice, pw, sphere, weyl, all.  Every check record in
the report carries the name of the mathematical identity it certifies (or
"plumbing" for bookkeeping checks), the measured defect, the pass
threshold, and mesh metadata, so reports are diff-able across runs; with a
fixed seed the pass/fail vector is deterministic.  A check that raises is
recorded as failed, with the exception in its "error" field, and the run
goes on.
"""

import argparse
import json
import math
import operator
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

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


class RunConfig:
    """Configuration of one pipeline run; tolerances must be positive and
    the seed makes the randomized test-function suite replayable."""

    def __init__(self, subcommand, grid_points=257, half_width=1.5,
                 directions=64, kmax=6, seminorm_order=2, preset="desk",
                 seed=7, report_path=None, input_path=None, output_path=None,
                 tolerances=None, sphere_dim=3, family="B", k_rank=4,
                 n_rank=2, degree=6):
        if subcommand not in ("radon", "slice", "pw", "sphere", "weyl", "all"):
            raise ConfigError("unknown subcommand %r" % (subcommand,))
        if preset not in ("desk", "thorough"):
            raise ConfigError("preset must be desk or thorough")
        self.subcommand = subcommand
        self.grid_points = int(grid_points)
        self.half_width = float(half_width)
        self.directions = int(directions)
        self.kmax = int(kmax)
        self.seminorm_order = int(seminorm_order)
        self.preset = preset
        self.seed = int(seed)
        self.report_path = report_path
        self.input_path = input_path
        self.output_path = output_path
        self.sphere_dim = int(sphere_dim)
        self.family = family
        self.k_rank = int(k_rank)
        self.n_rank = int(n_rank)
        self.degree = int(degree)
        self.tolerances = dict(DEFAULT_TOLERANCES)
        if tolerances:
            self.tolerances.update(tolerances)
        for key, val in self.tolerances.items():
            if val <= 0:
                raise ConfigError("tolerance %s must be positive" % key)

    @property
    def suite_size(self):
        return 3 if self.preset == "desk" else 5

    @property
    def grid3_points(self):
        return 97 if self.preset == "desk" else 161


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
                      runtime_s=round(time.perf_counter() - t0, 3))
        self.records.append(record)
        return value

    @property
    def all_passed(self):
        return all(r["passed"] for r in self.records)

    def pass_vector(self):
        return [(r["name"], r["passed"]) for r in self.records]

    def to_dict(self):
        return {
            "subcommand": self.config.subcommand,
            "preset": self.config.preset,
            "seed": self.config.seed,
            "grid": {"points": self.config.grid_points,
                     "half_width": self.config.half_width,
                     "directions": self.config.directions},
            "total_runtime_s": round(time.perf_counter() - self.started, 3),
            "all_passed": self.all_passed,
            "records": [_json_record(r) for r in self.records],
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")


def _json_record(record):
    """The record as strict JSON: a non-finite defect is written as null,
    with "nonfinite" set to "inf", "-inf" or "nan"."""
    d = record["defect"]
    if np.isfinite(d):
        return record
    kind = "nan" if np.isnan(d) else ("inf" if d > 0 else "-inf")
    return dict(record, defect=None, nonfinite=kind)


def _suite(cfg, n=2):
    g = _grid.GridSpec(n, cfg.half_width, cfg.grid_points if n == 2
                       else cfg.grid3_points)
    return g, _grid.random_bump_suite(g, cfg.suite_size, cfg.seed)


def _load_or_suite(cfg):
    if cfg.input_path:
        f = _grid.load_function(cfg.input_path)
        live = np.abs(f.values) > 0
        if live.any():
            r2 = _grid._radius_sq_mesh(f.grid)
            f.support_radius = float(np.sqrt(r2[live].max()))
        return f.grid, [f]
    return _suite(cfg)


def run_radon(cfg, report):
    g, funcs = _load_or_suite(cfg)
    dirs = _grid._directions_for(g.n, cfg.directions)
    sinos = [_radon.radon_transform(f, directions=dirs) for f in funcs]
    mesh = {"M": g.points, "L": g.half_width, "Q": len(dirs)}

    # 0 by construction: radon_transform samples one direction of each
    # antipodal pair, so this checks the bookkeeping of the reuse
    report.check(
        "radon evenness", "plumbing",
        lambda: max(_radon.evenness_defect(s) for s in sinos),
        cfg.tolerances["evenness"], mesh)

    def support_local():
        worst = 0.0
        for f, s in zip(funcs, sinos):
            outside = np.abs(s.offsets) > (f.support_radius or g.half_width) \
                + g.spacing
            if outside.any():
                worst = max(worst, float(np.abs(s.values[outside]).max()))
        return worst
    report.check("radon support localization",
                 "support of the transform inside the support radius",
                 support_local, cfg.tolerances["support_localization"], mesh)

    def moment_consistency():
        worst = 0.0
        for f, s in zip(funcs, sinos):
            m0 = _radon.moment(s, 0)
            worst = max(worst, float(np.abs(m0 - _grid.integrate(f)).max()))
        return worst
    report.check("zeroth moment equals total mass", "moment compatibility",
                 moment_consistency, cfg.tolerances["moment_k0"], mesh)

    def round_trip():
        f = funcs[0]
        dirs_fine = _grid.DirectionSet.circle(256)
        s = _radon.radon_transform(f, directions=dirs_fine)
        rec = _radon.inverse_radon(s, grid=f.grid)
        return float(np.abs(rec.values - f.values).max()
                     / np.abs(f.values).max())
    if g.n == 2:
        report.check("radon round trip", "inversion formula", round_trip,
                     cfg.tolerances["round_trip"], dict(mesh, Q=256))

    if cfg.output_path and sinos:
        _radon.save_sinogram(sinos[0], cfg.output_path,
                             direction_path=cfg.output_path + ".directions")
    return sinos


def run_slice(cfg, report):
    g, funcs = _load_or_suite(cfg)
    dirs = _grid._directions_for(g.n, cfg.directions)
    mesh = {"M": g.points, "L": g.half_width, "Q": len(dirs)}

    report.check(
        "fourier slice identity", "fourier-slice identity",
        lambda: max(_fourier.fourier_slice_defect(f, directions=dirs)
                    for f in funcs),
        cfg.tolerances["fourier_slice"], mesh)

    report.check(
        "motion-group plancherel", "plancherel identity, d tau = sigma_n r^{n-1} dr",
        lambda: max(_fourier.plancherel_defect(f, directions=dirs)
                    for f in funcs),
        cfg.tolerances["plancherel"], mesh)

    def plancherel_ratio():
        f = funcs[0]
        coarse = _fourier.plancherel_defect(f, directions=dirs)
        g2 = _grid.GridSpec(2, g.half_width, 2 * g.points - 1)
        f2 = _grid.random_bump_suite(g2, cfg.suite_size, cfg.seed)[0]
        dirs2 = _grid.DirectionSet.circle(2 * len(dirs))
        fine = _fourier.plancherel_defect(f2, directions=dirs2)
        return coarse / fine if fine > 0 else np.inf
    report.check("plancherel refinement", "plancherel identity, d tau = sigma_n r^{n-1} dr",
                 plancherel_ratio, cfg.tolerances["plancherel_ratio"], mesh,
                 compare="ge")

    def inversion():
        f = funcs[0]
        rng = np.random.default_rng(cfg.seed + 1)
        ax = f.grid.axis()
        idx = rng.integers(0, f.grid.points, size=(20, 2))
        pts = ax[idx]
        vals = _fourier.pointwise_inversion(f, pts)
        ref = f.values[idx[:, 0], idx[:, 1]]
        return float(np.abs(vals - ref).max() / np.abs(f.values).max())
    report.check("pointwise inversion", "inversion formula", inversion,
                 cfg.tolerances["inversion"], mesh)

    def compat():
        g3 = _grid.GridSpec(3, cfg.half_width, cfg.grid3_points)
        rng = np.random.default_rng(cfg.seed + 2)
        worst = 0.0
        for _ in range(2):
            c = rng.uniform(-0.25, 0.25, size=3) * (cfg.half_width / 1.5)
            rad = rng.uniform(0.5, 0.7) * (cfg.half_width / 1.5)
            f3 = _grid.make_bump(c, rad, 1.0, g3)
            worst = max(worst, _fourier.projection_compatibility_defect(f3))
        return worst
    report.check("projection compatibility", "marginal projection / slice square",
                 compat, cfg.tolerances["projection_compat"],
                 {"M3": cfg.grid3_points})
    return None


def run_pw(cfg, report):
    g, funcs = _load_or_suite(cfg)
    dirs = _grid._directions_for(g.n, cfg.directions)
    sinos = [_radon.radon_transform(f, directions=dirs) for f in funcs]
    mesh = {"M": g.points, "Q": len(dirs), "kmax": cfg.kmax,
            "N": cfg.seminorm_order}

    report.check(
        "moment homogeneity", "homogeneous-moment condition",
        lambda: max(_pw.homogeneity_defect(s, cfg.kmax) for s in sinos),
        cfg.tolerances["homogeneity"], mesh)

    def violation():
        th = np.arctan2(dirs.vectors[:, 1], dirs.vectors[:, 0])
        prof = np.exp(-sinos[0].offsets**2)
        bad = _radon.Sinogram(sinos[0].offsets, dirs,
                              np.outer(prof, np.cos(3 * th)))
        return _pw.homogeneity_defect(bad, 0)
    report.check("homogeneity violation detected", "homogeneous-moment condition",
                 violation, cfg.tolerances["violation_floor"], mesh,
                 compare="ge")

    def support_recovery():
        worst = 0.0
        rng = np.random.default_rng(cfg.seed + 3)
        for radius in (0.3, 0.6, 0.9):
            for shift in (False, True):
                c = np.zeros(2)
                if shift:
                    c = rng.uniform(-1, 1, 2)
                    c *= rng.uniform(0.1, 0.3) / np.linalg.norm(c)
                scale = cfg.half_width / 1.5
                f = _grid.make_bump(c * scale, radius * scale, 1.0, g)
                s = _radon.radon_transform(f, directions=dirs)
                est = _pw.support_radius_estimate(s)
                worst = max(worst, abs(est - f.support_radius)
                            / f.support_radius)
        return worst
    report.check("support radius recovery", "support radius from exponential type",
                 support_recovery, cfg.tolerances["support_recovery"], mesh)

    def growth_stable():
        worst = 0.0
        for s in sinos:
            tau = 2 * np.pi * s.support_radius
            b0 = 3.0 / s.support_radius
            cg = _pw.ComplexGrid(2.0, b0, 9, 9)
            v1 = _pw.pw_seminorm(s, cfg.seminorm_order, tau, cg)
            v2 = _pw.pw_seminorm(s, cfg.seminorm_order, tau,
                                 cg.doubled_imaginary())
            worst = max(worst, v2 / v1)
        return worst
    report.check("growth stability at the critical type", "growth dichotomy",
                 growth_stable, cfg.tolerances["growth_stable"], mesh)

    def growth_divergent():
        ratio_min = np.inf
        for s in sinos:
            tau = np.pi * s.support_radius
            b0 = 3.0 / s.support_radius
            cg = _pw.ComplexGrid(2.0, b0, 9, 9)
            vals = [_pw.pw_seminorm(s, cfg.seminorm_order, tau, c)
                    for c in (cg, cg.doubled_imaginary(),
                              cg.doubled_imaginary().doubled_imaginary())]
            ratio_min = min(ratio_min, vals[1] / vals[0], vals[2] / vals[1])
        return ratio_min
    report.check("growth divergence below the critical type", "growth dichotomy",
                 growth_divergent, cfg.tolerances["growth_divergent"], mesh,
                 compare="ge")

    report.check(
        "extension consistency", "slice extension agrees with the sphere extension",
        lambda: max(_pw.extension_consistency_defect(f) for f in funcs),
        cfg.tolerances["extension_consistency"], dict(mesh, z_mesh="9x9x16"))

    def extension_evenness():
        worst = 0.0
        zs = np.array([0.3 + 0.2j, -1.1 + 0.4j, 0.7 - 0.35j])
        for s in sinos:
            anti = s.directions.antipodal_index()
            for j in range(0, len(s.directions), 8):
                a = _pw.complex_slice_eval(s, zs, j)
                b = _pw.complex_slice_eval(s, -zs, int(anti[j]))
                worst = max(worst, float(np.abs(a - b).max()))
        return worst
    report.check("evenness of the slice extension", "even extension",
                 extension_evenness, cfg.tolerances["extension_evenness"], mesh)

    def schwartz_finite():
        worst = 0.0
        for s in sinos[:1]:
            for kk in range(5):
                for ll in range(5):
                    v = _pw.schwartz_seminorm(s, kk, ll)
                    if not np.isfinite(v):
                        return np.inf
                    worst = max(worst, v)
        return 0.0 if np.isfinite(worst) else np.inf
    # 0 or inf against 0.5: this checks that the seminorms are finite, not
    # that they decay
    report.check("decay seminorms finite", "plumbing", schwartz_finite, 0.5,
                 mesh)
    return sinos


def run_sphere(cfg, report):
    if cfg.input_path:
        prof3 = _sphere.load_profile(cfg.input_path, cfg.sphere_dim)
        caps3 = [prof3]
        caps2 = [_sphere.load_profile(cfg.input_path, 2)]
        cap_angles = []
    else:
        caps3 = [_sphere.cap_bump(t, 3) for t in (0.5, 1.2)]
        caps2 = [_sphere.cap_bump(t, 2) for t in (0.5, 1.2)]
        cap_angles = [0.3, 0.5, 0.8, 1.2]
    mesh = {"T": len(caps3[0].values), "m_max": 12}

    report.check(
        "sphere slice identity (rho = 1)", "cosine-kernel slice identity",
        lambda: max(_sphere.sphere_slice_defect(p, 12) for p in caps3),
        cfg.tolerances["sphere_slice_n3"], mesh)
    report.check(
        "sphere slice identity (rho = 1/2)", "cosine-kernel slice identity",
        lambda: max(_sphere.sphere_slice_defect(p, 12) for p in caps2),
        cfg.tolerances["sphere_slice_n2"], mesh)

    def constant_stability():
        worst = 0.0
        for p in caps3 + caps2:
            cm = _sphere.sphere_slice_constants(p, 12)
            worst = max(worst, float(np.abs(cm - cm[0]).max() / abs(cm[0])))
        return worst
    report.check("slice constant stability", "cosine-kernel slice identity",
                 constant_stability, cfg.tolerances["sphere_constant"], mesh)

    def support_equivalence():
        worst = 0.0
        for t in cap_angles:
            p = _sphere.cap_bump(t, 3, samples=2049)
            rp, rr = _sphere.sphere_support_check(p)
            worst = max(worst, abs(rp - rr) / p.step)
        return worst
    if cap_angles:
        report.check("sphere support equivalence", "zonal support theorem",
                     support_equivalence, 1.0, mesh)
    return None


def run_weyl(cfg, report):
    mesh = {"family": cfg.family, "k": cfg.k_rank, "n": cfg.n_rank,
            "d": cfg.degree}

    def orders():
        expected = {("A", 2): 6, ("B", 2): 8, ("D", 4): 192}
        for (fam, rk), order in expected.items():
            got = len(_weyl.weyl_group(_weyl.RootSystemSpec(fam, rk)))
            if got != order:
                return 1.0
        return 0.0
    report.check("group enumeration orders", "plumbing", orders, 0.5, mesh)

    def restriction_b():
        for k in range(3, 6):
            for n in range(2, k):
                spec = _weyl.RootSystemSpec("B", k)
                img = set(_weyl.restricted_group(spec, n))
                full = set(_weyl.weyl_group(_weyl.RootSystemSpec("B", n)))
                if img != full:
                    return 1.0
        return 0.0
    report.check("restricted stabilizer equals the smaller Weyl group",
                 "restriction of Weyl groups", restriction_b, 0.5, mesh)

    def restriction_d():
        import math
        for k in (4, 5):
            for n in range(2, k):
                spec = _weyl.RootSystemSpec("D", k)
                img = _weyl.restricted_group(spec, n)
                if len(img) != 2**n * math.factorial(n):
                    return 1.0
        return 0.0
    report.check("type-D restriction gives all sign changes",
                 "restriction of Weyl groups", restriction_d, 0.5, mesh)

    def surjectivity():
        cert = _weyl.surjectivity_certificate(
            _weyl.RootSystemSpec(cfg.family, cfg.k_rank),
            _weyl.RootSystemSpec(cfg.family, cfg.n_rank), cfg.degree)
        expect_obstruction = cfg.family == "D" and cfg.n_rank < cfg.k_rank
        if expect_obstruction:
            down = cert.downstairs_basis
            pf_odd = [i for i, b in enumerate(down) if b.degree() > 0
                      and all(all(a % 2 == 1 for a in e) for e in b.terms)]
            ok = set(cert.obstruction) == set(pf_odd) and not cert.surjective
            return 0.0 if ok else 1.0
        if not cert.surjective:
            return 1.0
        nkeep = cfg.n_rank + (1 if cfg.family == "A" else 0)
        for t, q in enumerate(cert.downstairs_basis):
            if cert.preimage(t).restrict(nkeep) != q:
                return 1.0
        return 0.0
    name = ("restriction obstruction certified"
            if cfg.family == "D" and cfg.n_rank < cfg.k_rank
            else "restriction surjectivity certified")
    report.check(name, "invariant restriction surjectivity", surjectivity,
                 0.5, mesh)

    def lift_random():
        rng = np.random.default_rng(cfg.seed + 4)
        spec_k = _weyl.RootSystemSpec("B", 4)
        spec_n = _weyl.RootSystemSpec("B", 2)
        basis = _weyl.invariant_basis(spec_n, 6)
        for _ in range(10):
            target = _weyl.MultivariatePolynomial.zero(2)
            for b in basis:
                c = int(rng.integers(-4, 5))
                if c:
                    target = target + b.scale(Fraction(c))
            H = _weyl.ow1_lift(target, spec_k, spec_n)
            if H.restrict(2) != target:
                return 1.0
            full = _weyl.weyl_group(spec_k)
            if any(H.apply(w) != H for w in full[:24]):
                return 1.0
        return 0.0
    report.check("averaging-decomposition lift", "invariant extension pipeline",
                 lift_random, 0.5, mesh)
    return None


PIPELINES = {
    "radon": run_radon,
    "slice": run_slice,
    "pw": run_pw,
    "sphere": run_sphere,
    "weyl": run_weyl,
}


def run(config):
    """Execute the configured pipeline(s) and return the Report."""
    report = Report(config)
    if config.subcommand == "all":
        names = ["radon", "slice", "pw", "sphere", "weyl"]
        workers = int(os.environ.get("PWKIT_THREADS", "1"))
        if workers > 1:
            # checks append records concurrently; order them afterwards
            sub_reports = {}
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futs = {}
                for nm in names:
                    r = Report(config)
                    sub_reports[nm] = r
                    futs[nm] = pool.submit(PIPELINES[nm], config, r)
                for nm in names:
                    futs[nm].result()
            for nm in names:
                report.records.extend(sub_reports[nm].records)
        else:
            for nm in names:
                PIPELINES[nm](config, report)
    else:
        PIPELINES[config.subcommand](config, report)
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

    def common(p):
        p.add_argument("--grid", default=None, metavar="M,L",
                       help="grid points per axis and half-width")
        p.add_argument("--directions", type=int, default=64, metavar="Q")
        p.add_argument("--kmax", type=int, default=6)
        p.add_argument("--N", type=int, default=2, dest="seminorm_order")
        p.add_argument("--preset", choices=("desk", "thorough"), default="desk")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--report", default=None, metavar="PATH")
        p.add_argument("--in", dest="input_path", default=None, metavar="PATH")
        p.add_argument("--out", dest="output_path", default=None, metavar="PATH")

    for name in ("radon", "slice", "pw", "all"):
        common(sub.add_parser(name))

    ps = sub.add_parser("sphere")
    common(ps)
    ps.add_argument("--n", type=int, default=3, dest="sphere_dim",
                    choices=(2, 3))

    pw_ = sub.add_parser("weyl")
    wsub = pw_.add_subparsers(dest="weyl_action", required=True)
    cert = wsub.add_parser("certify")
    cert.add_argument("--family", choices=tuple("ABCD"), required=True)
    cert.add_argument("--k", type=int, required=True)
    cert.add_argument("--n", type=int, required=True)
    cert.add_argument("--d", type=int, default=6)
    cert.add_argument("--seed", type=int, default=7)
    cert.add_argument("--preset", choices=("desk", "thorough"), default="desk")
    cert.add_argument("--report", default=None, metavar="PATH")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    kwargs = {"subcommand": args.subcommand, "seed": args.seed,
              "preset": args.preset, "report_path": args.report}
    if args.subcommand == "weyl":
        kwargs.update(family=args.family, k_rank=args.k, n_rank=args.n,
                      degree=args.d)
    else:
        if args.grid:
            m, L = _parse_grid(args.grid)
            kwargs.update(grid_points=m, half_width=L)
        kwargs.update(directions=args.directions, kmax=args.kmax,
                      seminorm_order=args.seminorm_order,
                      input_path=args.input_path, output_path=args.output_path)
        if args.subcommand == "sphere":
            kwargs["sphere_dim"] = args.sphere_dim
    try:
        config = RunConfig(**kwargs)
        report = run(config)
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

"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see all lines)."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import pwkit
from pwkit import (ComplexGrid, DirectionSet, GridSpec, MultivariatePolynomial,
                   ObstructionHit, RootSystemSpec, Sinogram, cap_bump,
                   default_offsets, extension_consistency_defect,
                   fourier_slice_defect, homogeneity_defect, invariant_basis,
                   make_bump, ow1_lift, plancherel_defect, pointwise_inversion,
                   projection_compatibility_defect, pw_seminorm,
                   radon_transform, random_bump_suite,
                   restricted_group, sphere_slice_constants,
                   sphere_slice_defect, sphere_support_check,
                   support_radius_estimate, surjectivity_certificate,
                   weyl_group)
from pwkit.cli import RunConfig, run
from pwkit.sphere import SLICE_CONSTANT

SEED = 7
G = GridSpec(2, 1.5, 257)
DIRS = DirectionSet.circle(64)


def report(name, passed, detail):
    line = "[%s] %s  (%s)" % ("PASS" if passed else "FAIL", name, detail)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def suite():
    return random_bump_suite(G, 5, SEED)


@pytest.fixture(scope="module")
def suite_sinos(suite):
    return [radon_transform(f, directions=DIRS) for f in suite]


def test_01_fourier_slice_identity(suite, suite_sinos):
    t0 = time.time()
    worst = max(fourier_slice_defect(f, s) for f, s in zip(suite, suite_sinos))
    elapsed = time.time() - t0
    report("1. Fourier-slice identity",
           worst < 1e-5 and elapsed < 30,
           "max defect %.3g < 1e-5, %.1fs < 30s" % (worst, elapsed))


def test_02_plancherel(suite, suite_sinos):
    t0 = time.time()
    worst = max(plancherel_defect(f, s) for f, s in zip(suite, suite_sinos))
    g2 = GridSpec(2, 1.5, 513)
    fine_suite = random_bump_suite(g2, 5, SEED)
    dirs2 = DirectionSet.circle(128)
    coarse0 = plancherel_defect(suite[0], suite_sinos[0])
    fine0 = plancherel_defect(fine_suite[0],
                              radon_transform(fine_suite[0], directions=dirs2))
    ratio = coarse0 / fine0 if fine0 > 0 else np.inf
    elapsed = time.time() - t0
    report("2. Motion-group Plancherel",
           worst < 1e-4 and ratio >= 4 and elapsed < 60,
           "max defect %.3g < 1e-4, refinement ratio %.1f >= 4, %.1fs < 60s"
           % (worst, ratio, elapsed))


def test_03_inversion_formula(suite):
    f = suite[0]
    rng = np.random.default_rng(SEED)
    idx = rng.integers(0, G.points, size=(20, 2))
    pts = G.axis()[idx]
    vals = pointwise_inversion(
        radon_transform(f, directions=DirectionSet.circle(192)), pts)
    ref = f.values[idx[:, 0], idx[:, 1]]
    worst = np.abs(vals - ref).max() / np.abs(f.values).max()
    report("3. Pointwise inversion at 20 random nodes", worst < 1e-3,
           "max |error|/max|f| = %.3g < 1e-3" % worst)


def test_04_support_recovery():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for radius in (0.3, 0.6, 0.9):
        for shifted in (False, True):
            center = np.zeros(2)
            if shifted:
                center = rng.uniform(-1, 1, 2)
                center *= rng.uniform(0.1, 0.3) / np.linalg.norm(center)
            f = make_bump(center, radius, 1.0, G)
            s = radon_transform(f, directions=DIRS)
            est = support_radius_estimate(s)
            worst = max(worst, abs(est - f.support_radius) / f.support_radius)
    elapsed = time.time() - t0
    report("4. Support radius within 5%", worst < 0.05 and elapsed < 20,
           "worst relative error %.3f%% < 5%%, %.1fs < 20s"
           % (100 * worst, elapsed))


def test_05_growth_dichotomy(suite_sinos):
    worst_stable, worst_divergent = 0.0, np.inf
    for s in suite_sinos:
        b0 = 3.0 / s.support_radius
        cg = ComplexGrid(2.0, b0, 9, 9)
        cg2 = cg.doubled_imaginary()
        cg4 = cg2.doubled_imaginary()
        tau = 2 * np.pi * s.support_radius
        worst_stable = max(worst_stable,
                           pw_seminorm(s, 2, tau, cg2) / pw_seminorm(s, 2, tau, cg))
        tau_low = np.pi * s.support_radius
        v = [pw_seminorm(s, 2, tau_low, c) for c in (cg, cg2, cg4)]
        worst_divergent = min(worst_divergent, v[1] / v[0], v[2] / v[1])
    report("5. Growth dichotomy",
           worst_stable < 2.0 and worst_divergent > 2.0,
           "critical-type ratio %.2f < 2; sub-critical ratio %.1f > 2"
           % (worst_stable, worst_divergent))


def test_06_homogeneity(suite_sinos):
    worst = max(homogeneity_defect(s, 6) for s in suite_sinos)
    p = default_offsets(G)
    th = np.arctan2(DIRS.vectors[:, 1], DIRS.vectors[:, 0])
    violation = Sinogram(p, DIRS, np.outer(np.exp(-p**2), np.cos(3 * th)))
    vdefect = homogeneity_defect(violation, 0)
    report("6. Moment homogeneity", worst < 1e-6 and vdefect > 0.5,
           "max defect %.3g < 1e-6; constructed violation %.2f > 0.5"
           % (worst, vdefect))


def test_07_extension_consistency(suite):
    worst = max(extension_consistency_defect(f) for f in suite)
    report("7. Extension consistency on 9x9 mesh x 16 directions",
           worst < 1e-5, "max defect %.3g < 1e-5" % worst)


def test_08_sphere_slice():
    t0 = time.time()
    d3 = max(sphere_slice_defect(cap_bump(t, 3), 12) for t in (0.4, 0.5))
    d2 = max(sphere_slice_defect(cap_bump(t, 2), 12) for t in (0.4, 0.5))
    cstab = 0.0
    for n in (2, 3):
        cm = sphere_slice_constants(cap_bump(0.5, n), 12)
        c = SLICE_CONSTANT[n]
        cstab = max(cstab, float(np.abs(cm - c).max() / c))
    elapsed = time.time() - t0
    report("8. Sphere Fourier-slice identity",
           d3 < 1e-6 and d2 < 1e-4 and cstab < 1e-8 and elapsed < 10,
           "S^3 defect %.3g < 1e-6, S^2 defect %.3g < 1e-4, "
           "constant drift %.3g < 1e-8, %.1fs < 10s"
           % (d3, d2, cstab, elapsed))


def test_09_sphere_support():
    worst_steps = 0.0
    for cap in (0.3, 0.5, 0.8, 1.2):
        prof = cap_bump(cap, 3, samples=2049)
        rp, rr = sphere_support_check(prof)
        worst_steps = max(worst_steps, abs(rp - rr) / prof.step)
    report("9. Sphere support theorem", worst_steps <= 1.0,
           "support angles agree within %.2f steps <= 1" % worst_steps)


def test_10_weyl_restriction():
    t0 = time.time()
    ok = True
    for k in range(3, 6):
        for n in range(2, k):
            img = set(restricted_group(RootSystemSpec("B", k), n))
            ok = ok and img == set(weyl_group(RootSystemSpec("B", n)))
    for k in (4, 5):
        for n in range(2, k):
            img = restricted_group(RootSystemSpec("D", k), n)
            ok = ok and len(img) == 2**n * math.factorial(n)
    elapsed = time.time() - t0
    report("10. Weyl restriction", ok and elapsed < 10,
           "B-pairs setwise equal, D-pairs hyperoctahedral, %.1fs < 10s"
           % elapsed)


def test_11_surjectivity_and_obstruction():
    cert = surjectivity_certificate(RootSystemSpec("B", 4),
                                    RootSystemSpec("B", 2), 6)
    ok_b = cert.surjective and all(
        cert.preimage(t).restrict(2) == q
        for t, q in enumerate(cert.downstairs_basis))
    cert_d = surjectivity_certificate(RootSystemSpec("D", 5),
                                      RootSystemSpec("D", 4), 6)
    odd = {i for i, b in enumerate(cert_d.downstairs_basis)
           if b.degree() > 0
           and all(all(a % 2 == 1 for a in e) for e in b.terms)}
    ok_d = odd and set(cert_d.obstruction) == odd and not cert_d.surjective
    report("11. Surjectivity witness and type-D obstruction", ok_b and ok_d,
           "B4->B2 exact witnesses; D5->D4 obstruction = odd-invariant span")


def test_12_ow1_pipeline():
    rng = np.random.default_rng(SEED + 2)
    spec_k, spec_n = RootSystemSpec("B", 4), RootSystemSpec("B", 2)
    basis = invariant_basis(spec_n, 6)
    group = weyl_group(spec_k)
    ok = True
    for _ in range(10):
        target = MultivariatePolynomial.zero(2)
        for b in basis:
            c = int(rng.integers(-4, 5))
            if c:
                target = target + b.scale(Fraction(c))
        H = ow1_lift(target, spec_k, spec_n)
        ok = ok and H.restrict(2) == target
        ok = ok and all(H.apply(w) == H for w in group[::16])
    report("12. Lift pipeline", ok,
           "10 random degree-<=6 targets lifted with exact zero residual")


def test_13_projection_compatibility():
    g3 = GridSpec(3, 1.5, 129)
    worst = 0.0
    for center, radius in ([(0.0, 0.0, 0.0), 0.6], [(0.2, -0.1, 0.15), 0.55]):
        f3 = make_bump(center, radius, 1.0, g3)
        worst = max(worst, projection_compatibility_defect(f3))
    report("13. Projection compatibility", worst < 1e-5,
           "max defect %.3g < 1e-5 for two 3-D bumps" % worst)


def test_14_determinism():
    r1 = run(RunConfig("all", preset="desk", seed=7))
    r2 = run(RunConfig("all", preset="desk", seed=7))
    same = ([(r["name"], r["passed"]) for r in r1.records]
            == [(r["name"], r["passed"]) for r in r2.records])
    defects = [(r["name"], r["defect"]) for r in r1.records]
    same_defects = defects == [(r["name"], r["defect"]) for r in r2.records]
    report("14. Determinism of the desk preset",
           same and same_defects and r1.all_passed,
           "identical pass/fail vectors and bitwise-equal defects across "
           "two runs at one seed; all passed")

import sys

import numpy as np
import pytest

from pwkit import (ComplexGrid, ComplexSpherePoint, DirectionSet, GridSpec,
                   HarmonicExpansion, Sinogram, ZeroInput, complex_slice_eval,
                   complexified_sphere_eval, default_offsets,
                   extension_consistency_defect, fourier_on_rays,
                   homogeneity_defect, integrate, inverse_radon, make_bump,
                   moment, pointwise_inversion, pw_seminorm, radial_fourier,
                   radon_transform, schwartz_seminorm,
                   support_radius_estimate, taylor_coefficient)
from pwkit.radon import _slice_transform

G = GridSpec(2, 1.5, 257)
DIRS = DirectionSet.circle(64)


@pytest.fixture(scope="module")
def bump():
    return make_bump([0.3, -0.2], 0.5, 1.0, G)


@pytest.fixture(scope="module")
def sino(bump):
    return radon_transform(bump, directions=DIRS)


class TestComplexSliceEval:
    def test_real_axis_matches_radial_fourier(self, sino):
        radii = np.linspace(0, 6, 7)
        v = radial_fourier(sino, radii)
        for j in (0, 13, 40):
            vals = complex_slice_eval(sino, radii.astype(complex), j)
            assert np.abs(vals - v.values[:, j]).max() < 1e-10

    def test_zero_sinogram(self):
        p = default_offsets(G)
        s = Sinogram(p, DIRS, np.zeros((len(p), 64)))
        assert complex_slice_eval(s, 1 + 1j, 0) == 0

    def test_disk_at_imaginary_unit_matches_oracle(self):
        # smoothed unit-disk indicator; oracle integrates the analytic
        # chord-length profile at doubled offset resolution
        from pwkit import SampledFunction
        X, Y = G.mesh()
        r = np.hypot(X, Y)
        t = np.clip((r - 0.90) / 0.08, 0.0, 1.0)
        vals = 1 - t * t * (3 - 2 * t)
        f = SampledFunction(G, vals, support_radius=0.98)
        s = radon_transform(f, directions=DIRS)
        got = complex_slice_eval(s, 1j, 0)

        def smoothed(rr):
            tt = np.clip((rr - 0.90) / 0.08, 0.0, 1.0)
            return 1 - tt * tt * (3 - 2 * tt)

        dp = (s.offsets[1] - s.offsets[0]) / 2
        pfine = np.arange(-0.98, 0.98 + dp, dp)
        prof = np.empty_like(pfine)
        for i, pp in enumerate(pfine):
            zmax = np.sqrt(max(0.98**2 - pp**2, 0))
            z = np.linspace(-zmax, zmax, 2001)
            prof[i] = np.trapezoid(smoothed(np.hypot(pp, z)), dx=z[1] - z[0]) \
                if zmax > 0 else 0.0
        oracle = np.trapezoid(prof * np.exp(2 * np.pi * pfine), dx=dp)
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_evenness_of_extension(self, sino):
        anti = sino.directions.antipodal_index()
        zs = np.array([0.4 + 0.3j, -1.2 + 0.1j, 2.0 - 0.45j])
        for j in (0, 9, 31):
            a = complex_slice_eval(sino, zs, j)
            b = complex_slice_eval(sino, -zs, int(anti[j]))
            assert np.abs(a - b).max() < 1e-10

    def test_index_array_gives_the_single_index_columns(self, sino):
        zs = np.array([0.4 + 0.3j, -1.2 + 0.1j])
        js = np.array([0, 9, 31])
        got = complex_slice_eval(sino, zs, js)
        assert got.shape == (2, 3)
        for col, j in enumerate(js):
            assert np.array_equal(got[:, col],
                                  complex_slice_eval(sino, zs, int(j)))


class TestPwSeminorm:
    def test_stable_at_critical_type(self, sino):
        tau = 2 * np.pi * sino.support_radius
        cg = ComplexGrid(2.0, 3.0 / sino.support_radius, 9, 9)
        v1 = pw_seminorm(sino, 2, tau, cg)
        v2 = pw_seminorm(sino, 2, tau, cg.doubled_imaginary())
        assert np.isfinite(v1) and v2 / v1 < 2.0

    def test_decreasing_above_critical_type(self, sino):
        tau = 2 * np.pi * (1.5 * sino.support_radius)
        cg = ComplexGrid(2.0, 3.0 / sino.support_radius, 9, 9)
        v1 = pw_seminorm(sino, 2, tau, cg)
        v2 = pw_seminorm(sino, 2, tau, cg.doubled_imaginary())
        assert v2 <= v1 * (1 + 1e-12)

    def test_divergent_below_critical_type(self, sino):
        tau = np.pi * sino.support_radius
        cg = ComplexGrid(2.0, 3.0 / sino.support_radius, 9, 9)
        vals = [pw_seminorm(sino, 2, tau, c)
                for c in (cg, cg.doubled_imaginary(),
                          cg.doubled_imaginary().doubled_imaginary())]
        assert vals[1] / vals[0] > 2.0 and vals[2] / vals[1] > 2.0


class TestSupportRadius:
    @pytest.mark.parametrize("radius", [0.3, 0.6, 0.9])
    def test_centered(self, radius):
        f = make_bump([0, 0], radius, 1.0, G)
        s = radon_transform(f, directions=DIRS)
        est = support_radius_estimate(s)
        assert abs(est - radius) / radius < 0.05

    def test_shifted(self):
        f = make_bump([0.25, -0.15], 0.3, 1.0, G)
        s = radon_transform(f, directions=DIRS)
        est = support_radius_estimate(s)
        true = f.support_radius
        assert abs(est - true) / true < 0.05

    def test_scale_invariance(self, sino):
        a = support_radius_estimate(sino)
        scaled = Sinogram(sino.offsets, sino.directions, sino.values * 17.3,
                          sino.support_radius)
        b = support_radius_estimate(scaled)
        assert abs(a - b) < 1e-6

    def test_zero_input(self):
        p = default_offsets(G)
        s = Sinogram(p, DIRS, np.zeros((len(p), 64)))
        with pytest.raises(ZeroInput):
            support_radius_estimate(s)


class TestTaylorCoefficients:
    def test_k0_constant_is_mass(self, bump, sino):
        e = taylor_coefficient(sino, 0)
        assert e.coefficients[0][0] == pytest.approx(integrate(bump), abs=1e-6)
        assert sum(e.degree_power(l) for l in range(1, e.band + 1)) < 1e-12

    def test_k1_degree_one_only(self, bump, sino):
        e = taylor_coefficient(sino, 1)
        other = sum(e.degree_power(l) for l in range(e.band + 1) if l != 1)
        assert other / e.total_power() < 1e-12
        # synthesizes -2 pi i M0 (v . omega)
        synth = e.synthesize()
        th = np.arctan2(DIRS.vectors[:, 1], DIRS.vectors[:, 0])
        target = -2j * np.pi * integrate(bump) * (0.3 * np.cos(th) - 0.2 * np.sin(th))
        assert np.abs(synth - target).max() < 1e-5

    def test_k2_radial_degree_zero_only(self):
        f = make_bump([0, 0], 0.5, 1.0, G)
        s = radon_transform(f, directions=DIRS)
        e = taylor_coefficient(s, 2)
        off = sum(e.degree_power(l) for l in range(1, e.band + 1))
        assert off / e.total_power() < 1e-8

    def test_order_cap(self, sino):
        with pytest.raises(ValueError):
            taylor_coefficient(sino, 9)


class TestHomogeneity:
    def test_transform_defect_small(self, sino):
        assert homogeneity_defect(sino, 6) < 1e-6

    def test_constructed_violation(self):
        p = default_offsets(G)
        th = np.arctan2(DIRS.vectors[:, 1], DIRS.vectors[:, 0])
        vals = np.outer(np.exp(-p**2), np.cos(3 * th))
        s = Sinogram(p, DIRS, vals)
        assert homogeneity_defect(s, 0) > 0.5

    def test_zero_sinogram(self):
        p = default_offsets(G)
        s = Sinogram(p, DIRS, np.zeros((len(p), 64)))
        assert homogeneity_defect(s, 6) == 0.0


class TestComplexSphere:
    def test_real_point_matches_ray_transform(self, bump):
        pt = ComplexSpherePoint.from_real(DIRS.vectors[5])
        radii = np.array([0.0, 1.0, 2.5])
        direct = fourier_on_rays(bump, radii, DIRS)[:, 5]
        vals = complexified_sphere_eval(bump, radii.astype(complex), pt)
        assert np.abs(vals - direct).max() < 1e-10

    def test_hyperbolic_identity(self):
        pt = ComplexSpherePoint(1j * 0.7)
        v = pt.vector()
        assert v[0] == pytest.approx(np.cosh(0.7))
        assert v[1] == pytest.approx(1j * np.sinh(0.7))
        assert abs(v @ v - 1.0) < 1e-12

    def test_weighted_modulus_mesh_stable(self, bump):
        # (1+|z w|^2)^N e^{-R |Im(z w)|} |F| on a coarse and refined mesh
        R = 2 * np.pi * bump.support_radius
        pt = ComplexSpherePoint(0.4 + 0.3j)
        w = pt.vector()

        def weighted_max(nz):
            zs = (np.linspace(-2, 2, nz)[:, None]
                  + 1j * np.linspace(-1, 1, nz)[None, :]).ravel()
            F = complexified_sphere_eval(bump, zs, pt)
            zw = np.abs(zs[:, None] * w[None, :])
            im = np.abs((zs[:, None] * w[None, :]).imag)
            weight = (1 + (zw**2).sum(axis=1)) ** 2 \
                * np.exp(-R * np.sqrt((im**2).sum(axis=1)))
            return (weight * np.abs(F)).max()

        a, b = weighted_max(7), weighted_max(13)
        assert b < 2 * a

    def test_extension_consistency(self, bump):
        assert extension_consistency_defect(bump) < 1e-5

    def test_extension_consistency_zero(self):
        from pwkit import SampledFunction
        z = SampledFunction(G, np.zeros((257, 257)), support_radius=1.0)
        assert extension_consistency_defect(z) == 0

    def test_extension_consistency_shifted(self):
        f = make_bump([0.2, 0.25], 0.45, 1.0, G)
        assert extension_consistency_defect(f) < 1e-5


class TestSchwartzSeminorms:
    def test_finite_through_order_four(self, sino):
        for k in range(5):
            for l in range(5):
                v = schwartz_seminorm(sino, k, l)
                assert np.isfinite(v)


class TestHarmonicExpansion:
    def test_parseval(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=len(DIRS))
        e = HarmonicExpansion.from_values(vals, DIRS)
        qn = float(DIRS.weights @ np.abs(e.synthesize()) ** 2)
        assert e.total_power() == pytest.approx(qn, rel=1e-10)

    def test_parseval_sphere(self):
        d3 = DirectionSet.sphere(8)
        rng = np.random.default_rng(6)
        # band-limited random function so the quadrature is alias-free
        coeffs = [rng.normal(size=2 * l + 1) for l in range(9)]
        e0 = HarmonicExpansion(d3, coeffs)
        vals = e0.synthesize().real
        e = HarmonicExpansion.from_values(vals, d3)
        qn = float(d3.weights @ np.abs(vals) ** 2)
        assert e.total_power() == pytest.approx(qn, rel=1e-10)


class TestKernels:
    """The offset kernel against an independent functional, and the
    independence of the two sides of every certificate."""

    @pytest.mark.parametrize("k", range(5))
    def test_offset_kernel_at_zero_is_moment(self, sino, k):
        got = _slice_transform(sino, 0.0, deriv=k)
        want = (-2j * np.pi) ** k * moment(sino, k)
        assert got.shape == (len(DIRS),)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def _forbid(monkeypatch, name):
        """Make the kernel `name` raise in every pwkit module binding it."""
        def forbidden(*args, **kwargs):
            raise AssertionError("%s used on the wrong side" % name)

        bound = [mod for key, mod in sys.modules.items()
                 if key.startswith("pwkit.") and hasattr(mod, name)]
        assert bound
        for mod in bound:
            monkeypatch.setattr(mod, name, forbidden)

    def test_direct_side_never_uses_offset_kernel(self, monkeypatch, bump,
                                                  sino):
        self._forbid(monkeypatch, "_slice_transform")
        with pytest.raises(AssertionError):
            radial_fourier(sino, [1.0])
        fourier_on_rays(bump, np.linspace(0, 4, 3), DIRS)
        complexified_sphere_eval(bump, np.array([0.5, 1 + 0.3j]),
                                 ComplexSpherePoint(0.4 + 0.2j))

    def test_slice_side_never_uses_direct_kernel(self, monkeypatch, bump):
        g = GridSpec(2, 1.5, 65)
        f = make_bump([0.2, 0.1], 0.5, 1.0, g)
        s = radon_transform(f, directions=DirectionSet.circle(32))
        self._forbid(monkeypatch, "_direct_transform")
        with pytest.raises(AssertionError):
            fourier_on_rays(bump, [1.0], DIRS)
        radial_fourier(s, np.linspace(0, 4, 3))
        complex_slice_eval(s, 1 + 1j, 0)
        pw_seminorm(s, 2, 2 * np.pi * s.support_radius,
                    ComplexGrid(2.0, 1.0, 5, 5))
        inverse_radon(s, grid=g)
        pointwise_inversion(s, np.zeros(2))

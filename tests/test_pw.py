import sys

import numpy as np
import pytest

from pwkit import (ComplexGrid, DirectionSet, GridSpec, Sinogram, ZeroInput,
                   complex_slice_eval, default_offsets,
                   extension_consistency_defect, fourier_on_rays,
                   homogeneity_defect, integrate, inverse_radon, make_bump,
                   moment, pointwise_inversion, pw_seminorm, radial_fourier,
                   radon_transform, schwartz_seminorm,
                   support_radius_estimate)
from pwkit.grid import _direct_transform
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
        X, Y = np.meshgrid(G.axis(), G.axis(), indexing="ij")
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
    """The k-th Taylor coefficient (-2 pi i)^k moment(s, k) carries only
    the harmonic degrees k, k-2, ..., which `homogeneity_defect` measures."""

    def test_k0_constant_is_mass(self, bump, sino):
        assert np.abs(moment(sino, 0) - integrate(bump)).max() < 1e-8
        assert homogeneity_defect(sino, 0) < 1e-12

    def test_k1_degree_one_only(self, bump, sino):
        # the first moment is M0 (v . omega) for the centre v
        th = np.arctan2(DIRS.vectors[:, 1], DIRS.vectors[:, 0])
        target = integrate(bump) * (0.3 * np.cos(th) - 0.2 * np.sin(th))
        assert np.abs(moment(sino, 1) - target).max() < 1e-8
        assert homogeneity_defect(sino, 1) < 1e-12

    def test_k2_radial_degree_zero_only(self):
        # a centred bump's second moment is constant in omega
        f = make_bump([0, 0], 0.5, 1.0, G)
        s = radon_transform(f, directions=DIRS)
        m2 = moment(s, 2)
        assert np.ptp(m2) < 1e-6 * np.abs(m2).max()
        assert homogeneity_defect(s, 2) < 1e-8

    def test_order_cap(self, sino):
        with pytest.raises(ValueError, match="capped at 8"):
            homogeneity_defect(sino, 9)


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
    def test_weighted_modulus_mesh_stable(self, bump):
        # (1+|z w|^2)^N e^{-R |Im(z w)|} |F| on a coarse and refined mesh, at
        # w = (cos zeta, sin zeta) on the complexified circle
        R = 2 * np.pi * bump.support_radius
        zeta = 0.4 + 0.3j
        w = np.array([np.cos(zeta), np.sin(zeta)])

        def weighted_max(nz):
            zs = (np.linspace(-2, 2, nz)[:, None]
                  + 1j * np.linspace(-1, 1, nz)[None, :]).ravel()
            F = _direct_transform(bump, zs, w[None])[:, 0]
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
    """The one projection of the Taylor coefficients onto the real
    harmonics inside `homogeneity_defect`, and its Parseval guard."""

    def test_parseval(self):
        # a rule exact to twice its band keeps Parseval for any samples
        p = default_offsets(G)
        vals = np.random.default_rng(5).normal(size=(len(p), len(DIRS)))
        assert 0 < homogeneity_defect(Sinogram(p, DIRS, vals), 8) <= 1

    def test_rule_not_exact_to_twice_the_band_rejected(self):
        # circle(8) is exact through degree 7, so Parseval at band 5 aliases
        c = DirectionSet.circle(8)
        d = DirectionSet(c.vectors, c.weights, 5)
        p = np.linspace(-1.0, 1.0, 11)
        vals = np.random.default_rng(5).normal(size=(len(p), len(d)))
        with pytest.raises(ValueError, match="Parseval"):
            homogeneity_defect(Sinogram(p, d, vals), 2)

    def test_parseval_sphere(self):
        d3 = DirectionSet.sphere(8)
        p = np.linspace(-1.0, 1.0, 21)
        vals = np.random.default_rng(6).normal(size=(len(p), len(d3)))
        assert 0 < homogeneity_defect(Sinogram(p, d3, vals), 8) <= 1

    def test_one_basis_per_call(self, monkeypatch, sino):
        # every order k <= k_max is projected on one harmonic basis
        from pwkit import pw
        calls = []
        real = pw._real_harmonic_basis

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(pw, "_real_harmonic_basis", counting)
        homogeneity_defect(sino, 6)
        assert len(calls) == 1


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
        _direct_transform(bump, np.array([0.5, 1 + 0.3j]), DIRS.vectors[:1])

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

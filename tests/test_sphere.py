import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, simpson

from pwkit import (DegenerateCalibration, UnsupportedSphereDimension,
                   ZonalProfile, cap_bump, load_profile, save_profile,
                   sphere_radon, sphere_slice_constants, sphere_slice_defect,
                   sphere_support_check, spherical_function,
                   spherical_transform)


class TestSphericalFunction:
    def test_degree_zero_is_one(self):
        t = np.linspace(0, np.pi, 33)
        assert_allclose(spherical_function(0, t, 3), 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_one_is_cosine(self, n):
        t = np.linspace(0, np.pi, 33)
        assert_allclose(spherical_function(1, t, n), np.cos(t), atol=1e-14)

    def test_s3_closed_form(self):
        # psi_m(t) = sin((m+1) t) / ((m+1) sin t) on S^3
        t = np.linspace(0.05, np.pi - 0.05, 41)
        for m in (2, 5, 12):
            closed = np.sin((m + 1) * t) / ((m + 1) * np.sin(t))
            assert_allclose(spherical_function(m, t, 3), closed, atol=1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_normalized_at_zero(self, n):
        for m in range(0, 65, 8):
            assert spherical_function(m, 0.0, n) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthogonality(self, n):
        t = np.linspace(0, np.pi, 2049)
        dt = t[1] - t[0]
        sinw = np.sin(t) ** (n - 1)
        funcs = [spherical_function(m, t, n) for m in range(17)]
        for m in range(17):
            for mp in range(m + 1, 17):
                v = simpson(funcs[m] * funcs[mp] * sinw, dx=dt)
                assert abs(v) < 1e-8


class TestSphericalTransform:
    def test_constant_profile(self):
        prof = ZonalProfile(3, np.ones(4097))
        coeffs = spherical_transform(prof, 8)
        # f_hat(0) = int sin^2 = pi/2; higher degrees vanish by orthogonality
        assert coeffs.shape == (9,)
        assert coeffs[0] == pytest.approx(np.pi / 2, abs=1e-10)
        assert np.abs(coeffs[1:]).max() < 1e-10

    def test_single_mode_profile(self):
        t = np.linspace(0, np.pi, 4097)
        prof = ZonalProfile(2, spherical_function(4, t, 2))
        coeffs = spherical_transform(prof, 10)
        others = np.abs(np.delete(coeffs, 4)).max()
        assert others < 1e-8
        assert abs(coeffs[4]) > 1e-2

    def test_cap_bump_matches_doubled_resolution(self):
        ref = spherical_transform(cap_bump(0.5, 3, samples=8193), 10)
        got = spherical_transform(cap_bump(0.5, 3, samples=4097), 10)
        assert np.abs(ref - got).max() < 1e-8


class TestSphereRadon:
    def test_constant_profile_s3(self):
        # antiderivative oracle: (2/pi) int_s^pi sin t dt = (2/pi)(1+cos s)
        prof = ZonalProfile(3, np.ones(4097))
        got = sphere_radon(prof)
        oracle = (2 / np.pi) * (1 + np.cos(prof.thetas))
        assert np.abs(got - oracle).max() < 1e-9

    def test_vanishes_beyond_cap(self):
        prof = cap_bump(0.4, 3)
        got = sphere_radon(prof)
        assert np.abs(got[prof.thetas > 0.4]).max() < 1e-10

    def test_value_at_pi_is_zero(self):
        for n in (2, 3):
            prof = cap_bump(0.8, n)
            assert sphere_radon(prof)[-1] == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cap", [0.3, 0.5, 1.2])
    def test_matches_adaptive_quadrature(self, n, cap):
        # the same substitution u = cos s - cos t, integrated against the
        # weight u^(rho-1) by QUADPACK's algebraic-weight rule instead of
        # Gauss-Jacobi, of the exact bump instead of its spline
        prof = cap_bump(cap, n, samples=2049)
        rho = prof.rho
        got = sphere_radon(prof)

        def bump(t):
            return np.exp(-t**2 / (cap**2 - t**2)) if t < cap else 0.0
        last = np.searchsorted(prof.thetas, cap) - 2
        worst = 0.0
        for i in np.linspace(0, last, 9).astype(int):
            cos_s = np.cos(prof.thetas[i])
            val, _ = quad(lambda u: bump(np.arccos(max(cos_s - u, -1.0))),
                          0.0, cos_s - np.cos(cap), weight="alg",
                          wvar=(rho - 1, 0), epsabs=1e-14, epsrel=1e-12,
                          limit=200)
            worst = max(worst, abs(2**rho * rho / np.pi * val - got[i]))
        assert worst <= 1e-10 * np.abs(got).max()


class TestSliceIdentity:
    def test_s3_cap(self):
        assert sphere_slice_defect(cap_bump(0.5, 3), 12) < 1e-6

    def test_s2_cap(self):
        assert sphere_slice_defect(cap_bump(0.5, 2), 12) < 1e-4

    def test_defect_decreases_with_samples(self):
        coarse = sphere_slice_defect(cap_bump(0.5, 3, samples=2049), 12)
        fine = sphere_slice_defect(cap_bump(0.5, 3, samples=4097), 12)
        assert fine < coarse

    def test_constant_values(self):
        # in this normalization the constant is pi/2 on S^3 and 2 on S^2
        # (Mehler-Dirichlet for rho = 1/2; antiderivative identity for rho = 1)
        c3 = sphere_slice_constants(cap_bump(0.5, 3), 12)
        assert c3[0] == pytest.approx(np.pi / 2, abs=1e-9)
        c2 = sphere_slice_constants(cap_bump(0.5, 2), 12)
        assert c2[0] == pytest.approx(2.0, abs=1e-7)

    def test_constant_stable_across_degrees(self):
        for n in (2, 3):
            cm = sphere_slice_constants(cap_bump(0.5, n), 12)
            assert np.abs(cm - cm[0]).max() < 1e-8 * abs(cm[0]) + 1e-8

    def test_full_support_rejected(self):
        prof = ZonalProfile(3, np.ones(4097))
        with pytest.raises(ValueError):
            sphere_slice_defect(prof, 8)

    def test_degenerate_calibration(self):
        prof = ZonalProfile(3, np.zeros(4097), support_angle=0.5)
        with pytest.raises(DegenerateCalibration):
            sphere_slice_defect(prof, 4)


class TestSupportCheck:
    @pytest.mark.parametrize("cap", [0.3, 0.5, 0.8, 1.2])
    def test_angles_agree_within_one_step(self, cap):
        prof = cap_bump(cap, 3, samples=2049)
        rp, rr = sphere_support_check(prof)
        assert abs(rp - rr) <= prof.step
        assert abs(rp - cap) < 0.01

    def test_zero_profile(self):
        prof = ZonalProfile(3, np.zeros(2049))
        assert sphere_support_check(prof) == (0.0, 0.0)

    def test_s2_rejected(self):
        with pytest.raises(UnsupportedSphereDimension):
            sphere_support_check(cap_bump(0.5, 2))


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        prof = cap_bump(0.7, 3, samples=257)
        path = tmp_path / "prof.csv"
        save_profile(prof, str(path))
        back = load_profile(str(path), 3, support_angle=0.7)
        assert_allclose(back.values, prof.values, atol=1e-16)
        assert back.n == 3

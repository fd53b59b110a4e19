import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage
from scipy.integrate import quad, simpson
from scipy.interpolate import make_interp_spline
from scipy.optimize import minimize_scalar
from scipy.special import roots_jacobi

import pwkit.sphere as sphere_module
from pwkit import (UnsupportedSphereDimension, ZeroInput, ZonalProfile,
                   cap_bump, load_profile, save_profile, sphere_radon,
                   sphere_slice_constants, sphere_slice_defect,
                   sphere_support_check, spherical_function,
                   spherical_transform)
from pwkit.cli import RunConfig, run
from pwkit.sphere import (JACOBI_NODES, SLICE_CONSTANT, _edge_angle,
                          _jacobi_rule, _profile_prefilter)


def mean_zero_profile(n):
    """cap_bump(0.8) - k cap_bump(0.4) with k chosen so that f_hat(0) = 0."""
    big, small = cap_bump(0.8, n), cap_bump(0.4, n)
    k = spherical_transform(big, 0)[0] / spherical_transform(small, 0)[0]
    return ZonalProfile(n, big.values - k * small.values, support_angle=0.8)


SLICE_PROFILES = {"cap": lambda n: cap_bump(0.5, n),
                  "mean-zero": mean_zero_profile}


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
        # past degree 170 too, where Gamma(m + n - 1) overflows a double
        for m in [*range(0, 65, 8), 170, 200]:
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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cap", [0.3, 0.5, 0.8, 1.2])
    @pytest.mark.parametrize("samples", [2049, 4097])
    def test_mirrored_spline_matches_not_a_knot(self, n, cap, samples):
        # the same nodes and weights with scipy's not-a-knot quintic
        # interpolant of the profile instead of the mirrored one; the two
        # differ only near the ends, about which a zonal profile is even
        prof = cap_bump(cap, n, samples=samples)
        rho, t = prof.rho, prof.thetas
        live = t < cap
        xj, wj = _jacobi_rule(rho)
        cos_s = np.cos(t[live])
        U = cos_s - np.cos(cap)
        tj = np.arccos(np.clip(cos_s[:, None] - np.outer(U, (xj + 1) / 2),
                               -1.0, 1.0))
        spline = make_interp_spline(t, prof.values, k=5)
        want = np.zeros(len(t))
        want[live] = 2**rho * rho / np.pi * (U / 2) ** rho * (spline(tj) @ wj)
        got = sphere_radon(prof)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestProfilePrefilter:
    @pytest.mark.parametrize("samples", [65, 2049, 4097])
    @pytest.mark.parametrize("data", ["cap", "random"])
    def test_matches_spline_filter1d(self, samples, data):
        # the centre row of the collocation inverse against scipy's
        # recursive mirror-mode prefilter; a row cut before the quintic's
        # pole has decayed below roundoff fails here (61 taps do)
        values = (cap_bump(0.8, 3, samples=samples).values if data == "cap"
                  else np.random.default_rng(samples).standard_normal(samples))
        want = ndimage.spline_filter1d(values, order=5, mode="mirror")
        got = _profile_prefilter(values)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestJacobiRule:
    @pytest.mark.parametrize("rho", [1.0, 0.5])
    def test_matches_scipy(self, rho):
        x, w = _jacobi_rule(rho)
        xr, wr = roots_jacobi(JACOBI_NODES, 0.0, rho - 1.0)
        assert np.abs(x - xr).max() <= 1e-14
        # the rho = 1/2 weights differ by 1.0e-13, scipy's error: on the
        # Legendre moments of test_exact_on_legendre scipy's rule is off by
        # 1.8e-13 and the numpy rule by 4.1e-14
        assert np.abs(w - wr).max() <= (1e-14 if rho == 1 else 2e-13)

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    def test_exact_on_legendre(self, rho):
        # int P_k(x) (1 + x)^(rho-1) dx over [-1, 1], k < 2 JACOBI_NODES:
        # 2 delta_k0 for rho = 1, (-1)^k 2 sqrt(2) / (2k + 1) for rho = 1/2
        k = np.arange(2 * JACOBI_NODES)
        exact = (np.where(k == 0, 2.0, 0.0) if rho == 1
                 else (-1.0) ** k * 2 * np.sqrt(2) / (2 * k + 1))
        x, w = _jacobi_rule(rho)
        got = np.polynomial.legendre.legvander(x, k[-1]).T @ w
        assert np.abs(got - exact).max() <= 1e-13


class TestSliceIdentity:
    @pytest.mark.parametrize("profile", list(SLICE_PROFILES))
    def test_s3_cap(self, profile):
        assert sphere_slice_defect(SLICE_PROFILES[profile](3), 12) < 1e-6

    @pytest.mark.parametrize("profile", list(SLICE_PROFILES))
    def test_s2_cap(self, profile):
        assert sphere_slice_defect(SLICE_PROFILES[profile](2), 12) < 1e-4

    def test_defect_decreases_with_samples(self):
        coarse = sphere_slice_defect(cap_bump(0.5, 3, samples=2049), 12)
        fine = sphere_slice_defect(cap_bump(0.5, 3, samples=4097), 12)
        assert fine < coarse

    def test_constant_values(self):
        # the measured ratio c_0 = f_hat(0) / I(0) equals the closed-form
        # constant, pi/2 on S^3 and 2 on S^2 (sphere.py's docstring)
        c3 = sphere_slice_constants(cap_bump(0.5, 3), 12)
        assert c3[0] == pytest.approx(SLICE_CONSTANT[3], abs=1e-9)
        c2 = sphere_slice_constants(cap_bump(0.5, 2), 12)
        assert c2[0] == pytest.approx(SLICE_CONSTANT[2], abs=1e-7)

    def test_constant_stable_across_degrees(self):
        for n in (2, 3):
            cm = sphere_slice_constants(cap_bump(0.5, n), 12)
            c = SLICE_CONSTANT[n]
            assert np.abs(cm - c).max() < 1e-8 * c

    def test_full_support_rejected(self):
        prof = ZonalProfile(3, np.ones(4097))
        with pytest.raises(ValueError):
            sphere_slice_defect(prof, 8)

    def test_zero_profile_rejected(self):
        prof = ZonalProfile(3, np.zeros(4097), support_angle=0.5)
        with pytest.raises(ZeroInput, match="zero profile"):
            sphere_slice_defect(prof, 4)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("side", ["sphere_radon", "spherical_transform"])
    def test_one_percent_scale_error_fails_the_records(self, monkeypatch,
                                                       side, n):
        # with the closed-form constant a scale error in either side of the
        # identity fails both slice records
        exact = getattr(sphere_module, side)
        monkeypatch.setattr(sphere_module, side,
                            lambda *args: 1.01 * exact(*args))
        records = {r["name"]: r for r in
                   run(RunConfig("sphere", sphere_dim=n)).records}
        name = {3: "sphere slice identity (rho = 1)",
                2: "sphere slice identity (rho = 1/2)"}[n]
        for record in (records[name], records["slice constant stability"]):
            assert not record["passed"]
            assert record["defect"] > 10 * record["threshold"]


class TestUndeclaredAngle:
    """A profile with no declared cap angle gets, at construction, the
    largest angle of a sample above 1e-15 times max |F|, and the
    consumers read that angle."""

    @staticmethod
    def live_cut(values):
        thetas = np.linspace(0.0, np.pi, len(values))
        return float(thetas[np.abs(values) > 1e-15 * np.abs(values).max()]
                     .max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_profile_gets_the_live_cut(self, n, tmp_path):
        # cap_bump(0.8) falls below 1e-15 of its peak short of 0.8
        values = cap_bump(0.8, n).values
        prof = ZonalProfile(n, values)
        assert type(prof.support_angle) is float
        assert prof.support_angle == self.live_cut(values) < 0.8
        save_profile(prof, str(tmp_path / "prof.csv"))
        assert load_profile(str(tmp_path / "prof.csv"), n).support_angle \
            == prof.support_angle
        assert ZonalProfile(n, np.zeros(257)).support_angle == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_profile_rebuilds_from_its_own_angle(self, n, tmp_path):
        # samples below 1e-15 max |F| beyond the declared angle are
        # admitted, as the derived angle admits them; one above is not
        values = cap_bump(0.8, n).values
        cut = ZonalProfile(n, values).support_angle
        again = ZonalProfile(n, values, support_angle=cut)
        assert again.support_angle == cut
        assert np.array_equal(sphere_radon(again),
                              sphere_radon(ZonalProfile(n, values)))
        save_profile(again, str(tmp_path / "prof.csv"))
        assert load_profile(str(tmp_path / "prof.csv"), n,
                            support_angle=cut).support_angle == cut
        with pytest.raises(ValueError, match="declared cap angle"):
            ZonalProfile(n, values, support_angle=cut - 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_values_rejected(self, bad):
        values = cap_bump(0.8, 3).values
        values[100] = bad
        with pytest.raises(ValueError, match="finite"):
            ZonalProfile(3, values)
        with pytest.raises(ValueError, match="finite"):
            ZonalProfile(3, values, support_angle=0.8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_transform_reads_the_derived_angle(self, n):
        # the samples below the cut are zeroed, so that the cut can be
        # declared too; declared at 0.8, the transform is not the same
        values = cap_bump(0.8, n).values
        values[values <= 1e-15 * values.max()] = 0.0
        undeclared = ZonalProfile(n, values)
        cut = self.live_cut(values)
        assert undeclared.support_angle == cut < 0.8
        assert np.array_equal(sphere_radon(undeclared),
                              sphere_radon(ZonalProfile(n, values, cut)))
        assert not np.array_equal(sphere_radon(undeclared),
                                  sphere_radon(ZonalProfile(n, values, 0.8)))


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

    @pytest.mark.parametrize("cap", [0.3, 0.5, 0.8, 1.2])
    def test_edge_search_matches_scipy(self, monkeypatch, cap):
        # the golden-section search against scipy's bounded Brent search,
        # on the profile's edge and its transform's
        prof = cap_bump(cap, 3, samples=2049)
        cases = [(prof.values, 0.0), (sphere_radon(prof), 2.0)]
        got = [_edge_angle(prof.thetas, v, p) for v, p in cases]

        def bounded(fun, lo, hi, xatol):
            res = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                                  options={"xatol": xatol})
            return res.x, res.fun
        monkeypatch.setattr(sphere_module, "_golden_section", bounded)
        want = [_edge_angle(prof.thetas, v, p) for v, p in cases]
        assert_allclose(got, want, rtol=0, atol=1e-6)


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        prof = cap_bump(0.7, 3, samples=257)
        path = tmp_path / "prof.csv"
        save_profile(prof, str(path))
        back = load_profile(str(path), 3, support_angle=0.7)
        assert_allclose(back.values, prof.values, atol=1e-16)
        assert back.n == 3

    def test_unequal_spacing_rejected(self, tmp_path):
        # the endpoints are right, the angles between them are not
        t = np.pi * np.linspace(0, 1, 129) ** 2
        path = tmp_path / "prof.csv"
        np.savetxt(path, np.column_stack([t, np.cos(t)]), delimiter=",")
        with pytest.raises(ValueError, match="equispaced"):
            load_profile(str(path), 3)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_not_two_columns_rejected(self, tmp_path, columns):
        t = np.linspace(0, np.pi, 129)
        path = tmp_path / "prof.csv"
        np.savetxt(path, np.column_stack([t, np.cos(t), t][:columns]),
                   delimiter=",")
        with pytest.raises(ValueError, match="t,value"):
            load_profile(str(path), 3)

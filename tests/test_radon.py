import numpy as np
import pytest
from numpy.testing import assert_allclose

from pwkit import (DirectionSet, GridSpec, NotEven, Sinogram, default_offsets,
                   evenness_defect, integrate, inverse_radon, load_sinogram,
                   make_bump, moment, radon_transform, save_sinogram)

G = GridSpec(2, 1.5, 257)
DIRS = DirectionSet.circle(64)


@pytest.fixture(scope="module")
def shifted_bump():
    return make_bump([0.3, -0.2], 0.5, 1.0, G)


@pytest.fixture(scope="module")
def shifted_sino(shifted_bump):
    return radon_transform(shifted_bump, directions=DIRS)


def analytic_line_integral(center, radius, p, theta, oversample=2):
    """Direct quadrature of the analytic bump along the line xi(p, omega),
    at twice the grid resolution; the oracle side of the transform checks."""
    w = np.array([np.cos(theta), np.sin(theta)])
    wp = np.array([-w[1], w[0]])
    step = G.spacing / oversample
    tmax = radius + float(np.linalg.norm(center)) + 2 * G.spacing
    t = np.arange(-tmax, tmax + step, step)
    pts = p * w[None, :] + t[:, None] * wp[None, :]
    r2 = ((pts - np.asarray(center)) ** 2).sum(axis=1)
    vals = np.zeros(len(t))
    ins = r2 < radius**2
    vals[ins] = np.exp(-r2[ins] / (radius**2 - r2[ins]))
    return np.trapezoid(vals, dx=step)


class TestRadonTransform:
    def test_zero_function(self):
        from pwkit import SampledFunction
        z = SampledFunction(G, np.zeros((257, 257)), support_radius=1.0)
        s = radon_transform(z, directions=DIRS)
        assert np.all(s.values == 0)

    def test_smoothed_disk_gives_chord_length(self):
        # C^1 blend from 1 to 0 across [0.97, 1.03]; the transition is
        # symmetric about r=1 so the leading chord-length error cancels
        from pwkit import SampledFunction
        X, Y = G.mesh()
        r = np.hypot(X, Y)
        t = np.clip((r - 0.97) / 0.06, 0.0, 1.0)
        vals = 1 - t * t * (3 - 2 * t)
        f = SampledFunction(G, vals, support_radius=1.03)
        s = radon_transform(f, directions=DIRS)
        keep = np.abs(s.offsets) < 0.7
        chord = 2 * np.sqrt(1 - s.offsets[keep] ** 2)
        err = np.abs(s.values[keep, :] - chord[:, None]).max()
        assert err < 0.03  # smoothing tolerance of the mollified edge

    def test_matches_analytic_line_oracle(self, shifted_sino):
        rng = np.random.default_rng(0)
        for _ in range(20):
            i = rng.integers(0, len(shifted_sino.offsets))
            j = rng.integers(0, 64)
            oracle = analytic_line_integral(
                [0.3, -0.2], 0.5, shifted_sino.offsets[i],
                2 * np.pi * j / 64)
            assert shifted_sino.values[i, j] == pytest.approx(oracle, abs=1e-6)

    def test_translation_covariance(self, shifted_sino):
        # R f(p, omega) = R f0(p - v.omega, omega) for the centered bump f0
        rng = np.random.default_rng(1)
        v = np.array([0.3, -0.2])
        for _ in range(20):
            i = rng.integers(0, len(shifted_sino.offsets))
            j = rng.integers(0, 64)
            th = 2 * np.pi * j / 64
            shifted_p = shifted_sino.offsets[i] - v @ [np.cos(th), np.sin(th)]
            oracle = analytic_line_integral([0.0, 0.0], 0.5, shifted_p, th)
            assert shifted_sino.values[i, j] == pytest.approx(oracle, abs=1e-6)

    def test_support_radius_carried(self, shifted_bump, shifted_sino):
        assert shifted_sino.support_radius == shifted_bump.support_radius

    def test_values_vanish_beyond_support(self, shifted_sino):
        beyond = np.abs(shifted_sino.offsets) > shifted_sino.support_radius + G.spacing
        assert np.abs(shifted_sino.values[beyond]).max() < 1e-10

    def test_offsets_cover_box_diagonal(self):
        p = default_offsets(G)
        assert p[-1] == pytest.approx(1.5 * np.sqrt(2))
        assert len(p) % 2 == 1 and p[len(p) // 2] == 0.0

    def test_complex_values(self):
        from pwkit import SampledFunction
        for grid, centers, dirs in [
                (G, ([0.2, 0.0], [-0.1, 0.2]), DIRS),
                (GridSpec(3, 1.5, 33), ([0.2, 0.0, 0.1], [-0.1, 0.2, 0.0]),
                 DirectionSet.sphere(3))]:
            f = make_bump(centers[0], 0.4, 1.0, grid)
            g = make_bump(centers[1], 0.4, 1.0, grid)
            rs = max(f.support_radius, g.support_radius)
            fc = SampledFunction(grid, f.values + 1j * g.values, rs)
            s = radon_transform(fc, directions=dirs)
            sr = radon_transform(SampledFunction(grid, f.values, rs),
                                 directions=dirs)
            si = radon_transform(SampledFunction(grid, g.values, rs),
                                 directions=dirs)
            assert np.abs(s.values.real - sr.values).max() < 1e-12
            assert np.abs(s.values.imag - si.values).max() < 1e-12

    def test_3d_matches_radial_plane_oracle(self):
        # a centred bump of radius rho has R f(p, omega) =
        # 2 pi int_0^sqrt(rho^2 - p^2) exp(-(p^2 + s^2)/(rho^2 - p^2 - s^2)) s ds
        # for |p| < rho, on every normal omega
        from scipy.integrate import quad
        rho = 0.6
        g = GridSpec(3, 1.5, 65)
        s = radon_transform(make_bump([0.0, 0.0, 0.0], rho, 1.0, g),
                            directions=DirectionSet.sphere(3))
        oracle = np.zeros(len(s.offsets))
        for i, p in enumerate(s.offsets):
            if abs(p) < rho:
                a2 = rho**2 - p**2
                oracle[i] = 2 * np.pi * quad(
                    lambda r: np.exp(-(p**2 + r**2) / (a2 - r**2)) * r,
                    0.0, np.sqrt(a2))[0]
        assert oracle.max() == pytest.approx(0.457, abs=1e-3)
        assert np.abs(s.values - oracle[:, None]).max() < 2e-4

    def test_linearity(self):
        # equal declared support radii so both transforms share the grid
        f = make_bump([0.4, 0.0], 0.5, 1.0, G)
        g = make_bump([0.0, -0.4], 0.5, 1.0, G)
        lhs = radon_transform(f + (-2.0) * g, directions=DIRS).values
        rhs = (radon_transform(f, directions=DIRS).values
               - 2.0 * radon_transform(g, directions=DIRS).values)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 1e-6 * scale


class TestAntipodalReuse:
    """radon_transform samples one direction of each antipodal pair; every
    column must agree with the transform on that direction alone, which
    has no antipode and so is always sampled.  circle(9) has no antipodes,
    so every one of its columns is sampled."""

    @pytest.mark.parametrize("grid, center, radius, dirs", [
        (GridSpec(2, 1.5, 129), [0.3, -0.2], 0.5, DirectionSet.circle(64)),
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], 0.6, DirectionSet.sphere(3)),
        (GridSpec(2, 1.5, 129), [0.3, -0.2], 0.5, DirectionSet.circle(9)),
    ], ids=["circle64", "sphere3", "circle9"])
    def test_columns_match_single_directions(self, grid, center, radius, dirs):
        f = make_bump(center, radius, 1.0, grid)
        s = radon_transform(f, directions=dirs)
        partner = dirs._antipodes()
        scale = np.abs(s.values).max()
        for j, w in enumerate(dirs.vectors):
            alone = radon_transform(f, directions=DirectionSet([w], [1.0], 0))
            if 0 <= partner[j] < j:  # reused: the antipode's column reversed
                assert np.abs(s.values[:, j] - alone.values[:, 0]).max() \
                    <= 1e-12 * scale
            else:  # sampled: the same arithmetic as the one-direction set
                np.testing.assert_array_equal(s.values[:, j], alone.values[:, 0])

    @pytest.mark.parametrize("grid, center, dirs, sampled", [
        (GridSpec(2, 1.5, 129), [0.3, -0.2], DirectionSet.circle(64), 32),
        (GridSpec(2, 1.5, 129), [0.3, -0.2], DirectionSet.circle(9), 9),
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], DirectionSet.sphere(3), 16),
    ], ids=["64-32", "9-9", "sphere3-16"])
    def test_one_spline_call_per_sampled_direction(self, monkeypatch, grid,
                                                    center, dirs, sampled):
        from pwkit import radon
        calls = []
        real = radon.ndimage.map_coordinates

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(radon.ndimage, "map_coordinates", counting)
        radon_transform(make_bump(center, 0.5, 1.0, grid), directions=dirs)
        assert len(calls) == sampled

    def test_asymmetric_offsets_rejected(self, shifted_bump):
        with pytest.raises(ValueError, match="symmetric"):
            radon_transform(shifted_bump, offsets=np.linspace(-1.0, 1.2, 11),
                            directions=DIRS)
        with pytest.raises(ValueError, match="symmetric"):
            Sinogram(np.linspace(-1.0, 1.2, 11), DIRS, np.zeros((11, 64)))


class TestEvenness:
    def test_transform_is_even(self, shifted_sino):
        # 0 by construction: only one direction of each antipodal pair is
        # sampled and the other's column is its reverse, so this checks the
        # bookkeeping of that reuse, not the quadrature
        assert evenness_defect(shifted_sino) == 0.0

    def test_odd_sinogram_defect(self):
        p = default_offsets(G)
        vals = np.tile(p[:, None], (1, 64))
        s = Sinogram(p, DIRS, vals)
        assert evenness_defect(s) == pytest.approx(2 * np.abs(p).max())

    def test_needs_antipodal_directions(self):
        from pwkit import DirectionsNotAntipodal
        d = DirectionSet.circle(9, band_limit=3)
        s = Sinogram(default_offsets(G), d, np.zeros((len(default_offsets(G)), 9)))
        with pytest.raises(DirectionsNotAntipodal):
            evenness_defect(s)


class TestMoments:
    def test_zeroth_moment_is_total_mass(self, shifted_bump, shifted_sino):
        m0 = moment(shifted_sino, 0)
        assert np.abs(m0 - integrate(shifted_bump)).max() < 1e-6

    def test_first_moment_centered_vanishes(self):
        f = make_bump([0, 0], 0.5, 1.0, G)
        s = radon_transform(f, directions=DIRS)
        assert np.abs(moment(s, 1)).max() < 1e-8

    def test_first_moment_shifted(self, shifted_bump, shifted_sino):
        # oracle: int f(x) (x.omega) dx by direct grid quadrature
        X, Y = G.mesh()
        h = G.spacing
        m1 = moment(shifted_sino, 1)
        for j in (0, 7, 23, 50):
            th = 2 * np.pi * j / 64
            integrand = shifted_bump.values * (X * np.cos(th) + Y * np.sin(th))
            oracle = np.trapezoid(np.trapezoid(integrand, dx=h), dx=h)
            assert m1[j] == pytest.approx(oracle, abs=1e-6)

    def test_negative_order_rejected(self, shifted_sino):
        with pytest.raises(ValueError):
            moment(shifted_sino, -1)


class TestInverseRadon:
    def test_round_trip(self):
        f = make_bump([0.25, -0.15], 0.55, 1.0, G)
        s = radon_transform(f, directions=DirectionSet.circle(256))
        rec = inverse_radon(s, grid=G)
        rel = np.abs(rec.values - f.values).max() / f.values.max()
        assert rel < 1e-3

    def test_zero_sinogram(self):
        s = Sinogram(default_offsets(G), DIRS, np.zeros((len(default_offsets(G)), 64)))
        rec = inverse_radon(s, grid=G, r_max=4.0)
        assert np.abs(rec.values).max() < 1e-14

    def test_two_bumps_peaks_preserved(self):
        f1 = make_bump([-0.6, 0.0], 0.35, 1.0, G)
        f2 = make_bump([0.55, 0.3], 0.3, 0.8, G)
        f = f1 + f2
        s = radon_transform(f, directions=DirectionSet.circle(256))
        rec = inverse_radon(s, grid=G)
        for part in (f1, f2):
            true_idx = np.unravel_index(np.argmax(part.values), part.values.shape)
            lo = [max(i - 1, 0) for i in true_idx]
            window = rec.values[lo[0]:true_idx[0] + 2, lo[1]:true_idx[1] + 2]
            assert window.max() >= 0.999 * rec.values[
                max(true_idx[0] - 5, 0):true_idx[0] + 6,
                max(true_idx[1] - 5, 0):true_idx[1] + 6].max()

    def test_3d_round_trip_converges_in_the_direction_rule(self):
        # radius-0.6 bump at M=33: the error falls as the sphere rule grows
        # (about 40%, 28%, 13% of max|f| for b = 4, 8, 12); sphere(8), the
        # default, under-resolves the inversion integral
        g = GridSpec(3, 1.5, 33)
        f = make_bump([0.0, 0.0, 0.0], 0.6, 1.0, g)
        errs = []
        for b in (4, 8, 12):
            s = radon_transform(f, directions=DirectionSet.sphere(b))
            rec = inverse_radon(s, grid=g)
            errs.append(np.abs(rec.values - f.values).max()
                        / np.abs(f.values).max())
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_uneven(self):
        p = default_offsets(G)
        s = Sinogram(p, DIRS, np.tile(p[:, None], (1, 64)))
        with pytest.raises(NotEven):
            inverse_radon(s)


class TestSinogramIO:
    def test_round_trip(self, tmp_path, shifted_sino):
        path = tmp_path / "s.csv"
        save_sinogram(shifted_sino, str(path), direction_path=str(path) + ".dirs")
        back = load_sinogram(str(path), DIRS,
                             support_radius=shifted_sino.support_radius)
        assert_allclose(back.values, shifted_sino.values, rtol=0, atol=1e-16)
        assert_allclose(back.offsets, shifted_sino.offsets)
        assert (tmp_path / "s.csv.dirs").exists()

    def test_even_offset_count_rejected(self):
        with pytest.raises(ValueError):
            Sinogram(np.linspace(-1, 1, 10), DIRS, np.zeros((10, 64)))

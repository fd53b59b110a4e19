import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pwkit.grid as grid_module
import pwkit.radon as radon_module
from pwkit import (BallOutsideGrid, ComplexGrid, DirectionSet,
                   DirectionsNotAntipodal, GridSpec, SampledFunction,
                   fourier_on_rays, integrate, inverse_radon, l2_norm_sq,
                   load_function, make_bump, pw_seminorm, radial_fourier,
                   radon_transform, save_function, support_radius_estimate)
from pwkit.grid import _phase_table, _real_harmonic_basis, _simpson_weights
from pwkit.radon import _slice_transform

# Oracle values for the unit bump exp(-r^2/(1-r^2)) on the unit disk,
# computed by high-resolution 2-D tensor-product trapezoid quadrature at
# M = 2049/4097/8193 (all agree to 13 digits) and cross-checked against
# adaptive quadrature in polar coordinates.
UNIT_BUMP_INTEGRAL_2D = 1.2681121611276
UNIT_BUMP_L2SQ_2D = 0.8712979968941913


def grid(M=257, L=1.5, n=2):
    return GridSpec(n, L, M)


def undeclared_bumps(count=50):
    """Seeded 2-D bumps at 129^2 rebuilt with no declared support radius,
    so each has the radius of its farthest nonzero sample."""
    g = grid(129)
    for seed in range(count):
        rng = np.random.default_rng(seed)
        bump = make_bump(rng.uniform(-0.3, 0.3, 2), rng.uniform(0.4, 0.8),
                         1.0, g)
        yield SampledFunction(g, bump.values)


class TestGridSpec:
    def test_spacing(self):
        g = grid(257, 1.5)
        assert g.spacing == pytest.approx(3.0 / 256)

    def test_origin_is_a_node(self):
        assert 0.0 in grid(33, 1.0).axis()

    @pytest.mark.parametrize("bad", [dict(n=4), dict(points=32),
                                     dict(points=256), dict(half_width=-1)])
    def test_invalid_specs_rejected(self, bad):
        kw = dict(n=2, half_width=1.5, points=257)
        kw.update(bad)
        with pytest.raises(ValueError):
            GridSpec(kw["n"], kw["half_width"], kw["points"])


class TestMakeBump:
    def test_center_value_is_amplitude(self):
        g = grid()
        f = make_bump([0, 0], 0.5, 1.0, g)
        mid = g.points // 2
        assert f.values[mid, mid] == pytest.approx(1.0)

    def test_vanishes_outside_ball(self):
        g = grid()
        f = make_bump([0.2, 0.1], 0.4, 2.0, g)
        X, Y = np.meshgrid(g.axis(), g.axis(), indexing="ij")
        outside = (X - 0.2) ** 2 + (Y - 0.1) ** 2 >= 0.4**2
        assert np.all(f.values[outside] == 0)

    def test_support_radius_declared(self):
        f = make_bump([0.3, -0.4], 0.5, 1.0, grid())
        assert f.support_radius == pytest.approx(1.0)

    def test_ball_must_fit(self):
        with pytest.raises(BallOutsideGrid):
            make_bump([1.2, 0.0], 0.5, 1.0, grid())

    def test_unit_bump_integral_matches_oracle(self):
        g = grid(513, 1.5)
        f = make_bump([0, 0], 1.0, 1.0, g)
        assert integrate(f) == pytest.approx(UNIT_BUMP_INTEGRAL_2D, abs=1e-6)

    def test_unit_bump_l2_matches_oracle(self):
        f = make_bump([0, 0], 1.0, 1.0, grid(513, 1.5))
        assert l2_norm_sq(f) == pytest.approx(UNIT_BUMP_L2SQ_2D, abs=1e-6)

    def test_3d_bump_peak_memory(self):
        # |x - c|^2 comes from outer sums of the per-axis squares, with no
        # coordinate meshes, and the support check gathers only the nonzero
        # samples: the peak, the returned values included, stays under 4
        # arrays of the grid's size
        g = grid(65, 1.5, 3)
        tracemalloc.start()
        try:
            make_bump([0.1, 0.0, -0.1], 0.6, 1.0, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 65**3 * 8

    def test_3d_bump_matches_its_formula(self):
        g = grid(33, 1.5, 3)
        c = np.array([0.1, 0.0, -0.1])
        x = np.stack(np.meshgrid(*[g.axis()] * 3, indexing="ij"), axis=-1)
        r2 = ((x - c) ** 2).sum(axis=-1)
        want = np.zeros_like(r2)
        inside = r2 < 0.36
        want[inside] = 2.0 * np.exp(-r2[inside] / (0.36 - r2[inside]))
        assert_allclose(make_bump(c, 0.6, 2.0, g).values, want,
                        rtol=1e-14, atol=0)


class TestQuadrature:
    def test_zero_function(self):
        g = grid()
        z = SampledFunction(g, np.zeros((g.points,) * 2))
        assert integrate(z) == 0
        assert l2_norm_sq(z) == 0

    def test_constant_on_box(self):
        g = GridSpec(2, 1.0, 65)
        c = SampledFunction(g, np.full((65, 65), 1.0))
        assert integrate(c) == pytest.approx(4.0)
        c3 = SampledFunction(GridSpec(2, 1.0, 65), np.full((65, 65), 2.5))
        assert l2_norm_sq(c3) == pytest.approx(2.5**2 * 4.0)

    def test_convergence_monotone(self):
        vals = []
        for M in (65, 129, 257, 513, 1025):
            f = make_bump([0, 0], 1.0, 1.0, grid(M, 1.5))
            vals.append(integrate(f))
        diffs = [abs(vals[i] - vals[i + 1]) for i in range(4)]
        assert diffs[0] > diffs[1] > diffs[2] > diffs[3]

    def test_linearity(self):
        g = grid(129)
        f = make_bump([0.1, 0.2], 0.5, 1.0, g)
        h = make_bump([-0.3, 0.0], 0.4, 1.0, g)
        lhs = integrate(SampledFunction(g, 2.0 * f.values - 3.0 * h.values))
        rhs = 2.0 * integrate(f) - 3.0 * integrate(h)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    @pytest.mark.parametrize("npts", [3, 4, 65, 1000, 4097])
    def test_simpson_weights_follow_scipy(self, npts):
        # odd counts are composite Simpson; even counts add Cartwright's
        # last-interval correction, as scipy.integrate.simpson does
        from scipy.integrate import simpson
        x = np.linspace(0.0, 2.0, npts)
        dx = x[1] - x[0]
        for y in (np.exp(-x) * (2 + np.sin(7 * x)), x**3 + 1):
            assert _simpson_weights(npts, dx) @ y == pytest.approx(
                simpson(y, dx=dx), rel=1e-14)


class TestDirectionSet:
    def test_circle_weights(self):
        d = DirectionSet.circle(64)
        assert_allclose(d.weights, 1 / 64)
        assert d.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("count", [0, -3])
    def test_circle_without_directions_rejected(self, count):
        with pytest.raises(ValueError, match="at least one direction"):
            DirectionSet.circle(count)

    def test_circle_harmonic_exactness(self):
        d = DirectionSet.circle(64)
        assert d.band_limit == 31
        th = np.arctan2(d.vectors[:, 1], d.vectors[:, 0])
        for l in range(1, 32):
            assert abs(d.weights @ np.cos(l * th)) < 1e-10
            assert abs(d.weights @ np.sin(l * th)) < 1e-10

    def test_sphere_rule_constant(self):
        d = DirectionSet.sphere(8)
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_sphere_rule_harmonics(self):
        from scipy.special import sph_harm_y
        d = DirectionSet.sphere(6)
        theta = np.arccos(np.clip(d.vectors[:, 2], -1, 1))
        phi = np.arctan2(d.vectors[:, 1], d.vectors[:, 0])
        for l in range(1, 7):
            for m in range(-l, l + 1):
                y = sph_harm_y(l, abs(m), theta, phi)
                comp = y.real if m >= 0 else y.imag
                assert abs(d.weights @ comp) < 1e-10

    @pytest.mark.parametrize("band", [3, 8, 12, 24, 48])
    def test_sphere_harmonics_match_sph_harm_y(self, band):
        # the Legendre recurrence against the construction it replaced:
        # scipy's complex harmonics, split into real rows in the same order,
        # on the rule's nodes and on random directions with both poles
        from scipy.special import sph_harm_y
        v = np.random.default_rng(band).standard_normal((2000, 3))
        v[:2] = [[0, 0, 1], [0, 0, -1]]
        v /= np.linalg.norm(v, axis=1)[:, None]
        for d in (DirectionSet.sphere(band), SimpleNamespace(n=3, vectors=v)):
            theta = np.arccos(np.clip(d.vectors[:, 2], -1, 1))
            phi = np.arctan2(d.vectors[:, 1], d.vectors[:, 0])
            for l, block in enumerate(_real_harmonic_basis(d, band)):
                y = [sph_harm_y(l, m, theta, phi) for m in range(l + 1)]
                want = np.sqrt(4 * np.pi) * np.stack(
                    [np.sqrt(2) * c.imag for c in y[:0:-1]] + [y[0].real]
                    + [np.sqrt(2) * c.real for c in y[1:]])
                assert np.abs(block - want).max() <= 1e-12

    @pytest.mark.parametrize("band", [1, 2, 3, 8, 12, 24])
    def test_sphere_harmonics_are_orthonormal(self, band):
        # the rule is exact through degree 2 band, so the Gram matrix of all
        # the blocks under its weights is the identity
        d = DirectionSet.sphere(band)
        basis = np.concatenate(_real_harmonic_basis(d, band))
        assert len(basis) == (band + 1) ** 2
        gram = (basis * d.weights) @ basis.T
        assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12

    def test_antipodal_index(self):
        d = DirectionSet.circle(8)
        idx = d.antipodal_index()
        assert_allclose(d.vectors[idx], -d.vectors, atol=1e-14)
        d3 = DirectionSet.sphere(4)
        idx3 = d3.antipodal_index()
        assert_allclose(d3.vectors[idx3], -d3.vectors, atol=1e-12)

    def test_not_antipodal_raises(self):
        d = DirectionSet.circle(9)
        with pytest.raises(DirectionsNotAntipodal):
            d.antipodal_index()

    def test_inexact_rule_rejected(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DirectionSet(vecs, np.array([0.5, 0.5]), band_limit=2)

    @pytest.mark.parametrize("vectors, weights, message", [
        (np.eye(2), np.full(3, 1 / 3), "one weight per direction"),
        (np.eye(2), np.full((2, 1), 0.5), "one weight per direction"),
        ([[2.0, 0.0], [-2.0, 0.0]], [0.5, 0.5], "unit vectors"),
        ([[1.0, 2e-6], [-1.0, 0.0]], [0.5, 0.5], "unit vectors"),
        (np.eye(4), np.full(4, 0.25), r"\(Q, 2\) or \(Q, 3\)"),
        (np.ones((2, 2, 2)), [0.5, 0.5], r"\(Q, 2\) or \(Q, 3\)"),
    ], ids=["extra-weight", "weight-column", "long", "off-by-2e-12",
            "4-d", "3-axis"])
    def test_malformed_rule_rejected(self, vectors, weights, message):
        # caught here, not as a matmul error in choose_r_max or as
        # integrals over the wrong hyperplanes
        with pytest.raises(ValueError, match=message):
            DirectionSet(vectors, weights, 0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        f = make_bump([0.2, -0.1], 0.5, 1.3, grid(65))
        path = tmp_path / "f.csv"
        save_function(f, path)
        g = load_function(path)
        assert g.grid == f.grid
        assert_allclose(g.values, f.values, rtol=0, atol=0)
        # the samples fit the bump's declared support
        assert SampledFunction(g.grid, g.values, f.support_radius) \
            .support_radius == f.support_radius

    def test_header(self, tmp_path):
        f = make_bump([0, 0], 0.5, 1.0, grid(65))
        path = tmp_path / "f.csv"
        save_function(f, path)
        head = path.read_text().splitlines()[0]
        assert head.split(",")[0] == "2"
        assert head.split(",")[1] == "65"


class TestSampledFunctionInvariants:
    def test_rejects_nonzero_outside_support(self):
        g = grid(65)
        vals = np.full((65, 65), 1.0)
        with pytest.raises(ValueError):
            SampledFunction(g, vals, support_radius=0.5)

    def test_rebuilt_from_its_own_radius(self):
        # the derived radius and the check of a declared one are one
        # comparison, so sqrt(r^2)^2 != r^2 cannot refuse the rebuild
        for f in undeclared_bumps():
            rebuilt = SampledFunction(f.grid, f.values, f.support_radius)
            assert rebuilt.support_radius == f.support_radius

    def test_complex_transform_of_an_undeclared_function(self):
        # the complex transform declares f's radius on its real and
        # imaginary parts
        directions = DirectionSet.circle(8)
        for f in undeclared_bumps():
            s = radon_transform(SampledFunction(f.grid, f.values * 1j),
                                directions=directions)
            assert s.support_radius == f.support_radius

    def test_rejects_nonfinite(self):
        g = grid(65)
        vals = np.zeros((65, 65))
        vals[3, 3] = np.nan
        with pytest.raises(ValueError):
            SampledFunction(g, vals)


class TestPhaseTable:
    """`grid._phase_table`, the angle-addition table of the direct kernel
    and the inversion synthesis, and the offset kernel's independence of
    it."""

    H = 3.0 / 256                     # the spacing of the 257^2 desk grid
    THETA_MAX = 2 * np.pi * 14.5 * H  # the largest round-trip step angle

    @pytest.mark.parametrize("m", [1, 2, 16, 17, 129, 257])
    def test_matches_exponentials(self, m):
        re = np.linspace(-self.THETA_MAX, self.THETA_MAX, 41)
        # the growth of the extension mesh, |Im z| <= 0.5, per grid step
        im = 2 * np.pi * 0.5 * self.H * np.array([-1.0, -0.3, 0.3, 1.0])
        k = np.arange(m)
        for theta in (re, np.add.outer(re, 1j * im).ravel()):
            want = np.exp(1j * np.multiply.outer(theta, k))
            got = _phase_table(theta, m)
            assert got.shape == theta.shape + (m,)
            bound = (4 * np.finfo(float).eps
                     * (1 + np.abs(theta)[:, None] * m) * np.abs(want))
            assert np.all(np.abs(got - want) <= bound)

    def test_offset_kernel_never_uses_the_table(self, monkeypatch):
        g = grid(65)
        f = make_bump([0.2, 0.1], 0.5, 1.0, g)
        s = radon_transform(f, directions=DirectionSet.circle(32))
        calls = []

        def spy(*args):
            calls.append(args)
            return _phase_table(*args)
        for mod in (grid_module, radon_module):
            monkeypatch.setattr(mod, "_phase_table", spy)
        _slice_transform(s, np.linspace(0, 4, 9))
        radial_fourier(s, np.linspace(0, 4, 9))
        pw_seminorm(s, 2, 2 * np.pi * s.support_radius,
                    ComplexGrid(2.0, 1.0, 5, 5))
        support_radius_estimate(s)
        assert calls == []
        # the spy sees the table where it is used
        fourier_on_rays(f, [1.0], s.directions)
        inverse_radon(s, grid=g)
        assert calls

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pwkit import (DirectionSet, GridSpec,
                   SampledFunction, ZeroInput,
                   choose_r_max, fourier_on_rays, fourier_slice_defect,
                   integrate, inverse_radon, make_bump, marginal_projection,
                   moment, plancherel_defect, pointwise_inversion,
                   projection_compatibility_defect, radial_fourier,
                   radon_transform)
import pwkit.fourier as fourier_module
from pwkit.fourier import SLICE_RADII
from pwkit.grid import _direct_transform, _directions_for

G = GridSpec(2, 1.5, 257)
DIRS = DirectionSet.circle(64)


@pytest.fixture(scope="module")
def bump():
    return make_bump([0.0, 0.0], 0.6, 1.0, G)


@pytest.fixture(scope="module")
def bump_sino(bump):
    return radon_transform(bump, directions=DIRS)


class TestRadialFourier:
    def test_zero(self):
        from pwkit import default_offsets
        p = default_offsets(G)
        from pwkit import Sinogram
        s = Sinogram(p, DIRS, np.zeros((len(p), 64)))
        v = radial_fourier(s, np.linspace(0, 4, 9))
        assert np.all(v.values == 0)

    def test_zero_radius_row_is_mass(self, bump_sino):
        v = radial_fourier(bump_sino, np.linspace(0, 4, 9))
        assert_allclose(v.values[0], moment(bump_sino, 0), atol=1e-12)

    def test_centered_bump_radial_and_real(self, bump_sino):
        v = radial_fourier(bump_sino, np.linspace(0, 6, 13))
        assert np.abs(v.values.imag).max() < 1e-8
        spread = np.abs(v.values - v.values.mean(axis=1, keepdims=True)).max()
        assert spread < 1e-8

    def test_evenness_transfer(self, bump):
        f = make_bump([0.25, -0.1], 0.5, 1.0, G)
        s = radon_transform(f, directions=DIRS)
        radii = np.linspace(0, 5, 11)
        v = radial_fourier(s, radii)
        # F(-r)(omega) := F(r)(-omega) must match direct evaluation at -r
        wp = s.offset_weights()
        E = np.exp(-2j * np.pi * np.outer(-radii, s.offsets)) * wp[None, :]
        direct_neg = E @ s.values
        assert np.abs(v.values[:, DIRS.antipodal_index()]
                      - direct_neg).max() < 1e-8


class TestFourierSlice:
    def test_bump_defect(self, bump, bump_sino):
        assert fourier_slice_defect(bump, bump_sino) < 1e-5

    def test_zero(self):
        z = SampledFunction(G, np.zeros((257, 257)), support_radius=1.0)
        assert fourier_slice_defect(z, radon_transform(z, directions=DIRS)) == 0

    def test_shifted_bump_defect(self):
        f = make_bump([0.35, 0.2], 0.45, 1.0, G)
        assert fourier_slice_defect(f, radon_transform(f, directions=DIRS)) < 1e-5

    @pytest.mark.parametrize("g, radii", [
        (GridSpec(3, 1.5, 33), 11),   # Nyquist radius 16/3: 0, 0.5, .., 5
        (G, len(SLICE_RADII)),        # Nyquist radius 42.7: every radius
    ], ids=["33^3", "257^2"])
    def test_checks_only_radii_the_grid_resolves(self, monkeypatch, g, radii):
        f = make_bump([0.1, 0.0, -0.1][:g.n], 0.6, 1.0, g)
        s = radon_transform(f, directions=_directions_for(g.n, 64))
        seen = []

        def spy(f, radii, directions):
            seen.append(np.asarray(radii))
            return fourier_on_rays(f, radii, directions)
        monkeypatch.setattr(fourier_module, "fourier_on_rays", spy)
        fourier_slice_defect(f, s)
        assert len(seen) == 1
        assert_allclose(seen[0], SLICE_RADII[:radii], rtol=0, atol=0)
        assert seen[0].max() <= 0.5 / g.spacing

    def test_direct_side_at_zero_is_mass(self, bump):
        vals = fourier_on_rays(bump, np.array([0.0]), DIRS)
        assert_allclose(vals[0], integrate(bump), atol=1e-12)


def _per_direction(f, z, omegas):
    """Reference: the direct quadrature one direction at a time, contracting
    the first grid axis first."""
    z = np.asarray(z)
    ax = f.grid.axis()
    cols = []
    for omega in omegas:
        first, *rest = [np.exp(-2j * np.pi * np.outer(z, w * ax))
                        for w in omega]
        out = (np.tensordot(first.real, f.values, axes=(1, 0))
               + 1j * np.tensordot(first.imag, f.values, axes=(1, 0)))
        for phase in rest:
            out = np.einsum("km...,km->k...", out, phase)
        cols.append((out * f.grid.spacing ** f.grid.n).reshape(z.shape))
    return np.stack(cols, axis=-1)


def _rotated_sphere(band, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return DirectionSet.sphere(band).vectors @ q.T


class TestDirectKernel:
    """`grid._direct_transform` contracts the grid once per ring of
    directions sharing a last component; the sum is the per-direction one."""

    @pytest.mark.parametrize("n, points, omegas", [
        (3, 33, DirectionSet.sphere(3).vectors),
        (3, 33, _rotated_sphere(2, 5)),
        (2, 65, DirectionSet.circle(16).vectors),
    ], ids=["sphere3", "rotated-sphere2", "circle16"])
    def test_agrees_with_per_direction_sum(self, n, points, omegas):
        g = GridSpec(n, 1.5, points)
        f = make_bump([0.2, -0.1, 0.15][:n], 0.6, 1.3, g)
        got = _direct_transform(f, SLICE_RADII, omegas)
        want = _per_direction(f, SLICE_RADII, omegas)
        assert got.shape == (len(SLICE_RADII), len(omegas))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_complex_direction_and_complex_mesh(self):
        f = make_bump([0.2, -0.1, 0.15], 0.6, 1.3, GridSpec(3, 1.5, 33))
        zeta, phi = 0.4 + 0.2j, 0.7
        omegas = np.array([[np.cos(zeta), np.sin(zeta) * np.cos(phi),
                            np.sin(zeta) * np.sin(phi)]])
        z = np.add.outer(np.linspace(0.5, 2.0, 3), 1j * np.linspace(0, 1, 4))
        got = _direct_transform(f, z, omegas)
        want = _per_direction(f, z, omegas)
        assert got.shape == (3, 4, 1)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    # a circle rule's rings are its distinct last components, about Q;
    # which of them coincide depends on how sin rounds in the last bit
    @pytest.mark.parametrize("directions, rings", [
        (DirectionSet.sphere(3), 4),
        (DirectionSet.circle(8), None),
        (DirectionSet.circle(16), None),
    ], ids=["sphere3", "circle8", "circle16"])
    def test_one_grid_contraction_per_ring(self, monkeypatch, directions,
                                           rings):
        if rings is None:
            rings = len(np.unique(directions.vectors[:, -1]))
        f = make_bump([0.1] * directions.n, 0.5, 1.0,
                      GridSpec(directions.n, 1.5, 33))
        calls = []
        tensordot = np.tensordot

        def spy(*args, **kwargs):
            calls.append(1)
            return tensordot(*args, **kwargs)

        monkeypatch.setattr(np, "tensordot", spy)
        fourier_on_rays(f, SLICE_RADII, directions)
        assert len(calls) == rings

    @pytest.mark.parametrize("call", [
        lambda f2, f3, s2: fourier_on_rays(f3, [1.0], DirectionSet.circle(8)),
        lambda f2, f3, s2: fourier_on_rays(f2, [1.0], DirectionSet.sphere(2)),
        lambda f2, f3, s2: fourier_slice_defect(f3, s2),
    ], ids=["circle-on-3d", "sphere-on-2d", "slice-defect-3d-on-2d"])
    def test_direction_dimension_must_match_the_grid(self, call):
        f2 = make_bump([0.1, 0.0], 0.5, 1.0, GridSpec(2, 1.5, 33))
        f3 = make_bump([0.1, 0.0, 0.0], 0.5, 1.0, GridSpec(3, 1.5, 33))
        s2 = radon_transform(f2, directions=DirectionSet.circle(8))
        with pytest.raises(ValueError, match="direction dimension does not "
                           "match the grid"):
            call(f2, f3, s2)


class TestPlancherel:
    def test_bump(self, bump, bump_sino):
        assert plancherel_defect(bump, bump_sino) < 1e-4

    def test_scale_invariance(self, bump, bump_sino):
        d1 = plancherel_defect(bump, bump_sino)
        scaled = SampledFunction(G, bump.values * 3.7, bump.support_radius)
        d2 = plancherel_defect(scaled,
                               radon_transform(scaled, directions=DIRS))
        assert d2 == pytest.approx(d1, rel=1e-6)

    def test_two_disjoint_bumps(self):
        f1 = make_bump([-0.6, 0.0], 0.35, 1.0, G)
        f2 = make_bump([0.55, 0.2], 0.3, 1.0, G)
        f = SampledFunction(G, f1.values + f2.values,
                            max(f1.support_radius, f2.support_radius))
        assert plancherel_defect(f, radon_transform(f, directions=DIRS)) < 1e-4

    def test_zero_function_rejected(self):
        z = SampledFunction(G, np.zeros((257, 257)), support_radius=1.0)
        with pytest.raises(ZeroInput):
            plancherel_defect(z, radon_transform(z, directions=DIRS))

    def test_defect_decreases_with_resolution(self, bump, bump_sino):
        coarse = plancherel_defect(bump, bump_sino)
        g2 = GridSpec(2, 1.5, 513)
        f2 = make_bump([0.0, 0.0], 0.6, 1.0, g2)
        fine = plancherel_defect(
            f2, radon_transform(f2, directions=DirectionSet.circle(128)))
        assert coarse / fine >= 4.0

    def test_r_max_detection(self, bump_sino):
        r_max, tail = choose_r_max(bump_sino)
        assert 5 < r_max < 0.5 / (bump_sino.offsets[1] - bump_sino.offsets[0])
        assert tail >= 0


class TestPointwiseInversion:
    @pytest.fixture(scope="class")
    def inversion_sino(self, bump):
        return radon_transform(bump, directions=DirectionSet.circle(192))

    def test_center_value(self, inversion_sino):
        val = pointwise_inversion(inversion_sino, np.zeros(2))
        assert abs(val - 1.0) < 1e-3

    def test_outside_support(self, inversion_sino):
        val = pointwise_inversion(inversion_sino, np.array([1.4, 1.4]))
        assert abs(val) < 1e-3

    @pytest.mark.parametrize("n, points, directions", [
        (2, 129, DirectionSet.circle(48)),
        (3, 33, DirectionSet.sphere(4)),
    ])
    def test_agrees_with_grid_synthesis(self, n, points, directions):
        # both evaluate one inversion quadrature: at grid nodes the point
        # sums and the separable grid synthesis agree to roundoff
        g = GridSpec(n, 1.5, points)
        f = make_bump([0.2, -0.1, 0.1][:n], 0.6, 1.0, g)
        s = radon_transform(f, directions=directions)
        grid_vals = inverse_radon(s, grid=g).values
        c = points // 2
        idx = np.array([[c] * n, [c + 3, c - 2, c + 1][:n],
                        [c - 5, c + 4, c][:n], [2, points - 3, c][:n]])
        vals = pointwise_inversion(s, g.axis()[idx])
        assert np.isrealobj(vals)
        want = grid_vals[tuple(idx.T)]
        assert np.abs(vals - want).max() <= 1e-12 * np.abs(grid_vals).max()


class TestMarginalProjection:
    G3 = GridSpec(3, 1.5, 97)

    def test_product_bump_factorizes(self):
        g3 = self.G3
        ax = g3.axis()
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        r2 = X**2 + Y**2
        b2 = np.zeros_like(X)
        ins = r2 < 0.5**2
        b2[ins] = np.exp(-r2[ins] / (0.25 - r2[ins]))
        prof = np.zeros(g3.points)
        insz = np.abs(ax) < 0.4
        prof[insz] = np.exp(-ax[insz] ** 2 / (0.16 - ax[insz] ** 2))
        prof /= np.trapezoid(prof, dx=g3.spacing)
        f3 = SampledFunction(g3, b2[:, :, None] * prof[None, None, :])
        proj = marginal_projection(f3)
        assert np.abs(proj.values - b2).max() < 1e-6

    def test_zero(self):
        f3 = SampledFunction(self.G3, np.zeros((97,) * 3), support_radius=1.0)
        proj = marginal_projection(f3)
        assert np.all(proj.values == 0)

    def test_radial_bump_matches_fiber_oracle(self):
        f3 = make_bump([0, 0, 0], 0.7, 1.0, self.G3)
        proj = marginal_projection(f3)
        ax = self.G3.axis()
        rng = np.random.default_rng(3)
        for _ in range(12):
            i, j = rng.integers(20, 77, 2)
            rho2 = ax[i] ** 2 + ax[j] ** 2
            if rho2 >= 0.7**2:
                assert proj.values[i, j] == 0
                continue
            # 1-D fiber integral of the analytic bump at fine resolution
            zmax = np.sqrt(0.7**2 - rho2)
            z = np.linspace(-zmax, zmax, 4001)[1:-1]
            r2 = rho2 + z**2
            vals = np.exp(-r2 / (0.7**2 - r2))
            oracle = np.trapezoid(vals, dx=z[1] - z[0])
            assert proj.values[i, j] == pytest.approx(oracle, abs=1e-6)

    def test_support_radius_not_increased(self):
        f3 = make_bump([0.1, 0.0, 0.2], 0.5, 1.0, self.G3)
        proj = marginal_projection(f3)
        assert proj.support_radius <= f3.support_radius

    def test_wrong_dimension_rejected(self):
        from pwkit import UnsupportedPair
        f2 = make_bump([0, 0], 0.5, 1.0, G)
        with pytest.raises(UnsupportedPair):
            marginal_projection(f2)


class TestProjectionCompatibility:
    G3 = GridSpec(3, 1.5, 97)

    def test_centered_bump(self):
        f3 = make_bump([0, 0, 0], 0.65, 1.0, self.G3)
        assert projection_compatibility_defect(f3) < 1e-5

    def test_zero(self):
        f3 = SampledFunction(self.G3, np.zeros((97,) * 3), support_radius=1.0)
        assert projection_compatibility_defect(f3) == 0

    def test_translated_in_plane(self):
        f3 = make_bump([0.25, -0.15, 0.0], 0.6, 1.0, self.G3)
        assert projection_compatibility_defect(f3) < 1e-5

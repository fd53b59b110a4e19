import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pwkit import (DirectionSet, GridSpec, NotEven, Sinogram, choose_r_max,
                   default_offsets, evenness_defect, integrate, inverse_radon,
                   make_bump, moment, pointwise_inversion, radon_transform,
                   save_sinogram)
from pwkit.grid import SPHERE_AREA
from pwkit.radon import (EVENNESS_TOL, RADIAL_NODES, RADIAL_PANEL,
                         _slice_transform)

G = GridSpec(2, 1.5, 257)
DIRS = DirectionSet.circle(64)


def mesh(grid):
    return np.meshgrid(*[grid.axis()] * grid.n, indexing="ij")


def read_sinogram(path, directions):
    """The sinogram of a `save_sinogram` CSV: header `P,Q,n`, then rows
    `p,omega_index,value`, offsets outer."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    q = len(directions)
    return Sinogram(rows[::q, 0], directions, rows[:, 2].reshape(-1, q))


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


OFFCENTRE = ([0.2, -0.1, 0.15], 0.6)   # centre and radius of a 3-D bump
# centre and radius of a bump in the box's corner, per dimension: its
# support reaches beyond the inscribed ball |x| <= L = 1.5
CORNER = {2: ([1.05, 1.05], 0.4), 3: ([0.8] * 3, 0.5)}


def corner_bump(n, points):
    """The CORNER bump of dimension n on the grid of `points`, with its
    support radius left undeclared."""
    from pwkit import SampledFunction
    g = GridSpec(n, 1.5, points)
    return SampledFunction(g, make_bump(*CORNER[n], 1.0, g).values)


@functools.lru_cache(maxsize=None)
def offcentre_sinogram(points):
    """The transform of the OFFCENTRE bump on the 3-D grid of `points` at
    the `sphere(3)` normals, shared by the checks that compare it."""
    f = make_bump(*OFFCENTRE, 1.0, GridSpec(3, 1.5, points))
    return radon_transform(f, directions=DirectionSet.sphere(3))


def radial_oracle(s, center, radius):
    """The exact transform of make_bump(center, radius, 1.0) on the
    sinogram's offsets and directions: the plane at distance q from the
    centre meets the bump's profile f(r) = exp(-r^2 / (radius^2 - r^2)) in
    2 pi int_|q|^radius f(r) r dr, by adaptive quadrature."""
    from scipy.integrate import quad
    q = s.offsets[:, None] - s.directions.vectors @ np.asarray(center)
    out = np.zeros(q.shape)
    for i, j in zip(*np.nonzero(np.abs(q) < radius)):
        out[i, j] = 2 * np.pi * quad(
            lambda r: np.exp(-r**2 / (radius**2 - r**2)) * r,
            abs(q[i, j]), radius)[0]
    return out


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
        X, Y = mesh(G)
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

    def test_3d_off_centre_bump_matches_the_radial_oracle(self):
        # a bump of radius a about c is radial about c, so R f(p, omega) =
        # 2 pi int_|q|^a f(r) r dr with q = p - c . omega; measured relative
        # to the largest exact value: 2.81e-3, 1.62e-4 and 1.67e-5 at 33^3,
        # 65^3 and 97^3; each bound is twice what the slab lattice read on
        # every normal (2.81e-3, 1.62e-4, 1.66e-5), so pencils must keep
        # its accuracy
        errors = []
        for points, bound in [(33, 5.62e-3), (65, 3.24e-4), (97, 3.33e-5)]:
            s = offcentre_sinogram(points)
            exact = radial_oracle(s, OFFCENTRE[0], OFFCENTRE[1])
            errors.append(np.abs(s.values - exact).max() / exact.max())
            assert errors[-1] <= bound
        assert all(np.diff(errors) < 0)

    def test_linearity(self):
        # equal declared support radii so both transforms share the grid
        f = make_bump([0.4, 0.0], 0.5, 1.0, G)
        g = make_bump([0.0, -0.4], 0.5, 1.0, G)
        from pwkit import SampledFunction
        fg = SampledFunction(G, f.values - 2.0 * g.values, f.support_radius)
        lhs = radon_transform(fg, directions=DIRS).values
        rhs = (radon_transform(f, directions=DIRS).values
               - 2.0 * radon_transform(g, directions=DIRS).values)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 1e-6 * scale


def compat_directions():
    """The horizontal normals of `projection_compatibility_defect`."""
    from pwkit.fourier import COMPAT_AZIMUTHS as q
    phis = 2 * np.pi * np.arange(q) / q
    return DirectionSet(np.stack([np.cos(phis), np.sin(phis), np.zeros(q)], 1),
                        np.full(q, 1.0 / q), band_limit=0)


class TestAntipodalReuse:
    """radon_transform samples one direction of each antipodal pair; every
    column must agree with the transform on that direction alone, which
    has no antipode and so is always sampled.  circle(9) has no antipodes,
    so every one of its columns is sampled."""

    @pytest.mark.parametrize("grid, center, radius, dirs", [
        (GridSpec(2, 1.5, 129), [0.3, -0.2], 0.5, DirectionSet.circle(64)),
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], 0.6, DirectionSet.sphere(3)),
        (GridSpec(2, 1.5, 129), [0.3, -0.2], 0.5, DirectionSet.circle(9)),
        # antipodes, but only the first is horizontal (w_3 == 0), so the
        # second is sampled on pencils, not reused from the first's slabs
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], 0.6,
         DirectionSet([[0.6, 0.8, 0.0], [-0.6, -0.8, -1e-17]], [0.5, 0.5], 0)),
        # 16 horizontal normals in 8 antipodal pairs, all on the slab axis z
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], 0.6, compat_directions()),
    ], ids=["circle64", "sphere3", "circle9", "horizontal-pair", "compat16"])
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

    @staticmethod
    def spline_calls(monkeypatch, f, dirs):
        """The number of `_row_values` calls that
        radon_transform(f, directions=dirs) makes.  The module has no
        scipy.ndimage to call instead: every spline value is pwkit's own."""
        from pwkit import radon
        assert not hasattr(radon, "ndimage")
        calls = []
        real = radon._row_values

        def spied(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(radon, "_row_values", spied)
            radon_transform(f, directions=dirs)
        return len(calls)

    # a sampled direction is one 1-D spline evaluation on the rows or
    # pencils, by pwkit's own polynomial pieces; the 8 sampled horizontal
    # 3-D normals of compat-8 are gathered from the prefix sums over the
    # slab stack and evaluate no pencil; of the pair, the horizontal normal
    # is on slabs and its near-horizontal antipode on pencils
    @pytest.mark.parametrize("grid, center, dirs, calls", [
        (GridSpec(2, 1.5, 129), [0.3, -0.2], DirectionSet.circle(64), 32),
        (GridSpec(2, 1.5, 129), [0.3, -0.2], DirectionSet.circle(9), 9),
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], DirectionSet.sphere(3),
         16),
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15], compat_directions(), 0),
        (GridSpec(3, 1.5, 33), [0.2, -0.1, 0.15],
         DirectionSet([[0.6, 0.8, 0.0], [-0.6, -0.8, -1e-17]], [0.5, 0.5], 0),
         1),
    ], ids=["64-32", "9-9", "sphere3-16", "compat-8", "horizontal-pair-1"])
    def test_one_spline_call_per_sampled_direction(self, monkeypatch, grid,
                                                    center, dirs, calls):
        f = make_bump(center, 0.5, 1.0, grid)
        assert self.spline_calls(monkeypatch, f, dirs) == calls

    def test_asymmetric_offsets_rejected(self, shifted_bump):
        with pytest.raises(ValueError, match="symmetric"):
            radon_transform(shifted_bump, offsets=np.linspace(-1.0, 1.2, 11),
                            directions=DIRS)
        with pytest.raises(ValueError, match="symmetric"):
            Sinogram(np.linspace(-1.0, 1.2, 11), DIRS, np.zeros((11, 64)))


def hyperplane_basis(w):
    """Orthonormal basis of the hyperplane with normal w, as the rows of an
    (n-1, n) array: (-w_2, w_1) in 2-D; in 3-D u = e x w / |e x w| and
    v = w x u for the coordinate axis e, which is z for a horizontal normal,
    w_3 = 0 (as in the slab sampler), and otherwise the axis least aligned
    with w."""
    if len(w) == 2:
        return np.array([[-w[1], w[0]]])
    e = np.zeros(3)
    e[2 if w[2] == 0 else np.argmin(np.abs(w))] = 1.0
    u = np.cross(e, w)
    u /= np.linalg.norm(u)
    return np.stack([u, np.cross(w, u)])


def rotated_lattice_transform(f, directions):
    """Reference for the pencil and slab samplers: the transform on the
    default offsets with each hyperplane's nodes on the unsheared lattice of
    its `hyperplane_basis`, t_j along a line in 2-D and (t_j, t_k) in a plane
    in 3-D, with the cell dt^(n-1), evaluated by one n-D spline call per
    sampled direction.  In 2-D this is the line sampler that the row-by-row
    one replaced."""
    from scipy import ndimage
    n = f.grid.n
    offsets = default_offsets(f.grid)
    h, L = f.grid.spacing, f.grid.half_width
    rs = min(f.support_radius, L * np.sqrt(n))
    coeffs = ndimage.spline_filter(f.values, order=5)
    tmax = rs + 3 * h
    k = int(np.ceil(tmax / h))
    t = (tmax / k) * np.arange(-k, k + 1)
    lattice = np.stack(np.meshgrid(*[t] * (n - 1), indexing="ij")).reshape(
        n - 1, -1)
    rows = np.flatnonzero(np.abs(offsets) <= rs)
    reach = np.sqrt(rs**2 - offsets[rows]**2) + 3 * h
    owner, node = np.nonzero((lattice**2).sum(axis=0) <= reach[:, None]**2)
    out = np.zeros((len(offsets), len(directions)))
    partner = directions._antipodes()
    for j, w in enumerate(directions.vectors):
        if 0 <= partner[j] < j:
            out[:, j] = out[::-1, partner[j]]
            continue
        x = (w[:, None] * offsets[rows[owner]]
             + hyperplane_basis(w).T @ lattice[:, node])
        vals = ndimage.map_coordinates(coeffs, (x + L) / h, order=5,
                                       prefilter=False, mode="constant")
        out[rows, j] = (np.bincount(owner, vals, len(rows))
                        * (t[1] - t[0])**(n - 1))
    return out


class TestSlabSampler:
    @pytest.mark.parametrize("m", [5, 33])
    def test_resampling_matrix_is_map_coordinates(self, m):
        # coordinates in grid steps: beyond each end, within 3 steps of it,
        # on it, and inside
        from scipy import ndimage
        from pwkit.radon import _resampling_matrix
        ends = np.linspace(-4.0, 3.5, 31)
        x = np.concatenate([ends, m - 1 - ends, [0.0, m - 1.0, -1e-12],
                            np.random.default_rng(0).uniform(0, m - 1, 20)])
        got = _resampling_matrix(x, m)
        want = np.stack([ndimage.map_coordinates(
            unit, [x], order=5, prefilter=False, mode="constant")
            for unit in np.eye(m)], axis=1)
        assert np.abs(got - want).max() <= 1e-15
        assert not got[(x < 0) | (x > m - 1)].any()

    @pytest.mark.parametrize("m", [5, 33])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_slab_matrix_is_map_coordinates(self, m, j):
        # the slab sampler's gather from the prefix sums over the slab stack
        # against map_coordinates summed over each node's kept slabs.  The
        # slabs are those of the spline of a random 3-D sample array at 11
        # coordinates t_k + L along z, symmetric about the middle and beyond
        # both ends; with h = 1 the normal j (e_x, e_y or -e_x) puts the
        # shuffled offsets at coordinates beyond each end, within 3 steps of
        # it, on it, and inside, along x or y, and the lattice t + L along
        # the other axis; each row's random reach keeps its own runs
        from scipy import ndimage
        from pwkit.radon import _resampling_matrix, _slab_sampler, _slab_stacks
        rng = np.random.default_rng(m)
        values = rng.standard_normal((m,) * 3)
        coeffs = ndimage.spline_filter(values, order=5)
        L = (m - 1) / 2
        t = (m + 1) / 8 * np.arange(-5, 6)
        ends = np.linspace(-4.0, 3.5, 31)
        axis = np.concatenate([ends, m - 1 - ends, [0.0, m - 1.0, -1e-12],
                               rng.uniform(0, m - 1, 20)])
        p = rng.permutation(axis) - L
        reach = rng.uniform(0, 1.5 * t[-1], len(p))
        w = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]][j])
        owner, got, cell = _slab_sampler(_slab_stacks(values, t, 1.0, L), m,
                                         p, reach, t, 1.0, L)(w)
        keep = t[:, None]**2 + t**2 <= reach[:, None, None]**2
        rows, node = np.nonzero(keep.any(axis=2))
        np.testing.assert_array_equal(owner, rows)
        x = (w[:2, None] * p[owner]
             + np.array([-w[1], w[0]])[:, None] * t[node] + L)
        slabs = np.tensordot(_resampling_matrix(t + L, m), coeffs,
                             axes=(1, 2))
        want = (np.stack([ndimage.map_coordinates(
            slab, x, order=5, prefilter=False, mode="constant")
            for slab in slabs], axis=1) * keep[owner, node]).sum(axis=1)
        assert cell == (t[1] - t[0]) ** 2
        assert np.abs(got - want).max() <= 1e-14 * np.abs(slabs).max()
        assert not got[((x < 0) | (x > m - 1)).any(axis=0)].any()
        assert np.abs(got).max() > 0

    @pytest.mark.parametrize("points, corner", [
        (33, False), (97, False), (33, True)],
        ids=["33", "97", "33-whole-box"])
    def test_horizontal_normals_keep_the_rotated_lattice(self, points,
                                                         corner):
        # omega_3 = 0: the nodes are the rotated lattice's and the slabs are
        # the spline resampled there, so only roundoff differs; the corner
        # bump's support reaches beyond L, so its planes leave the box,
        # where both sides follow map_coordinates' mode="constant"
        f = (corner_bump(3, points) if corner else
             make_bump(*OFFCENTRE, 1.0, GridSpec(3, 1.5, points)))
        dirs = compat_directions()
        want = rotated_lattice_transform(f, dirs)
        got = radon_transform(f, directions=dirs).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("points, bound", [
        (33, 2.2e-4), (65, 1.8e-5), (97, 3.1e-6)], ids=["33", "65", "97"])
    def test_general_normals_agree_to_the_quadrature_error(self, points,
                                                           bound):
        # sphere(3) normals are sampled on pencils, so the two quadratures
        # differ by their discretisation error; measured relative to the
        # largest value: 1.06e-4 at 33^3, 8.7e-6 at 65^3 and 1.5e-6 at 97^3;
        # each bound is twice the measurement.  The gap is not the error:
        # against the exact transform both lattices read the same
        # (test_3d_off_centre_bump_matches_the_radial_oracle)
        assert general_normal_gap(points) <= bound

    def test_general_normal_gap_falls_with_m(self):
        gaps = [general_normal_gap(points) for points in (33, 65, 97)]
        assert all(np.diff(gaps) < 0)

    @pytest.mark.parametrize("w", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [np.cos(0.4), np.sin(0.4), 0.0]],
                             ids=["x", "y", "azimuth-0.4"])
    def test_antipodal_normals_keep_mirrored_nodes(self, w):
        # w and -w name the same planes, and their slab lattices are mirror
        # images; on a lattice symmetric about 0 both keep the same rim
        # nodes, so each is the other's transform reversed to roundoff (a
        # linspace lattice, asymmetric in its last bit, read 4.4e-10 on x)
        # desk's second compatibility bump: seed 7 + 2, and each bump draws
        # its centre, then its radius
        rng = np.random.default_rng(9)
        bumps = [(rng.uniform(-0.25, 0.25, size=3), rng.uniform(0.5, 0.7))
                 for _ in range(2)]
        f = make_bump(*bumps[1], 1.0, GridSpec(3, 1.5, 97))
        w = np.array(w)
        plus, minus = (radon_transform(f, directions=DirectionSet([v], [1.0], 0))
                       .values[:, 0] for v in (w, -w))
        assert np.abs(plus - minus[::-1]).max() <= 1e-14 * np.abs(plus).max()

    def test_near_horizontal_normal_is_sampled_on_pencils(self, monkeypatch):
        # only w_3 = 0 slabs: a normal 1e-13 off the horizon is a general
        # normal, one pencil evaluation, and stays within the 33^3 bound of
        # the general normals (measured 3.0e-5 relative)
        f = make_bump(*OFFCENTRE, 1.0, GridSpec(3, 1.5, 33))
        dirs = DirectionSet([[0.6, 0.8, 1e-13]], [1.0], 0)
        calls = TestAntipodalReuse.spline_calls(monkeypatch, f, dirs)
        assert calls == 1
        want = rotated_lattice_transform(f, dirs)
        got = radon_transform(f, directions=dirs).values
        assert np.abs(got - want).max() <= 2.2e-4 * np.abs(want).max()


@functools.lru_cache(maxsize=None)
def general_normal_gap(points):
    """The largest difference of the OFFCENTRE bump's transform at the
    sphere(3) normals from `rotated_lattice_transform`, relative to the
    latter's largest value."""
    s = offcentre_sinogram(points)
    f = make_bump(*OFFCENTRE, 1.0, GridSpec(3, 1.5, points))
    want = rotated_lattice_transform(f, s.directions)
    return np.abs(s.values - want).max() / np.abs(want).max()


def desk_bump(points):
    """The first bump of the seed-7 suite on the 2-D grid of `points`."""
    from pwkit.grid import random_bump_suite
    return random_bump_suite(GridSpec(2, 1.5, points), 1, 7)[0]


class TestRowSampler:
    """The 2-D transform samples each line on its pencils, the rows
    x_e = t_k of the axis e other than its pencil axis;
    `rotated_lattice_transform` is the line sampler they replaced, with
    nodes t_j along each line."""

    @pytest.mark.parametrize("points, corner", [
        (65, False), (257, False), (65, True)],
        ids=["65", "257", "65-whole-box"])
    def test_axis_normals_keep_the_line_lattice(self, points, corner):
        # w_e = 0: the row crossings are the nodes t_j and the rows are the
        # spline resampled there, so only roundoff differs; the corner
        # bump's support reaches beyond L, so its lines leave the box, where
        # both sides follow map_coordinates' mode="constant"
        f = corner_bump(2, points) if corner else desk_bump(points)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        dirs = DirectionSet(axes, np.full(4, 0.25), band_limit=0)
        want = rotated_lattice_transform(f, dirs)
        got = radon_transform(f, directions=dirs).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_general_normals_agree_to_the_quadrature_error(self):
        # circle(64) normals cross the rows at the step dt / rho along the
        # line, so the two quadratures differ by their discretisation error;
        # measured relative to the largest value: 1.84e-5, 1.21e-6, 1.55e-8
        # and 1.60e-10 at M = 65, 129, 257 and 513; each bound is twice the
        # measurement
        defects = []
        for points, bound in [(65, 3.7e-5), (129, 2.4e-6), (257, 3.1e-8),
                              (513, 3.2e-10)]:
            f = desk_bump(points)
            want = rotated_lattice_transform(f, DIRS)
            got = radon_transform(f, directions=DIRS).values
            defects.append(np.abs(got - want).max() / np.abs(want).max())
            assert defects[-1] <= bound
        assert all(np.diff(defects) < 0)

    @pytest.mark.parametrize("points, bound", [(65, 4.0e-4), (257, 1.4e-6)],
                             ids=["65", "257"])
    def test_lines_leaving_the_box_agree_to_the_quadrature_error(self, points,
                                                                  bound):
        # the corner bump's support reaches beyond L: the lines run to the
        # box edge, where a row evaluation beyond an end is 0; measured
        # 2.0e-4 at 65^2 and 6.9e-7 at 257^2, each bound twice that
        f = corner_bump(2, points)
        want = rotated_lattice_transform(f, DIRS)
        got = radon_transform(f, directions=DIRS).values
        assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("m", [5, 33])
    @pytest.mark.parametrize("e", [0, 1])
    def test_row_values_are_the_resampling_matrix(self, m, e):
        # coordinates in grid steps along each row: beyond each end, within
        # 3 steps of it, on it, and inside; the rows are those of the spline
        # of a random 2-D sample array at 7 coordinates along e, whose
        # coefficients the reference takes from ndimage.spline_filter
        from scipy import ndimage
        from pwkit.radon import _resampling_matrix, _row_values, _slab_stacks
        rng = np.random.default_rng(m)
        values = rng.standard_normal((m, m))
        coeffs = ndimage.spline_filter(values, order=5)
        t = rng.uniform(0, m - 1, 7)
        ends = np.linspace(-4.0, 3.5, 31)
        x = np.concatenate([ends, m - 1 - ends, [0.0, m - 1.0, -1e-12],
                            rng.uniform(0, m - 1, 20)])
        k = rng.integers(0, len(t), len(x))
        got = _row_values(_slab_stacks(values, t, 1.0, 0.0)(e), k, x[None])
        stack = np.tensordot(_resampling_matrix(t, m), coeffs, axes=(1, e))
        want = np.einsum("ij,ij->i", stack[k], _resampling_matrix(x, m))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(stack).max()
        assert not got[(x < 0) | (x > m - 1)].any()

    def test_row_values_do_not_depend_on_the_pencil_index(self):
        # a node's value is its own pencil's: one pencil at stack index 0
        # and at 3000 gives the same bits at coordinates inside, on the
        # ends and beyond them (a coordinate joined across the stack would
        # round x near 1e5)
        from pwkit.radon import ROW_PAD, _row_values
        m = 33
        rng = np.random.default_rng(3)
        pencils = np.zeros((3001, m + 2 * ROW_PAD))
        pencils[[0, 3000]] = np.pad(rng.standard_normal(m), ROW_PAD,
                                    mode="reflect")
        x = np.concatenate([rng.uniform(0, m - 1, 200),
                            [-0.5, 0.0, m - 1.0, m - 0.5]])[None]
        first = _row_values(pencils, np.zeros(x.size, int), x)
        last = _row_values(pencils, np.full(x.size, 3000), x)
        np.testing.assert_array_equal(first, last)
        assert np.abs(first).max() > 0

    @pytest.mark.parametrize("m", [5, 33])
    @pytest.mark.parametrize("e, f", [(0, 1), (0, 2), (1, 2)],
                             ids=["g2", "g1", "g0"])
    def test_pencil_values_are_the_resampling_matrix(self, m, e, f):
        # the pencils of the spline of a random 3-D sample array at 7
        # coordinates along e and f, evaluated along the remaining axis g at
        # coordinates beyond each end, within 3 steps of it, on it, and
        # inside; each value sums coefficients with B-spline weights of at
        # most 1 in all, so its roundoff scales with the largest coefficient
        # of ndimage.spline_filter, the reference's
        from scipy import ndimage
        from pwkit.radon import _resampling_matrix, _row_values, _slab_stacks
        rng = np.random.default_rng(m)
        values = rng.standard_normal((m,) * 3)
        coeffs = ndimage.spline_filter(values, order=5)
        t = rng.uniform(0, m - 1, 7)
        ends = np.linspace(-4.0, 3.5, 31)
        x = np.concatenate([ends, m - 1 - ends, [0.0, m - 1.0, -1e-12],
                            rng.uniform(0, m - 1, 20)])
        k = rng.integers(0, len(t) ** 2, len(x))
        got = _row_values(_slab_stacks(values, t, 1.0, 0.0)(e, f), k, x[None])
        resample = _resampling_matrix(t, m)
        pencils = np.einsum("ka,lb,abc->klc", resample, resample,
                            np.moveaxis(coeffs, (e, f), (0, 1))).reshape(-1, m)
        want = np.einsum("ic,ic->i", pencils[k], _resampling_matrix(x, m))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(coeffs).max()
        assert not got[(x < 0) | (x > m - 1)].any()


class TestPolynomialPieces:
    """`_PIECES` is the quintic B-spline on [0, 1), one column a tap."""

    def test_pieces_are_the_quintic_bspline(self):
        from scipy.interpolate import BSpline
        from pwkit.radon import _PIECES
        beta = BSpline.basis_element(np.arange(-3, 4))
        f = np.linspace(0.0, 1.0, 257)[:-1]
        got = f[:, None] ** np.arange(6) @ _PIECES
        want = beta(f[:, None] - np.arange(-2, 4))
        assert np.abs(got - want).max() <= 1e-15
        # a partition of unity on every f
        assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-15

    def test_weights_at_the_nodes_are_exact(self):
        # at integer coordinates the weights are the rationals
        # (1, 26, 66, 26, 1, 0) / 120 rounded once, so the collocation
        # matrix that the prefilter inverts holds exactly those
        from pwkit.radon import _spline_taps
        x = np.arange(2.0, 6.0)
        taps, weights = _spline_taps(x, 9)
        want = np.array([1, 26, 66, 26, 1, 0]) / 120
        np.testing.assert_array_equal(weights, np.tile(want, (4, 1)))
        np.testing.assert_array_equal(taps, x[:, None] + np.arange(-2, 4))


class TestPrefilterFold:
    """The transform takes the samples: the quintic prefilter, one (M, M)
    matrix per axis, is folded into each stack's resampling and applied only
    along the axes a stack keeps."""

    @pytest.mark.parametrize("m", [5, 33, 97])
    def test_prefilter_matrix_is_spline_filter1d(self, m):
        from scipy import ndimage
        from pwkit.radon import _prefilter_matrix, _resampling_matrix
        prefilter = _prefilter_matrix(m)
        x = np.random.default_rng(m).standard_normal((m, 4))
        want = ndimage.spline_filter1d(x, order=5, axis=0)
        assert np.abs(prefilter @ x - want).max() <= 1e-14 * np.abs(want).max()
        # the inverse of the collocation matrix
        collocation = _resampling_matrix(np.arange(m, dtype=float), m)
        assert np.abs(prefilter @ collocation - np.eye(m)).max() <= 1e-14

    @pytest.mark.parametrize("grid, dirs", [
        (GridSpec(2, 1.5, 65), DirectionSet.circle(16)),
        (GridSpec(3, 1.5, 33), DirectionSet.sphere(3)),
        (GridSpec(3, 1.5, 33), compat_directions()),
    ], ids=["2d", "3d-pencils", "3d-slabs"])
    def test_no_n_dimensional_prefilter(self, monkeypatch, grid, dirs):
        # the one prefilter of a transform is the (M, M) matrix, made once
        # and applied along single axes
        from pwkit import radon
        calls = []
        real = radon._prefilter_matrix

        def counting(m):
            calls.append(m)
            return real(m)
        monkeypatch.setattr(radon, "_prefilter_matrix", counting)
        f = make_bump([0.2, -0.1, 0.15][:grid.n], 0.5, 1.0, grid)
        s = radon_transform(f, directions=dirs)
        assert calls == [grid.points]
        assert np.abs(s.values).max() > 0

    def test_one_prefilter_matrix_per_size(self, monkeypatch):
        # two transforms at one M invert the collocation matrix once, and
        # the shared matrix cannot be written into
        from pwkit import radon
        radon._prefilter_matrix.cache_clear()
        shapes = []
        real = np.linalg.inv

        def counting(a):
            shapes.append(a.shape)
            return real(a)
        monkeypatch.setattr(radon.np.linalg, "inv", counting)
        g = GridSpec(2, 1.5, 65)
        for centre in ([0.2, -0.1], [-0.3, 0.1]):
            radon_transform(make_bump(centre, 0.5, 1.0, g),
                            directions=DirectionSet.circle(16))
        assert shapes == [(65, 65)]
        prefilter = radon._prefilter_matrix(65)
        assert not prefilter.flags.writeable
        with pytest.raises(ValueError):
            prefilter[0, 0] = 0.0

    def test_pencil_stacks_share_the_contraction_along_x(self, monkeypatch):
        # the pencil stacks (0, 1) and (0, 2) start from one contraction of
        # the samples along x, so the sphere(3) normals, which use all three
        # pencil axes, contract the samples once along x and once along y;
        # a contraction takes the view of the samples' nonzero box
        from pwkit import radon
        f = make_bump(*OFFCENTRE, 1.0, GridSpec(3, 1.5, 33))
        axes = []
        real = radon.np.tensordot

        def counting(a, b, **kwargs):
            if np.shares_memory(b, f.values):
                axes.append(kwargs["axes"][1])
            return real(a, b, **kwargs)
        monkeypatch.setattr(radon.np, "tensordot", counting)
        radon_transform(f, directions=DirectionSet.sphere(3))
        assert sorted(axes) == [0, 1]

    def test_horizontal_normals_slab_on_z(self, monkeypatch):
        # one slab stack, resampled along z, serves every horizontal normal
        # of a call, w = (1, 0, 0) included: the samples are contracted once,
        # through the view of their nonzero box
        from pwkit import radon
        f = make_bump(*OFFCENTRE, 1.0, GridSpec(3, 1.5, 33))
        vecs = np.concatenate([compat_directions().vectors, [[1.0, 0, 0]]])
        dirs = DirectionSet(vecs, np.full(len(vecs), 1.0 / len(vecs)),
                            band_limit=0)
        axes = []
        real = radon.np.tensordot

        def counting(a, b, **kwargs):
            if np.shares_memory(b, f.values):
                axes.append(kwargs["axes"][1])
            return real(a, b, **kwargs)
        monkeypatch.setattr(radon.np, "tensordot", counting)
        radon_transform(f, directions=dirs)
        assert axes == [2]

    def test_pencil_pruning_keeps_every_node(self):
        # the sampler searches only the pencils within the largest
        # p^2 + reach^2; the search over the whole T x T lattice must keep
        # the same nodes in the same order, with the same values
        from pwkit.radon import (_pencil_axis, _pencil_sampler, _row_values,
                                 _slab_stacks)
        g = GridSpec(3, 1.5, 33)
        f = make_bump(*OFFCENTRE, 1.0, g)
        h, L = g.spacing, g.half_width
        rs = min(f.support_radius, L * np.sqrt(3))
        tmax = rs + 3 * h
        k = int(np.ceil(tmax / h))
        t = (tmax / k) * np.arange(-k, k + 1)
        offsets = default_offsets(g)
        p = offsets[np.abs(offsets) <= rs]
        reach = np.sqrt(rs**2 - p**2) + 3 * h
        stacks = _slab_stacks(f.values, t, h, L)
        sample = _pencil_sampler(stacks, 3, p, reach, t, h, L)
        lattice = np.stack(np.meshgrid(t, t, indexing="ij")).reshape(2, -1)
        norm2 = (lattice**2).sum(axis=0)
        assert (norm2 > (p**2 + reach**2).max()).sum() > 0.2 * len(norm2)
        for w in DirectionSet.sphere(3).vectors:
            axis = _pencil_axis(w)
            rest = [a for a in range(3) if a != axis]
            x = (p - (w[rest] @ lattice)[:, None]) / w[axis]
            pencil, owner = np.nonzero(norm2[:, None] + x**2 <= p**2 + reach**2)
            vals = _row_values(stacks(*rest), pencil,
                               ((x[pencil, owner] + L) / h)[None])
            got_owner, got_vals, _ = sample(w)
            np.testing.assert_array_equal(got_owner, owner)
            np.testing.assert_array_equal(got_vals, vals)


def spiked(values):
    """A copy of `values` with a sample of 1.0 at the last node of the hull
    of its nonzero samples, where a box one node short would drop it: the
    bump's own outermost samples are as small as 1e-158, so only the spike
    makes that loss show."""
    values = values.copy()
    values[tuple(np.argwhere(values != 0).max(axis=0))] = 1.0
    return values


def spiked_bump(n, points):
    """The OFFCENTRE bump of dimension n, `spiked`, with its support radius
    left undeclared."""
    from pwkit import SampledFunction
    g = GridSpec(n, 1.5, points)
    f = make_bump(OFFCENTRE[0][:n], OFFCENTRE[1], 1.0, g)
    return SampledFunction(g, spiked(f.values))


class TestNonzeroBox:
    """The direct kernel, the spline stacks and the offset kernel sum over
    the nonzero box of their input (`grid._nonzero_box`), and each equals
    its sum over the whole grid or every offset, written out here."""

    Z = np.array([0.0, 0.7, 2.5, 1.0 + 0.3j])

    @pytest.mark.parametrize("n, points, directions", [
        (2, 65, DirectionSet.circle(16)),
        (3, 33, DirectionSet.sphere(3)),
    ], ids=["2d", "3d"])
    def test_direct_kernel_is_the_full_grid_sum(self, n, points, directions):
        from pwkit.grid import _direct_transform, _nonzero_box
        f = spiked_bump(n, points)
        assert _nonzero_box(f.values) != (slice(0, points),) * n
        x = np.stack(np.meshgrid(*[f.grid.axis()] * n, indexing="ij"))
        proj = directions.vectors @ x.reshape(n, -1)       # (Q, M^n)
        want = np.stack([np.exp(-2j * np.pi * z * proj) @ f.values.ravel()
                         for z in self.Z]) * f.grid.spacing ** n
        got = _direct_transform(f, self.Z, directions.vectors)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n, points", [(2, 65), (3, 33)], ids=["2d", "3d"])
    def test_stacks_are_the_full_contraction(self, n, points):
        from pwkit.radon import (ROW_PAD, _prefilter_matrix,
                                 _resampling_matrix, _slab_stacks)
        f = spiked_bump(n, points)
        h, L = f.grid.spacing, f.grid.half_width
        tmax = min(f.support_radius, L * np.sqrt(n)) + 3 * h
        k = int(np.ceil(tmax / h))
        t = (tmax / k) * np.arange(-k, k + 1)
        prefilter = _prefilter_matrix(points)
        resample = _resampling_matrix((t + L) / h, points) @ prefilter
        stacks = _slab_stacks(f.values, t, h, L)
        for axes in ([(0,), (1,)] if n == 2 else [(0, 1), (0, 2), (1, 2), (2,)]):
            # R F along the resampled axes, F along the kept ones, on the
            # whole grid
            want = f.values
            for a in range(n):
                want = np.moveaxis(np.tensordot(
                    resample if a in axes else prefilter, want, axes=(1, a)),
                    0, a)
            if len(axes) == n - 1:   # pencils k T + l along the kept axis
                kept, = set(range(n)) - set(axes)
                want = np.pad(np.moveaxis(want, kept, -1).reshape(-1, points),
                              [(0, 0), (ROW_PAD, ROW_PAD)], mode="reflect")
            else:                    # slab k of a 3-D stack at k
                want = np.moveaxis(want, axes[0], 0)
            got = stacks(*axes)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("deriv", [0, 1, 3])
    def test_offset_kernel_is_the_full_offset_sum(self, deriv):
        g = GridSpec(2, 1.5, 65)
        s = radon_transform(make_bump(OFFCENTRE[0][:2], OFFCENTRE[1], 1.0, g),
                            directions=DirectionSet.circle(16))
        s = Sinogram(s.offsets, s.directions, spiked(s.values))
        p = s.offsets
        assert (s.values[[0, -1]] == 0).all()
        # trapezoid weights over every offset
        w = np.full(len(p), p[1] - p[0])
        w[[0, -1]] /= 2
        want = np.einsum("zp,p,pq->zq",
                         np.exp(-2j * np.pi * np.outer(self.Z, p)),
                         w * (-2j * np.pi * p) ** deriv, s.values)
        got = _slice_transform(s, self.Z, deriv)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
        d = DirectionSet.circle(9)
        s = Sinogram(default_offsets(G), d, np.zeros((len(default_offsets(G)), 9)))
        with pytest.raises(DirectionsNotAntipodal):
            evenness_defect(s)


class TestUndeclaredSupport:
    """A function with no declared support radius gets the radius of its
    farthest nonzero sample, and the transform samples out to it: the
    corner bumps, whose support reaches beyond the inscribed ball |x| <= L,
    keep all their mass."""

    @staticmethod
    def farthest_sample_radius(f):
        x = np.stack(mesh(f.grid))
        return float(np.sqrt((x[:, f.values != 0] ** 2).sum(axis=0).max()))

    @pytest.mark.parametrize("n, points, dirs, bound", [
        (2, 129, DirectionSet.circle(32), 1e-5),
        (3, 33, DirectionSet.sphere(3), 1.4e-4)], ids=["2d", "3d"])
    def test_corner_bump_keeps_its_mass(self, n, points, dirs, bound):
        # the relative error of the zeroth moment is the quadrature's:
        # measured 1.4e-6 at 129^2 and 6.9e-5 at 33^3 (7.9e-5 with the
        # bump's own radius declared); the 3-D bound is twice that.  Cut at
        # the inscribed ball the moments missed 46.7% and 18.1% of the mass
        f = corner_bump(n, points)
        s = radon_transform(f, directions=dirs)
        mass = integrate(f)
        assert np.abs(moment(s, 0) - mass).max() <= bound * mass
        assert f.support_radius == self.farthest_sample_radius(f) > 1.5
        assert s.support_radius == f.support_radius

    @pytest.mark.parametrize("n, points", [(2, 129), (3, 33)],
                             ids=["2d", "3d"])
    def test_loaded_file_gets_the_same_radius(self, n, points, tmp_path):
        from pwkit import SampledFunction, load_function, save_function
        f = corner_bump(n, points)
        save_function(f, tmp_path / "f.csv")
        assert load_function(tmp_path / "f.csv").support_radius == \
            self.farthest_sample_radius(f)
        save_function(SampledFunction(f.grid, np.zeros_like(f.values)),
                      tmp_path / "zero.csv")
        assert load_function(tmp_path / "zero.csv").support_radius == 0.0


class TestUndeclaredSinogramSupport:
    """A sinogram with no declared support radius gets, at construction,
    the largest |p| of a row above 1e-12 times its largest |value|."""

    @staticmethod
    def live_radius(s):
        rows = np.abs(s.values).max(axis=1)
        return float(np.abs(s.offsets[rows > 1e-12 * rows.max()]).max())

    def test_sinogram_gets_its_live_row_radius(self, shifted_sino, tmp_path):
        s = Sinogram(shifted_sino.offsets, DIRS, shifted_sino.values)
        assert type(s.support_radius) is float
        assert s.support_radius == self.live_radius(shifted_sino)
        save_sinogram(shifted_sino, str(tmp_path / "s.csv"))
        back = read_sinogram(tmp_path / "s.csv", DIRS)
        assert back.support_radius == s.support_radius
        zero = Sinogram(s.offsets, DIRS, np.zeros_like(s.values))
        assert zero.support_radius == 0.0

    def test_unequal_offset_steps_rejected(self):
        # symmetric and odd in count, but warped: p -> sign(p) P (|p|/P)^1.5.
        # The trapezoid weights use the first step, so the zeroth moment of
        # this sinogram of a 129^2 bump missed the mass 0.317 by 0.157
        g = GridSpec(2, 1.5, 129)
        dirs = DirectionSet.circle(32)
        s = radon_transform(make_bump([0.0, 0.0], 0.5, 1.0, g),
                            directions=dirs)
        pmax = np.abs(s.offsets).max()
        warped = np.sign(s.offsets) * pmax * (np.abs(s.offsets) / pmax) ** 1.5
        with pytest.raises(ValueError, match="equispaced"):
            Sinogram(warped, dirs, s.values)

    def test_declared_radius_is_checked_by_the_live_rows(self):
        # the rows of a radius-0.5 bump are live out to 0.49: declared
        # 0.1, the sinogram is refused, where support_radius_estimate once
        # overflowed np.exp at the heights c / 0.1; declared at its own
        # live radius, it is kept
        g = GridSpec(2, 1.5, 129)
        dirs = DirectionSet.circle(32)
        s = radon_transform(make_bump([0.0, 0.0], 0.5, 1.0, g),
                            directions=dirs)
        live = self.live_radius(s)
        assert 0.45 < live <= 0.5
        with pytest.raises(ValueError, match="declared support radius"):
            Sinogram(s.offsets, dirs, s.values, support_radius=0.1)
        assert Sinogram(s.offsets, dirs, s.values,
                        support_radius=live).support_radius == live


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
        X, Y = mesh(G)
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


def full_inversion_sum(s, grid, r_max, sel):
    """The inversion quadrature summed over all Q directions at the grid
    nodes mesh(grid)[k][sel], term by term: the composite Gauss-Legendre
    radial rule and the offset kernel, with no antipodal pairing and no
    separation of axes."""
    xg, wg = np.polynomial.legendre.leggauss(RADIAL_NODES)
    edges = np.linspace(0.0, r_max, int(np.ceil(r_max / RADIAL_PANEL)) + 1)
    hw = 0.5 * (edges[1] - edges[0])
    radii = (0.5 * (edges[:-1] + edges[1:])[:, None] + hw * xg).ravel()
    wr = np.tile(hw * wg, len(edges) - 1) * SPHERE_AREA[s.n] * radii**(s.n - 1)
    coef = wr[:, None] * s.directions.weights * _slice_transform(s, radii)
    axes = [a[sel] for a in mesh(grid)]
    xdotw = np.stack([a.ravel() for a in axes], axis=1) @ s.directions.vectors.T
    out = np.zeros(len(xdotw), dtype=complex)
    for r, c in zip(radii, coef):
        out += np.exp(2j * np.pi * r * xdotw) @ c
    return out.reshape(axes[0].shape)


def rotated_circle(count, angle):
    """`DirectionSet.circle(count)` turned by `angle` radians: antipodal,
    with no mirror pair theta, pi - theta, so each of its rings of equal
    last component has one direction."""
    theta = 2 * np.pi * np.arange(count) / count + angle
    return DirectionSet(np.stack([np.cos(theta), np.sin(theta)], axis=1),
                        np.full(count, 1.0 / count), count // 2 - 1)


# (grid, directions, nodes of the full sum): every node in 2-D; in 3-D the
# planes x_3 = -1.5, -0.75, 0, 0.75, 1.5, which keeps the sum to about 1 s.
# The inversion sums one direction of each antipodal pair ring by ring: 13
# rings of two directions or one for circle(48), 24 of one for the rotated
# rule, and for sphere(4) two polar rings of 10 and the half-kept equator
# of 5; sphere(5) has no equator, so its 3 rings have 12 each
PAIRED_CASES = [(GridSpec(2, 1.5, 65), DirectionSet.circle(48), np.s_[...]),
                (GridSpec(3, 1.5, 33), DirectionSet.sphere(4), np.s_[..., ::8]),
                (GridSpec(2, 1.5, 65), rotated_circle(48, 0.1), np.s_[...]),
                (GridSpec(3, 1.5, 33), DirectionSet.sphere(5), np.s_[..., ::8])]
PAIRED_IDS = ["2d", "3d", "2d-rotated", "3d-no-equator"]
PAIRED_RINGS = [(13, 2), (3, 10), (24, 1), (3, 12)]  # (K, largest ring)


def assert_full_sum(g, directions, sel):
    """The grid synthesis of a bump's sinogram is the full sum at the nodes
    `sel`, to 1e-13 of its largest value."""
    f = make_bump([0.2, -0.1, 0.1][:g.n], 0.6, 1.0, g)
    s = radon_transform(f, directions=directions)
    full = full_inversion_sum(s, g, choose_r_max(s)[0], sel)
    # the sum over all directions of an even sinogram is real up to
    # roundoff (2-D 8.7e-15, 3-D 5.2e-16 of |full|)
    assert np.abs(full.imag).max() <= 1e-12 * np.abs(full).max()
    rec = inverse_radon(s, grid=g).values
    assert np.isrealobj(rec)
    assert np.abs(rec[sel] - full.real).max() <= 1e-13 * np.abs(full).max()


class TestInverseRadon:
    @pytest.mark.parametrize("g, directions, sel", PAIRED_CASES,
                             ids=PAIRED_IDS)
    def test_paired_synthesis_is_the_full_sum(self, g, directions, sel):
        assert_full_sum(g, directions, sel)

    @pytest.mark.parametrize("band", [3, 8, 16])
    def test_ring_synthesis_is_the_full_sum_in_3d(self, band):
        # polar rings of 8, 18 and 34 directions, the largest 3-D rules
        # the tests sum in full
        assert_full_sum(GridSpec(3, 1.5, 33), DirectionSet.sphere(band),
                        np.s_[..., ::8])

    @pytest.mark.parametrize("g, directions, sel, rings, width",
                             [c + k for c, k in zip(PAIRED_CASES,
                                                    PAIRED_RINGS)],
                             ids=PAIRED_IDS)
    def test_one_last_axis_contraction_per_radius(self, monkeypatch, g,
                                                  directions, sel, rings,
                                                  width):
        # the last axis's phases are tabulated once per radius, at the K
        # ring values, and contracted against the K ring fields; the
        # other axes' phases once per radius, for every member of a ring
        from pwkit import radon
        s = radon_transform(make_bump([0.2, -0.1, 0.1][:g.n], 0.5, 1.0, g),
                            directions=directions)
        shapes = []
        table = radon._phase_table

        def spy(theta, m):
            shapes.append(np.shape(theta))
            return table(theta, m)
        monkeypatch.setattr(radon, "_phase_table", spy)
        inverse_radon(s, grid=g)
        radii = len(radon._inversion_quadrature(s)[0])
        assert shapes == [(g.n - 1, rings, width), (rings,)] * radii

    @pytest.mark.parametrize("g, directions, sel", PAIRED_CASES,
                             ids=PAIRED_IDS)
    def test_paired_synthesis_keeps_an_admissible_odd_part(self, g,
                                                           directions, sel):
        # an odd part under EVENNESS_TOL is admitted, and the folded
        # coefficients c_j + conj(c_j') keep its contribution to the real
        # part; doubling c_j instead would lose it
        f = make_bump([0.2, -0.1, 0.1][:g.n], 0.6, 1.0, g)
        s = radon_transform(f, directions=directions)
        noise = np.random.default_rng(3).standard_normal(s.values.shape)
        odd = noise - noise[::-1, directions.antipodal_index()]
        # only on the rows inside the declared support radius, beyond
        # which a sinogram must vanish; the offsets are symmetric, so the
        # part stays odd
        odd[np.abs(s.offsets) > s.support_radius] = 0.0
        s = Sinogram(s.offsets, directions,
                     s.values + 1e-8 * odd / np.abs(odd).max(),
                     s.support_radius)
        assert 1e-9 < evenness_defect(s) < EVENNESS_TOL
        full = full_inversion_sum(s, g, choose_r_max(s)[0], sel)
        rec = inverse_radon(s, grid=g).values
        assert np.abs(rec[sel] - full.real).max() <= 1e-13 * np.abs(full).max()

    def test_complex_sinogram_is_rejected(self):
        # only real sinograms are inverted; a complex one is inverted as
        # its real and imaginary parts, by the caller
        g, directions, _ = PAIRED_CASES[0]
        s = radon_transform(make_bump([0.2, -0.1], 0.5, 1.0, g),
                            directions=directions)
        both = Sinogram(s.offsets, directions, s.values + 1j * s.values,
                        s.support_radius)
        with pytest.raises(ValueError, match="real and imaginary parts"):
            inverse_radon(both, grid=g)
        with pytest.raises(ValueError, match="real and imaginary parts"):
            pointwise_inversion(both, np.zeros(2))

    @pytest.mark.parametrize("invert", [
        lambda s, g: inverse_radon(s, grid=g),
        lambda s, g: pointwise_inversion(s, g.axis()[[[3, 5], [7, 2]]])],
        ids=["grid", "points"])
    def test_one_cutoff_rule_per_inversion(self, monkeypatch, invert):
        # the radial cutoff is choose_r_max's, chosen once per inversion
        from pwkit import fourier
        g, directions, _ = PAIRED_CASES[0]
        s = radon_transform(make_bump([0.2, -0.1], 0.5, 1.0, g),
                            directions=directions)
        seen = []

        def spy(sino, *args, **kwargs):
            seen.append(sino)
            return choose_r_max(sino, *args, **kwargs)
        monkeypatch.setattr(fourier, "choose_r_max", spy)
        invert(s, g)
        assert seen == [s]

    def test_round_trip(self):
        f = make_bump([0.25, -0.15], 0.55, 1.0, G)
        s = radon_transform(f, directions=DirectionSet.circle(256))
        rec = inverse_radon(s, grid=G)
        rel = np.abs(rec.values - f.values).max() / f.values.max()
        assert rel < 1e-3

    def test_zero_sinogram(self):
        s = Sinogram(default_offsets(G), DIRS, np.zeros((len(default_offsets(G)), 64)))
        rec = inverse_radon(s, grid=G)
        assert np.abs(rec.values).max() < 1e-14

    def test_two_bumps_peaks_preserved(self):
        from pwkit import SampledFunction
        f1 = make_bump([-0.6, 0.0], 0.35, 1.0, G)
        f2 = make_bump([0.55, 0.3], 0.3, 0.8, G)
        f = SampledFunction(G, f1.values + f2.values,
                            max(f1.support_radius, f2.support_radius))
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
        # (about 40%, 28%, 13%, 7% of max|f| for b = 4, 8, 12, 16);
        # sphere(8) under-resolves the inversion integral
        g = GridSpec(3, 1.5, 33)
        f = make_bump([0.0, 0.0, 0.0], 0.6, 1.0, g)
        errs = []
        for b in (4, 8, 12, 16):
            s = radon_transform(f, directions=DirectionSet.sphere(b))
            rec = inverse_radon(s, grid=g)
            errs.append(np.abs(rec.values - f.values).max()
                        / np.abs(f.values).max())
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_rejects_uneven(self):
        p = default_offsets(G)
        s = Sinogram(p, DIRS, np.tile(p[:, None], (1, 64)))
        with pytest.raises(NotEven):
            inverse_radon(s, grid=G)


class TestSinogramIO:
    def test_round_trip(self, tmp_path, shifted_sino):
        path = tmp_path / "s.csv"
        save_sinogram(shifted_sino, str(path), direction_path=str(path) + ".dirs")
        assert path.read_text().splitlines()[0] == "%d,64,2" % len(
            shifted_sino.offsets)
        back = read_sinogram(path, DIRS)
        assert_allclose(back.values, shifted_sino.values, rtol=0, atol=1e-16)
        assert_allclose(back.offsets, shifted_sino.offsets)
        # the rows fit the sinogram's declared support
        assert Sinogram(back.offsets, DIRS, back.values,
                        shifted_sino.support_radius).support_radius \
            == shifted_sino.support_radius
        table = np.loadtxt(str(path) + ".dirs", delimiter=",")
        assert_allclose(table[:, 0], np.arange(64))
        assert_allclose(table[:, 1:3], DIRS.vectors, rtol=0, atol=0)
        assert_allclose(table[:, 3], DIRS.weights, rtol=0, atol=0)

    def test_even_offset_count_rejected(self):
        with pytest.raises(ValueError):
            Sinogram(np.linspace(-1, 1, 10), DIRS, np.zeros((10, 64)))

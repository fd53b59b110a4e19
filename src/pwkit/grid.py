"""Grid geometry, test-function generators, and quadrature primitives.

Functions on R^n (n = 2 or 3) are represented by their values on a regular
tensor grid over the box [-L, L]^n.  All integrals are tensor-product
trapezoid sums, which are spectrally accurate for the smooth compactly
supported functions this library works with.  Directions on the sphere
S^{n-1} come with quadrature weights for the normalized measure (weights
sum to 1).
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

__all__ = [
    "GridSpec",
    "SampledFunction",
    "DirectionSet",
    "BallOutsideGrid",
    "DirectionsNotAntipodal",
    "ZeroInput",
    "make_bump",
    "random_bump_suite",
    "integrate",
    "l2_norm_sq",
    "save_function",
    "load_function",
]

SPHERE_AREA = {2: 2 * np.pi, 3: 4 * np.pi}  # sigma_n = 2 pi^{n/2} / Gamma(n/2)


class BallOutsideGrid(ValueError):
    """The requested support ball does not fit inside the grid box."""


class DirectionsNotAntipodal(ValueError):
    """The direction set is not closed under omega -> -omega."""


class ZeroInput(ValueError):
    """A defect or estimate is undefined for the zero function."""


class GridSpec:
    """Regular grid over [-L, L]^n with M points per axis (M odd >= 33)."""

    def __init__(self, n, half_width, points):
        if n not in (2, 3):
            raise ValueError("dimension must be 2 or 3, got %r" % (n,))
        if points < 33 or points % 2 == 0:
            raise ValueError("points-per-axis must be odd and >= 33")
        if half_width <= 0:
            raise ValueError("half-width must be positive")
        self.n = int(n)
        self.half_width = float(half_width)
        self.points = int(points)

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.points - 1)

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.points)

    def __eq__(self, other):
        return (isinstance(other, GridSpec) and self.n == other.n
                and self.points == other.points
                and self.half_width == other.half_width)

    def __repr__(self):
        return "GridSpec(n=%d, half_width=%g, points=%d)" % (
            self.n, self.half_width, self.points)


class SampledFunction:
    """Values of a compactly supported function on a GridSpec.

    Parameters
    ----------
    grid : GridSpec
    values : ndarray, shape (M,)*n
        Real or complex samples, row-major over the grid axes.
    support_radius : float, optional
        Radius of a ball about the origin containing the support.  Left
        out, it is the radius of the farthest nonzero sample, or 0.0 for
        the zero function.  A declared radius is checked against that same
        radius: one below it raises ValueError, so a function can be
        rebuilt from its own radius.
    """

    def __init__(self, grid, values, support_radius=None):
        values = np.asarray(values)
        if values.shape != (grid.points,) * grid.n:
            raise ValueError("values shape %r does not match grid %r"
                             % (values.shape, grid))
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        r2 = _radius_sq_mesh(grid, np.zeros(grid.n))
        live = np.sqrt(r2[values != 0].max(initial=0.0))
        if support_radius is None:
            support_radius = float(live)
        elif live > support_radius:
            raise ValueError("nonzero samples outside declared support radius")
        self.grid = grid
        self.values = values
        self.support_radius = support_radius


def _radius_sq_mesh(grid, center):
    """|x - center|^2 on the grid, by outer sums of the per-axis squares."""
    ax = grid.axis()
    r2 = (ax - center[0]) ** 2
    for c in center[1:]:
        r2 = np.add.outer(r2, (ax - c) ** 2)
    return r2


def make_bump(center, radius, amplitude, grid):
    """Smooth bump: amplitude * exp(1 - radius^2/(radius^2 - |x-center|^2)).

    The value at the center is `amplitude`; samples vanish identically
    outside the open ball.  Raises BallOutsideGrid when the closed ball
    is not contained in the grid box.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.n,):
        raise ValueError("center must have %d components" % grid.n)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if np.any(np.abs(center) + radius > grid.half_width + 1e-12):
        raise BallOutsideGrid(
            "ball(center=%s, radius=%g) leaves the box [-%g, %g]^%d"
            % (center, radius, grid.half_width, grid.half_width, grid.n))
    r2 = _radius_sq_mesh(grid, center)
    out = np.zeros_like(r2)
    inside = r2 < radius**2
    # exp(1 - rho^2/(rho^2-r^2)) == exp(-r^2/(rho^2-r^2))
    out[inside] = amplitude * np.exp(-r2[inside] / (radius**2 - r2[inside]))
    return SampledFunction(grid, out, float(np.linalg.norm(center) + radius))


def random_bump_suite(grid, count, seed):
    """Seeded family of off-center bumps used by the certification pipelines.

    For L = 1.5, radii are drawn from [0.45, 0.85] and center offsets from
    [0, 0.35], both scaled by L / 1.5, so that every support ball stays well
    inside the box and the support radius about the origin stays below 0.8 L.
    """
    rng = default_rng(seed)
    out = []
    L = grid.half_width
    for _ in range(count):
        radius = rng.uniform(0.45, 0.85) * (L / 1.5)
        cmax = min(0.35 * (L / 1.5), 0.8 * L - radius)
        center = rng.uniform(-1, 1, size=grid.n)
        center *= rng.uniform(0, max(cmax, 0.0)) / max(np.linalg.norm(center), 1e-12)
        amplitude = rng.uniform(0.5, 2.0)
        out.append(make_bump(center, radius, amplitude, grid))
    return out


def _trapezoid_weights(npts, dx):
    w = np.full(npts, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _simpson_weights(npts, dx):
    """Weights of scipy.integrate.simpson's rule on npts >= 3 equispaced
    points at the step dx: composite Simpson (1, 4, 2, ..., 4, 1) dx/3 for
    odd npts; for even npts, Simpson on the first npts - 1 points plus
    Cartwright's correction (-1, 8, 5) dx/12 for the last interval."""
    odd = npts - 1 + npts % 2
    w = np.zeros(npts)
    w[1:odd - 1:2] = 4.0
    w[2:odd - 1:2] = 2.0
    w[[0, odd - 1]] = 1.0
    w *= dx / 3
    if npts % 2 == 0:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) * dx / 12
    return w


def integrate(f):
    """Tensor-product trapezoid quadrature of the samples times h^n."""
    out = f.values
    for axis in range(f.grid.n - 1, -1, -1):
        out = np.trapezoid(out, dx=f.grid.spacing, axis=axis)
    return out


def l2_norm_sq(f):
    """Quadrature of |values|^2 h^n; the squared L2 norm."""
    return float(integrate(SampledFunction(f.grid, np.abs(f.values) ** 2)))


def _phase_table(theta, m):
    """e^{i theta k} for k = 0..m-1, shape theta.shape + (m,), for real or
    complex theta, by angle addition: with b = ceil(sqrt(m)) and
    k = b q + r, e^{i theta k} = e^{i theta b q} e^{i theta r}, so each
    theta costs about 2 sqrt(m) exponentials instead of m.  Each entry
    is the product of two exponentials of rounded arguments, so its error
    is a few ulp of |e^{i theta k}| plus the rounding of theta k, as with
    np.exp(1j * theta * k)."""
    theta = np.asarray(theta)
    b = math.isqrt(m - 1) + 1
    low = np.exp(1j * np.multiply.outer(theta, np.arange(b)))
    high = np.exp(1j * np.multiply.outer(theta, np.arange(0, m, b)))
    table = high[..., :, None] * low[..., None, :]
    return table.reshape(theta.shape + (-1,))[..., :m]


def _nonzero_box(values):
    """The smallest box holding every nonzero sample of `values`, one slice
    per axis: from the first to the last index where some sample is nonzero
    (the exact mask values != 0), or the first index alone for the zero
    array.  A kernel that sums over the box drops exact zeros only."""
    live = values != 0
    axes = range(live.ndim)
    hits = [np.flatnonzero(live.any(axis=tuple(set(axes) - {a})))
            for a in axes]
    return tuple(slice(i[0], i[-1] + 1) if len(i) else slice(0, 1)
                 for i in hits)


def _rings(last):
    """The directions grouped into rings by their last components `last`, a
    real or complex (Q,) array: in sorted order (complex by real part, then
    imaginary part) a ring opens at a component and takes every later one
    within 1e-12 of it, so its members agree with its value, the opening
    component, to 1e-12.  The tolerance pairs the mirror directions of
    `DirectionSet.circle`, theta and pi - theta, whose sines can differ in
    the last bit; the rings of `DirectionSet.sphere` are exact.  Returns
    the (K,) ring values and the (K, G) member indices, each row padded
    with -1 to the largest ring's size G.  A sort, not np.unique, which
    imports numpy.ma on its first call."""
    comps = last.tolist()
    rings = []
    for j in np.argsort(last, kind="stable").tolist():
        if rings and abs(comps[j] - comps[rings[-1][0]]) <= 1e-12:
            rings[-1].append(j)
        else:
            rings.append([j])
    width = max(map(len, rings))
    members = np.array([r + [-1] * (width - len(r)) for r in rings])
    return last[members[:, 0]], members


def _direct_transform(f, z, omegas):
    """int f(x) e^{-2 pi i z (omega_j . x)} dx by direct quadrature on the
    grid, for an array z and a (Q, n) array of real or complex directions
    omega_j (bilinear pairing, no conjugation); shape z.shape + (Q,).

    The sum runs over the nonzero box of f's samples (`_nonzero_box`), so
    it drops exact zeros only, and separable phases keep it O(K M^n) per
    ring without forming the full phase tensor.  A ring is the directions
    whose last components are equal to 1e-12 (`_rings`): f's last axis is
    contracted once per ring, at the ring's value, into a (K, M^{n-1})
    partial sum, the largest intermediate; a member's own last component
    differs from that value by roundoff.  The remaining axes are then
    contracted for all G directions of the ring at once against their
    stacked (K, G, M) phases: one einsum in 2-D, one batched matmul and one
    einsum in 3-D.  Each axis's phase e^{-2 pi i z w x_m}, on that axis's
    box x_m = x_0 + m h from its first node x_0, is e^{-2 pi i z w x_0}
    times `_phase_table` of -2 pi z w h, about 2 sqrt(M) exponentials per
    (z, w) instead of M; an entry is off by a few ulp of its modulus plus
    the rounding of its argument, as with np.exp.
    The direct n-D kernel, never used on a slice side (see the module
    docstring of fourier)."""
    z = np.asarray(z)
    omegas = np.asarray(omegas)
    n = f.grid.n
    if omegas.ndim != 2 or omegas.shape[1] != n:
        raise ValueError("direction dimension does not match the grid")
    zk = z.reshape(-1)
    h, L = f.grid.spacing, f.grid.half_width
    box = _nonzero_box(f.values)
    values = f.values[box]

    def phase(w, axis):
        """e^{-2 pi i z_k w x_m} on the box of axis, (K,) + w.shape + (m,)."""
        zw = 2 * np.pi * np.multiply.outer(zk, w)
        first = box[axis].start
        return (_phase_table(-zw * h, values.shape[axis])
                * np.exp(1j * (L - first * h) * zw)[..., None])

    out = np.empty((len(zk), len(omegas)), dtype=complex)
    for c, ring in zip(*_rings(omegas[:, -1])):
        ring = ring[ring >= 0]
        p = phase(c, n - 1)
        # real and imaginary parts apart, so real samples are never cast
        # to complex: one contraction of the (2, K, M) pair
        part = np.tensordot(np.stack([p.real, p.imag]), values,
                            axes=(2, n - 1))
        part = part[0] + 1j * part[1]                     # (K, M, ...)
        x = phase(omegas[ring, 0], 0)                     # (K, G, M)
        if n == 2:
            out[:, ring] = np.einsum("km,kqm->kq", part, x)
        else:
            y = phase(omegas[ring, 1], 1)
            out[:, ring] = np.einsum("kqm,kqm->kq", x,
                                     y @ part.transpose(0, 2, 1))
    return (out * f.grid.spacing ** n).reshape(z.shape + (len(omegas),))


def _real_harmonic_basis(directions, band):
    """Rows of real harmonics (orthonormal for the normalized measure)
    evaluated at the direction nodes, grouped by degree.

    On S^2 the associated Legendre functions come from the normalized
    recurrence in z = cos theta and s = sin theta, scaled by sqrt(4 pi)
    so that P_0^0 = 1:

        P_m^m     = -sqrt((2m+1)/(2m)) s P_{m-1}^{m-1}
        P_{m+1}^m = sqrt(2m+3) z P_m^m
        P_l^m     = a (z P_{l-1}^m - b P_{l-2}^m),
                    a = sqrt((4l^2-1)/(l^2-m^2)),
                    b = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1)),

    with the Condon-Shortley phase (-1)^m, as in scipy's sph_harm_y.  The
    block of degree l is sqrt 2 P_l^m sin(m phi) for m = l..1, then P_l^0,
    then sqrt 2 P_l^m cos(m phi) for m = 1..l."""
    if directions.n == 2:
        th = np.arctan2(directions.vectors[:, 1], directions.vectors[:, 0])
        blocks = [np.ones((1, len(th)))]
        for l in range(1, band + 1):
            blocks.append(np.stack([np.sqrt(2) * np.cos(l * th),
                                    np.sqrt(2) * np.sin(l * th)]))
        return blocks
    z = np.clip(directions.vectors[:, 2], -1, 1)
    s = np.sqrt(1 - z**2)
    phi = np.arctan2(directions.vectors[:, 1], directions.vectors[:, 0])
    mphi = np.multiply.outer(np.arange(1, band + 1), phi)
    cos, sin = np.sqrt(2) * np.cos(mphi), np.sqrt(2) * np.sin(mphi)
    blocks = [np.ones((1, len(z)))]
    prev, legendre = np.zeros((0, len(z))), blocks[0]    # P_{l-2}, P_{l-1}
    for l in range(1, band + 1):
        m = np.arange(l - 1)[:, None]
        a = np.sqrt((4 * l**2 - 1) / (l**2 - m**2))
        b = np.sqrt(((l - 1)**2 - m**2) / (4 * (l - 1)**2 - 1))
        top = legendre[-1]
        prev, legendre = legendre, np.concatenate([
            a * (z * legendre[:-1] - b * prev),
            [np.sqrt(2 * l + 1) * z * top,
             -np.sqrt((2 * l + 1) / (2 * l)) * s * top]])
        blocks.append(np.concatenate([(legendre[1:] * sin[:l])[::-1],
                                      legendre[:1],
                                      legendre[1:] * cos[:l]]))
    return blocks


class DirectionSet:
    """Quadrature rule on S^{n-1} for the normalized measure.

    For n=2 this is Q equispaced angles with uniform weights 1/Q.  For n=3
    it is a Gauss-Legendre (in cos polar angle) x equispaced azimuth product
    rule.  Construction checks for unit vectors in R^2 or R^3 with one
    weight each, and verifies exactness on spherical harmonics up to the
    band limit: the weighted sum of any harmonic of degree 1 <= l <= band
    must vanish (the constant integrates to 1).
    """

    def __init__(self, vectors, weights, band_limit):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] not in (2, 3):
            raise ValueError("vectors must have shape (Q, 2) or (Q, 3)")
        if weights.shape != (len(vectors),):
            raise ValueError("need one weight per direction")
        if np.any(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) > 1e-12):
            raise ValueError("directions must be unit vectors")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (normalized measure)")
        self.vectors = vectors
        self.weights = weights
        self.band_limit = int(band_limit)
        self._antipodal = None
        self._orbits = None  # radon_transform's copied mask and orbits
        self._verify_exactness()

    @property
    def n(self):
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.vectors)

    @classmethod
    def circle(cls, count):
        """Equispaced angles theta_j = 2 pi j / Q on S^1, exact through the
        band limit Q // 2 - 1; Q must be at least 1."""
        if count < 1:
            raise ValueError("a circle rule needs at least one direction")
        thetas = 2 * np.pi * np.arange(count) / count
        vecs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        return cls(vecs, np.full(count, 1.0 / count), count // 2 - 1)

    @classmethod
    def sphere(cls, band_limit):
        """Gauss-Legendre x equispaced azimuth rule, exact through degree
        2*band_limit (enough for Parseval checks at the band limit)."""
        g = band_limit + 1
        naz = 2 * band_limit + 2
        nodes, glw = leggauss(g)
        phi = 2 * np.pi * np.arange(naz) / naz
        st = np.sqrt(1.0 - nodes**2)
        # row a * naz + b is polar node a at azimuth b
        vecs = np.stack([np.outer(st, np.cos(phi)).ravel(),
                         np.outer(st, np.sin(phi)).ravel(),
                         np.repeat(nodes, naz)], axis=1)
        return cls(vecs, np.repeat(glw / (2.0 * naz), naz), band_limit)

    def _verify_exactness(self):
        blocks = _real_harmonic_basis(self, self.band_limit)
        for l, block in enumerate(blocks[1:], start=1):
            if np.abs(block @ self.weights).max() > 1e-10:
                raise ValueError("rule not exact at harmonic degree %d" % l)

    def _antipodes(self):
        """Index map j -> j' with vectors[j'] == -vectors[j], and -1 where
        direction j has no antipode in the set.  Cached; never raises."""
        if self._antipodal is None:
            idx = np.empty(len(self), dtype=int)
            for i, v in enumerate(self.vectors):
                d = np.abs(self.vectors + v).sum(axis=1)
                j = int(np.argmin(d))
                idx[i] = j if d[j] <= 1e-10 else -1
            self._antipodal = idx
        return self._antipodal

    def antipodal_index(self):
        """Index map j -> j' with vectors[j'] == -vectors[j].

        Raises DirectionsNotAntipodal when the set is not closed under the
        antipodal map, which evenness checks require.
        """
        idx = self._antipodes()
        missing = np.flatnonzero(idx < 0)
        if len(missing):
            raise DirectionsNotAntipodal(
                "no antipode for direction %d in the set" % missing[0])
        return idx


def _directions_for(n, count):
    """The default direction rule for about `count` directions on S^{n-1}:
    `circle(count)` in 2-D, `sphere(max(2, int(sqrt(count)) - 1))` in 3-D."""
    if n == 2:
        return DirectionSet.circle(count)
    return DirectionSet.sphere(max(2, int(np.sqrt(count)) - 1))


def save_function(f, path):
    """CSV serialization: header line `n,M,L`, then one value per line."""
    with open(path, "w") as fh:
        fh.write("%d,%d,%.17g\n" % (f.grid.n, f.grid.points, f.grid.half_width))
        for v in f.values.ravel():
            fh.write("%.17g\n" % v)


def load_function(path):
    """Read `save_function`'s CSV: a header line `n,M,L`, then M^n values,
    one per line.  Raises ValueError naming that format when the header
    does not have three fields or the file does not hold M^n values."""
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        if len(head) != 3:
            raise ValueError("function file header needs the 3 fields "
                             "`n,M,L`, got %d" % len(head))
        n, m, half_width = int(head[0]), int(head[1]), float(head[2])
        vals = np.loadtxt(fh)
    grid = GridSpec(n, half_width, m)
    if vals.size != m**n:
        raise ValueError("function file with header `n,M,L` = %d,%d,%g needs "
                         "M^n = %d values, one per line, got %d"
                         % (n, m, half_width, m**n, vals.size))
    return SampledFunction(grid, vals.reshape((m,) * n))

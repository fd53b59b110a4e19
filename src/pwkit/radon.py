"""Radon transform on R^n (n = 2, 3), evenness and moment functionals,
and inversion through the Fourier-slice route.

A hyperplane is xi(p, omega) = {x : x . omega = p}.  The transform is
computed matrix-free: the input samples are resampled along each hyperplane
by quintic B-spline interpolation at the grid spacing and integrated by the
trapezoid rule.  Offsets cover [-L sqrt(n), L sqrt(n)] so every hyperplane
meeting the box is represented; rows with |p| beyond the declared support
radius are exactly zero (lines there miss the support ball).

Each hyperplane has two names, xi(p, omega) = xi(-p, -omega), so only one
direction of each antipodal pair in the direction set is sampled; the
other's column is the same integrals with the offsets reversed.  The
transform is therefore even by construction.
"""

import numpy as np
from scipy import ndimage

from .grid import (GridSpec, SampledFunction, DirectionSet, SPHERE_AREA,
                   _trapezoid_weights)

__all__ = [
    "Sinogram",
    "UnsupportedDimension",
    "NotEven",
    "radon_transform",
    "default_offsets",
    "evenness_defect",
    "moment",
    "inverse_radon",
    "save_sinogram",
    "load_sinogram",
]


class UnsupportedDimension(ValueError):
    pass


class NotEven(ValueError):
    """Sinogram evenness defect exceeds the admissibility tolerance."""


EVENNESS_TOL = 1e-6  # admissibility threshold for inversion and radial FT


class Sinogram:
    """Sampled Radon transform on an (offset, direction) grid.

    offsets : (P,) equispaced, symmetric about 0, P odd
    directions : DirectionSet
    values : (P, Q) array
    support_radius : declared radial support (values vanish for |p| beyond it)
    """

    def __init__(self, offsets, directions, values, support_radius=None):
        offsets = _offset_grid(offsets)
        values = np.asarray(values)
        if values.shape != (len(offsets), len(directions)):
            raise ValueError("values shape %r does not match (P, Q)=(%d, %d)"
                             % (values.shape, len(offsets), len(directions)))
        if not np.isfinite(values).all():
            raise ValueError("sinogram values must be finite")
        self.offsets = offsets
        self.directions = directions
        self.values = values
        self.support_radius = support_radius

    @property
    def n(self):
        return self.directions.n

    def offset_weights(self):
        return _trapezoid_weights(len(self.offsets), self.offsets[1] - self.offsets[0])


def _offset_grid(offsets):
    """The offsets as a float array; raises ValueError unless their count is
    odd (so that p=0 is a node) and they are symmetric about 0."""
    offsets = np.asarray(offsets, dtype=float)
    if len(offsets) % 2 == 0:
        raise ValueError("offset count must be odd so that p=0 is a node")
    if np.abs(offsets + offsets[::-1]).max() > 1e-9 * np.abs(offsets).max():
        raise ValueError("offsets must be symmetric about 0")
    return offsets


def default_offsets(grid, spacing_factor=1.0):
    """Symmetric offset grid over [-L sqrt(n), L sqrt(n)] at ~grid spacing."""
    pmax = grid.half_width * np.sqrt(grid.n)
    dp = grid.spacing * spacing_factor
    half = int(np.ceil(pmax / dp))
    return np.linspace(-pmax, pmax, 2 * half + 1)


def _plane_basis(w):
    """Orthonormal basis (u, v) of the plane with normal w, chosen so that
    u(-w) = -u(w) and v(-w) = v(w), so (p, w) and (-p, -w) name the same
    sampled point set.  `radon_transform` samples only one direction of each
    antipodal pair, so the transform is even exactly, not to roundoff."""
    a = int(np.argmin(np.abs(w)))
    e = np.zeros(3)
    e[a] = 1.0
    u = np.cross(e, w)
    u /= np.linalg.norm(u)
    v = np.cross(w, u)
    return u, v


def _effective_support(f):
    rs = f.support_radius
    if rs is None:
        rs = f.grid.half_width
    return min(float(rs), f.grid.half_width * np.sqrt(f.grid.n))


def radon_transform(f, offsets=None, directions=None, spline_order=5):
    """Radon transform of a SampledFunction; returns a Sinogram.

    Entry (i, j) approximates the integral of f over the hyperplane
    xi(p_i, omega_j) with respect to its Lebesgue measure.  The declared
    support radius of f (which must not exceed the box half-width for the
    integrals to be complete) carries over to the sinogram.  A direction
    whose antipode comes earlier in the set is not sampled: its column is
    the antipode's with the offsets reversed.
    """
    n = f.grid.n
    if n not in (2, 3):
        raise UnsupportedDimension("radon transform implemented for n in {2, 3}")
    if offsets is None:
        offsets = default_offsets(f.grid)
    offsets = _offset_grid(offsets)
    if directions is None:
        directions = DirectionSet.circle(64) if n == 2 else DirectionSet.sphere(8)
    if directions.n != n:
        raise ValueError("direction dimension does not match the grid")

    if np.iscomplexobj(f.values):
        re = radon_transform(
            SampledFunction(f.grid, f.values.real, f.support_radius),
            offsets, directions, spline_order)
        im = radon_transform(
            SampledFunction(f.grid, f.values.imag, f.support_radius),
            offsets, directions, spline_order)
        return Sinogram(re.offsets, re.directions, re.values + 1j * im.values,
                        re.support_radius)

    grid = f.grid
    h = grid.spacing
    L = grid.half_width
    rs = _effective_support(f)
    coeffs = ndimage.spline_filter(np.ascontiguousarray(f.values, dtype=float),
                                   order=spline_order)
    tmax = rs + 3 * h
    T = int(2 * np.ceil(tmax / h)) + 1
    t = np.linspace(-tmax, tmax, T)
    dt = t[1] - t[0]

    mask = np.abs(offsets) <= rs
    pm = offsets[mask]

    if n == 2:
        def integrals(w):
            wp = np.array([-w[1], w[0]])
            ci = (pm[:, None] * w[0] + t[None, :] * wp[0] + L) / h
            cj = (pm[:, None] * w[1] + t[None, :] * wp[1] + L) / h
            vals = ndimage.map_coordinates(
                coeffs, [ci.ravel(), cj.ravel()], order=spline_order,
                prefilter=False, mode="constant", cval=0.0).reshape(len(pm), T)
            return np.trapezoid(vals, dx=dt, axis=1)
    else:
        # restrict the plane patch to the disk that can meet the ball
        half = np.sqrt(np.maximum(rs**2 - pm**2, 0.0)) + 3 * h

        def integrals(w):
            u, v = _plane_basis(w)
            row = np.zeros(len(pm))
            for i, p in enumerate(pm):
                nt = int(np.ceil(half[i] / h))
                ts = np.linspace(-half[i], half[i], 2 * nt + 1)
                ds = ts[1] - ts[0]
                ss, tt = np.meshgrid(ts, ts, indexing="ij")
                pts = (p * w[None, :] + ss.ravel()[:, None] * u[None, :]
                       + tt.ravel()[:, None] * v[None, :])
                vals = ndimage.map_coordinates(
                    coeffs, [(pts[:, 0] + L) / h, (pts[:, 1] + L) / h,
                             (pts[:, 2] + L) / h],
                    order=spline_order, prefilter=False, mode="constant",
                    cval=0.0).reshape(ss.shape)
                row[i] = vals.sum() * ds * ds  # integrand vanishes at patch rim
            return row

    out = np.zeros((len(offsets), len(directions)))
    partner = directions._antipodes()
    for j, w in enumerate(directions.vectors):
        k = partner[j]
        if 0 <= k < j:
            # xi(p, w) = xi(-p, -w), and the offsets are symmetric
            out[:, j] = out[::-1, k]
        else:
            out[mask, j] = integrals(w)

    return Sinogram(offsets, directions, out,
                    support_radius=f.support_radius
                    if f.support_radius is not None else rs)


def evenness_defect(s):
    """max over the grid of |s(p, omega) - s(-p, -omega)|.

    Requires the direction set to be closed under omega -> -omega and the
    offsets to be symmetric (guaranteed by the Sinogram invariants).
    """
    anti = s.directions.antipodal_index()
    flipped = s.values[::-1, :][:, anti]
    return float(np.abs(s.values - flipped).max())


def _slice_transform(s, z, deriv=0):
    """d^l/dz^l int s(p, omega_j) e^{-2 pi i p z} dp (l = deriv) for every
    direction j by trapezoid quadrature in the offset, at real or complex z;
    shape z.shape + (Q,).  The offset kernel of the slice route, never used
    on a direct side (see the module docstring of fourier)."""
    z = np.asarray(z)
    wp = s.offset_weights() * (-2j * np.pi * s.offsets) ** deriv
    E = np.exp(-2j * np.pi * np.outer(z, s.offsets)) * wp[None, :]
    return (E @ s.values).reshape(z.shape + (len(s.directions),))


def moment(s, k):
    """k-th offset moment per direction: omega_j -> int s(p, omega_j) p^k dp."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    wp = s.offset_weights()
    return (wp * s.offsets**k) @ s.values


def _require_even(s):
    defect = evenness_defect(s)
    if defect > EVENNESS_TOL:
        raise NotEven("evenness defect %.3g exceeds %g" % (defect, EVENNESS_TOL))


RADIAL_PANEL = 0.5  # panel width of the composite Gauss-Legendre radial rule
RADIAL_NODES = 6    # Gauss-Legendre nodes per panel


def _inversion_quadrature(s, r_max):
    """The one quadrature of the motion-group inversion integral
    int_0^{r_max} sum_j w_j f_hat_r(omega_j) e^{2 pi i r x.omega_j}
    sigma_n r^{n-1} dr = sum_ij c_ij e^{2 pi i r_i x.omega_j}: composite
    Gauss-Legendre in r, f_hat_r from the offset kernel.  Returns the radii
    r_i and the (R, Q) coefficients c_ij; r_max None means `choose_r_max`.
    Raises NotEven for sinograms whose evenness defect exceeds the
    admissibility tolerance."""
    from .fourier import choose_r_max

    _require_even(s)
    if r_max is None:
        r_max, _ = choose_r_max(s)
    xg, wg = np.polynomial.legendre.leggauss(RADIAL_NODES)
    nseg = max(int(np.ceil(r_max / RADIAL_PANEL)), 1)
    edges = np.linspace(0.0, r_max, nseg + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1] - edges[0])
    radii = (mid[:, None] + hw * xg[None, :]).ravel()
    wr = np.tile(hw * wg, nseg)
    radial = wr * SPHERE_AREA[s.n] * radii**(s.n - 1)
    coef = radial[:, None] * s.directions.weights * _slice_transform(s, radii)
    return radii, coef


def inverse_radon(s, grid=None, r_max=None):
    """Reconstruction through the Fourier-slice route.

    The inversion integral (`_inversion_quadrature`) on the Cartesian
    grid.  Its phase separates over the axes: per radius, the factors of
    axes 2..n fold into one (Q, M^{n-1}) block, and one matrix product with
    the axis-1 factor adds that radius to every grid point.  Raises NotEven
    like `_inversion_quadrature`.
    """
    radii, coef = _inversion_quadrature(s, r_max)
    n = s.n
    if grid is None:
        pmax = s.offsets[-1]
        L = pmax / np.sqrt(n)
        dp = s.offsets[1] - s.offsets[0]
        m = int(round(2 * L / dp)) + 1
        if m % 2 == 0:
            m += 1
        grid = GridSpec(n, L, m)

    ax = grid.axis()
    m = grid.points
    out = np.zeros((m, m ** (n - 1)), dtype=complex)
    for r, c in zip(radii, coef):
        # one (Q, M) phase factor e^{2 pi i r omega_a x_m} per axis a
        first, *rest = np.exp(2j * np.pi * r
                              * np.multiply.outer(s.directions.vectors.T, ax))
        block = c[:, None]
        for phase in rest:
            block = (block[:, :, None] * phase[:, None, :]).reshape(len(c), -1)
        out += first.T @ block
    vals = (out.real if np.isrealobj(s.values) else out).reshape((m,) * n)
    return SampledFunction(grid, vals, support_radius=None)


def save_sinogram(s, path, direction_path=None):
    """CSV: header `P,Q,n`, then rows `p,omega_index,value`.  The direction
    table goes alongside as `omega_index,components...,weight`."""
    with open(path, "w") as fh:
        fh.write("%d,%d,%d\n" % (len(s.offsets), len(s.directions), s.n))
        for i, p in enumerate(s.offsets):
            for j in range(len(s.directions)):
                fh.write("%.17g,%d,%.17g\n" % (p, j, s.values[i, j]))
    if direction_path is not None:
        with open(direction_path, "w") as fh:
            for j, (v, w) in enumerate(zip(s.directions.vectors,
                                           s.directions.weights)):
                comps = ",".join("%.17g" % c for c in v)
                fh.write("%d,%s,%.17g\n" % (j, comps, w))


def load_sinogram(path, directions, support_radius=None):
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        P, Q, n = int(head[0]), int(head[1]), int(head[2])
        data = np.loadtxt(fh, delimiter=",")
    if Q != len(directions) or n != directions.n:
        raise ValueError("direction set does not match the sinogram header")
    offsets = data[::Q, 0]
    values = data[:, 2].reshape(P, Q)
    return Sinogram(offsets, directions, values, support_radius)

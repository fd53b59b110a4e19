"""Radon transform on R^n (n = 2, 3), evenness and moment functionals,
and inversion through the Fourier-slice route.

A hyperplane is xi(p, omega) = {x : x . omega = p}.  The transform is
computed matrix-free from the quintic B-spline interpolant of the samples.
One in-plane lattice, spacing at most the grid spacing h over
[-rs - 3h, rs + 3h]^(n-1) for the support radius rs, serves every
hyperplane: for an offset |p| <= rs only its nodes inside the disk of
radius sqrt(rs^2 - p^2) + 3h, where the plane can meet the support ball,
are kept.  Each sampled direction is one spline evaluation at all kept
nodes of all offsets, and each offset's integral is the sum of its nodes'
values times the lattice cell area (the integrand vanishes at the disk rim,
so no end weights are needed).  Offsets cover [-L sqrt(n), L sqrt(n)] so
every hyperplane meeting the box is represented; rows with |p| beyond the
declared support radius are exactly zero (those hyperplanes miss the
support ball).  Complex samples are transformed as their real and
imaginary parts.

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
SPLINE_ORDER = 5     # B-spline order of the resampling in radon_transform


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


def _hyperplane_basis(w):
    """Orthonormal basis of the hyperplane with normal w, as the rows of an
    (n-1, n) array: (-w_2, w_1) in 2-D; in 3-D u = e x w / |e x w| for the
    coordinate axis e least aligned with w, and v = w x u."""
    if len(w) == 2:
        return np.array([[-w[1], w[0]]])
    e = np.zeros(3)
    e[np.argmin(np.abs(w))] = 1.0
    u = np.cross(e, w)
    u /= np.linalg.norm(u)
    return np.stack([u, np.cross(w, u)])


def _effective_support(f):
    rs = f.support_radius
    if rs is None:
        rs = f.grid.half_width
    return min(float(rs), f.grid.half_width * np.sqrt(f.grid.n))


def radon_transform(f, offsets=None, directions=None):
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
            offsets, directions)
        im = radon_transform(
            SampledFunction(f.grid, f.values.imag, f.support_radius),
            offsets, directions)
        return Sinogram(re.offsets, re.directions, re.values + 1j * im.values,
                        re.support_radius)

    h = f.grid.spacing
    L = f.grid.half_width
    rs = _effective_support(f)
    coeffs = ndimage.spline_filter(f.values, order=SPLINE_ORDER)
    tmax = rs + 3 * h
    t = np.linspace(-tmax, tmax, int(2 * np.ceil(tmax / h)) + 1)
    dt = t[1] - t[0]

    # in-plane lattice t^(n-1); offset p_i, |p_i| <= rs, keeps the nodes
    # inside the disk of radius sqrt(rs^2 - p_i^2) + 3h, beyond which the
    # integrand vanishes.  Kept point k is p[k] w + basis(w)^T s[:, k].
    lattice = np.stack(np.meshgrid(*[t] * (n - 1), indexing="ij"))
    lattice = lattice.reshape(n - 1, -1)
    rows = np.flatnonzero(np.abs(offsets) <= rs)
    reach = np.sqrt(rs**2 - offsets[rows]**2) + 3 * h
    owner, node = np.nonzero((lattice**2).sum(axis=0) <= reach[:, None]**2)
    p = offsets[rows[owner]]
    s = lattice[:, node]

    out = np.zeros((len(offsets), len(directions)))
    partner = directions._antipodes()
    for j, w in enumerate(directions.vectors):
        k = partner[j]
        if 0 <= k < j:
            # xi(p, w) = xi(-p, -w), and the offsets are symmetric
            out[:, j] = out[::-1, k]
        else:
            x = w[:, None] * p + _hyperplane_basis(w).T @ s
            vals = ndimage.map_coordinates(
                coeffs, (x + L) / h, order=SPLINE_ORDER, prefilter=False,
                mode="constant", cval=0.0)
            out[rows, j] = np.bincount(owner, vals, len(rows)) * dt ** (n - 1)

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

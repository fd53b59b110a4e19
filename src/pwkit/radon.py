"""Radon transform on R^n (n = 2, 3), evenness and moment functionals,
and inversion through the Fourier-slice route.

A hyperplane is xi(p, omega) = {x : x . omega = p}.  The transform is
computed matrix-free from the quintic B-spline interpolant of the samples
(mirrored at the box's faces), on the nodes t_j, spacing dt at most the
grid spacing h, of [-rs - 3h, rs + 3h] for the support radius rs.  For an
offset |p| <= rs only the nodes within sqrt(rs^2 - p^2) + 3h of p omega,
where the hyperplane can meet the support ball, are kept, and the offset's
integral is the sum of its nodes' values times the node cell (the
integrand vanishes at that rim, so no end weights are needed).

2-D lines and 3-D planes are sampled by one construction, on pencils.  The
pencil axis g is the coordinate axis most aligned with omega, so
|omega_g| >= 1/sqrt(n).  A tensor-product spline restricted to the line
along g through x_a = t_(k_a), for each other axis a, is a 1-D spline
whose coefficients are the n-D ones resampled at t_(k_a) along every a.  The
n-D coefficients are the samples with the one-axis prefilter F, the inverse
of the (M, M) collocation matrix, applied along every axis (Unser, Aldroubi
and Eden, "B-spline signal processing", IEEE TSP 1993), so F is folded into
the (T, M) B-spline resampling matrix R: the samples are resampled once per
call and pencil axis, by R F applied along each of the n - 1 other axes,
and F is applied along g alone, into a (T^(n-1), M) stack of 1-D splines.
No n-D prefilter runs over the M^n samples, while the stacks keep T < M
nodes along each resampled axis.  The hyperplane meets the pencil at
x_g = (p - sum_a omega_a t_(k_a)) / omega_g.  The nodes with
|x|^2 <= p^2 + reach^2 are kept, each with the cell dt^(n-1) / |omega_g|,
the area of the hyperplane above one pencil's cross-section.  The pencils
are padded by 3 mirrored entries at both ends and joined into one 1-D
array, so all the nodes of a sampled direction, on all its hyperplanes,
are one 1-D spline evaluation (6 taps a node instead of 36 in 2-D and 216
in 3-D).  The joined coordinate reaches T^(n-1) (M + 6), about 3e5 at
97^3, where a double still resolves about 1e-10 of a grid step.  In 2-D
the pencils are the rows x_e = t_k of the other axis e, and a line's nodes
are its crossings with them, which step by dt / |omega_g| along the line.

In 3-D a horizontal normal (|omega_3| <= HORIZONTAL_TOL, a roundoff
tolerance that treats omega and -omega alike) keeps the slab lattice
instead.  For such a normal the pencils' nodes in each slab z = t_k would
be the 2-D sampler's crossings of that slab's line, and spline evaluation
is linear and separable.  `fourier.projection_compatibility_defect`, which
compares the 3-D transform on horizontal normals with the 2-D transform of
the z-marginal, would then compare two z-quadratures of one xy
interpolant, which certifies nothing about the xy sampling.  The slab
lattice gives those planes nodes the 2-D side does not share.  The samples
are resampled by R F along the slab axis e = z of every horizontal normal
(so omega_e = 0 to roundoff, and one stack serves them all), and F is
applied along the two in-slab axes, into an (M^2, T) stack of 2-D splines,
slab k in column k.  The plane meets slab k in a line along its
in-plane vector u (with u_e = 0), whose nodes are t_j along u, so the
nodes are the unsheared (t_j, t_k) lattice of the plane, each with the
cell dt^2.  Node (i, j) of offset p_i has the same in-slab coordinates
p_i omega + t_j u in every slab; the slab-dependent in-slab term, of order
|omega_e|, is dropped (it is 0 when omega_e = 0).  So a sampled direction
is one sparse (N, M^2) interpolation matrix of its N nodes (i, j), 36
entries a row, applied to the whole stack: every node's value in every
slab, each (i, j) then summed over the slabs its disk keeps.  Every node
(i, j, k) is still evaluated on the plane's own lattice; this is not the
marginal route, which would integrate over z first and then interpolate at
the 2-D side's nodes.

Offsets cover [-L sqrt(n), L sqrt(n)] so every hyperplane meeting the box
is represented; rows with |p| beyond the declared support radius are
exactly zero (those hyperplanes miss the support ball).  Complex samples
are transformed as their real and imaginary parts.

Each hyperplane has two names, xi(p, omega) = xi(-p, -omega), so only one
direction of each antipodal pair in the direction set is sampled; the
other's column is the same integrals with the offsets reversed.  The
transform is therefore even by construction.

Inversion sums one direction of each antipodal pair too, in real
arithmetic.  The term of -omega in the inversion integral has the real part
of the conjugate of its coefficient times the phase of omega, so the half
sum with folded coefficients c(omega) + conj(c(-omega)) has exactly the
real part of the full sum, whether or not the sinogram is even; for a real
sinogram that real part is the reconstruction.  A complex sinogram is
inverted as its real and imaginary parts.  On the grid the phase of each
axis is tabulated by angle addition (`grid._phase_table`), a few ulp of
each entry plus the rounding of its argument, as with np.exp.  The offset
kernel `_slice_transform` keeps np.exp, so no certificate uses the table
on both sides (see the module docstring of fourier).
"""

import math

import numpy as np
from scipy import ndimage, sparse

from .grid import (SampledFunction, DirectionSet, SPHERE_AREA,
                   _phase_table, _trapezoid_weights)

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


def default_offsets(grid):
    """Symmetric offset grid over [-L sqrt(n), L sqrt(n)] at a step of at
    most the grid spacing."""
    pmax = grid.half_width * np.sqrt(grid.n)
    half = int(np.ceil(pmax / grid.spacing))
    return np.linspace(-pmax, pmax, 2 * half + 1)


def _slab_axis(w):
    """The coordinate axis across which `_hyperplane_basis` takes the first
    vector of the plane with the 3-D normal w: the slab axis z for a
    horizontal normal (|w_3| <= HORIZONTAL_TOL), so that one slab stack
    serves every horizontal normal of a call, and otherwise the axis least
    aligned with w."""
    return 2 if abs(w[2]) <= HORIZONTAL_TOL else int(np.argmin(np.abs(w)))


def _hyperplane_basis(w):
    """Orthonormal basis of the hyperplane with normal w, as the rows of an
    (n-1, n) array: (-w_2, w_1) in 2-D; in 3-D u = e x w / |e x w| for the
    coordinate axis e = `_slab_axis(w)`, and v = w x u."""
    if len(w) == 2:
        return np.array([[-w[1], w[0]]])
    e = np.zeros(3)
    e[_slab_axis(w)] = 1.0
    u = np.cross(e, w)
    u /= np.linalg.norm(u)
    return np.stack([u, np.cross(w, u)])


def _effective_support(f):
    rs = f.support_radius
    if rs is None:
        rs = f.grid.half_width
    return min(float(rs), f.grid.half_width * np.sqrt(f.grid.n))


def _bspline(z):
    """The centred B-spline of odd degree d = SPLINE_ORDER at z: the sum of
    (-1)^k C(d+1, k) ((d+1)/2 - |z| - k)_+^d / d! over the k <= (d-1)/2
    whose terms can be nonzero."""
    d = SPLINE_ORDER
    a = (d + 1) / 2 - np.abs(z)
    return sum((-1) ** k * math.comb(d + 1, k) * np.maximum(a - k, 0.0) ** d
               for k in range((d + 1) // 2)) / math.factorial(d)


def _spline_taps(x, m):
    """The taps and weights, each (len(x), SPLINE_ORDER + 1), of the spline
    on the coefficient nodes 0..m-1 at the coordinates x, by the rule of
    ndimage.map_coordinates(c, [x], order=SPLINE_ORDER, prefilter=False,
    mode="constant"): the taps that fall beyond an end are mirrored about
    that end, and a coordinate outside [0, m-1] has the weights 0."""
    taps = (np.floor(x).astype(int)[:, None]
            + np.arange(-(SPLINE_ORDER // 2), SPLINE_ORDER // 2 + 2))
    weights = _bspline(x[:, None] - taps)
    weights[(x < 0) | (x > m - 1)] = 0.0
    taps = np.abs(taps) % (2 * (m - 1))
    return np.minimum(taps, 2 * (m - 1) - taps), weights


def _resampling_matrix(x, m):
    """The (len(x), m) matrix that takes spline coefficients on the nodes
    0..m-1 to the spline's values at the coordinates x, by the rule of
    `_spline_taps`."""
    taps, weights = _spline_taps(x, m)
    out = np.zeros((len(x), m))
    np.add.at(out, (np.arange(len(x))[:, None], taps), weights)
    return out


def _slab_matrix(x, m):
    """The sparse (N, m^2) matrix that takes the coefficients of a 2-D
    spline on the nodes (0..m-1)^2, flattened in C order, to the spline's
    values at the N coordinate pairs x[:, i]: per row the products of the
    `_spline_taps` of both axes, (SPLINE_ORDER + 1)^2 entries, where a
    mirrored tap may repeat a column (the entries are summed)."""
    (ta, wa), (tb, wb) = (_spline_taps(xa, m) for xa in x)
    width = ta.shape[1] ** 2
    return sparse.csr_array(
        ((wa[:, :, None] * wb[:, None, :]).ravel(),
         (ta[:, :, None] * m + tb[:, None, :]).ravel(),
         np.arange(0, width * len(ta) + 1, width)), shape=(len(ta), m * m))


# mirrored entries padded to each end of a pencil: the taps of a coordinate
# in [0, m-1] reach at most this far beyond an end
ROW_PAD = SPLINE_ORDER // 2 + 1

# |omega_3| at or below which a 3-D normal is horizontal and keeps the slab
# lattice (see the module docstring); a roundoff tolerance, the same for
# omega and -omega
HORIZONTAL_TOL = 1e-12


def _prefilter_matrix(m):
    """The (m, m) matrix F of the one-axis quintic B-spline prefilter with
    mirrored ends, F @ x = ndimage.spline_filter1d(x, order=SPLINE_ORDER):
    the inverse of the collocation matrix `_resampling_matrix(arange(m), m)`,
    which takes a spline's coefficients on the nodes 0..m-1 to its values
    there."""
    return ndimage.spline_filter1d(np.eye(m), order=SPLINE_ORDER, axis=0)


def _slab_stacks(values, t, h, L):
    """The spline interpolant of the samples `values` restricted to the
    slabs x_e = t_k of an axis e, or to the pencils (x_e, x_f) = (t_k, t_l)
    of two axes e < f, as spline coefficients by the rule of
    `_resampling_matrix`.  The n-D coefficients are the samples with the
    prefilter F = `_prefilter_matrix(M)` applied along every axis, and the
    resampling R = `_resampling_matrix` at t is linear, so a resampled axis
    contracts the samples with R F, and F is applied only along the axes a
    stack keeps: the pencil axis, or the two in-slab axes.  No n-D
    prefilter runs over the M^n samples.  In 3-D the pencil stacks (0, 1)
    and (0, 2) share their first contraction, along x, so a call contracts
    the M^3 samples at most once per axis.  The 1-D stacks, stacks(e) in 2-D
    and stacks(e, f) in 3-D, are (T^(n-1), M + 2 ROW_PAD): pencil (k, l) at
    k T + l, padded by ROW_PAD mirrored entries at both ends (np.pad's
    "reflect", which is map_coordinates' rule for taps beyond an end).
    stacks(e) in 3-D is (M^2, T): column k is slab k's coefficient array,
    flattened in C order and not padded.  The slabs of e are resampled
    along f by one batched matmul.  A stack is made on the first use of its
    axes, from values and t alone, so a column of the transform does not
    depend on the rest of the direction set."""
    prefilter = _prefilter_matrix(values.shape[0])
    resample = _resampling_matrix((t + L) / h, values.shape[0]) @ prefilter
    cache = {}

    def contract(axes):
        # the 3-D pencil stacks (0, 1) and (0, 2) start from one
        # contraction along x, kept until both are made
        if axes not in ((0, 1), (0, 2)):
            return np.tensordot(resample, values, axes=(1, axes[0]))
        if "x" not in cache:
            cache["x"] = np.tensordot(resample, values, axes=(1, 0))
        return cache.pop("x") if (0, 3 - axes[1]) in cache else cache["x"]

    def stacks(*axes):
        if axes not in cache:
            stack = contract(axes)
            if len(axes) < values.ndim - 1:  # the slabs of a 3-D array
                stack = prefilter @ stack @ prefilter.T
                cache[axes] = np.ascontiguousarray(
                    stack.reshape(len(t), -1).T)
            else:
                if len(axes) == 2:  # f > e: the slabs' first axis if f = 1
                    stack = (np.matmul(resample, stack) if axes[1] == 1 else
                             np.matmul(stack, resample.T).swapaxes(1, 2))
                    stack = stack.reshape(-1, stack.shape[2])
                cache[axes] = np.pad(stack @ prefilter.T,
                                     [(0, 0), (ROW_PAD, ROW_PAD)],
                                     mode="reflect")
        return cache[axes]
    return stacks


def _row_values(pencils, k, x):
    """Values of the 1-D splines whose coefficients are the padded stack
    `pencils` of `_slab_stacks`: pencil k_i at the coordinate x[0, i] in
    grid steps (x is (1, N), map_coordinates' layout), by one spline
    evaluation on the pencils joined end to end.  A coordinate outside
    [0, m-1] gives 0, the rule of map_coordinates' mode="constant"."""
    width = pencils.shape[1]
    vals = ndimage.map_coordinates(pencils.ravel(), k * width + ROW_PAD + x,
                                   order=SPLINE_ORDER, prefilter=False)
    vals[((x < 0) | (x > width - 2 * ROW_PAD - 1))[0]] = 0.0
    return vals


def _pencil_axis(w):
    """The coordinate axis most aligned with the normal w, so
    |w_g| >= 1/sqrt(n), the axis of the pencils `radon_transform` samples
    on; a tie goes to the last axis."""
    return len(w) - 1 - int(np.argmax(np.abs(w[::-1])))


def _pencil_sampler(stacks, n, p, reach, t, h, L):
    """Sampler of the hyperplanes xi(p_i, w) on pencils (see the module
    docstring): the rows of a 2-D transform and the non-horizontal planes
    of a 3-D one.  For the pencil axis g = `_pencil_axis(w)` and the other
    axes a, the hyperplane meets the pencil x_a = t_(k_a) at
    x_g = (p_i - sum_a w_a t_(k_a)) / w_g; the nodes with
    |x|^2 <= p_i^2 + reach_i^2 are kept, each with the cell
    dt^(n-1) / |w_g|.  A pencil with sum_a t_(k_a)^2 beyond every
    p_i^2 + reach_i^2 keeps no node, so only the others are searched, in
    their order.  The pencils come from `stacks`, the `_slab_stacks` of the
    n-D samples.  sample(w) returns the row index i of each node, its value
    and the cell."""
    lattice = np.stack(np.meshgrid(*[t] * (n - 1), indexing="ij")).reshape(
        n - 1, -1)                             # pencil k T + l at (t_k, t_l)
    norm2 = (lattice**2).sum(axis=0)
    bound = p**2 + reach**2
    ids = np.flatnonzero(norm2 <= bound.max())
    lattice, norm2 = lattice[:, ids], norm2[ids]

    def sample(w):
        g = _pencil_axis(w)
        rest = [a for a in range(n) if a != g]
        # (pencil, row i): a pencil's nodes are consecutive, as its
        # coefficients are
        x = (p - (w[rest] @ lattice)[:, None]) / w[g]
        pencil, owner = np.nonzero(norm2[:, None] + x**2 <= bound)
        x = (x[pencil, owner] + L)[None] / h
        return (owner, _row_values(stacks(*rest), ids[pencil], x),
                (t[1] - t[0]) ** (n - 1) / abs(w[g]))
    return sample


def _slab_sampler(stacks, m, p, reach, t, h, L):
    """Sampler of the planes xi(p_i, w) of a 3-D transform with a
    horizontal normal w, slab by slab (see the module docstring).  For the
    slab axis e = `_slab_axis(w)`, which is z, so w_e = 0 to roundoff,
    `_hyperplane_basis` gives u with u_e = 0 and v = e - w_e w.  The plane
    meets the slab x_e = t_k in the line p_i w + s u + (t_k - p_i w_e) v,
    whose nodes s = t_j inside the disk of radius reach_i are kept, each
    with the cell dt^2.  Node (i, j) has the in-slab coordinates p_i w + t_j u
    in every slab: the term -w_e (t_k - p_i w_e) w of v, of order |w_e|,
    is dropped (it is 0 when w_e = 0).  So one `_slab_matrix` of the (i, j)
    that any slab keeps, applied to the (M^2, T) slab stack, gives every
    node's value in every slab, and each (i, j) sums the slabs that keep
    it.  The slabs come from `stacks`, the `_slab_stacks` of the samples on
    m points an axis.  sample(w) returns the row index i of each (i, j), its
    slab sum and the cell."""

    def sample(w):
        e = _slab_axis(w)
        s = t - p[:, None] * w[e]              # (row i, slab k): v-coordinate
        keep = t[:, None]**2 + s[:, None, :]**2 <= reach[:, None, None]**2
        owner, node = np.nonzero(keep.any(axis=2))  # keep: (i, node j, k)
        x = w[:, None] * p[owner] + _hyperplane_basis(w)[0][:, None] * t[node]
        x = (np.delete(x, e, axis=0) + L) / h
        vals = _slab_matrix(x, m) @ stacks(e)
        return (owner, (vals * keep[owner, node]).sum(axis=1),
                (t[1] - t[0]) ** 2)
    return sample


def radon_transform(f, offsets=None, directions=None):
    """Radon transform of a SampledFunction; returns a Sinogram.

    Entry (i, j) approximates the integral of f over the hyperplane
    xi(p_i, omega_j) with respect to its Lebesgue measure.  The declared
    support radius of f (which must not exceed the box half-width for the
    integrals to be complete) carries over to the sinogram.  A direction
    whose antipode comes earlier in the set is not sampled: its column is
    the antipode's with the offsets reversed.

    The hyperplanes are sampled on pencils, lines along the axis g most
    aligned with omega through the nodes t of the other axes, with the
    cell dt^(n-1) / |omega_g| (see the module docstring).  In 2-D the
    pencils are the rows crossed by each line.  Each sampled direction is
    one 1-D spline evaluation on the joined pencils.  A horizontal 3-D
    normal (|omega_3| <= HORIZONTAL_TOL) is sampled instead on the slabs
    z = t_k, on the plane's unsheared (t_j, t_k) lattice with the cell
    dt^2, so that the 2-D transform of a marginal does not share its
    nodes.  Its in-slab coordinates are the same in every slab (a term of
    order |omega_3| is dropped), so the direction is one sparse
    interpolation matrix applied to every slab at once, on that unchanged
    lattice.  The spline's prefilter is folded into the resampling of each
    stack and applied only along the axes the stack keeps (see
    `_slab_stacks`), so no n-D prefilter runs over the samples.
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
    tmax = rs + 3 * h
    t = np.linspace(-tmax, tmax, int(2 * np.ceil(tmax / h)) + 1)

    # offset p_i, |p_i| <= rs, keeps the in-plane nodes inside the disk of
    # radius sqrt(rs^2 - p_i^2) + 3h about p_i w, beyond which the
    # integrand vanishes
    rows = np.flatnonzero(np.abs(offsets) <= rs)
    reach = np.sqrt(rs**2 - offsets[rows]**2) + 3 * h
    stacks = _slab_stacks(f.values, t, h, L)
    pencils = _pencil_sampler(stacks, n, offsets[rows], reach, t, h, L)
    slabs = _slab_sampler(stacks, f.grid.points, offsets[rows], reach, t, h, L)

    out = np.zeros((len(offsets), len(directions)))
    partner = directions._antipodes()
    for j, w in enumerate(directions.vectors):
        k = partner[j]
        if 0 <= k < j:
            # xi(p, w) = xi(-p, -w), and the offsets are symmetric
            out[:, j] = out[::-1, k]
        else:
            horizontal = n == 3 and abs(w[2]) <= HORIZONTAL_TOL
            owner, vals, cell = (slabs if horizontal else pencils)(w)
            out[rows, j] = np.bincount(owner, vals, len(rows)) * cell

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
    Gauss-Legendre in r, f_hat_r from the offset kernel; r_max None means
    `choose_r_max`.

    For a real sinogram the terms of omega_j and of its antipode omega_j'
    have the same real part as c_ij' e^{-2 pi i r_i x.omega_j}, so the real
    part of the sum is Re sum_i sum_{j in H} (c_ij + conj(c_ij'))
    e^{2 pi i r_i x.omega_j} over a set H of one direction of each pair,
    exactly and without using evenness.  A complex sinogram is linear in its
    real and imaginary parts and is summed as the two.  Returns the radii
    r_i, the (Q/2, n) vectors of H and, per real part of s (one, or Re and
    Im; see `_recombine`), the (R, Q/2) folded coefficients.  Raises NotEven
    for sinograms whose evenness defect exceeds the admissibility
    tolerance."""
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
    anti = s.directions.antipodal_index()
    kept = np.flatnonzero(anti > np.arange(len(anti)))
    parts = []
    for v in ((s.values.real, s.values.imag) if np.iscomplexobj(s.values)
              else (s.values,)):
        part = Sinogram(s.offsets, s.directions, v)
        c = radial[:, None] * s.directions.weights * _slice_transform(part, radii)
        parts.append(c[:, kept] + c[:, anti[kept]].conj())
    return radii, s.directions.vectors[kept], parts


def _recombine(parts):
    """One synthesis per real part of the sinogram back into one value:
    parts[0] for a real sinogram, parts[0] + i parts[1] for a complex one."""
    return sum(unit * part for unit, part in zip((1, 1j), parts))


def inverse_radon(s, grid, r_max=None):
    """Reconstruction through the Fourier-slice route.

    The real part of the inversion integral (`_inversion_quadrature`) on
    `grid`, which is the whole integral for a real sinogram: one
    direction of each antipodal pair is summed, with the folded
    coefficients, and that real part is exact.  A complex sinogram gives
    the synthesis of its real part plus i times that of its imaginary part.

    The phase separates over the axes.  Each axis is odd about its middle
    node, so per radius the factor e^{2 pi i r omega_a x} of each axis a is
    tabulated on x_k = k dx >= 0 only, by angle addition
    (`grid._phase_table`: a few ulp of each entry plus the rounding of its
    argument, as with np.exp), and the x < 0 half is its mirrored
    conjugate.  The factors of axes 2..n make one complex (Q/2, M^{n-1})
    block, whose real and imaginary parts are formed apart, each by one
    batched matmul of inner dimension 2 against the last axis's factor, so
    both are contiguous and no complex block is stored.  With the cos and
    sin of the axis-1 factor, cos.T @ Re(block) and sin.T @ Im(block) give
    that radius's term at x_1 >= 0 as their difference and at -x_1 as
    their sum: one radius per step, two GEMMs.  Raises NotEven like
    `_inversion_quadrature`.
    """
    radii, vectors, parts = _inversion_quadrature(s, r_max)
    n = s.n
    m = grid.points
    h = m // 2
    q = len(vectors)
    outs = [np.zeros((m, m ** (n - 1))) for _ in parts]
    for i, r in enumerate(radii):
        table = _phase_table(2 * np.pi * r * grid.spacing * vectors.T, h + 1)
        cos, sin = (np.ascontiguousarray(t) for t in (table[0].real,
                                                        table[0].imag))
        # the factor of axes a = 2..n on the whole axis: its x < 0 half is
        # the mirrored conjugate of the x >= 0 half
        *rest, last = [np.concatenate([e[:, :0:-1].conj(), e], axis=1)
                       for e in table[1:]]
        last = last.view(float).reshape(q, m, 2).transpose(0, 2, 1)
        for out, coef in zip(outs, parts):
            head = coef[i][:, None]
            for phase in rest:
                head = (head[:, :, None] * phase[:, None, :]).reshape(q, -1)
            # (Re, -Im) and (Im, Re) of head against (Re, Im) of last
            even = cos.T @ (np.stack([head.real, -head.imag], axis=2)
                            @ last).reshape(q, -1)
            odd = sin.T @ (np.stack([head.imag, head.real], axis=2)
                           @ last).reshape(q, -1)
            out[h:] += even - odd                # x_1 >= 0
            out[h - 1::-1] += even[1:] + odd[1:]  # x_1 < 0, mirrored
    vals = _recombine(outs).reshape((m,) * n)
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

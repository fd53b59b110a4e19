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
are padded by 3 mirrored entries at both ends, and all the nodes of a
sampled direction, on all its hyperplanes, are one 1-D spline evaluation
(6 taps a node instead of 36 in 2-D and 216 in 3-D) through the quintic's
polynomial pieces on [0, 1): `_PIECES` times a node's 6 taps is its
piece's coefficients in the fraction of its coordinate, one matrix product
for all the nodes.  In 2-D the pencils are the rows x_e = t_k of the other
axis e, and a line's nodes are its crossings with them, which step by
dt / |omega_g| along the line.

In 3-D a horizontal normal (omega_3 = 0) keeps the slab lattice instead.
For such a normal the pencils' nodes in each slab z = t_k would be the 2-D
sampler's crossings of that slab's line, and spline evaluation is linear
and separable.  `fourier.projection_compatibility_defect`, which compares
the 3-D transform on horizontal normals with the 2-D transform of the
z-marginal, would then compare two z-quadratures of one xy interpolant,
which certifies nothing about the xy sampling.  The slab lattice gives
those planes nodes the 2-D side does not share.  The samples are resampled
by R F along the slab axis z of every horizontal normal (one stack serves
them all), and F is applied along the two in-slab axes, into a (T, M, M)
stack of 2-D splines, slab k at k.  The plane meets slab k in a
line along its in-plane vector u = (-omega_2, omega_1, 0) / |.|, whose
nodes are t_j along u, so the nodes are the unsheared (t_j, t_k) lattice
of the plane, each with the cell dt^2.  Node (i, j) of offset p_i has the
same in-slab coordinates p_i omega + t_j u in every slab, and its disk
keeps a centred run |k - c| <= K_ij of the symmetric lattice t, c its
middle.  So the slab sum of node (i, j) is its spline value in the sum of
those slabs' coefficient arrays: the prefix sums over the slab stack,
summed outward from the middle slab once per transform, hold every run,
and a sampled direction gathers each node's 36 taps from the prefix sum
of its own K_ij.  Every node (i, j, k) is still evaluated on the plane's
own lattice, and only the sum over k is re-associated; this is not the
marginal route, which would integrate over z first and then interpolate
at the 2-D side's nodes.

Offsets cover [-L sqrt(n), L sqrt(n)] so every hyperplane meeting the box
is represented; rows with |p| beyond the support radius are
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
sinogram that real part is the reconstruction.  Only real sinograms are
inverted: a complex one raises ValueError.  On the grid the sum runs
ring by ring, over the kept directions whose last components are equal to
1e-12 (`grid._rings`, the rings of the direct kernel too): each ring's
field over the other axes, then the last axis of all rings by one real
GEMM pair per radius, mirrored about x_n = 0 (see `inverse_radon`).  Per
radius every phase factor, of every axis and every ring, is a row of one
table over the levels, the distinct |omega_a| to 1e-12 of the kept
directions' components and ring values.  It is tabulated by angle
addition (`grid._phase_table`), a few ulp of each entry plus the rounding
of its argument, as with np.exp.  The offset kernel `_slice_transform`
keeps np.exp, so no certificate uses the table on both sides (see the
module docstring of fourier).
"""

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import (SampledFunction, SPHERE_AREA, _nonzero_box, _phase_table,
                   _rings, _trapezoid_weights)

__all__ = [
    "Sinogram",
    "NotEven",
    "radon_transform",
    "default_offsets",
    "evenness_defect",
    "moment",
    "inverse_radon",
    "save_sinogram",
]


class NotEven(ValueError):
    """Sinogram evenness defect exceeds the admissibility tolerance."""


EVENNESS_TOL = 1e-6  # admissibility threshold for inversion and radial FT
SPLINE_ORDER = 5     # B-spline order of the resampling in radon_transform


class Sinogram:
    """Sampled Radon transform on an (offset, direction) grid.

    offsets : (P,) equispaced, symmetric about 0, P odd
    directions : DirectionSet
    values : (P, Q) array
    support_radius : radial support (values vanish for |p| beyond it); left
        out, the largest |p| of a row whose max |value| exceeds 1e-12 times
        the largest |value|, or 0.0 for the zero sinogram.  A declared
        radius is checked by the same rule: such a row beyond it raises
        ValueError
    """

    def __init__(self, offsets, directions, values, support_radius=None):
        offsets = _offset_grid(offsets)
        values = np.asarray(values)
        if values.shape != (len(offsets), len(directions)):
            raise ValueError("values shape %r does not match (P, Q)=(%d, %d)"
                             % (values.shape, len(offsets), len(directions)))
        if not np.isfinite(values).all():
            raise ValueError("sinogram values must be finite")
        rows = np.abs(values).max(axis=1)
        live = np.abs(offsets[rows > 1e-12 * rows.max()]).max(initial=0.0)
        if support_radius is None:
            support_radius = float(live)
        elif live > support_radius:
            raise ValueError("rows above 1e-12 of the largest value beyond "
                             "the declared support radius")
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
    odd (so that p=0 is a node), they are symmetric about 0 and equispaced
    (the trapezoid weights and the slice radii use one step)."""
    offsets = np.asarray(offsets, dtype=float)
    if len(offsets) % 2 == 0:
        raise ValueError("offset count must be odd so that p=0 is a node")
    tol = 1e-9 * np.abs(offsets).max()
    if np.abs(offsets + offsets[::-1]).max() > tol:
        raise ValueError("offsets must be symmetric about 0")
    step = np.diff(offsets)
    if len(step) and step.max() - step.min() > tol:
        raise ValueError("offsets must be equispaced")
    return offsets


def default_offsets(grid):
    """Symmetric offset grid over [-L sqrt(n), L sqrt(n)] at a step of at
    most the grid spacing."""
    pmax = grid.half_width * np.sqrt(grid.n)
    half = int(np.ceil(pmax / grid.spacing))
    return np.linspace(-pmax, pmax, 2 * half + 1)


# the quintic B-spline's pieces: entry (p, r) is the coefficient of f^p in
# beta_5(f - r) on 0 <= f < 1, for the taps r = -2..3 about floor(x)
_PIECES = np.array([[1, 26, 66, 26, 1, 0], [-5, -50, 0, 50, 5, 0],
                    [10, 20, -60, 20, 10, 0], [-10, 20, 0, -20, 10, 0],
                    [5, -20, 30, -20, 5, 0], [-1, 5, -10, 10, -5, 1]]) / 120


def _spline_taps(x, m):
    """The taps floor(x) - 2..floor(x) + 3 and weights (1, f, ..., f^5)
    `_PIECES`, f = x - floor(x), each (len(x), 6), of the spline on the
    coefficient nodes 0..m-1 at the coordinates x, by the edge rule of
    scipy's map_coordinates(c, [x], order=5, prefilter=False, mode="constant"):
    taps beyond an end mirror about it; x outside [0, m-1] weighs 0."""
    j = np.floor(x)
    weights = (x - j)[:, None] ** np.arange(SPLINE_ORDER + 1) @ _PIECES
    weights[(x < 0) | (x > m - 1)] = 0.0
    taps = np.abs(j.astype(int)[:, None] + np.arange(-2, 4)) % (2 * (m - 1))
    return np.minimum(taps, 2 * (m - 1) - taps), weights


def _resampling_matrix(x, m):
    """The (len(x), m) matrix that takes spline coefficients on the nodes
    0..m-1 to the spline's values at the coordinates x, by the rule of
    `_spline_taps`."""
    taps, weights = _spline_taps(x, m)
    out = np.zeros((len(x), m))
    np.add.at(out, (np.arange(len(x))[:, None], taps), weights)
    return out


# mirrored entries padded to each end of a pencil: the taps of a coordinate
# in [0, m-1] reach at most this far beyond an end
ROW_PAD = SPLINE_ORDER // 2 + 1


@functools.cache
def _prefilter_matrix(m):
    """The (m, m) matrix F of the one-axis quintic B-spline prefilter with
    mirrored ends: the inverse of the collocation matrix
    `_resampling_matrix(arange(m), m)`, which takes a spline's coefficients
    on the nodes 0..m-1 to its values there, so F @ x is the coefficient
    vector of the spline through the samples x (scipy's
    ndimage.spline_filter1d(x, order=SPLINE_ORDER)).  Made once per m and
    process, and read-only, since every caller shares it."""
    out = np.linalg.inv(_resampling_matrix(np.arange(m, dtype=float), m))
    out.setflags(write=False)
    return out


def _slab_stacks(values, t, h, L):
    """The spline interpolant of the samples `values` restricted to the
    slabs x_e = t_k of an axis e, or to the pencils (x_e, x_f) = (t_k, t_l)
    of two axes e < f, as spline coefficients by the rule of
    `_resampling_matrix`.  The n-D coefficients are the samples with the
    prefilter F = `_prefilter_matrix(M)` applied along every axis, and the
    resampling R = `_resampling_matrix` at t is linear, so a resampled axis
    contracts the samples with R F, and F is applied only along the axes a
    stack keeps: the pencil axis, or the two in-slab axes.  No n-D
    prefilter runs over the M^n samples.  Every contraction runs over the
    nonzero box of the samples (`grid._nonzero_box`), against the box's
    columns of R F or F, so it drops exact zeros only, and a kept axis
    still has its full M entries.  In 3-D the pencil stacks (0, 1) and
    (0, 2) share their first contraction, along x, so a call contracts the
    samples at most once per axis.  The 1-D stacks, stacks(e) in 2-D
    and stacks(e, f) in 3-D, are (T^(n-1), M + 2 ROW_PAD): pencil (k, l) at
    k T + l, padded by ROW_PAD mirrored entries at both ends (np.pad's
    "reflect", the mirror rule of `_spline_taps`), which hold every tap.
    stacks(e) in 3-D is (T, M, M): slab k's coefficient array at k, not
    padded.  The slabs of e are resampled along f by one batched matmul.  A
    stack is made on the first use of its axes, from values and t alone, so
    a column of the transform does not depend on the rest of the direction
    set."""
    prefilter = _prefilter_matrix(values.shape[0])
    resample = _resampling_matrix((t + L) / h, values.shape[0]) @ prefilter
    box = _nonzero_box(values)
    values = values[box]
    # the columns of each axis's box, of R F to resample it, of F to keep it
    resample = [resample[:, b] for b in box]
    prefilter = [prefilter[:, b] for b in box]
    cache = {}

    def contract(axes):
        # the 3-D pencil stacks (0, 1) and (0, 2) start from one
        # contraction along x, kept until both are made
        if axes not in ((0, 1), (0, 2)):
            return np.tensordot(resample[axes[0]], values, axes=(1, axes[0]))
        if "x" not in cache:
            cache["x"] = np.tensordot(resample[0], values, axes=(1, 0))
        return cache.pop("x") if (0, 3 - axes[1]) in cache else cache["x"]

    def stacks(*axes):
        if axes not in cache:
            stack = contract(axes)
            kept = [a for a in range(values.ndim) if a not in axes]
            if len(kept) == 2:  # the slabs of a 3-D array
                cache[axes] = prefilter[kept[0]] @ stack @ prefilter[kept[1]].T
            else:
                if len(axes) == 2:  # f > e: the slabs' first axis if f = 1
                    stack = (np.matmul(resample[1], stack) if axes[1] == 1 else
                             np.matmul(stack, resample[2].T).swapaxes(1, 2))
                    stack = stack.reshape(-1, stack.shape[2])
                cache[axes] = np.pad(stack @ prefilter[kept[0]].T,
                                     [(0, 0), (ROW_PAD, ROW_PAD)],
                                     mode="reflect")
        return cache[axes]
    return stacks


def _row_values(pencils, k, x):
    """Values of the 1-D splines whose coefficients are the padded stack
    `pencils` of `_slab_stacks`: pencil k_i at x_i grid steps (x flattened),
    0 for x outside [0, m-1].  For j = int(x) clipped to [0, m-1], `_PIECES`
    times the taps j - 2..j + 3 is the piece in f = x - j (Horner's rule)."""
    width = pencils.shape[1]
    last = width - 2 * ROW_PAD - 1  # m - 1
    j = np.clip(x.astype(int), 0, last)
    f = x - j
    coef = _PIECES @ pencils.take(k * width + ROW_PAD + j
                                  + np.arange(-2, 4)[:, None])
    vals = coef[-1] * f
    for c in coef[-2:0:-1]:
        vals += c
        vals *= f
    vals += coef[0]
    vals[(x < 0) | (x > last)] = 0.0
    return vals.ravel()


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
    pencil = np.broadcast_to(ids[:, None], (len(ids), len(p)))
    owner = np.broadcast_to(np.arange(len(p)), pencil.shape)

    def sample(w):
        g = _pencil_axis(w)
        rest = [a for a in range(n) if a != g]
        # (pencil, row i), compressed in C order: a pencil's nodes are
        # consecutive, as its coefficients are
        x = (p - (w[rest] @ lattice)[:, None]) / w[g]
        keep = norm2[:, None] + x**2 <= bound
        return (owner[keep],
                _row_values(stacks(*rest), pencil[keep], (x[keep] + L) / h),
                (t[1] - t[0]) ** (n - 1) / abs(w[g]))
    return sample


def _slab_sampler(stacks, m, p, reach, t, h, L):
    """Sampler of the planes xi(p_i, w) of a 3-D transform with a
    horizontal normal w (w_z = 0), slab by slab (see the module docstring).
    The plane's in-plane vectors are u = (-w_y, w_x, 0) / |.| and e_z, so
    it meets the slab z = t_k in the line p_i w + s u + t_k e_z, whose nodes
    s = t_j inside the disk of radius reach_i are kept, each with the cell
    dt^2.  The slabs node (i, j) keeps, t_j^2 + t_k^2 <= reach_i^2, are the
    centred run |k - c| <= K_ij of the symmetric lattice t about its middle
    c, the same for every horizontal w.  The slabs come from `stacks`, the
    `_slab_stacks` of the samples on m points an axis, and are summed
    outward from slab c once: row K of the prefix sums is the sum of the
    slabs |k - c| <= K.  Node (i, j) has the in-slab coordinates
    p_i w + t_j u in every slab, so its slab sum is the 2-D spline of row
    K_ij at them: the products of the `_spline_taps` of both axes with the
    36 taps gathered from that row.  sample(w) returns the row index i of
    each (i, j), its slab sum and the cell."""
    c = len(t) // 2
    # K_ij + 1, the kept slabs k >= c, or 0 where node (i, j) keeps none
    runs = (t[:, None]**2 + t[c:]**2 <= reach[:, None, None]**2).sum(axis=2)
    owner, node = np.nonzero(runs)
    base = (runs[owner, node, None, None] - 1) * m * m  # row K_ij's start
    slabs = stacks(2)
    # the middle slab, then the pairs c -+ K, summed into rows K = 0..c
    pairs = np.concatenate([slabs[c:c + 1], slabs[c + 1:] + slabs[c - 1::-1]])
    sums = np.cumsum(pairs, axis=0).ravel()

    def sample(w):
        u = np.array([-w[1], w[0]])
        u /= np.linalg.norm(u)
        x = (w[:2, None] * p[owner] + u[:, None] * t[node] + L) / h
        (ta, wa), (tb, wb) = (_spline_taps(xa, m) for xa in x)
        taps = sums.take(base + ta[:, :, None] * m + tb[:, None, :])
        return (owner, np.einsum("na,nab,nb->n", wa, taps, wb),
                (t[1] - t[0]) ** 2)
    return sample


def radon_transform(f, offsets=None, *, directions):
    """Radon transform of a SampledFunction on the DirectionSet
    `directions`; returns a Sinogram.

    Entry (i, j) approximates the integral of f over the hyperplane
    xi(p_i, omega_j) with respect to its Lebesgue measure.  The support
    radius of f carries over to the sinogram; no hyperplane beyond it, or
    beyond the box's corner L sqrt(n), is sampled.  A direction
    whose antipode comes earlier and is sampled the same way is not
    sampled: its column is the antipode's with the offsets reversed.

    The hyperplanes are sampled on pencils, lines along the axis g most
    aligned with omega through the nodes t of the other axes, with the
    cell dt^(n-1) / |omega_g| (see the module docstring).  In 2-D the
    pencils are the rows crossed by each line.  Each sampled direction is
    one 1-D spline evaluation on its pencils (`_row_values`).  A horizontal
    3-D normal (omega_3 = 0) is sampled instead on the slabs z = t_k, on
    the plane's unsheared (t_j, t_k) lattice with the cell dt^2, so that
    the 2-D transform of a marginal does not share its nodes.  Its in-slab
    coordinates are the same in every slab, so each node's slab sum is one
    spline evaluation in the prefix sums over the slab stack, summed once
    per call and outward from the middle slab (`_slab_sampler`).  The
    spline's prefilter is folded into the resampling of each stack and
    applied only along the axes the stack keeps (see `_slab_stacks`), so no
    n-D prefilter runs over the samples.
    """
    n = f.grid.n
    if offsets is None:
        offsets = default_offsets(f.grid)
    offsets = _offset_grid(offsets)
    if directions.n != n:
        raise ValueError("direction dimension does not match the grid")

    if np.iscomplexobj(f.values):
        re = radon_transform(
            SampledFunction(f.grid, f.values.real, f.support_radius),
            offsets, directions=directions)
        im = radon_transform(
            SampledFunction(f.grid, f.values.imag, f.support_radius),
            offsets, directions=directions)
        return Sinogram(re.offsets, re.directions, re.values + 1j * im.values,
                        re.support_radius)

    h = f.grid.spacing
    L = f.grid.half_width
    rs = min(f.support_radius, L * np.sqrt(n))
    tmax = rs + 3 * h
    # integer multiples of dt: symmetric, so w and -w keep mirrored nodes
    k = int(np.ceil(tmax / h))
    t = (tmax / k) * np.arange(-k, k + 1)

    # offset p_i, |p_i| <= rs, keeps the in-plane nodes inside the disk of
    # radius sqrt(rs^2 - p_i^2) + 3h about p_i w, beyond which the
    # integrand vanishes
    rows = np.flatnonzero(np.abs(offsets) <= rs)
    reach = np.sqrt(rs**2 - offsets[rows]**2) + 3 * h
    horizontal = (n == 3) & (directions.vectors[:, -1] == 0)
    stacks = _slab_stacks(f.values, t, h, L)
    pencils = _pencil_sampler(stacks, n, offsets[rows], reach, t, h, L)
    slabs = horizontal.any() and _slab_sampler(
        stacks, f.grid.points, offsets[rows], reach, t, h, L)

    out = np.zeros((len(offsets), len(directions)))
    partner = directions._antipodes()
    for j, w in enumerate(directions.vectors):
        k = partner[j]
        if 0 <= k < j and horizontal[k] == horizontal[j]:
            # xi(p, w) = xi(-p, -w), and the offsets are symmetric
            out[:, j] = out[::-1, k]
        else:
            owner, vals, cell = (slabs if horizontal[j] else pencils)(w)
            out[rows, j] = np.bincount(owner, vals, len(rows)) * cell

    return Sinogram(offsets, directions, out, f.support_radius)


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
    shape z.shape + (Q,).  The sum runs over the sinogram's nonzero rows
    (`grid._nonzero_box`), which drops exact zeros only.  The offset kernel
    of the slice route, never used on a direct side (see the module
    docstring of fourier)."""
    z = np.asarray(z)
    rows = _nonzero_box(s.values)[0]
    p = s.offsets[rows]
    wp = s.offset_weights()[rows] * (-2j * np.pi * p) ** deriv
    E = np.exp(-2j * np.pi * np.outer(z, p)) * wp[None, :]
    return (E @ s.values[rows]).reshape(z.shape + (len(s.directions),))


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


def _inversion_quadrature(s):
    """The one quadrature of the motion-group inversion integral
    int_0^{r_max} sum_j w_j f_hat_r(omega_j) e^{2 pi i r x.omega_j}
    sigma_n r^{n-1} dr = sum_ij c_ij e^{2 pi i r_i x.omega_j}: composite
    Gauss-Legendre in r up to the r_max of `choose_r_max`, f_hat_r from the
    offset kernel.

    For a real sinogram the terms of omega_j and of its antipode omega_j'
    have the same real part as c_ij' e^{-2 pi i r_i x.omega_j}, so the real
    part of the sum is Re sum_i sum_{j in H} (c_ij + conj(c_ij'))
    e^{2 pi i r_i x.omega_j} over a set H of one direction of each pair,
    exactly and without using evenness.  Returns the radii r_i, the
    (Q/2, n) vectors of H and the (R, Q/2) folded coefficients.  Raises
    ValueError for a complex sinogram, whose real and imaginary parts are
    to be inverted apart, and NotEven for sinograms whose evenness defect
    exceeds the admissibility tolerance."""
    from .fourier import choose_r_max

    if np.iscomplexobj(s.values):
        raise ValueError("only real sinograms are inverted: invert the real "
                         "and imaginary parts apart")
    _require_even(s)
    r_max, _ = choose_r_max(s)
    xg, wg = leggauss(RADIAL_NODES)
    nseg = max(int(np.ceil(r_max / RADIAL_PANEL)), 1)
    edges = np.linspace(0.0, r_max, nseg + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1] - edges[0])
    radii = (mid[:, None] + hw * xg[None, :]).ravel()
    wr = np.tile(hw * wg, nseg)
    radial = wr * SPHERE_AREA[s.n] * radii**(s.n - 1)
    anti = s.directions.antipodal_index()
    kept = np.flatnonzero(anti > np.arange(len(anti)))
    c = radial[:, None] * s.directions.weights * _slice_transform(s, radii)
    return radii, s.directions.vectors[kept], c[:, kept] + c[:, anti[kept]].conj()


def inverse_radon(s, grid):
    """Reconstruction of a real sinogram through the Fourier-slice route.

    The real part of the inversion integral (`_inversion_quadrature`) on
    `grid`, which is the whole integral for a real sinogram: one
    direction of each antipodal pair is summed, with the folded
    coefficients, and that real part is exact.

    The sum runs ring by ring: a ring is the kept directions whose last
    components are equal to 1e-12 (`grid._rings`).  The levels are the
    distinct |omega_a| of the phase factors' components, those of the live
    members on axes 1..n-1 and the ring values, grouped to 1e-12 by the
    same `grid._rings`; a padded ring slot adds none.  Per radius one
    table holds e^{2 pi i r a x} of every level a on x_k = k dx, k >= 0,
    by angle addition (`grid._phase_table`: a few ulp of each entry plus
    the rounding of its argument, as with np.exp), and each axis is odd
    about its middle node, so the x < 0 half of a row is the mirrored
    conjugate of its x >= 0 half.  A component w's factor e^{2 pi i r w x}
    is its level's row, read backwards for w < 0, and w differs from its
    level by roundoff, as a member's last component does from its ring's
    value.  Per radius:

    1. Each ring's field over axes 1..n-1, F_k = sum_{j in ring k} c_j
       prod_a e^{2 pi i r omega_ja x_a}, on the whole axes, from the
       members' rows: a short sum per ring in 2-D, one (M, G) x (G, M)
       product per ring in 3-D, batched over the K rings.
    2. The last axis for all K rings at once, against Z_k(x_n) =
       e^{2 pi i r c_k x_n} at x_n >= 0, the rings' rows of the table: one
       real GEMM pair, Re(F)^T Re(Z) and Im(F)^T Im(Z), of inner
       dimension K.
    3. Their difference is Re(F Z), the term at x_n >= 0, and their sum is
       Re(F conj(Z)), the term at -x_n: the mirror on the ring axis.

    That is about R K M^n multiply-adds for the last axis instead of
    R (Q/2) M^n: in 2-D a ring pairs theta with pi - theta, which about
    halves the GEMMs, and in 3-D the polar rings of `DirectionSet.sphere`
    cut them by the ring size.  The table has V angles per radius instead
    of one per member and axis and one per ring, (n - 1) K G + K: 65
    instead of 195 for circle(256), 162 instead of 621 for sphere(16).  It
    is the same sum in another order.  Raises ValueError and NotEven like
    `_inversion_quadrature`.
    """
    radii, vectors, coef = _inversion_quadrature(s)
    n = s.n
    m = grid.points
    h = m // 2
    values, members = _rings(vectors[:, -1])
    # each ring's coefficients, (R, K, G); a padded member's is 0
    coef = np.concatenate([coef, np.zeros((len(radii), 1))], axis=1)[:, members]
    # every phase's component: axes 1..n-1 of the members, then the ring
    # values; their distinct |.| to 1e-12 are the levels.  A padded member
    # (-1) reads the last kept direction, itself a member, so it adds no
    # level
    comps = np.concatenate([vectors[members, :-1].transpose(2, 0, 1).ravel(),
                            values])
    levels, groups = _rings(np.abs(comps))
    level = np.empty(len(comps), dtype=int)
    level[groups[groups >= 0]] = np.nonzero(groups >= 0)[0]
    # each component's factor on the whole axis x_k = k dx, |k| <= h, as
    # flat indices into the (V, M) level table: its level's row, read
    # backwards for a negative component (e^{-i a x} = e^{i a (-x)})
    k = np.arange(m) - h
    at = level[:, None] * m + h + np.where(comps[:, None] < 0, -k, k)
    # the members' factors, (n - 1, K, G, M)
    factors = at[:-len(values)].reshape((n - 1,) + members.shape + (m,))
    theta = 2 * np.pi * grid.spacing * levels
    # Re(F Z) at x_n >= 0 and Re(F conj(Z)) at x_n <= 0, mirrored
    pos = np.zeros((m ** (n - 1), h + 1))
    neg = np.zeros_like(pos)
    for r, c in zip(radii, coef):
        # e^{i a x} of each level a on the whole axis, (V, M): the x < 0
        # half is the mirrored conjugate of the x >= 0 half
        table = _phase_table(r * theta, h + 1)
        table = np.concatenate([table[:, :0:-1].conj(), table], axis=1)
        # each ring's field over axes 1..n-1: c^T X in 2-D, X^T diag(c) Y
        # in 3-D
        *head, tail = table.take(factors)
        field = (c[:, None, :] if n == 2 else
                 head[0].transpose(0, 2, 1) * c[:, None, :]) @ tail
        field = field.reshape(len(values), -1)
        last = table.take(at[-len(values):, h:])
        even = np.ascontiguousarray(field.real).T @ last.real
        odd = np.ascontiguousarray(field.imag).T @ last.imag
        pos += even - odd
        neg += even + odd
    out = np.concatenate([neg[:, :0:-1], pos], axis=1)
    return SampledFunction(grid, out.reshape((m,) * n))


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


"""Motion-group Fourier analysis: the vector-valued transform
f_hat_r(omega) = F_{R^n} f (r omega), the Fourier-slice identity, the
Plancherel identity with measure d tau(r) = sigma_n r^{n-1} dr, pointwise
inversion, and the marginal-projection compatibility square.

Forward convention throughout: F f (lambda) = int f(x) e^{-2 pi i x.lambda} dx.

The two sides of every defect here are computed by algorithmically
independent quadratures, each with one kernel (no FFT anywhere):
`radon._slice_transform` (Radon, then the 1-D Fourier integral in the
offset: the slice route) and `grid._direct_transform` (n-D oscillatory
quadrature on the grid: the direct route).  No certificate uses one kernel
on both sides, so no comparison is circular:

- Fourier slice: `radial_fourier` (offset) vs `fourier_on_rays` (direct).
- Extension consistency: slice extensions at complex z (offset) vs the
  direct kernel at the same z and directions (direct).
- Round trip and pointwise inversion: `radon.inverse_radon` and
  `pointwise_inversion` (offset) vs the grid samples of f (no kernel).
  Both sum the one inversion quadrature, `radon._inversion_quadrature`,
  over one direction of each antipodal pair.

The direct kernel takes all directions of a call at once.  It contracts
the grid's last axis once per ring (`grid._rings`: the directions whose
last components are equal to 1e-12, a polar ring of `DirectionSet.sphere`
or a mirror pair theta, pi - theta of `DirectionSet.circle`), at the
ring's value, then the remaining axes for all directions of the ring at
once.  That is a reordering of the same sum, up to the roundoff between a
member's last component and its ring's value, so neither side borrows
from the other.  The grid synthesis of `radon.inverse_radon` sums by the
same rings.

Each kernel sums over the nonzero box of its own input
(`grid._nonzero_box`, from the exact mask values != 0): the direct kernel
over f's samples, the offset kernel over the sinogram's rows, the Radon
transform over the samples it resamples.  Each side reads its box from its
own input, and drops exact zeros only.  `grid.integrate` and `l2_norm_sq`,
which the zeroth-moment and Plancherel records compare against, stay on
the whole grid.

The phases of an equispaced grid axis, e^{i theta k} for k = 0..M-1, are
tabulated by angle addition (`grid._phase_table`: about 2 sqrt(M)
exponentials instead of M, each entry off by a few ulp of its modulus plus
the rounding of its argument, as with np.exp) in two places only: the
direct kernel and the grid synthesis of `radon.inverse_radon`.  The
synthesis makes one table per radius, over the half axis x >= 0, of the
levels: the distinct |omega_a| to 1e-12 (`grid._rings`) of the kept
directions' components and ring values.  Every factor of every axis is a
row of it, mirrored and conjugated for x < 0 and read backwards for a
negative component.  The offset kernel and `pointwise_inversion` keep
np.exp, cos and sin.  So no
certificate uses the table on both sides: the Fourier slice and extension
consistency compare the direct side (table) with the offset side (np.exp),
and the round trip compares the synthesis with the grid samples of f,
which pass through no kernel.

`fourier_slice_defect(f, s)` and `plancherel_defect(f, s)` take f for the
direct or norm side and its sinogram s = R f for the offset side, and
`pointwise_inversion(s, x)` takes only s, so one transform serves several
certificates.
"""

import numpy as np

from .grid import (GridSpec, SampledFunction, DirectionSet, SPHERE_AREA,
                   ZeroInput, l2_norm_sq, _direct_transform,
                   _simpson_weights)
from .radon import (radon_transform, default_offsets, _require_even,
                    _inversion_quadrature, _slice_transform)

__all__ = [
    "VectorFT",
    "UnsupportedPair",
    "radial_fourier",
    "fourier_on_rays",
    "choose_r_max",
    "fourier_slice_defect",
    "plancherel_defect",
    "pointwise_inversion",
    "marginal_projection",
    "projection_compatibility_defect",
]

R_SCAN_STEP = 0.5                        # radial step of the choose_r_max scan
SLICE_RADII = np.linspace(0.0, 12.0, 25)  # radii of the Fourier-slice check
COMPAT_AZIMUTHS = 16                     # directions of the compatibility square


class UnsupportedPair(ValueError):
    pass


class VectorFT:
    """Vector-valued Fourier transform sampled on radii x directions.

    radii : (R,) equispaced, starting at 0
    values : complex (R, Q), entry (i, j) = F f (r_i omega_j)
    """

    def __init__(self, radii, directions, values):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=complex)
        if len(radii) > 1:
            dr = np.diff(radii)
            if np.any(np.abs(dr - dr[0]) > 1e-9 * abs(dr[0])):
                raise ValueError("radii must be equispaced")
        if radii[0] < 0:
            raise ValueError("radii must be >= 0")
        if values.shape != (len(radii), len(directions)):
            raise ValueError("values shape does not match (R, Q)")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        self.radii = radii
        self.directions = directions
        self.values = values


def radial_fourier(s, radii):
    """Fourier transform of the sinogram in the offset variable.

    Entry (i, j) = int s(p, omega_j) e^{-2 pi i p r_i} dp by trapezoid
    quadrature.  The sinogram must be even (NotEven otherwise).
    """
    _require_even(s)
    radii = np.asarray(radii, dtype=float)
    return VectorFT(radii, s.directions, _slice_transform(s, radii))


def fourier_on_rays(f, radii, directions):
    """F_{R^n} f (r_i omega_j) by direct oscillatory quadrature on the grid.

    One `_direct_transform` call for all directions: the grid is contracted
    once per ring of directions sharing a last component, so the largest
    intermediate is one (R, M^{n-1}) partial sum per ring.  This is the
    oracle side of the Fourier-slice check.
    """
    return _direct_transform(f, np.asarray(radii, dtype=float),
                             directions.vectors)


def choose_r_max(s, tail_fraction=1e-6):
    """Smallest radial cutoff whose Plancherel-integrand tail is below
    `tail_fraction` of the total, detected on a coarse radial scan with
    step R_SCAN_STEP.

    Returns (r_max, tail_estimate) where the tail estimate is the coarse
    quadrature of the integrand beyond the cutoff, reported rather than
    asserted (the truncation is ours, not part of the continuum identity).
    """
    n = s.n
    h_nyquist = 0.5 / (s.offsets[1] - s.offsets[0])
    coarse = np.arange(0.0, h_nyquist, R_SCAN_STEP)
    V = _slice_transform(s, coarse)
    g = SPHERE_AREA[n] * coarse**(n - 1) * ((np.abs(V) ** 2) @ s.directions.weights)
    total = np.trapezoid(g, dx=R_SCAN_STEP)
    if total == 0:
        return R_SCAN_STEP, 0.0
    # cumulative tail from the right
    tail = np.concatenate([np.cumsum(g[::-1])[::-1][1:] * R_SCAN_STEP, [0.0]])
    ok = np.nonzero(tail <= tail_fraction * total)[0]
    idx = int(ok[0]) if len(ok) else len(coarse) - 1
    idx = min(idx + 2, len(coarse) - 1)
    return float(coarse[idx]), float(tail[idx])


def _slice_radii(grid):
    """The radii of SLICE_RADII that `grid` resolves: those at most its
    Nyquist radius 1/(2h).  Beyond it the grid aliases f's transform, and
    the two sides of the slice identity part for that reason alone."""
    return SLICE_RADII[SLICE_RADII <= 0.5 / grid.spacing]


def fourier_slice_defect(f, s):
    """max |F_{R^n} f (r omega) - F_R(s)(r, omega)| over the radii
    `_slice_radii(f.grid)` and the directions of the sinogram s = R f.

    The left side is direct n-D oscillatory quadrature of f; the right side
    is the 1-D Fourier integral of s in the offset.  Their agreement is the
    Fourier-slice identity.
    """
    radii = _slice_radii(f.grid)
    direct = fourier_on_rays(f, radii, s.directions)
    sliced = radial_fourier(s, radii).values
    return float(np.abs(direct - sliced).max())


def plancherel_defect(f, s):
    """Relative Plancherel defect of f, with f_hat_r from its sinogram s.

    |  ||f||_2^2 - int_0^{r_max} sum_j w_j |f_hat_r(omega_j)|^2
       sigma_n r^{n-1} dr  |  /  ||f||_2^2,
    with sigma_2 = 2 pi, sigma_3 = 4 pi.  The radial integral is composite
    Simpson on an odd number of equispaced radii, at a step of at most
    12.8/(M-1) so that the quadrature refines together with the grid.
    """
    norm = l2_norm_sq(f)
    if norm == 0:
        raise ZeroInput("Plancherel defect undefined for the zero function")
    # cutoff well beyond the reporting rule so the truncation floor stays
    # under the radial quadrature error as the grid refines
    r_max, _ = choose_r_max(s, tail_fraction=1e-9)
    nr = int(np.ceil(r_max / (12.8 / (f.grid.points - 1))))
    if nr % 2 == 1:
        nr += 1
    radii = np.linspace(0.0, r_max, nr + 1)
    vft = radial_fourier(s, radii)
    g = (SPHERE_AREA[s.n] * radii**(s.n - 1)
         * ((np.abs(vft.values) ** 2) @ s.directions.weights))
    spectral = float(_simpson_weights(len(radii), radii[1] - radii[0]) @ g)
    return abs(norm - spectral) / norm


def pointwise_inversion(s, x):
    """Motion-group inversion integral of the real sinogram s at points x.

    int_0^{r_max} sum_j w_j f_hat_{r}(omega_j) e^{2 pi i r x.omega_j}
    sigma_n r^{n-1} dr, by the quadrature `inverse_radon` sums on the grid:
    one direction of each antipodal pair, real part exact, r_max from
    `choose_r_max`.  x may be one point (n,) or a batch (m, n).  Raises
    ValueError for a complex sinogram, like `inverse_radon`.
    """
    radii, vectors, coef = _inversion_quadrature(s)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xdotw = np.atleast_2d(x) @ vectors.T                     # (m, Q/2)
    out = np.empty(len(xdotw))
    for i, xw in enumerate(xdotw):
        theta = 2 * np.pi * np.outer(radii, xw)
        out[i] = (coef.real * np.cos(theta) - coef.imag * np.sin(theta)).sum()
    return out[0] if single else out


def marginal_projection(f):
    """Integrate out the last coordinate: C^3_2(f)(x) = int f(x, y) dy.

    Only the pair k=3 -> n=2 is supported.  The support radius does not
    increase under the projection: samples with x_1^2 + x_2^2 beyond its
    square integrate fibres that are all zero.
    """
    if f.grid.n != 3:
        raise UnsupportedPair("marginal projection implemented for k=3 -> n=2")
    vals = np.trapezoid(f.values, dx=f.grid.spacing, axis=2)
    grid2 = GridSpec(2, f.grid.half_width, f.grid.points)
    return SampledFunction(grid2, vals, f.support_radius)


def projection_compatibility_defect(f):
    """max over (p, omega in S^1 x {0}) of
    | R_{R^2}(C^3_2 f)(p, omega) - R_{R^3}(f)(p, (omega, 0)) |,
    on COMPAT_AZIMUTHS equispaced omega.

    The two routes (project-then-transform vs transform-then-restrict) are
    computed independently; their agreement is the marginal/slice
    compatibility square.  They are independent quadratures too: the 2-D
    side places its nodes where each line crosses its pencils, the rows of
    the axis other than its pencil axis g, with the cell dt / |omega_g|,
    while the 3-D side samples horizontal normals on slabs, on the
    unsheared (t_j, t_k) lattice of each plane, not on pencils (see the
    module docstring of radon).  A node's in-slab coordinates are the same
    in every slab, so each node's slab sum is one spline evaluation in the
    prefix sums over the slab stack: every node of the lattice is still
    evaluated, only the sum over the slabs is re-associated, and z is not
    integrated before the xy interpolation, as it is on the 2-D side.
    """
    if f.grid.n != 3:
        raise UnsupportedPair("compatibility check needs a 3-D input")
    q = COMPAT_AZIMUTHS
    phis = 2 * np.pi * np.arange(q) / q
    dirs3 = DirectionSet(
        np.stack([np.cos(phis), np.sin(phis), np.zeros(q)], axis=1),
        np.full(q, 1.0 / q), band_limit=0)
    dirs2 = DirectionSet.circle(q)
    offsets = default_offsets(f.grid)  # shared p grid, spans L sqrt(3)

    s3 = radon_transform(f, offsets=offsets, directions=dirs3)
    proj = marginal_projection(f)
    s2 = radon_transform(proj, offsets=offsets, directions=dirs2)
    return float(np.abs(s2.values - s3.values).max())

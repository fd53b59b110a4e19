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
- Extension consistency: slice extensions at complex z (offset) vs
  `pw.complexified_sphere_eval` at a complexified direction (direct).
- Round trip and pointwise inversion: `radon.inverse_radon` and
  `pointwise_inversion` (offset) vs the grid samples of f (no kernel).
  Both sum the one inversion quadrature, `radon._inversion_quadrature`.
"""

import numpy as np

from .grid import (GridSpec, SampledFunction, DirectionSet, SPHERE_AREA,
                   l2_norm_sq, _direct_transform)
from .radon import (radon_transform, default_offsets, _require_even,
                    _inversion_quadrature, _slice_transform)

__all__ = [
    "VectorFT",
    "ZeroFunction",
    "UnsupportedPair",
    "radial_fourier",
    "fourier_on_rays",
    "choose_r_max",
    "fourier_slice_defect",
    "plancherel_defect",
    "pointwise_inversion",
    "marginal_projection",
    "projection_compatibility_defect",
    "save_vector_ft",
]


class ZeroFunction(ValueError):
    pass


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

    @property
    def n(self):
        return self.directions.n

    def negative_radius(self):
        """Values at -r via the evenness relation F(-r)(omega) = F(r)(-omega)."""
        anti = self.directions.antipodal_index()
        return self.values[:, anti]


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

    One direction at a time, so the largest intermediate is (R, M^{n-1}).
    This is the oracle side of the Fourier-slice check.
    """
    radii = np.asarray(radii, dtype=float)
    out = np.empty((len(radii), len(directions)), dtype=complex)
    for j, w in enumerate(directions.vectors):
        out[:, j] = _direct_transform(f, radii, w)
    return out


def choose_r_max(s, tail_fraction=1e-6, coarse_step=0.5):
    """Smallest radial cutoff whose Plancherel-integrand tail is below
    `tail_fraction` of the total, detected on a coarse radial scan.

    Returns (r_max, tail_estimate) where the tail estimate is the coarse
    quadrature of the integrand beyond the cutoff, reported rather than
    asserted (the truncation is ours, not part of the continuum identity).
    """
    n = s.n
    h_nyquist = 0.5 / (s.offsets[1] - s.offsets[0])
    coarse = np.arange(0.0, h_nyquist, coarse_step)
    V = _slice_transform(s, coarse)
    g = SPHERE_AREA[n] * coarse**(n - 1) * ((np.abs(V) ** 2) @ s.directions.weights)
    total = np.trapezoid(g, dx=coarse_step)
    if total == 0:
        return coarse_step, 0.0
    # cumulative tail from the right
    tail = np.concatenate([np.cumsum(g[::-1])[::-1][1:] * coarse_step, [0.0]])
    ok = np.nonzero(tail <= tail_fraction * total)[0]
    idx = int(ok[0]) if len(ok) else len(coarse) - 1
    idx = min(idx + 2, len(coarse) - 1)
    return float(coarse[idx]), float(tail[idx])


def _simpson_weights(npts, dx):
    if npts % 2 == 0:
        raise ValueError("Simpson rule needs an odd point count")
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def fourier_slice_defect(f, directions=None, radii=None):
    """max |F_{R^n} f (r omega) - F_R(R f)(r, omega)| over a test grid.

    The left side is direct n-D oscillatory quadrature; the right side goes
    through the Radon transform.  Their agreement is the Fourier-slice
    identity.
    """
    s = radon_transform(f, directions=directions)
    if radii is None:
        radii = np.linspace(0.0, 12.0, 25)
    direct = fourier_on_rays(f, radii, s.directions)
    sliced = radial_fourier(s, radii).values
    return float(np.abs(direct - sliced).max())


def plancherel_defect(f, directions=None, dr=None, return_details=False):
    """Relative Plancherel defect for the motion-group decomposition.

    |  ||f||_2^2 - int_0^{r_max} sum_j w_j |f_hat_r(omega_j)|^2
       sigma_n r^{n-1} dr  |  /  ||f||_2^2,
    with sigma_2 = 2 pi, sigma_3 = 4 pi.  The radial integral is composite
    Simpson on equispaced radii; dr defaults to 12.8/(M-1) so the quadrature
    refines together with the grid.
    """
    norm = l2_norm_sq(f)
    if norm == 0:
        raise ZeroFunction("Plancherel defect undefined for the zero function")
    s = radon_transform(f, directions=directions)
    # cutoff well beyond the reporting rule so the truncation floor stays
    # under the radial quadrature error as the grid refines
    r_max, tail = choose_r_max(s, tail_fraction=1e-9)
    if dr is None:
        dr = 12.8 / (f.grid.points - 1)
    nr = int(np.ceil(r_max / dr))
    if nr % 2 == 1:
        nr += 1
    radii = np.linspace(0.0, r_max, nr + 1)
    vft = radial_fourier(s, radii)
    g = (SPHERE_AREA[s.n] * radii**(s.n - 1)
         * ((np.abs(vft.values) ** 2) @ s.directions.weights))
    spectral = float(_simpson_weights(len(radii), radii[1] - radii[0]) @ g)
    defect = abs(norm - spectral) / norm
    if return_details:
        return defect, {"r_max": r_max, "tail_estimate": tail,
                        "radial_points": len(radii), "norm_sq": norm,
                        "spectral_sum": spectral}
    return defect


def pointwise_inversion(f, x, directions=None, r_max=None):
    """Motion-group inversion integral evaluated at grid points x.

    int_0^{r_max} sum_j w_j f_hat_{r}(omega_j) e^{2 pi i r x.omega_j}
    sigma_n r^{n-1} dr, by the quadrature `inverse_radon` sums on the grid.
    x may be one point (n,) or a batch (m, n); returns complex values.
    """
    if directions is None:
        directions = (DirectionSet.circle(192) if f.grid.n == 2
                      else DirectionSet.sphere(12))
    s = radon_transform(f, directions=directions)
    radii, coef = _inversion_quadrature(s, r_max)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    xdotw = pts @ s.directions.vectors.T                     # (m, Q)
    out = np.empty(len(pts), dtype=complex)
    for i in range(len(pts)):
        out[i] = (coef * np.exp(2j * np.pi * np.outer(radii, xdotw[i]))).sum()
    return complex(out[0]) if single else out


def marginal_projection(f):
    """Integrate out the last coordinate: C^3_2(f)(x) = int f(x, y) dy.

    Only the pair k=3 -> n=2 is supported.  The support radius does not
    increase under the projection.
    """
    if f.grid.n != 3:
        raise UnsupportedPair("marginal projection implemented for k=3 -> n=2")
    vals = np.trapezoid(f.values, dx=f.grid.spacing, axis=2)
    grid2 = GridSpec(2, f.grid.half_width, f.grid.points)
    rs = f.support_radius
    if rs is not None:
        # samples with x_1^2+x_2^2 > rs^2 integrate fibers that are all zero
        ax2 = grid2.axis() ** 2
        vals = vals.copy()
        vals[np.add.outer(ax2, ax2) > rs**2] = 0.0
    return SampledFunction(grid2, vals, support_radius=rs)


def projection_compatibility_defect(f, n_azimuth=16):
    """max over (p, omega in S^1 x {0}) of
    | R_{R^2}(C^3_2 f)(p, omega) - R_{R^3}(f)(p, (omega, 0)) |.

    The two routes (project-then-transform vs transform-then-restrict) are
    computed independently; their agreement is the marginal/slice
    compatibility square.
    """
    if f.grid.n != 3:
        raise UnsupportedPair("compatibility check needs a 3-D input")
    phis = 2 * np.pi * np.arange(n_azimuth) / n_azimuth
    dirs3 = DirectionSet(
        np.stack([np.cos(phis), np.sin(phis), np.zeros(n_azimuth)], axis=1),
        np.full(n_azimuth, 1.0 / n_azimuth), band_limit=0)
    dirs2 = DirectionSet.circle(n_azimuth)
    offsets = default_offsets(f.grid)  # shared p grid, spans L sqrt(3)

    s3 = radon_transform(f, offsets=offsets, directions=dirs3)
    proj = marginal_projection(f)
    s2 = radon_transform(proj, offsets=offsets, directions=dirs2)
    return float(np.abs(s2.values - s3.values).max())


def save_vector_ft(vft, path):
    """CSV rows `r,omega_index,re,im`."""
    with open(path, "w") as fh:
        for i, r in enumerate(vft.radii):
            for j in range(len(vft.directions)):
                v = vft.values[i, j]
                fh.write("%.17g,%d,%.17g,%.17g\n" % (r, j, v.real, v.imag))

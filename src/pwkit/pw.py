"""Holomorphic continuation in the spectral parameter and on the
complexified sphere, growth seminorms, exponential-type support recovery,
and the moment-homogeneity certificate.

The central objects are sinogram slices p -> s(p, omega) of compactly
supported functions.  Their Fourier transforms extend to entire functions
of the spectral parameter; the support radius shows up as the exponential
type (in the e^{-2 pi i p z} convention a support radius rho gives type
2 pi rho), and the k-th offset moments must synthesize homogeneous
polynomials of degree k on the sphere, which restricted to the sphere span
exactly the harmonic degrees {k, k-2, ...}.
"""

import numpy as np

from .grid import _direct_transform, _directions_for, _real_harmonic_basis
from .radon import moment, radon_transform, _slice_transform

__all__ = [
    "ComplexGrid",
    "ComplexSpherePoint",
    "HarmonicExpansion",
    "ZeroInput",
    "complex_slice_eval",
    "pw_seminorm",
    "support_radius_estimate",
    "taylor_coefficient",
    "homogeneity_defect",
    "complexified_sphere_eval",
    "extension_consistency_defect",
    "schwartz_seminorm",
]

SUPPORT_Y_FACTORS = (3, 4, 5, 6, 7, 8)  # heights y = c / r of the support ladder
EXTENSION_DIRECTIONS = 16               # directions of the extension check


class ZeroInput(ValueError):
    pass


class ComplexGrid:
    """Rectangle [-a, a] x i[-b, b] sampled on a regular mesh."""

    def __init__(self, re_extent, im_extent, n_re=9, n_im=9):
        if re_extent <= 0 or im_extent <= 0:
            raise ValueError("extents must be positive")
        self.re_extent = float(re_extent)
        self.im_extent = float(im_extent)
        self.n_re = int(n_re)
        self.n_im = int(n_im)

    def mesh(self):
        re = np.linspace(-self.re_extent, self.re_extent, self.n_re)
        im = np.linspace(-self.im_extent, self.im_extent, self.n_im)
        return re[:, None] + 1j * im[None, :]

    def doubled_imaginary(self):
        return ComplexGrid(self.re_extent, 2 * self.im_extent, self.n_re,
                           2 * self.n_im - 1)


def _extension_mesh(grid):
    """The 9 x 9 mesh of [-a, a] x i[-0.5, 0.5] of the extension check, with
    a = min(12, 1/(2h)): the largest slice radius, clipped as in
    `fourier._slice_radii` to the Nyquist radius of `grid`."""
    return ComplexGrid(min(12.0, 0.5 / grid.spacing), 0.5, 9, 9)


class ComplexSpherePoint:
    """Point of the complexified sphere {z : z_1^2 + ... + z_n^2 = 1}.

    Parametrized by a complex polar parameter zeta (and a real azimuth for
    n=3): omega~(zeta) = (cos zeta, sin zeta) resp.
    (cos zeta, sin zeta cos phi, sin zeta sin phi).  The defining quadric
    identity holds analytically; the constructor checks it to 1e-12.
    """

    def __init__(self, zeta, azimuth=None, n=None):
        self.zeta = complex(zeta)
        self.azimuth = None if azimuth is None else float(azimuth)
        self.n = 2 if n is None and azimuth is None else (n or 3)
        v = self.vector()
        if abs((v * v).sum() - 1.0) > 1e-12:
            raise ValueError("complexified sphere identity violated")

    def vector(self):
        cz, sz = np.cos(self.zeta), np.sin(self.zeta)
        if self.n == 2:
            return np.array([cz, sz], dtype=complex)
        phi = self.azimuth or 0.0
        return np.array([cz, sz * np.cos(phi), sz * np.sin(phi)], dtype=complex)

    @classmethod
    def from_real(cls, omega):
        """Lift a real unit vector to the complexified sphere."""
        omega = np.asarray(omega, dtype=float)
        if len(omega) == 2:
            return cls(np.arctan2(omega[1], omega[0]))
        zeta = np.arccos(np.clip(omega[0], -1, 1))
        return cls(zeta, azimuth=np.arctan2(omega[2], omega[1]), n=3)


def complex_slice_eval(s, z, j):
    """Entire extension of the radial Fourier transform of one slice:
    int s(p, omega_j) e^{-2 pi i p z} dp for the sinogram's direction of
    index j.  z may be scalar or an array, j an index or an index array.

    For a slice supported in |p| <= rho the modulus is bounded by the
    quadrature mass times e^{2 pi rho |Im z|}.
    """
    out = _slice_transform(s, z)[..., j]
    return out if out.shape else complex(out)


def pw_seminorm(s, N, exp_type, cgrid):
    """Finite proxy for the growth seminorm
    sup (1 + |z|^2)^N e^{-exp_type |Im z|} |F(z, omega)|,
    maximized over the ComplexGrid mesh and all sinogram directions.

    `exp_type` is the exponential type being tested against; a slice of
    support radius rho has type 2 pi rho, so the proxy is mesh-stable for
    exp_type >= 2 pi rho and grows without bound (as the imaginary extent
    of the grid increases) for smaller values.
    """
    Z = cgrid.mesh()
    F = _slice_transform(s, Z)
    weight = (1 + np.abs(Z) ** 2) ** N * np.exp(-exp_type * np.abs(Z.imag))
    return float((weight[..., None] * np.abs(F)).max())


def support_radius_estimate(s):
    """Support radius recovered from the exponential growth of the slice
    extensions along the imaginary axis.

    For each direction, the log-derivative of F(iy) in 2 pi y is the
    growth-weighted mean offset <p>_y, which approaches the support radius
    from below; adding twice its y-derivative (the weighted variance)
    cancels the leading square-root defect of bump-type edges.  The
    estimate is the smallest such corrected value over a ladder of heights
    y = c / r, c in SUPPORT_Y_FACTORS (the positive bias decreases in y
    until the grid resolution is hit), floored by the rigorous lower bound
    max <p>_y.  r is the sinogram's declared support radius, or else the
    largest offset of a nonzero row.
    """
    amax = np.abs(s.values).max()
    if amax == 0:
        raise ZeroInput("support radius undefined for the zero sinogram")
    r_hint = s.support_radius
    if r_hint is None:
        live = np.abs(s.values).max(axis=1) > 1e-12 * amax
        r_hint = float(np.abs(s.offsets[live]).max())
    pmax = float(np.abs(s.offsets).max())
    ys = np.asarray(SUPPORT_Y_FACTORS, dtype=float) / r_hint
    # int s(p, omega) p^l e^{2 pi p y} dp, l = 0, 1, 2: the l-th z-derivative
    # of the extension at z = iy divided by (-2 pi i)^l; (Y, Q) each
    F = [(_slice_transform(s, 1j * ys, deriv=l) / (-2j * np.pi) ** l).real
         for l in range(3)]
    candidates, floors = [], []
    for y, F0, F1, F2 in zip(ys, *F):
        # only directions whose growth dominates carry signal; slices far
        # from the support edge are interpolation-noise amplified by the
        # kernel and must not feed the max below
        ok = np.isfinite(F0) & (F0 > 1e-6 * np.nanmax(F0))
        if not ok.any():
            continue
        m = F1[ok] / F0[ok]
        var = F2[ok] / F0[ok] - m**2
        phat = m + 2 * (2 * np.pi * y) * var
        sane = (var >= 0) & (np.abs(m) <= pmax) & (np.abs(phat) <= pmax)
        if not sane.any():
            continue
        candidates.append(phat[sane].max())
        floors.append(m[sane].max())
    if not candidates:
        raise ZeroInput("slice extensions vanish at every tested height")
    return float(max(min(candidates), max(floors)))


class HarmonicExpansion:
    """Spherical-harmonic coefficients of a function on the direction set.

    Coefficients are grouped per degree l <= band; the basis is orthonormal
    for the normalized measure, so Parseval reads
    sum |c|^2 = sum_j w_j |f(omega_j)|^2, which the constructor verifies
    whenever the expansion is alias-free (band within the rule's exactness).
    """

    def __init__(self, directions, coefficients, values=None):
        self.directions = directions
        self.coefficients = coefficients    # list of complex arrays per degree
        self.band = len(coefficients) - 1
        if values is not None:
            synth = self.synthesize()
            cn = self.total_power()
            qn = float(directions.weights @ (np.abs(synth) ** 2))
            if cn > 0 and abs(cn - qn) > 1e-8 * max(cn, 1.0):
                raise ValueError("Parseval consistency violated: %g vs %g"
                                 % (cn, qn))

    @classmethod
    def from_values(cls, values, directions):
        """Expansion of `values` at the direction nodes through the rule's
        band limit."""
        blocks = _real_harmonic_basis(directions, directions.band_limit)
        w = directions.weights
        coeffs = [blk @ (w * values) for blk in blocks]
        return cls(directions, coeffs, values=values)

    def synthesize(self):
        blocks = _real_harmonic_basis(self.directions, self.band)
        out = np.zeros(len(self.directions), dtype=complex)
        for c, blk in zip(self.coefficients, blocks):
            out += c @ blk
        return out

    def degree_power(self, l):
        return float(np.sum(np.abs(self.coefficients[l]) ** 2))

    def total_power(self):
        return float(sum(self.degree_power(l) for l in range(self.band + 1)))


def taylor_coefficient(s, k):
    """Expansion of omega -> (-2 pi i)^k int s(p, omega) p^k dp.

    These are the Taylor coefficients (in the spectral parameter at 0) of
    the slice extensions; for transforms of compactly supported functions
    they must be homogeneous polynomials of degree k on the sphere.
    """
    if k > 8:
        raise ValueError("moment order above 8 is numerically ill-conditioned "
                         "on the offset range")
    vals = (-2j * np.pi) ** k * moment(s, k)
    return HarmonicExpansion.from_values(vals, s.directions)


def homogeneity_defect(s, k_max):
    """Coefficient mass of the k-th Taylor expansion outside the harmonic
    degrees {k, k-2, ..., k mod 2}, relative to its total mass; maximum
    over k <= k_max.  Mass ratios of negligible moments count as zero (the
    zero sinogram has defect 0 by convention).
    """
    if k_max > 8:
        raise ValueError("k_max capped at 8")
    expansions = [taylor_coefficient(s, k) for k in range(k_max + 1)]
    totals = np.array([e.total_power() for e in expansions])
    scale = totals.max()
    if scale == 0:
        return 0.0
    worst = 0.0
    for k, e in enumerate(expansions):
        if totals[k] <= 1e-12 * scale:
            continue
        allowed = set(range(k % 2, k + 1, 2))
        bad = sum(e.degree_power(l) for l in range(e.band + 1)
                  if l not in allowed)
        worst = max(worst, bad / totals[k])
    return float(worst)


def complexified_sphere_eval(f, z, pt):
    """F(z, omega~) = int f(x) e^{-2 pi i z (omega~ . x)} dx by direct
    quadrature, where omega~ . x is the bilinear pairing (no conjugation).
    z may be scalar or an array."""
    if pt.n != f.grid.n:
        raise ValueError("sphere point dimension does not match the grid")
    out = _direct_transform(f, z, pt.vector()[None])[..., 0]
    return out if out.shape else complex(out)


def extension_consistency_defect(f):
    """The slice extensions (Radon then 1-D complex quadrature) and the
    complexified-sphere extension (direct n-D complex quadrature) continue
    the same function; this returns their maximum discrepancy over the
    complex mesh `_extension_mesh(f.grid)` times the real directions
    `_directions_for(n, EXTENSION_DIRECTIONS)`.  The direct side is one
    kernel call at the directions' own vectors, so a polar ring of the
    direction rule stays one ring of the kernel."""
    dirs = _directions_for(f.grid.n, EXTENSION_DIRECTIONS)
    s = radon_transform(f, directions=dirs)
    Z = _extension_mesh(f.grid).mesh()
    side_slice = _slice_transform(s, Z)
    side_sphere = _direct_transform(f, Z, dirs.vectors)
    return float(np.abs(side_slice - side_sphere).max())


def schwartz_seminorm(s, k, l, r_extent=12.0, n_r=49):
    """Decay seminorm on the real spectral axis:
    max over a real test grid and directions of (1+r^2)^k |d^l/dr^l F(r, omega)|.
    The derivative is computed exactly as the quadrature of
    s(p, omega) (-2 pi i p)^l e^{-2 pi i p r}."""
    rr = np.linspace(-r_extent, r_extent, n_r)
    F = _slice_transform(s, rr, deriv=l)
    weight = (1 + rr**2) ** k
    return float((weight[:, None] * np.abs(F)).max())

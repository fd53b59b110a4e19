"""Holomorphic continuation in the spectral parameter, growth seminorms,
exponential-type support recovery, and the moment-homogeneity certificate.

The central objects are sinogram slices p -> s(p, omega) of compactly
supported functions.  Their Fourier transforms extend to entire functions
of the spectral parameter; the support radius shows up as the exponential
type (in the e^{-2 pi i p z} convention a support radius rho gives type
2 pi rho), and the k-th offset moments must synthesize homogeneous
polynomials of degree k on the sphere, which restricted to the sphere span
exactly the harmonic degrees {k, k-2, ...}.  `homogeneity_defect` projects
all orders k <= k_max onto the rule's real harmonics in one product, and
refuses a rule on which that projection breaks Parseval.
"""

import numpy as np

from .grid import (ZeroInput, _direct_transform, _directions_for,
                   _real_harmonic_basis)
from .radon import moment, radon_transform, _slice_transform

__all__ = [
    "ComplexGrid",
    "complex_slice_eval",
    "pw_seminorm",
    "support_radius_estimate",
    "homogeneity_defect",
    "extension_consistency_defect",
    "schwartz_seminorm",
]

SUPPORT_Y_FACTORS = (3, 4, 5, 6, 7, 8)  # heights y = c / r of the support ladder
EXTENSION_DIRECTIONS = 16               # directions of the extension check
SCHWARTZ_RADII = np.linspace(-12.0, 12.0, 49)  # real radii of the decay check


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
    max <p>_y.  r is the sinogram's support radius, declared or derived
    from its live rows by `Sinogram` (see its docstring).
    """
    if not np.any(s.values):
        raise ZeroInput("support radius undefined for the zero sinogram")
    pmax = float(np.abs(s.offsets).max())
    ys = np.asarray(SUPPORT_Y_FACTORS, dtype=float) / s.support_radius
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


def homogeneity_defect(s, k_max):
    """Harmonic mass of the k-th Taylor coefficient
    omega -> (-2 pi i)^k int s(p, omega) p^k dp (in the spectral parameter
    at 0) outside the degrees {k, k-2, ..., k mod 2}, relative to its total
    mass; maximum over k <= k_max.  For the transform of a compactly
    supported function the coefficient is a homogeneous polynomial of
    degree k, which on the sphere spans exactly those degrees.

    The k_max + 1 coefficients are one (Q, k_max + 1) matrix, projected in
    one product onto the real harmonics of the rule through its band limit
    (orthonormal for the normalized measure).  Raises ValueError if
    Parseval fails on the synthesis of the projection, as it does when the
    rule is not exact to twice its band.  Mass ratios of negligible
    coefficients count as zero (the zero sinogram has defect 0 by
    convention).
    """
    if k_max > 8:
        raise ValueError("k_max capped at 8: higher moments are numerically "
                         "ill-conditioned on the offset range")
    blocks = _real_harmonic_basis(s.directions, s.directions.band_limit)
    basis = np.concatenate(blocks)                          # (H, Q)
    degree = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    k = np.arange(k_max + 1)
    w = s.directions.weights
    taylor = np.stack([(-2j * np.pi) ** j * moment(s, j) for j in k], axis=1)
    coeffs = basis @ (w[:, None] * taylor)                  # (H, k_max + 1)
    power = np.abs(coeffs) ** 2
    totals = power.sum(axis=0)
    gap = np.abs(totals - w @ np.abs(basis.T @ coeffs) ** 2)
    if np.any(gap > 1e-8 * np.maximum(totals, 1.0)):
        raise ValueError("Parseval consistency violated: gap %g"
                         % gap.max())
    scale = totals.max()
    if scale == 0:
        return 0.0
    allowed = (degree[:, None] <= k) & ((k - degree[:, None]) % 2 == 0)
    live = totals > 1e-12 * scale
    bad = np.where(allowed, 0.0, power).sum(axis=0)
    return float((bad[live] / totals[live]).max())


def extension_consistency_defect(f):
    """The slice extensions (Radon then 1-D complex quadrature) and the
    direct extension z -> int f(x) e^{-2 pi i z (omega . x)} dx (n-D complex
    quadrature) continue the same function; this returns their maximum
    discrepancy over the complex mesh `_extension_mesh(f.grid)` times the
    real directions `_directions_for(n, EXTENSION_DIRECTIONS)`.  The direct
    side is one kernel call at the directions' own vectors, so a polar ring
    of the direction rule stays one ring of the kernel."""
    dirs = _directions_for(f.grid.n, EXTENSION_DIRECTIONS)
    s = radon_transform(f, directions=dirs)
    Z = _extension_mesh(f.grid).mesh()
    side_slice = _slice_transform(s, Z)
    side_direct = _direct_transform(f, Z, dirs.vectors)
    return float(np.abs(side_slice - side_direct).max())


def schwartz_seminorm(s, k, l):
    """Decay seminorm on the real spectral axis:
    max over the radii SCHWARTZ_RADII and the directions of
    (1+r^2)^k |d^l/dr^l F(r, omega)|.  The derivative is computed exactly as
    the quadrature of s(p, omega) (-2 pi i p)^l e^{-2 pi i p r}."""
    F = _slice_transform(s, SCHWARTZ_RADII, deriv=l)
    weight = (1 + SCHWARTZ_RADII**2) ** k
    return float((weight[:, None] * np.abs(F)).max())

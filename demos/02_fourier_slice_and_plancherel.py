"""The Fourier-slice identity, the Plancherel sum over the spectral
parameter, and pointwise inversion.

The n-dimensional Fourier transform along a ray, F f(r omega), equals the
1-D Fourier transform (in the offset) of the Radon transform at that
direction.  The two sides below use algorithmically independent
quadratures, so their agreement is evidence, not bookkeeping.  Summing
|f_hat_r(omega)|^2 over directions with the normalized measure and
integrating against sigma_n r^{n-1} dr reproduces the squared L2 norm, and
the oscillatory inversion integral recovers point values.
"""

import numpy as np

from pwkit import (DirectionSet, GridSpec, choose_r_max, fourier_on_rays,
                   fourier_slice_defect, l2_norm_sq, make_bump,
                   plancherel_defect, pointwise_inversion, radial_fourier,
                   radon_transform)

grid = GridSpec(2, 1.5, 257)
f = make_bump([0.25, 0.1], 0.55, 1.0, grid)
dirs = DirectionSet.circle(64)

sino = radon_transform(f, directions=dirs)
print("Fourier-slice defect (direct 2-D quadrature vs Radon + 1-D): %.2e"
      % fourier_slice_defect(f, sino))

r_max, tail = choose_r_max(sino)
print("adaptive radial cutoff: r_max = %.1f (reported tail estimate %.1e)"
      % (r_max, tail))

radii = np.linspace(0.0, 6.0, 13)
vft = radial_fourier(sino, radii)
direct = fourier_on_rays(f, radii, dirs)
print("spot check along radii up to 6: max |slice - direct| = %.2e"
      % np.abs(vft.values - direct).max())

defect, info = plancherel_defect(f, sino, return_details=True)
print("\nPlancherel: ||f||_2^2 = %.8f, spectral sum = %.8f"
      % (info["norm_sq"], info["spectral_sum"]))
print("relative defect %.2e (radial points: %d)"
      % (defect, info["radial_points"]))
print("for reference l2_norm_sq(f) = %.8f" % l2_norm_sq(f))

pts = np.array([[0.25, 0.1], [0.4, 0.25], [-0.9, 0.6]])
vals = pointwise_inversion(
    radon_transform(f, directions=DirectionSet.circle(192)), pts)
print("\npointwise inversion:")
for x, v in zip(pts, vals):
    i = np.argmin(np.abs(grid.axis() - x[0]))
    j = np.argmin(np.abs(grid.axis() - x[1]))
    print("  f(%5.2f, %5.2f): inverted %.6f, sampled %.6f"
          % (x[0], x[1], v, f.values[i, j]))

"""Support radius from exponential growth, the growth dichotomy, moment
homogeneity, and the two holomorphic extensions.

The slice transforms of a function supported in a ball of radius rho are
entire of exponential type 2 pi rho: weighted sup-norms are stable when
damped at that type and blow up when damped below it.  The growth rate
along the imaginary axis recovers rho itself.  The offset moments of
the sinogram synthesize homogeneous polynomials on the sphere (harmonic
degrees k, k-2, ...), and at complex z the slice extension agrees with
the direct n-D quadrature of the same Fourier integral.
"""

import numpy as np

from pwkit import (ComplexGrid, DirectionSet, GridSpec, Sinogram,
                   default_offsets, extension_consistency_defect,
                   homogeneity_defect, make_bump, pw_seminorm,
                   radon_transform, support_radius_estimate)

grid = GridSpec(2, 1.5, 257)
dirs = DirectionSet.circle(64)

print("support radius recovered from the growth rate:")
for center, radius in ([(0.0, 0.0), 0.3], [(0.0, 0.0), 0.6],
                       [(0.25, -0.15), 0.3], [(0.1, 0.2), 0.9]):
    f = make_bump(center, radius, 1.0, grid)
    s = radon_transform(f, directions=dirs)
    est = support_radius_estimate(s)
    print("  true %.4f  estimated %.4f  (%+.2f%%)"
          % (f.support_radius, est, 100 * (est / f.support_radius - 1)))

f = make_bump([0.3, -0.2], 0.5, 1.0, grid)
s = radon_transform(f, directions=dirs)
rho = s.support_radius
base = ComplexGrid(2.0, 3.0 / rho, 9, 9)
print("\ngrowth seminorm (N=2) under doubling of the imaginary extent:")
for label, tau in (("at the critical type 2 pi rho", 2 * np.pi * rho),
                   ("damped below type (pi rho)", np.pi * rho)):
    vals = [pw_seminorm(s, 2, tau, g)
            for g in (base, base.doubled_imaginary(),
                      base.doubled_imaginary().doubled_imaginary())]
    print("  %s: %.3g -> %.3g -> %.3g" % (label, *vals))

print("\nmoment homogeneity defect (k <= 6): %.2e" % homogeneity_defect(s, 6))

p = default_offsets(grid)
th = np.arctan2(dirs.vectors[:, 1], dirs.vectors[:, 0])
violation = Sinogram(p, dirs, np.outer(np.exp(-p**2), np.cos(3 * th)))
print("hand-built violation (degree-3 angular factor): defect %.2f"
      % homogeneity_defect(violation, 0))

print("\nslice extension vs direct extension at complex z: max |diff| %.2e"
      % extension_consistency_defect(f))

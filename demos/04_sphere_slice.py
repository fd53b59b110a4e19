"""Zonal analysis on the sphere: spherical functions, the Abel-type
transform, the cosine-kernel slice identity, and the support theorem.

A rotation-invariant function on S^n is a profile F(t) of the polar
angle.  Its spherical coefficients against the normalized Gegenbauer
functions psi_m relate to the Abel transform through

    f_hat(m) = c * int_0^pi cos((m + rho) t) R(f)(t) dt,

with rho = (n-1)/2 and a single closed-form constant c for all m (pi/2 on
S^3, 2 on S^2 in this normalization).  The transform also preserves the
support angle exactly.
"""

import numpy as np

from pwkit import (cap_bump, sphere_radon, sphere_slice_constants,
                   sphere_slice_defect, sphere_support_check,
                   spherical_function, spherical_transform)
from pwkit.sphere import SLICE_CONSTANT

t = np.linspace(0.05, np.pi - 0.05, 5)
print("psi_2 on S^3 vs closed form sin(3t)/(3 sin t):")
print("  recurrence:", np.round(spherical_function(2, t, 3), 6))
print("  closed form:", np.round(np.sin(3 * t) / (3 * np.sin(t)), 6))

for n in (3, 2):
    prof = cap_bump(0.5, n)
    coeffs = spherical_transform(prof, 12)
    cm = sphere_slice_constants(prof, 12)
    print("\nS^%d polar cap (angle 0.5):" % n)
    print("  f_hat(0..4):", np.array2string(coeffs[:5], precision=6))
    print("  slice identity defect (m <= 12): %.2e"
          % sphere_slice_defect(prof, 12))
    c = SLICE_CONSTANT[n]
    print("  closed-form constant c = %.10f, max_m |c_m - c| / c: %.1e"
          % (c, np.abs(cm - c).max() / c))

print("\nsupport equivalence on S^3 (profile vs transform):")
for cap in (0.3, 0.8, 1.2):
    prof = cap_bump(cap, 3, samples=2049)
    rp, rr = sphere_support_check(prof)
    print("  cap %.1f: profile edge %.5f, transform edge %.5f (step %.5f)"
          % (cap, rp, rr, prof.step))

prof = cap_bump(0.4, 3)
vals = sphere_radon(prof)
print("\nAbel transform of the 0.4-cap vanishes beyond the cap: max %.1e"
      % np.abs(vals[prof.thetas > 0.4]).max())

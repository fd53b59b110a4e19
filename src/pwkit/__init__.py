"""pwkit: transforms of compactly supported functions (Radon, motion-group
Fourier, sphere Abel) plus exact Weyl-group invariant theory, with
numerical certificates for the support, homogeneity, growth, and
restriction identities that tie them together."""

from .grid import (GridSpec, SampledFunction, DirectionSet, BallOutsideGrid,
                   DirectionsNotAntipodal, ZeroInput, make_bump,
                   random_bump_suite, integrate, l2_norm_sq, save_function,
                   load_function)
from .radon import (Sinogram, NotEven, radon_transform, default_offsets,
                    evenness_defect, moment, inverse_radon, save_sinogram,
                    load_sinogram)
from .fourier import (VectorFT, UnsupportedPair, radial_fourier,
                      fourier_on_rays, choose_r_max, fourier_slice_defect,
                      plancherel_defect, pointwise_inversion,
                      marginal_projection, projection_compatibility_defect)
from .pw import (ComplexGrid, complex_slice_eval, pw_seminorm,
                 support_radius_estimate, homogeneity_defect,
                 extension_consistency_defect, schwartz_seminorm)
from .sphere import (ZonalProfile, UnsupportedSphereDimension, cap_bump,
                     spherical_function, spherical_transform, sphere_radon,
                     sphere_slice_defect, sphere_slice_constants,
                     sphere_support_check, save_profile, load_profile)
from .weyl import (SignedPermutation, RootSystemSpec, MultivariatePolynomial,
                   GroupTooLarge, DegreeTooLarge, NotInvariant,
                   ObstructionHit, weyl_group, group_order, stabilizer,
                   restricted_group, chevalley_generators,
                   invariant_basis, surjectivity_certificate,
                   SurjectivityCertificate, ow1_lift)

__version__ = "0.1.0"

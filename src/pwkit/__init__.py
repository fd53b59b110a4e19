"""pwkit: transforms of compactly supported functions (Radon, motion-group
Fourier, sphere Abel) plus exact Weyl-group invariant theory, with
numerical certificates for the support, homogeneity, growth, and
restriction identities that tie them together."""

# each module's __all__ is its public surface and the package's
from .grid import *
from .radon import *
from .fourier import *
from .pw import *
from .sphere import *
from .weyl import *

__version__ = "0.1.0"

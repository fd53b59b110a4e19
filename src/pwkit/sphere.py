"""Zonal harmonic analysis on the sphere S^n (n = 2 or 3): spherical
functions, the zonal Fourier transform, the Abel-type Radon transform

    R(f)(s) = (2^rho rho / pi) int_s^pi F(t) sin(t) (cos s - cos t)^(rho-1) dt,

with rho = (n-1)/2, the cosine-kernel slice identity relating the two, and
the support equivalence between a profile and its transform.

A rotation-invariant function on S^n is identified with the even profile
F(t) = f(cos t e_1 + sin t e_2) on [0, pi].  For n = 2 the Abel kernel is
weakly singular (rho = 1/2); the substitution u = cos s - cos t turns it
into u^{-1/2}, handled by Gauss-Jacobi quadrature.
"""

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline, make_interp_spline
from scipy.optimize import minimize_scalar
from scipy.special import gamma, roots_jacobi

__all__ = [
    "ZonalProfile",
    "SphericalCoefficients",
    "DegenerateCalibration",
    "UnsupportedSphereDimension",
    "cap_bump",
    "spherical_function",
    "spherical_transform",
    "sphere_radon",
    "sphere_slice_defect",
    "sphere_slice_constants",
    "sphere_support_check",
    "save_profile",
    "load_profile",
]

DEFAULT_SAMPLES = 4097
JACOBI_NODES = 96        # Gauss-Jacobi nodes of the rho = 1/2 Abel integral
EDGE_THRESHOLD = 1e-9    # support edges are detected at this fraction of the max


class DegenerateCalibration(ValueError):
    pass


class UnsupportedSphereDimension(ValueError):
    pass


class ZonalProfile:
    """Samples of a zonal (rotation-invariant) function on S^n.

    thetas : (T,) equispaced polar angles covering [0, pi]
    values : (T,) profile samples F(t)
    support_angle : optional cap angle; F vanishes beyond it
    """

    def __init__(self, n, values, support_angle=None):
        if n not in (2, 3):
            raise UnsupportedSphereDimension("sphere dimension must be 2 or 3")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 65:
            raise ValueError("profile needs at least 65 samples on [0, pi]")
        self.n = int(n)
        self.values = values
        self.thetas = np.linspace(0.0, np.pi, len(values))
        if support_angle is not None:
            if np.any(values[self.thetas > support_angle] != 0):
                raise ValueError("nonzero samples beyond the declared cap angle")
        self.support_angle = support_angle

    @property
    def rho(self):
        return (self.n - 1) / 2.0

    @property
    def step(self):
        return self.thetas[1] - self.thetas[0]


def cap_bump(t_supp, n, samples=DEFAULT_SAMPLES):
    """Smooth polar-cap profile exp(-t^2/(t_supp^2 - t^2)) on [0, t_supp)."""
    if not 0 < t_supp < np.pi:
        raise ValueError("cap angle must lie in (0, pi)")
    t = np.linspace(0.0, np.pi, samples)
    vals = np.zeros(samples)
    ins = t < t_supp
    vals[ins] = np.exp(-t[ins] ** 2 / (t_supp**2 - t[ins] ** 2))
    return ZonalProfile(n, vals, support_angle=t_supp)


def spherical_function(m, t, n):
    """Normalized zonal spherical function psi_m(t) on S^n:
    C_m^{(n-1)/2}(cos t) / C_m^{(n-1)/2}(1), so psi_m(0) = 1.

    Evaluated by the Gegenbauer three-term recurrence; for S^3 this equals
    sin((m+1) t) / ((m+1) sin t).
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    lam = (n - 1) / 2.0
    x = np.cos(np.asarray(t, dtype=float))
    prev = np.ones_like(x)
    if m == 0:
        return prev
    cur = 2 * lam * x
    for j in range(2, m + 1):
        prev, cur = cur, (2 * x * (j + lam - 1) * cur - (j + 2 * lam - 2) * prev) / j
    norm = gamma(m + 2 * lam) / (gamma(2 * lam) * gamma(m + 1))
    return cur / norm


class SphericalCoefficients:
    """Zonal Fourier coefficients f_hat(m), m = 0..m_max.

    normalization records the quadrature convention: plain integral of
    F(t) psi_m(t) sin^{n-1}(t) dt over [0, pi] (surface-measure weight,
    no sphere-area prefactor).
    """

    def __init__(self, values, n):
        self.values = np.asarray(values, dtype=float)
        self.n = n
        self.normalization = "int_0^pi F(t) psi_m(t) sin^%d(t) dt" % (n - 1)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, m):
        return self.values[m]


def spherical_transform(profile, m_max):
    """Zonal Fourier coefficients by Simpson quadrature on the theta grid.

    Simpson rather than trapezoid because the integrand has a nonzero
    derivative at t = 0 when n = 2 (the sin weight is only first order
    there), which would leave an O(dt^2) endpoint bias.
    """
    sinw = np.sin(profile.thetas) ** (profile.n - 1)
    base = profile.values * sinw
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        psi = spherical_function(m, profile.thetas, profile.n)
        out[m] = simpson(base * psi, dx=profile.step)
    return SphericalCoefficients(out, profile.n)


def _support_cut(profile):
    if profile.support_angle is not None:
        return float(profile.support_angle)
    amax = np.abs(profile.values).max()
    if amax == 0:
        return 0.0
    live = np.abs(profile.values) > 1e-15 * amax
    return float(profile.thetas[live].max())


def sphere_radon(profile, s=None):
    """Abel-type Radon transform of a zonal profile.

    With s=None returns the transform on the whole theta grid, otherwise
    the scalar value at the angle s.  For n=3 (rho=1) the kernel is 1 and
    the integral is a plain cumulative integral, evaluated from a cubic
    spline antiderivative.  For n=2 (rho=1/2) the substitution
    u = cos s - cos t yields the weight u^{-1/2} on [0, cos s - cos t_cut],
    integrated by JACOBI_NODES Gauss-Jacobi nodes; the profile is
    interpolated by a quintic spline.
    """
    rho = profile.rho
    const = 2**rho * rho / np.pi
    t = profile.thetas
    squery = t if s is None else np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((squery < 0) | (squery > np.pi)):
        raise ValueError("angle must lie in [0, pi]")
    tcut = _support_cut(profile)
    if profile.n == 3:
        anti = CubicSpline(t, profile.values * np.sin(t)).antiderivative()
        top = anti(min(tcut, np.pi))
        out = const * (top - anti(np.minimum(squery, tcut)))
        out[squery >= tcut] = 0.0
    else:
        spline = make_interp_spline(t, profile.values, k=5)
        xj, wj = roots_jacobi(JACOBI_NODES, 0.0, -0.5)
        out = np.zeros(len(squery))
        cos_cut = np.cos(tcut)
        for i, sv in enumerate(squery):
            if sv >= tcut:
                continue
            U = np.cos(sv) - cos_cut
            u = U * (xj + 1) / 2
            tt = np.arccos(np.clip(np.cos(sv) - u, -1.0, 1.0))
            # int_0^U g(u) u^{-1/2} du = sqrt(U/2) sum w_j g(u_j)
            out[i] = const * np.sqrt(U / 2.0) * (wj @ spline(tt))
    if s is None:
        return out
    return float(out[0]) if np.isscalar(s) else out


def _slice_integrals(profile, m_max):
    transform = sphere_radon(profile)
    rho = profile.rho
    t = profile.thetas
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        out[m] = simpson(np.cos((m + rho) * t) * transform, dx=profile.step)
    return out


def _slice_pair(profile, m_max):
    """Both sides (f_hat(m), I(m)), m <= m_max, of the slice identity."""
    fh = spherical_transform(profile, m_max).values
    I = _slice_integrals(profile, m_max)
    if fh[0] == 0 or I[0] == 0:
        raise DegenerateCalibration("mean coefficient vanishes; cannot calibrate")
    return fh, I


def sphere_slice_constants(profile, m_max):
    """Per-degree ratios c_m = f_hat(m) / int cos((m+rho) t) R(f)(t) dt.

    The slice identity says these are all equal; the common value is the
    calibration constant (pi/2 for S^3, 2 for S^2 in this normalization).
    """
    fh, I = _slice_pair(profile, m_max)
    return fh / I


def sphere_slice_defect(profile, m_max):
    """Relative defect of the cosine-kernel slice identity.

    Calibrates the constant at m=0 and returns
    max_{1<=m<=m_max} |f_hat(m) - c I(m)| / max_m |f_hat(m)|.
    Requires a profile supported strictly inside [0, pi).
    """
    if _support_cut(profile) >= np.pi:
        raise ValueError("slice identity check needs support strictly inside [0, pi)")
    fh, I = _slice_pair(profile, m_max)
    c = fh[0] / I[0]
    return float(np.abs(fh - c * I)[1:].max() / np.abs(fh).max())


def _edge_angle(thetas, values, prefactor_power):
    """Support angle at EDGE_THRESHOLD times the maximum, refined to sub-grid
    accuracy by fitting the vanishing model
    log g = const + prefactor_power log(d) - a/d, d = t_edge - t."""
    g = np.abs(values)
    gmax = g.max()
    if gmax == 0:
        return 0.0
    dt = thetas[1] - thetas[0]
    above = np.nonzero(g > EDGE_THRESHOLD * gmax)[0]
    icross = int(above.max())
    t_cross = thetas[icross]
    sel = np.nonzero((g > 1e-11 * gmax) & (g < 1e-2 * gmax)
                     & (thetas <= t_cross + 4 * dt)
                     & (thetas >= t_cross - 0.3))[0]
    if len(sel) < 8:
        return t_cross
    tsel = thetas[sel]
    y0 = np.log(g[sel] / gmax)

    def misfit(t_edge):
        d = t_edge - tsel
        if np.any(d <= 0):
            return 1e30
        y = y0 - prefactor_power * np.log(d)
        X = np.stack([np.ones(len(d)), 1.0 / d, d], axis=1)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        r = y - X @ coef
        return float(r @ r)

    # the edge sits a threshold-dependent physical distance beyond the
    # crossing, so the search bracket must not shrink with the grid step
    hi = t_cross + max(40 * dt, 0.06)
    res = minimize_scalar(misfit, bounds=(t_cross + 0.05 * dt, hi),
                          method="bounded", options={"xatol": 1e-7})
    return float(res.x) if np.isfinite(res.fun) and res.fun < 1e29 else t_cross


def sphere_support_check(profile):
    """Numerically detected support angles (r_profile, r_radon) of the
    profile and of its Abel transform, at EDGE_THRESHOLD times the maximum
    with sub-grid edge refinement.  The support theorem for zonal functions
    makes the two angles equal; the check is for n=3 where the vanishing
    order condition at the antipode is vacuous."""
    if profile.n != 3:
        raise UnsupportedSphereDimension("support check runs on S^3 (rho = 1)")
    if np.abs(profile.values).max() == 0:
        return 0.0, 0.0
    transform = sphere_radon(profile)
    r_prof = _edge_angle(profile.thetas, profile.values, 0.0)
    # the transform integrates the profile, adding 1 + rho powers of the
    # edge distance in front of the same exponential vanishing
    r_rad = _edge_angle(profile.thetas, transform, 1.0 + profile.rho)
    return r_prof, r_rad


def save_profile(profile, path):
    """CSV rows `t,value`."""
    with open(path, "w") as fh:
        for t, v in zip(profile.thetas, profile.values):
            fh.write("%.17g,%.17g\n" % (t, v))


def load_profile(path, n, support_angle=None):
    data = np.loadtxt(path, delimiter=",")
    t = data[:, 0]
    if abs(t[0]) > 1e-12 or abs(t[-1] - np.pi) > 1e-9:
        raise ValueError("profile grid must cover [0, pi]")
    return ZonalProfile(n, data[:, 1], support_angle=support_angle)

"""Zonal harmonic analysis on the sphere S^n (n = 2 or 3): spherical
functions, the zonal Fourier transform, the Abel-type Radon transform

    R(f)(s) = (2^rho rho / pi) int_s^pi F(t) sin(t) (cos s - cos t)^(rho-1) dt,

with rho = (n-1)/2, the cosine-kernel slice identity relating the two, and
the support equivalence between a profile and its transform.

A rotation-invariant function on S^n is identified with the even profile
F(t) = f(cos t e_1 + sin t e_2) on [0, pi].  The substitution
u = cos s - cos t turns the Abel kernel into the weight u^(rho-1), which is
weakly singular for n = 2 (rho = 1/2) and 1 for n = 3 (rho = 1); one
Gauss-Jacobi rule with beta = rho - 1 integrates it on both spheres.
"""

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import make_interp_spline
from scipy.optimize import minimize_scalar
from scipy.special import gamma, roots_jacobi

__all__ = [
    "ZonalProfile",
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
JACOBI_NODES = 96        # Gauss-Jacobi nodes of the Abel integral
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


def spherical_transform(profile, m_max):
    """Zonal Fourier coefficients f_hat(m), m = 0..m_max, as an
    (m_max + 1,) array: the plain integral of F(t) psi_m(t) sin^(n-1)(t)
    over [0, pi] (surface-measure weight, no sphere-area prefactor), by
    Simpson quadrature on the theta grid.

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
    return out


def _support_cut(profile):
    if profile.support_angle is not None:
        return float(profile.support_angle)
    amax = np.abs(profile.values).max()
    if amax == 0:
        return 0.0
    live = np.abs(profile.values) > 1e-15 * amax
    return float(profile.thetas[live].max())


def sphere_radon(profile):
    """Abel-type Radon transform of a zonal profile on its theta grid.

    The substitution u = cos s - cos t, for the cut t_cut beyond which the
    profile vanishes and U = cos s - cos t_cut, gives

        int_0^U F(arccos(cos s - u)) u^(rho-1) du
            = (U/2)^rho sum_j w_j F(t_j)

    with the JACOBI_NODES Gauss-Jacobi nodes x_j and weights w_j of the
    weight (1 + x)^(rho-1) on [-1, 1] (Gauss-Legendre for rho = 1), at
    t_j = arccos(cos s - u_j), u_j = U (x_j + 1) / 2.  F is the quintic spline interpolant of the
    profile, evaluated at all nodes of all angles s < t_cut at once; the
    transform is 0 from t_cut on.
    """
    rho = profile.rho
    t = profile.thetas
    tcut = _support_cut(profile)
    live = t < tcut
    xj, wj = roots_jacobi(JACOBI_NODES, 0.0, rho - 1.0)
    cos_s = np.cos(t[live])
    U = cos_s - np.cos(tcut)
    tj = np.arccos(np.clip(cos_s[:, None] - np.outer(U, (xj + 1) / 2),
                           -1.0, 1.0))
    spline = make_interp_spline(t, profile.values, k=5)
    out = np.zeros(len(t))
    out[live] = 2**rho * rho / np.pi * (U / 2) ** rho * (spline(tj) @ wj)
    return out


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
    fh = spherical_transform(profile, m_max)
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
    # ZonalProfile puts the values on linspace(0, pi, T)
    dt = np.diff(t)
    if np.any(np.abs(dt - dt.mean()) > 1e-9 * dt.mean()):
        raise ValueError("profile angles must be equispaced")
    return ZonalProfile(n, data[:, 1], support_angle=support_angle)

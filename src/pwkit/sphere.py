"""Zonal harmonic analysis on the sphere S^n (n = 2 or 3): spherical
functions, the zonal Fourier transform, the Abel-type Radon transform

    R(f)(s) = (2^rho rho / pi) int_s^pi F(t) sin(t) (cos s - cos t)^(rho-1) dt,

with rho = (n-1)/2, the cosine-kernel slice identity relating the two, and
the support equivalence between a profile and its transform.

A rotation-invariant function on S^n is identified with the even profile
F(t) = f(cos t e_1 + sin t e_2) on [0, pi].  The substitution
u = cos s - cos t turns the Abel kernel into the weight u^(rho-1), which is
weakly singular for n = 2 (rho = 1/2) and 1 for n = 3 (rho = 1); one
Gauss-Jacobi rule with beta = rho - 1, built from numpy's Gauss-Legendre
rule (`_jacobi_rule`), integrates it on both spheres.

The slice identity is f_hat(m) = c_n I(m), I(m) = int_0^pi cos((m + rho) s)
R(f)(s) ds, for every degree m with the one constant c_n = SLICE_CONSTANT[n].
Exchanging the integrals in I(m) leaves the inner integral
int_0^t cos((m + rho) s) (cos s - cos t)^(rho-1) ds, and
  - rho = 1/2: the Mehler-Dirichlet formula P_m(cos t) = (sqrt(2)/pi)
    int_0^t cos((m + 1/2) s) (cos s - cos t)^(-1/2) ds gives I(m) = f_hat(m)/2;
  - rho = 1: int_0^t cos((m + 1) s) ds = sin(t) psi_m(t) gives
    I(m) = (2/pi) f_hat(m).
"""

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import ZeroInput, _simpson_weights
from .radon import ROW_PAD, _prefilter_matrix, _row_values

__all__ = [
    "ZonalProfile",
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
SLICE_CONSTANT = {2: 2.0, 3: np.pi / 2}   # c_n of the slice identity on S^n
# taps of the profile prefilter: its entries fall off as |z_1|^d from the
# centre, z_1 = -0.4306 the quintic's pole, and 0.43^60 ~ 1e-22 is below
# roundoff, as is the mirror's image term in the centre row of a
# `_prefilter_matrix` this size
PREFILTER_TAPS = 121


class UnsupportedSphereDimension(ValueError):
    pass


class ZonalProfile:
    """Samples of a zonal (rotation-invariant) function on S^n.

    thetas : (T,) equispaced polar angles covering [0, pi]
    values : (T,) profile samples F(t)
    support_angle : cap angle, F vanishing beyond it; left out, the largest
        angle of a sample above 1e-15 max |F|, or 0.0 for the zero profile.
        A declared angle is checked by the same rule: a sample above
        1e-15 max |F| beyond it raises ValueError, so a profile can be
        rebuilt from its own angle
    """

    def __init__(self, n, values, support_angle=None):
        if n not in (2, 3):
            raise UnsupportedSphereDimension("sphere dimension must be 2 or 3")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 65:
            raise ValueError("profile needs at least 65 samples on [0, pi]")
        if not np.isfinite(values).all():
            raise ValueError("profile values must be finite")
        self.n = int(n)
        self.values = values
        self.thetas = np.linspace(0.0, np.pi, len(values))
        amax = np.abs(values).max()
        cut = self.thetas[np.abs(values) > 1e-15 * amax].max(initial=0.0)
        if support_angle is None:
            support_angle = cut
        elif cut > support_angle:
            raise ValueError("samples above 1e-15 max |F| beyond the declared "
                             "cap angle")
        self.support_angle = float(support_angle)

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


def _spherical_functions(m_max, t, n):
    """The normalized zonal spherical functions psi_m(t) on S^n,
    m = 0..m_max, as the rows of an (m_max + 1,) + shape(t) array: one pass
    of the Gegenbauer three-term recurrence for C_m^{(n-1)/2}(cos t), each
    degree divided by C_m^{(n-1)/2}(1) = binom(m + n - 2, m), which is
    carried along as C_j(1) = C_(j-1)(1) (j + n - 2) / j: 1 on S^2 and
    m + 1 on S^3, exactly, at every degree."""
    lam = (n - 1) / 2.0
    x = np.cos(np.asarray(t, dtype=float))
    prev, cur = np.zeros_like(x), np.ones_like(x)     # C_-1 and C_0
    at_one = 1.0                                       # C_0(1)
    out = [cur]
    for j in range(1, m_max + 1):
        prev, cur = cur, (2 * x * (j + lam - 1) * cur
                          - (j + 2 * lam - 2) * prev) / j
        at_one = at_one * (j + 2 * lam - 1) / j
        out.append(cur / at_one)
    return np.stack(out)


def spherical_function(m, t, n):
    """Normalized zonal spherical function psi_m(t) on S^n:
    C_m^{(n-1)/2}(cos t) / C_m^{(n-1)/2}(1), so psi_m(0) = 1.

    Evaluated by the Gegenbauer three-term recurrence; for S^3 this equals
    sin((m+1) t) / ((m+1) sin t).
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    return _spherical_functions(m, t, n)[m]


def spherical_transform(profile, m_max):
    """Zonal Fourier coefficients f_hat(m), m = 0..m_max, as an
    (m_max + 1,) array: the plain integral of F(t) psi_m(t) sin^(n-1)(t)
    over [0, pi] (surface-measure weight, no sphere-area prefactor), by
    Simpson quadrature on the theta grid, all degrees in one call.

    Simpson rather than trapezoid because the integrand has a nonzero
    derivative at t = 0 when n = 2 (the sin weight is only first order
    there), which would leave an O(dt^2) endpoint bias.
    """
    base = profile.values * np.sin(profile.thetas) ** (profile.n - 1)
    psi = _spherical_functions(m_max, profile.thetas, profile.n)
    return (base * psi) @ _simpson_weights(len(base), profile.step)


@functools.cache
def _jacobi_rule(rho):
    """The JACOBI_NODES-point Gauss rule (x_j, w_j) of the weight
    (1 + x)^(rho-1) on [-1, 1], rho = 1 or 1/2, from numpy's Gauss-Legendre
    rule.  For rho = 1 the weight is 1: Gauss-Legendre itself.  For
    rho = 1/2, 1 + x = 2 y^2 turns (1 + x)^(-1/2) dx into 2 sqrt(2) dy on
    [0, 1]; an even polynomial of degree < 4 JACOBI_NODES in y is a
    polynomial of degree < 2 JACOBI_NODES in x, and the Gauss-Legendre rule
    of 2 JACOBI_NODES points integrates it on [-1, 1] exactly, twice its
    integral on [0, 1].  So its positive nodes y_j and weights w_j give the
    Gauss-Jacobi rule x_j = 2 y_j^2 - 1 with the weights 2 sqrt(2) w_j.
    Made once per rho and process, and read-only, since every caller
    shares it."""
    if rho == 1:
        rule = leggauss(JACOBI_NODES)
    else:
        y, w = leggauss(2 * JACOBI_NODES)
        rule = 2 * y[JACOBI_NODES:] ** 2 - 1, 2 * np.sqrt(2) * w[JACOBI_NODES:]
    for a in rule:
        a.setflags(write=False)
    return rule


def _profile_prefilter(values):
    """The quintic B-spline coefficients of the samples with mirrored ends
    (scipy's ndimage.spline_filter1d with mode "mirror"): the centre row of
    the PREFILTER_TAPS-point `_prefilter_matrix`, convolved with the
    samples mirrored about both ends (np.pad's "reflect").  ZonalProfile's
    65 samples or more make the pad a single reflection."""
    half = PREFILTER_TAPS // 2
    return np.convolve(np.pad(values, half, mode="reflect"),
                       _prefilter_matrix(PREFILTER_TAPS)[half], mode="valid")


def sphere_radon(profile):
    """Abel-type Radon transform of a zonal profile on its theta grid.

    The substitution u = cos s - cos t, for the profile's support angle
    t_cut and U = cos s - cos t_cut, gives

        int_0^U F(arccos(cos s - u)) u^(rho-1) du
            = (U/2)^rho sum_j w_j F(t_j)

    with the `_jacobi_rule` nodes x_j and weights w_j of the weight
    (1 + x)^(rho-1) on [-1, 1], at t_j = arccos(cos s - u_j),
    u_j = U (x_j + 1) / 2.  F is the quintic B-spline interpolant of the
    profile with mirrored ends, the Radon pencils' spline: the coefficients
    are the samples prefiltered by `_profile_prefilter`, padded by ROW_PAD
    mirrored entries, and evaluated as one pencil by `radon._row_values` at
    all nodes of all angles s < t_cut at once.  A zonal profile is the
    restriction of an even 2 pi-periodic function of t, even about t = 0
    and about t = pi, so the mirror is its natural extension beyond both
    ends.  The transform is 0 from t_cut on.
    """
    rho = profile.rho
    t = profile.thetas
    tcut = profile.support_angle
    live = t < tcut
    xj, wj = _jacobi_rule(rho)
    cos_s = np.cos(t[live])
    U = cos_s - np.cos(tcut)
    tj = np.arccos(np.clip(cos_s[:, None] - np.outer(U, (xj + 1) / 2),
                           -1.0, 1.0))
    coef = np.pad(_profile_prefilter(profile.values), ROW_PAD, mode="reflect")
    # t_j <= pi, but t_j / step may round past the last node, where
    # _row_values gives 0
    x = np.clip(tj.ravel() / profile.step, 0, len(t) - 1)
    out = np.zeros(len(t))
    out[live] = (2**rho * rho / np.pi * (U / 2) ** rho
                 * (_row_values(coef[None], 0, x).reshape(tj.shape) @ wj))
    return out


def _slice_integrals(profile, m_max):
    """int cos((m + rho) t) R(f)(t) dt over [0, pi], m = 0..m_max, by
    Simpson quadrature on the theta grid, all degrees in one call."""
    m = np.arange(m_max + 1)[:, None]
    kernel = np.cos((m + profile.rho) * profile.thetas)
    return ((kernel * sphere_radon(profile))
            @ _simpson_weights(len(profile.thetas), profile.step))


def _slice_pair(profile, m_max):
    """Both sides (f_hat(m), I(m)), m <= m_max, of the slice identity."""
    if not np.any(profile.values):
        raise ZeroInput("zero profile: the slice identity compares nothing")
    return spherical_transform(profile, m_max), _slice_integrals(profile, m_max)


def sphere_slice_constants(profile, m_max):
    """Per-degree ratios c_m = f_hat(m) / int cos((m+rho) t) R(f)(t) dt.

    The slice identity says these all equal SLICE_CONSTANT[n].
    """
    fh, I = _slice_pair(profile, m_max)
    return fh / I


def sphere_slice_defect(profile, m_max):
    """Relative defect of the cosine-kernel slice identity with its
    closed-form constant c_n = SLICE_CONSTANT[n]:
    max_{0<=m<=m_max} |f_hat(m) - c_n I(m)| / max_m |f_hat(m)|.
    Requires a profile supported strictly inside [0, pi).
    """
    return _slice_defect(profile, *_slice_pair(profile, m_max))


def _slice_defect(profile, fh, I):
    """`sphere_slice_defect` of the profile from its `_slice_pair`
    (f_hat, I)."""
    if profile.support_angle >= np.pi:
        raise ValueError("slice identity check needs support strictly inside [0, pi)")
    return float(np.abs(fh - SLICE_CONSTANT[profile.n] * I).max()
                 / np.abs(fh).max())


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
    t_edge, fun = _golden_section(misfit, t_cross + 0.05 * dt, hi, 1e-7)
    return float(t_edge) if np.isfinite(fun) and fun < 1e29 else t_cross


def _golden_section(fun, lo, hi, xatol):
    """Golden-section search for a minimiser of fun on [lo, hi]: the better
    of the last two probes (x, fun(x)) once the bracket is narrower than
    xatol.  A tie drops the lower end, so a plateau at the lower end, as
    the 1e30 of `_edge_angle`'s misfit, is left behind."""
    g = (5**0.5 - 1) / 2
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = fun(a), fun(b)
    while hi - lo > xatol:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = fun(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = fun(b)
    return (a, fa) if fa < fb else (b, fb)


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


def load_profile(path, n):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("profile file needs two columns, rows `t,value`")
    t = data[:, 0]
    if abs(t[0]) > 1e-12 or abs(t[-1] - np.pi) > 1e-9:
        raise ValueError("profile grid must cover [0, pi]")
    # ZonalProfile puts the values on linspace(0, pi, T)
    dt = np.diff(t)
    if np.any(np.abs(dt - dt.mean()) > 1e-9 * dt.mean()):
        raise ValueError("profile angles must be equispaced")
    return ZonalProfile(n, data[:, 1])

"""Stationary shapes of the constrained thickness problem.

Bodies at which the average m-dimensional thickness is stationary under fixed
volume and fixed centroid are axisymmetric, and their boundary radius r(theta)
solves

    1 - lambda r^k - mu r^(k+1) cos(theta) = 0,      k = n - m,

with theta measured from the symmetry axis. The multiplier mu is tied to
lambda through a dimensionless parameter e >= 0 (eccentricity-like): e = 0 is
the sphere, 0 < e < 1 a smooth egg, e = 1 the critical shape whose meridian
touches the axis in a cusp, and e > 1 an open region. The sign convention
used throughout puts mu <= 0, which places the centroid and the cusp on the
positive side of the axis. In hyper-cylindrical coordinates the meridian is

    R^2(z) = (lambda + mu z)^(-2/k) - z^2.

Both polynomial roots solved here, the boundary radius for k >= 3 and the
negative axis crossing of the critical shape, are roots of
1 - a x^k - b x^(k+1). In s = 1/x this is s^(k+1) - a s = b, a convex
equation whose wanted root is the largest one, so both share one Newton
that falls onto it monotonically, with no bracket, array-wise over all
directions at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    NoRootError,
    OutsideSupportError,
    PoleError,
    UnboundedRegionError,
    check_int,
    check_real,
)
from .thickness import _check_section_dim

__all__ = [
    "ProfileCurve",
    "ShapeClass",
    "StationaryParams",
    "classify",
    "critical_support",
    "cusp_angle_2d",
    "cylindrical_radius",
    "ecc_from_mu",
    "factorization_residual",
    "mu_from_ecc",
    "profile_curve",
    "radial_profile",
    "support_interval",
]

RESIDUAL_TOL = 1e-10  # every returned radius is checked against this
NEWTON_TOL = 1e-13


class ShapeClass(enum.Enum):
    SPHERE = "sphere"
    EGG = "egg"
    CRITICAL = "critical"
    OPEN = "open"


def classify(ecc: float) -> ShapeClass:
    """Shape class from the eccentricity-like parameter, exact comparisons."""
    ecc = check_real(ecc, "eccentricity", inclusive=True)
    if ecc == 0.0:
        return ShapeClass.SPHERE
    if ecc < 1.0:
        return ShapeClass.EGG
    if ecc == 1.0:
        return ShapeClass.CRITICAL
    return ShapeClass.OPEN


def mu_from_ecc(k: int, lam: float, ecc: float) -> float:
    """Second multiplier from the eccentricity scaling.

    mu = -k lambda^((k+1)/k) / (k+1)^((k+1)/k) * e; at e = 1 the meridian
    R^2(z) acquires a double root on the axis.
    """
    k = check_int(k, "dimension gap n - m", 1)
    lam = check_real(lam, "lambda")
    ecc = check_real(ecc, "eccentricity", inclusive=True)
    p = (k + 1.0) / k
    return -k * lam**p / (k + 1.0) ** p * ecc


def ecc_from_mu(k: int, lam: float, mu: float) -> float:
    """Inverse of mu_from_ecc on |mu|; accepts either sign of mu."""
    k = check_int(k, "dimension gap n - m", 1)
    lam = check_real(lam, "lambda")
    mu = check_real(mu, "mu", low=None)
    p = (k + 1.0) / k
    return abs(mu) * (k + 1.0) ** p / (k * lam**p)


@dataclass(frozen=True)
class StationaryParams:
    """Full parameter set (n, m, lambda, e) of one stationary shape.

    mu is derived, never stored independently; use from_multipliers to ingest
    a (lambda, mu) pair. The profile depends on (k, lambda, e) only, with
    k = n - m; n and m additionally fix volume elements and the thickness.
    """

    n: int
    m: int
    lam: float
    ecc: float
    mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = check_int(self.n, "n", 2)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", _check_section_dim(self.m, n))
        # mu_from_ecc validates lambda and ecc
        object.__setattr__(self, "mu", mu_from_ecc(self.k, self.lam, self.ecc))

    @property
    def k(self) -> int:
        return self.n - self.m

    @property
    def shape_class(self) -> ShapeClass:
        return classify(self.ecc)

    @property
    def sphere_radius(self) -> float:
        """Radius of the e = 0 member of this family."""
        return self.lam ** (-1.0 / self.k)

    @classmethod
    def from_multipliers(cls, n: int, m: int, lam: float, mu: float) -> "StationaryParams":
        return cls(n=n, m=m, lam=lam, ecc=ecc_from_mu(n - m, lam, mu))

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "lambda": self.lam,
            "ecc": self.ecc,
            "mu": self.mu,
            "class": self.shape_class.value,
        }


@dataclass(frozen=True)
class ProfileCurve:
    """Sampled meridian of an axisymmetric stationary shape, z ascending."""

    params: StationaryParams
    z: np.ndarray
    radius: np.ndarray
    z_minus: float
    z_plus: float


def _residual(k: int, lam: float, mu: float, r, cos_t):
    return 1.0 - lam * r**k - mu * r ** (k + 1) * cos_t


def _largest_root(k: int, lam: float, c: np.ndarray) -> np.ndarray:
    """Largest root s of h(s) = s^(k+1) - lam s = c, one per entry of c.

    In s = 1/r the stationary equation reads h(s) = c with c = mu cos(theta),
    and the boundary radius, the smallest positive r, is the largest s. h is
    convex for s > 0 with its minimum at s0 = (lam/(k+1))^(1/k), so that root
    lies on the increasing branch, and Newton started at or right of it falls
    onto it monotonically with no bracket (Fourier's condition; Ostrowski,
    Solution of Equations and Systems of Equations, 1966). The start is
    the first Newton step from the sphere a = lam^(1/k), where h = 0 and
    h' = k lam, capped at a + c^(1/(k+1)), where h >= c as well, so that a
    large c > 0 does not overshoot. Each entry runs until it stops falling;
    only the entries still running are evaluated. An iterate below s0 means
    c < h(s0): within NEWTON_TOL of h(s0), relative, that is the tangency,
    whose root is s0 itself; beyond it there is no root.
    """
    s_min = (lam / (k + 1.0)) ** (1.0 / k)
    h_min = -k * lam / (k + 1.0) * s_min
    s = lam ** (1.0 / k) + np.minimum(c / (k * lam), np.maximum(c, 0.0) ** (1.0 / (k + 1)))
    out = np.empty_like(s)
    live = np.arange(s.size)
    for _ in range(100):
        low = s < s_min
        if np.any(low):
            if np.any(c[low] < (1.0 + NEWTON_TOL) * h_min):  # h_min < 0
                raise NoRootError(
                    "no positive boundary radius in this direction (open region)"
                )
            out[live[low]] = s_min
        sk = s**k
        with np.errstate(divide="ignore", invalid="ignore"):
            s_next = s - ((sk - lam) * s - c) / ((k + 1.0) * sk - lam)
        done = ~(s_next < s) & ~low
        out[live[done]] = s[done]
        keep = ~(done | low)
        live, c, s = live[keep], c[keep], s_next[keep]
        if live.size == 0:
            return out
    raise ConvergenceError(
        f"Newton iteration stalled for k={k} at {live.size} point(s), "
        f"first at s={s[0]!r} with c={c[0]!r}"
    )


def _radial_newton(params: StationaryParams, cos_t: np.ndarray) -> np.ndarray:
    """Smallest positive root of the stationary equation per direction."""
    k, lam = params.k, params.lam
    c = params.mu * cos_t
    # e cos(theta) = 1 is the double root k lam/((k+1)|c|) itself, returned
    # exactly rather than to the sqrt(eps) a double root allows
    touch = params.ecc * cos_t == 1.0
    r = np.empty_like(c)
    r[touch] = k * lam / ((k + 1.0) * -c[touch])
    r[~touch] = 1.0 / _largest_root(k, lam, c[~touch])
    return r


def radial_profile(params: StationaryParams, theta):
    """Boundary radius r(theta), theta measured from the symmetry axis.

    Closed forms for k = 1 (quadratic) and k = 2 (the real Cardano branch
    that bounds the closed region); for k >= 3 one array-wise Newton on
    s = 1/r, which falls monotonically onto the root with no bracket. Every
    returned radius is validated against the stationary equation. Open-class
    directions without a positive root raise.
    """
    theta_arr = np.asarray(theta, dtype=float)
    r = _radial_from_cos(params, np.cos(np.atleast_1d(theta_arr)))
    return float(r[0]) if theta_arr.ndim == 0 else r


def _radial_from_cos(params: StationaryParams, cos_t: np.ndarray) -> np.ndarray:
    """Boundary radii for a 1-D array of cos(theta); the core of radial_profile."""
    k, lam, mu, e = params.k, params.lam, params.mu, params.ecc
    q = e * cos_t
    if e <= 1.0:
        q = np.clip(q, -1.0, 1.0)  # guards rounding at the tangency
    elif np.any(q > 1.0):
        raise NoRootError(
            "no positive boundary radius in this direction (open region)"
        )

    if k == 1:
        r = (2.0 / lam) / (1.0 + np.sqrt(1.0 - q))
    elif k == 2:
        r = np.empty_like(q)
        trig = q >= -1.0
        ang = (math.pi - np.arccos(np.clip(q[trig], -1.0, 1.0))) / 3.0
        r[trig] = math.sqrt(3.0 / lam) / (2.0 * np.cos(ang))
        if not np.all(trig):
            # q < -1 is reachable only for open shapes; hyperbolic branch
            rho = 2.0 * np.cosh(np.arccosh(-q[~trig]) / 3.0)
            r[~trig] = math.sqrt(3.0 / lam) / rho
    else:
        r = _radial_newton(params, cos_t)

    res = np.abs(_residual(k, lam, mu, r, cos_t))
    if np.any(res > RESIDUAL_TOL):
        raise ConvergenceError(
            f"stationary-equation residual {res.max():.3e} exceeds {RESIDUAL_TOL}"
        )
    return r


def cylindrical_radius(params: StationaryParams, z):
    """Transverse meridian radius R(z) = sqrt((lambda + mu z)^(-2/k) - z^2)."""
    z_arr = np.asarray(z, dtype=float)
    single = z_arr.ndim == 0
    zz = np.atleast_1d(z_arr)
    k, lam, mu = params.k, params.lam, params.mu
    u = lam + mu * zz
    if np.any(u <= 0.0):
        raise PoleError(f"lambda + mu z <= 0 at z={zz[u <= 0.0][0]!r}")
    rsq = u ** (-2.0 / k) - zz * zz
    scale = np.maximum(u ** (-2.0 / k), zz * zz)
    bad = rsq < -1e-12 * np.maximum(scale, 1.0)
    if np.any(bad):
        raise OutsideSupportError(f"R^2 < 0 at z={zz[bad][0]!r}: outside the body")
    out = np.sqrt(np.maximum(rsq, 0.0))
    return float(out[0]) if single else out


# closed-form roots of the deflated critical polynomial on the negative side:
# 1 - (k+1)u^k - k u^(k+1) = 0 with z_- = -u z_+. Only these gaps have
# radical solutions; the k = 4 constant is the real root of 4w^3+3w^2+2w+1.
_CRITICAL_NEG_ROOT = {
    1: math.sqrt(2.0) - 1.0,
    2: 0.5,
    4: (
        3.0
        + (15.0 * (4.0 * math.sqrt(6.0) + 9.0)) ** (1.0 / 3.0)
        - (15.0 * (4.0 * math.sqrt(6.0) - 9.0)) ** (1.0 / 3.0)
    )
    / 12.0,
}


def critical_support(k: int, lam: float) -> tuple[float, float]:
    """Axis crossings (z_minus, z_plus) of the critical (e = 1) meridian.

    z_plus = ((k+1)/lambda)^(1/k) exactly (the double root w = 1 of the
    scaled polynomial). The negative crossing z_minus = -u z_plus solves
    1 - (k+1)u^k - k u^(k+1) = 0: a radical closed form where one exists
    (k in {1, 2, 4}), otherwise the radial solver on s = 1/u, where the
    crossing is h(s) = s^(k+1) - (k+1)s = k.
    """
    k = check_int(k, "dimension gap n - m", 1)
    lam = check_real(lam, "lambda")
    z_plus = ((k + 1.0) / lam) ** (1.0 / k)
    u0 = _CRITICAL_NEG_ROOT.get(k)
    if u0 is None:
        u0 = 1.0 / float(_largest_root(k, k + 1.0, np.array([float(k)]))[0])
    return -u0 * z_plus, z_plus


def support_interval(params: StationaryParams) -> tuple[float, float]:
    """z range of the body: the two axis crossings of the meridian."""
    cls = params.shape_class
    if cls is ShapeClass.OPEN:
        raise UnboundedRegionError("open shapes (e > 1) have no bounded support")
    if cls is ShapeClass.SPHERE:
        rho = params.sphere_radius
        return -rho, rho
    if cls is ShapeClass.CRITICAL:
        return critical_support(params.k, params.lam)
    # egg: the axis crossings are the polar boundary radii
    z_plus = float(radial_profile(params, 0.0))
    z_minus = -float(radial_profile(params, math.pi))
    return z_minus, z_plus


def profile_curve(params: StationaryParams, count: int) -> ProfileCurve:
    """Meridian sampled at Chebyshev-spaced z, endpoints exactly on the axis.

    Chebyshev spacing clusters samples near the endpoints, where R behaves
    like a square root (smooth cap) or meets the axis in the cusp.
    """
    count = check_int(count, "count", 2)
    z_minus, z_plus = support_interval(params)
    s = np.linspace(0.0, math.pi, count)
    z = z_minus + 0.5 * (z_plus - z_minus) * (1.0 - np.cos(s))
    z[0], z[-1] = z_minus, z_plus
    radius = cylindrical_radius(params, z)
    radius[0] = 0.0
    radius[-1] = 0.0
    return ProfileCurve(params=params, z=z, radius=radius, z_minus=z_minus, z_plus=z_plus)


def cusp_angle_2d() -> float:
    """Opening angle of the critical cusp for k = 1: 2 arctan(sqrt 2)."""
    return 2.0 * math.atan(math.sqrt(2.0))


def factorization_residual(k: int, w) -> np.ndarray:
    """Relative defect of the scaled critical polynomial factorization.

    1 - (k+1)w^k + k w^(k+1) factors exactly as (w-1)^2 times
    sum_{j=1..k} j w^(j-1); the return value is |lhs - rhs| over the largest
    term magnitude, per point.
    """
    k = check_int(k, "dimension gap n - m", 1)
    ww = np.atleast_1d(np.asarray(w, dtype=float))
    lhs = 1.0 - (k + 1.0) * ww**k + k * ww ** (k + 1)
    cof = np.zeros_like(ww)
    for j in range(k, 0, -1):
        cof = cof * ww + j
    rhs = (ww - 1.0) ** 2 * cof
    scale = np.maximum.reduce(
        [np.ones_like(ww), (k + 1.0) * np.abs(ww) ** k, k * np.abs(ww) ** (k + 1)]
    )
    return np.abs(lhs - rhs) / scale

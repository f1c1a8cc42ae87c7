"""Volume, axial moment, and thickness of stationary shapes.

Quadrature route: a stationary shape is axisymmetric, so V, M and T are
1-D integrals of its boundary radius r(t), t = cos(theta), on
geometry.zonal_rule, the one rule behind every zonal integral: Gauss-Legendre
in theta, which stays spectral at the critical cusp, where r is analytic in
sin(theta/2) but not in t. The radii come from the stationary solver
(radial_profile's core), once per node. Closed forms exist for a handful of
parameter families and are kept here as an independent cross-check;
quadrature and closed forms must agree wherever both apply.

The three quantities of one stationary shape are linearly dependent:
multiplying the stationary equation by r and integrating over the sphere
gives

    (S_{n-1}/V_m) T - lambda n V - mu (n+1) M = 0,

which doubles as a runtime self-test (see linear_identity_residual).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnboundedRegionError, check_int
from .geometry import zonal_rule
from .nsphere import unit_ball_volume, unit_sphere_area
from .stationary import ShapeClass, StationaryParams, _radial_from_cos, critical_support
from .thickness import BodyProperties

__all__ = [
    "body_properties",
    "closed_form",
    "linear_identity_residual",
    "thickness_via_identity",
]

DEFAULT_RESOLUTION = 256


def body_properties(
    params: StationaryParams, resolution: int = DEFAULT_RESOLUTION
) -> BodyProperties:
    """V, M, T of a closed stationary shape by quadrature, in one pass.

    V, M and T are the integrals of r^n / n, r^(n+1) t / (n+1) and
    (V_m / S_{n-1}) r^m over the sphere, three dot products of the boundary
    radii on zonal_rule(n, resolution).
    """
    resolution = check_int(resolution, "resolution", 2)
    if params.shape_class is ShapeClass.OPEN:
        raise UnboundedRegionError("open shapes have no finite volume")
    n, m = params.n, params.m
    t, w = zonal_rule(n, resolution)
    r = _radial_from_cos(params, t)
    vol = float(np.dot(r**n, w)) / n
    mom = float(np.dot(r ** (n + 1) * t, w)) / (n + 1)
    thick = unit_ball_volume(m) / unit_sphere_area(n - 1) * float(np.dot(r**m, w))
    return BodyProperties(volume=vol, moment=mom, thickness=thick)


def _closed_form_family_k1_n3(params: StationaryParams) -> BodyProperties:
    """Elementary triple for n=3, m=2, any 0 < e <= 1.

    The boundary is r = a / (1 + sqrt(1 - e cos theta)) with a = 2/lambda;
    the substitution s = sqrt(1 -+ e cos theta) integrates all three
    quantities in elementary terms. Accuracy degrades below e ~ 1e-6 through
    cancellation; the exact-sphere branch handles e = 0.
    """
    e, lam = params.ecc, params.lam
    a = 2.0 / lam
    sp = math.sqrt(1.0 + e)
    sm = math.sqrt(1.0 - e)

    def g(s):
        return (2.0 * s + 1.0) / (2.0 * (s + 1.0) ** 2)

    def h(s):
        return (3.0 * s + 2.0) / ((s + 1.0) ** 2)

    log_term = math.log((1.0 + sp) / (1.0 + sm))
    vol = 4.0 * math.pi * a**3 / (3.0 * e) * (g(sm) - g(sp))
    thick = math.pi * a**2 / e * (log_term + 1.0 / (1.0 + sp) - 1.0 / (1.0 + sm))
    mom = -math.pi * a**4 / e**2 * (log_term + h(sp) - h(sm))
    return BodyProperties(volume=vol, moment=mom, thickness=thick)


def _closed_form_critical_2_1(lam: float) -> BodyProperties:
    sqrt2 = math.sqrt(2.0)
    thick = 4.0 * math.log(3.0 + 2.0 * sqrt2) / (math.pi * lam)
    area = (8.0 * sqrt2 - 8.0 * math.log(1.0 + sqrt2)) / lam**2
    mom = 2.0 / 3.0 * (32.0 * sqrt2 - 24.0 * math.log(3.0 + 2.0 * sqrt2)) / lam**3
    return BodyProperties(volume=area, moment=mom, thickness=thick)


def _closed_form_critical_3_1(lam: float) -> BodyProperties:
    log2 = math.log(2.0)
    sqrt3 = math.sqrt(3.0)
    vol = 3.0 * sqrt3 * math.pi * lam**-1.5 * (log2 - 3.0 / 8.0)
    mom = 27.0 / 32.0 * math.pi * lam**-2.0 * (16.0 * log2 - 10.5)
    thick = 3.0 * sqrt3 / (4.0 * math.sqrt(lam)) * (3.0 - 2.0 * log2)
    return BodyProperties(volume=vol, moment=mom, thickness=thick)


def _closed_form_critical_5_1(lam: float, mu: float) -> BodyProperties:
    """Antiderivative evaluation between the k = 4 axis crossings.

    T is not elementary here; it follows from the linear identity, which is
    exact for stationary shapes.
    """
    z_minus, z_plus = critical_support(4, lam)

    def anti_v(z):
        u = lam + mu * z
        poly = 12.0 * mu**2 * z**2 - 16.0 * lam * mu * z + 32.0 * lam**2
        return math.log(u) / mu + z**5 / 5.0 - math.sqrt(u) * poly / (15.0 * mu**3)

    def anti_m(z):
        u = lam + mu * z
        poly = (
            120.0 * mu**3 * z**3
            - 144.0 * lam * mu**2 * z**2
            + 192.0 * lam**2 * mu * z
            - 384.0 * lam**3
        )
        return (
            z / mu
            - lam * math.log(u) / mu**2
            + z**6 / 6.0
            - math.sqrt(u) * poly / (210.0 * mu**4)
        )

    v4 = unit_ball_volume(4)
    vol = v4 * (anti_v(z_plus) - anti_v(z_minus))
    mom = v4 * (anti_m(z_plus) - anti_m(z_minus))
    thick = thickness_via_identity(StationaryParams(n=5, m=1, lam=lam, ecc=1.0), vol, mom)
    return BodyProperties(volume=vol, moment=mom, thickness=thick)


def closed_form(params: StationaryParams) -> BodyProperties | None:
    """Closed-form (V, M, T) where an elementary expression exists, else None.

    Covered: any sphere (e = 0); the n=3, m=2 family for all 0 < e <= 1; and
    the critical shapes of (n, m) = (2, 1), (3, 1), (5, 1). Values follow
    this library's orientation convention (centroid on the positive axis, so
    M >= 0 for e >= 0).
    """
    n, m, e, lam = params.n, params.m, params.ecc, params.lam
    if e == 0.0:
        r = params.sphere_radius
        return BodyProperties(
            volume=unit_ball_volume(n) * r**n,
            moment=0.0,
            thickness=unit_ball_volume(m) * r**m,
        )
    if (n, m) == (3, 2) and e <= 1.0:
        return _closed_form_family_k1_n3(params)
    if e == 1.0:
        if (n, m) == (2, 1):
            return _closed_form_critical_2_1(lam)
        if (n, m) == (3, 1):
            return _closed_form_critical_3_1(lam)
        if (n, m) == (5, 1):
            return _closed_form_critical_5_1(lam, params.mu)
    return None


def linear_identity_residual(props: BodyProperties, params: StationaryParams) -> float:
    """(S_{n-1}/V_m) T - lambda n V - mu (n+1) M; near zero for stationary shapes."""
    n, m = params.n, params.m
    lead = unit_sphere_area(n - 1) / unit_ball_volume(m) * props.thickness
    return lead - params.lam * n * props.volume - params.mu * (n + 1) * props.moment


def thickness_via_identity(params: StationaryParams, vol: float, mom: float) -> float:
    """T implied by the linear identity from the volume and moment."""
    n, m = params.n, params.m
    coef = unit_ball_volume(m) / unit_sphere_area(n - 1)
    return coef * (params.lam * n * vol + params.mu * (n + 1) * mom)

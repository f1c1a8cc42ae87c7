import math

import numpy as np
import pytest

from hyperthick import (
    BodyProperties,
    StationaryParams,
    body_properties,
    closed_form,
    cylindrical_radius,
    linear_identity_residual,
    support_interval,
    thickness_via_identity,
    unit_ball_volume,
    unit_sphere_area,
)
from hyperthick.errors import DomainError, UnboundedRegionError
from hyperthick.geometry import legendre_angles

# Frozen 40-digit-arithmetic oracle values for the cusped shapes at lam = 1,
# computed once from the defining integrals with an independent
# high-precision stack and pinned here.
CRITICAL_12 = {"T": 2.2443994093567206, "A": 4.262719802828416, "M": 1.965934546000651}
CRITICAL_13 = {"V": 5.193496384492839, "M": 1.5648648037015542}
CRITICAL_15 = {
    "mu": -0.5349922439811376,
    "z_plus": 1.4953487812212205,
    "z_minus": -0.905926533334383,
    "V": 6.046361276816982,
    "M": 1.085322554673421,
    "T": 2.032602098569737,
}
# (m, n) = (2, 3) egg family at lam = 1, same oracle, rounded to 6 decimals
EGG_23 = {
    0.25: (4.239065, 0.269417, 3.162460),
    0.50: (4.406228, 0.591748, 3.230702),
    0.75: (4.763339, 1.076183, 3.370720),
    0.95: (5.399702, 1.890887, 3.600691),
}


def test_sphere_properties_are_exact():
    for n, m, lam in ((3, 1, 1.0), (4, 2, 0.7), (6, 3, 2.2)):
        p = StationaryParams(n=n, m=m, lam=lam, ecc=0.0)
        rho = p.sphere_radius
        got = body_properties(p, 128)
        assert got.volume == pytest.approx(unit_ball_volume(n) * rho**n, rel=1e-12)
        assert abs(got.moment) < 1e-13 * got.volume
        assert got.thickness == pytest.approx(unit_ball_volume(m) * rho**m, rel=1e-12)
        cf = closed_form(p)
        assert cf.volume == pytest.approx(got.volume, rel=1e-12)
        assert cf.moment == 0.0
        assert cf.thickness == pytest.approx(got.thickness, rel=1e-12)


@pytest.mark.parametrize("ecc", sorted(EGG_23))
def test_egg_family_against_frozen_oracle(ecc):
    p = StationaryParams(n=3, m=2, lam=1.0, ecc=ecc)
    v, mom, t = EGG_23[ecc]
    got = body_properties(p, 256)
    assert got.volume == pytest.approx(v, abs=1.5e-6)
    assert got.moment == pytest.approx(mom, abs=1.5e-6)
    assert got.thickness == pytest.approx(t, abs=1.5e-6)
    cf = closed_form(p)
    assert cf.volume == pytest.approx(got.volume, rel=1e-11)
    assert cf.moment == pytest.approx(got.moment, rel=1e-10)
    assert cf.thickness == pytest.approx(got.thickness, rel=1e-11)


def test_egg_family_small_eccentricity_is_stable():
    # the closed forms have 1/e and 1/e^2 prefactors; make sure the
    # implementation stays usable toward the sphere limit
    p = StationaryParams(n=3, m=2, lam=1.0, ecc=1e-4)
    got = body_properties(p, 256)
    cf = closed_form(p)
    assert cf.volume == pytest.approx(got.volume, rel=1e-7)
    assert cf.thickness == pytest.approx(got.thickness, rel=1e-7)
    assert got.volume == pytest.approx(4.0 * math.pi / 3.0, rel=1e-3)


def test_critical_two_dimensional_against_frozen_oracle():
    p = StationaryParams(n=2, m=1, lam=1.0, ecc=1.0)
    got = body_properties(p, 512)
    cf = closed_form(p)
    assert cf.thickness == pytest.approx(CRITICAL_12["T"], rel=1e-13)
    assert cf.volume == pytest.approx(CRITICAL_12["A"], rel=1e-13)
    assert cf.moment == pytest.approx(CRITICAL_12["M"], rel=1e-13)
    assert got.thickness == pytest.approx(cf.thickness, rel=1e-9)
    assert got.volume == pytest.approx(cf.volume, rel=1e-9)
    assert got.moment == pytest.approx(cf.moment, rel=1e-9)


def test_critical_three_dimensional_against_frozen_oracle():
    p = StationaryParams(n=3, m=1, lam=1.0, ecc=1.0)
    cf = closed_form(p)
    assert cf.volume == pytest.approx(CRITICAL_13["V"], rel=1e-13)
    assert cf.moment == pytest.approx(CRITICAL_13["M"], rel=1e-13)
    # closed thickness: (3 sqrt(3) / 4)(3 - 2 ln 2) at lam = 1
    assert cf.thickness == pytest.approx(
        3.0 * math.sqrt(3.0) / 4.0 * (3.0 - 2.0 * math.log(2.0)), rel=1e-13
    )
    got = body_properties(p, 256)
    assert got.volume == pytest.approx(cf.volume, rel=1e-10)
    assert got.moment == pytest.approx(cf.moment, rel=1e-10)
    assert got.thickness == pytest.approx(cf.thickness, rel=1e-10)


def test_critical_five_dimensional_against_frozen_oracle():
    p = StationaryParams(n=5, m=1, lam=1.0, ecc=1.0)
    assert p.mu == pytest.approx(CRITICAL_15["mu"], rel=1e-14)
    cf = closed_form(p)
    assert cf.volume == pytest.approx(CRITICAL_15["V"], rel=1e-12)
    assert cf.moment == pytest.approx(CRITICAL_15["M"], rel=1e-12)
    assert cf.thickness == pytest.approx(CRITICAL_15["T"], rel=1e-12)
    got = body_properties(p, 256)
    assert got.volume == pytest.approx(cf.volume, rel=1e-9)
    assert got.moment == pytest.approx(cf.moment, rel=1e-9)
    assert got.thickness == pytest.approx(cf.thickness, rel=1e-9)


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize(
    "n,m,ecc", [(3, 2, 0.5), (3, 1, 1.0), (5, 2, 0.8), (4, 1, 1.0)]
)
def test_scaling_law(n, m, ecc, scale):
    # lam -> lam / s^k dilates the shape by s
    k = n - m
    base = body_properties(StationaryParams(n=n, m=m, lam=1.1, ecc=ecc), 256)
    big = body_properties(
        StationaryParams(n=n, m=m, lam=1.1 / scale**k, ecc=ecc), 256
    )
    assert big.volume == pytest.approx(scale**n * base.volume, rel=1e-9)
    assert big.moment == pytest.approx(scale ** (n + 1) * base.moment, rel=1e-9)
    assert big.thickness == pytest.approx(scale**m * base.thickness, rel=1e-9)


def test_moment_positive_toward_cusp():
    for ecc in (0.2, 0.6, 1.0):
        p = StationaryParams(n=3, m=1, lam=1.0, ecc=ecc)
        assert body_properties(p, 128).moment > 0.0
    sphere = body_properties(StationaryParams(n=3, m=1, lam=1.0, ecc=0.0), 128)
    assert abs(sphere.moment) < 1e-14


def test_identity_residual_small_across_family():
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (6, 2)):
        for ecc in (0.0, 0.4, 1.0):
            for lam in (0.6, 1.0, 1.9):
                p = StationaryParams(n=n, m=m, lam=lam, ecc=ecc)
                props = body_properties(p, 256)
                scale = unit_sphere_area(n - 1) / unit_ball_volume(m) * props.thickness
                assert abs(linear_identity_residual(props, p)) < 1e-9 * scale


def test_thickness_via_identity_matches_direct():
    p = StationaryParams(n=4, m=2, lam=1.3, ecc=0.7)
    props = body_properties(p, 256)
    t = thickness_via_identity(p, props.volume, props.moment)
    assert t == pytest.approx(props.thickness, rel=1e-10)


def test_quadrature_is_spectrally_converged():
    p = StationaryParams(n=3, m=2, lam=1.0, ecc=0.9)
    coarse = body_properties(p, 64)
    fine = body_properties(p, 256)
    assert coarse.volume == pytest.approx(fine.volume, rel=1e-11)
    assert coarse.moment == pytest.approx(fine.moment, rel=1e-10)
    assert coarse.thickness == pytest.approx(fine.thickness, rel=1e-11)


def test_closed_form_coverage():
    assert closed_form(StationaryParams(n=4, m=2, lam=1.0, ecc=0.5)) is None
    assert closed_form(StationaryParams(n=4, m=1, lam=1.0, ecc=1.0)) is None
    got = closed_form(StationaryParams(n=6, m=3, lam=2.0, ecc=0.0))
    assert isinstance(got, BodyProperties)


def test_open_region_is_rejected():
    p = StationaryParams(n=3, m=1, lam=1.0, ecc=1.01)
    with pytest.raises(UnboundedRegionError):
        body_properties(p, 128)


def test_resolution_validation():
    p = StationaryParams(n=3, m=1, lam=1.0, ecc=0.5)
    for bad in (0, -8, 2.5):
        with pytest.raises(DomainError):
            body_properties(p, bad)


def z_route(params, resolution):
    """V, M, T by Gauss-Legendre in the axial coordinate z, the route
    body_properties took before it moved to the zonal rule in theta.

    The substitution z = z_- + (dz/2)(1 - cos s) flattens the square-root
    behaviour of the meridian R(z) at both axis crossings. V and M are
    V_{n-1} times the integrals of R^(n-1) and R^(n-1) z; T integrates
    r^m sin^(n-3)(theta) against d(cos theta)/dz, all explicit in z with
    r = (lambda + mu z)^(-1/k). Valid for n >= 3.
    """
    n, m, k = params.n, params.m, params.k
    z_minus, z_plus = support_interval(params)
    s, ws = legendre_angles(resolution)
    half = 0.5 * (z_plus - z_minus)
    z = z_minus + half * (1.0 - np.cos(s))
    dz = half * np.sin(s) * ws
    rc = cylindrical_radius(params, z)
    r_pow = rc ** (n - 1)
    vol = unit_ball_volume(n - 1) * float(np.dot(r_pow, dz))
    mom = unit_ball_volume(n - 1) * float(np.dot(r_pow * z, dz))
    u = params.lam + params.mu * z
    root = u ** (1.0 / k)  # 1/r
    dcos = root + (params.mu * z / k) * (root / u)
    ray = unit_sphere_area(n - 2) * float(np.dot(root**-m * (rc * root) ** (n - 3) * dcos, dz))
    return BodyProperties(vol, mom, unit_ball_volume(m) / unit_sphere_area(n - 1) * ray)


@pytest.mark.parametrize(
    "n,m,ecc",
    [
        (3, 1, 0.0), (3, 1, 0.6), (3, 2, 0.95), (4, 1, 0.5), (4, 2, 0.9),
        (5, 2, 0.7), (6, 1, 0.3), (7, 3, 0.8), (7, 1, 0.99),
        # the critical cusp for k = 2, 3, 4
        (3, 1, 1.0), (5, 3, 1.0), (4, 1, 1.0), (6, 3, 1.0), (5, 1, 1.0), (7, 3, 1.0),
    ],
)
def test_z_route_thickness_matches_theta_route(n, m, ecc):
    p = StationaryParams(n=n, m=m, lam=1.3, ecc=ecc)
    got, oracle = body_properties(p), z_route(p, 256)
    assert got.volume == pytest.approx(oracle.volume, rel=1e-13)
    # the moment relative to V times the body's length scale: the sphere's is 0
    assert abs(got.moment - oracle.moment) <= 1e-13 * oracle.volume ** (1.0 + 1.0 / n)
    assert got.thickness == pytest.approx(oracle.thickness, rel=1e-13)

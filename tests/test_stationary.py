import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hyperthick import (
    ProfileCurve,
    ShapeClass,
    StationaryParams,
    classify,
    critical_support,
    cusp_angle_2d,
    cylindrical_radius,
    ecc_from_mu,
    factorization_residual,
    mu_from_ecc,
    profile_curve,
    radial_profile,
    support_interval,
)
from hyperthick.errors import (
    ConvergenceError,
    DomainError,
    NoRootError,
    OutsideSupportError,
    PoleError,
    UnboundedRegionError,
)
from hyperthick.stationary import _CRITICAL_NEG_ROOT, _largest_root, _radial_from_cos, _radial_newton


def radial_oracle(k, lam, mu, cos_t):
    """Independent root of 1 - lam r^k - mu r^(k+1) cos_t: companion-matrix
    eigenvalues, smallest positive real root (the first boundary crossing)."""
    coeffs = np.zeros(k + 2)
    coeffs[0] = -mu * cos_t
    coeffs[1] = -lam
    coeffs[-1] = 1.0
    # a vanishing leading coefficient (cos_t ~ 0) ruins companion-matrix
    # conditioning; the induced root shift is far below test tolerance
    while abs(coeffs[0]) < 1e-13 * np.abs(coeffs).max():
        coeffs = coeffs[1:]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8 * np.abs(roots)].real
    positive = real[real > 0.0]
    assert positive.size, "oracle found no positive real root"
    return float(positive.min())


def test_classify_boundaries():
    assert classify(0.0) is ShapeClass.SPHERE
    assert classify(1e-12) is ShapeClass.EGG
    assert classify(0.999999) is ShapeClass.EGG
    assert classify(1.0) is ShapeClass.CRITICAL
    assert classify(math.nextafter(1.0, 2.0)) is ShapeClass.OPEN
    with pytest.raises(DomainError):
        classify(-0.1)


def test_critical_multiplier_values():
    # k=1: mu = -lam^2/4; k=2: mu = -2 lam^(3/2) / (3 sqrt(3))
    assert mu_from_ecc(1, 1.0, 1.0) == pytest.approx(-0.25, rel=1e-14)
    assert mu_from_ecc(1, 2.0, 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert mu_from_ecc(2, 1.0, 1.0) == pytest.approx(
        -2.0 / (3.0 * math.sqrt(3.0)), rel=1e-14
    )
    lam = 1.7
    assert mu_from_ecc(2, lam, 1.0) == pytest.approx(
        -2.0 * math.sqrt(3.0) / 9.0 * lam**1.5, rel=1e-14
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_mu_ecc_round_trip(k, lam, ecc):
    mu = mu_from_ecc(k, lam, ecc)
    assert mu <= 0.0
    assert ecc_from_mu(k, lam, mu) == pytest.approx(ecc, abs=1e-12)


def test_params_from_multipliers_round_trip():
    p = StationaryParams(n=4, m=2, lam=1.3, ecc=0.8)
    q = StationaryParams.from_multipliers(4, 2, 1.3, p.mu)
    assert q.ecc == pytest.approx(0.8, rel=1e-12)
    d = p.as_dict()
    assert set(d) == {"n", "m", "lambda", "ecc", "mu", "class"}
    assert d["class"] == "egg"


def test_params_validation():
    with pytest.raises(DomainError):
        StationaryParams(n=3, m=3, lam=1.0, ecc=0.5)
    with pytest.raises(DomainError):
        StationaryParams(n=3, m=1, lam=0.0, ecc=0.5)
    with pytest.raises(DomainError):
        StationaryParams(n=3, m=1, lam=1.0, ecc=-0.2)


def test_sphere_profile_is_constant():
    p = StationaryParams(n=5, m=2, lam=2.0, ecc=0.0)
    theta = np.linspace(0.0, math.pi, 17)
    r = radial_profile(p, theta)
    assert np.abs(r - 2.0 ** (-1.0 / 3.0)).max() < 1e-14


def test_cusp_radius_closed_forms():
    # k=1 critical: r(0) = 2/lam at the cusp, r(pi) = (2/lam)/(1+sqrt(2))
    p = StationaryParams(n=3, m=2, lam=1.0, ecc=1.0)
    assert radial_profile(p, 0.0) == pytest.approx(2.0, rel=1e-12)
    assert radial_profile(p, math.pi) == pytest.approx(
        2.0 / (1.0 + math.sqrt(2.0)), rel=1e-12
    )


def test_k1_explicit_solution():
    # r = (2/lam) / (1 + sqrt(1 - e cos(theta)))
    lam, e = 1.4, 0.7
    p = StationaryParams(n=3, m=2, lam=lam, ecc=e)
    theta = np.linspace(0.0, math.pi, 33)
    expect = (2.0 / lam) / (1.0 + np.sqrt(1.0 - e * np.cos(theta)))
    assert np.abs(radial_profile(p, theta) / expect - 1.0).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ecc", [0.0, 0.3, 0.8, 1.0])
def test_radial_matches_independent_root(k, ecc):
    lam = 1.2
    p = StationaryParams(n=k + 1, m=1, lam=lam, ecc=ecc)
    for theta in (0.0, 0.4, 1.2, math.pi / 2.0, 2.2, math.pi):
        got = float(radial_profile(p, theta))
        if ecc == 1.0 and theta == 0.0:
            # exact double root: a residual of 1e-13 only localizes r to
            # ~sqrt(tol), so compare against the analytic tangency radius
            # at matching precision instead of the companion matrix
            poly = 1.0 - lam * got**k - p.mu * got ** (k + 1)
            r_tangent = k * lam / ((k + 1) * abs(p.mu))
            assert abs(poly) < 1e-12
            assert got == pytest.approx(r_tangent, rel=1e-6)
            continue
        want = radial_oracle(k, lam, p.mu, math.cos(theta))
        assert got == pytest.approx(want, rel=1e-11)


def test_profile_depends_on_codimension_only():
    # (n, m) enters the radial equation through k = n - m alone
    theta = np.linspace(0.0, math.pi, 9)
    a = radial_profile(StationaryParams(n=3, m=1, lam=1.0, ecc=0.7), theta)
    b = radial_profile(StationaryParams(n=5, m=3, lam=1.0, ecc=0.7), theta)
    assert np.abs(a - b).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=math.pi),
)
def test_equation_residual_property(k, lam, ecc, theta):
    p = StationaryParams(n=k + 2, m=2, lam=lam, ecc=ecc)
    r = float(radial_profile(p, theta))
    res = 1.0 - lam * r**k - p.mu * r ** (k + 1) * math.cos(theta)
    assert abs(res) < 1e-10


def test_open_shape_has_no_root_toward_cusp():
    p = StationaryParams(n=3, m=2, lam=1.0, ecc=1.5)
    with pytest.raises(NoRootError):
        radial_profile(p, 0.0)
    # away from the cusp axis the boundary still exists
    r = float(radial_profile(p, math.pi))
    assert r > 0.0
    with pytest.raises(UnboundedRegionError):
        support_interval(p)


def test_k2_hyperbolic_branch_continues_past_q_one():
    # e > 1 with cos(theta) < 0 pushes q = e cos(theta) below -1, where the
    # trigonometric Cardano form stops working but a real root remains
    p = StationaryParams(n=3, m=1, lam=1.0, ecc=1.6)
    theta = 3.0  # cos < -0.98
    got = float(radial_profile(p, theta))
    want = radial_oracle(2, 1.0, p.mu, math.cos(theta))
    assert got == pytest.approx(want, rel=1e-11)


def test_chart_consistency():
    # cylindrical radius at z = r cos(theta) equals r sin(theta)
    p = StationaryParams(n=4, m=1, lam=0.9, ecc=0.85)
    theta = np.linspace(0.05, math.pi - 0.05, 41)
    r = radial_profile(p, theta)
    z = r * np.cos(theta)
    big_r = np.array([float(cylindrical_radius(p, zi)) for zi in z])
    assert np.abs(big_r - r * np.sin(theta)).max() < 1e-9


def test_cylindrical_radius_domain_errors():
    p = StationaryParams(n=3, m=1, lam=1.0, ecc=0.5)
    z_minus, z_plus = support_interval(p)
    with pytest.raises(OutsideSupportError):
        cylindrical_radius(p, z_plus + 0.1)
    with pytest.raises(OutsideSupportError):
        cylindrical_radius(p, z_minus - 0.1)
    open_p = StationaryParams(n=3, m=1, lam=1.0, ecc=1.2)
    # the open shape flares toward the pole of (lam + mu z) on the cusp side
    z_pole = -open_p.lam / open_p.mu
    with pytest.raises(PoleError):
        cylindrical_radius(open_p, 1.5 * z_pole)
    with pytest.raises(OutsideSupportError):
        cylindrical_radius(open_p, -100.0)


def test_support_interval_matches_profile_ends():
    p = StationaryParams(n=3, m=1, lam=1.3, ecc=0.6)
    z_minus, z_plus = support_interval(p)
    assert z_plus == pytest.approx(float(radial_profile(p, 0.0)), rel=1e-13)
    assert z_minus == pytest.approx(-float(radial_profile(p, math.pi)), rel=1e-13)
    assert z_minus < 0.0 < z_plus
    assert z_plus > -z_minus  # cusp side reaches farther


def test_sphere_support_is_symmetric():
    p = StationaryParams(n=4, m=2, lam=2.0, ecc=0.0)
    z_minus, z_plus = support_interval(p)
    rho = 2.0 ** (-0.5)
    assert z_plus == pytest.approx(rho, rel=1e-14)
    assert z_minus == pytest.approx(-rho, rel=1e-14)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_critical_support_closed_forms(lam):
    # z_+ = ((k+1)/lam)^(1/k); closed z_- for k in {1, 2, 4}
    z_minus, z_plus = critical_support(1, lam)
    assert z_plus == pytest.approx(2.0 / lam, rel=1e-14)
    assert z_minus == pytest.approx(-(math.sqrt(2.0) - 1.0) * 2.0 / lam, rel=1e-13)

    z_minus, z_plus = critical_support(2, lam)
    assert z_plus == pytest.approx(math.sqrt(3.0 / lam), rel=1e-14)
    assert z_minus == pytest.approx(-math.sqrt(3.0) / (2.0 * math.sqrt(lam)), rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_critical_closed_matches_newton(k):
    # the radical table against the radial solver on s = 1/u, where the
    # crossing is s^(k+1) - (k+1)s = k
    u = 1.0 / _largest_root(k, k + 1.0, np.array([float(k)]))[0]
    assert _CRITICAL_NEG_ROOT[k] == pytest.approx(u, rel=1e-12)
    z_minus, z_plus = critical_support(k, 1.3)
    assert -z_minus / z_plus == _CRITICAL_NEG_ROOT[k]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_critical_negative_root_satisfies_polynomial(k):
    z_minus, z_plus = critical_support(k, 1.0)
    u = -z_minus / z_plus
    assert 0.0 < u < 1.0
    # defining polynomial of the negative-side crossing in scaled variables
    assert abs(1.0 - (k + 1) * u**k - k * u ** (k + 1)) < 1e-12


def test_critical_profile_has_double_root_at_cusp():
    for k, lam in ((1, 1.0), (2, 0.7), (4, 1.5)):
        p = StationaryParams(n=k + 1, m=1, lam=lam, ecc=1.0)
        _, z_plus = support_interval(p)
        mu = p.mu
        # d(R^2)/dz = -(2 mu / k)(lam + mu z)^(-2/k - 1) - 2z vanishes at z_+
        d = -(2.0 * mu / k) * (lam + mu * z_plus) ** (-2.0 / k - 1.0) - 2.0 * z_plus
        assert abs(d) < 1e-8


def test_profile_curve_shape():
    p = StationaryParams(n=3, m=1, lam=1.0, ecc=0.9)
    curve = profile_curve(p, 101)
    assert isinstance(curve, ProfileCurve)
    assert curve.z.shape == curve.radius.shape == (101,)
    assert curve.z[0] == curve.z_minus and curve.z[-1] == curve.z_plus
    assert curve.radius[0] == 0.0 and curve.radius[-1] == 0.0
    assert np.all(np.diff(curve.z) > 0.0)
    assert curve.radius[1:-1].min() > 0.0
    with pytest.raises(DomainError):
        profile_curve(p, 1)


def test_cusp_angle_constant():
    assert cusp_angle_2d() == pytest.approx(2.0 * math.atan(math.sqrt(2.0)), rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_factorization_identity_property(k, w):
    assert factorization_residual(k, w) < 1e-12


def test_factorization_vectorized():
    res = factorization_residual(3, np.linspace(0.0, 2.0, 50))
    assert np.asarray(res).max() < 1e-12


def _newton_branch(k, lam, mu, cos_t):
    """Which regime of the radial polynomial a direction falls in: the cases
    a bracketed solver sets up apart, kept so the test reaches each."""
    c = mu * cos_t
    if c == 0.0:
        return "sphere"
    if c > 0.0:
        return "decreasing"
    z_plus = ((k + 1.0) / lam) ** (1.0 / k)
    if k * lam > (k + 1.0) * -c * z_plus:
        return "capped-by-z-plus"
    r_star = k * lam / ((k + 1.0) * -c)
    p_star = 1.0 - lam * r_star**k - mu * r_star ** (k + 1) * cos_t
    if p_star > 1e-13:
        return "no-root"
    return "tangency" if p_star >= 0.0 else "capped-by-r-star"


def test_vectorized_newton_matches_companion_roots():
    # one array-wise solve per shape, every point checked against the
    # companion-matrix root; at e = 1 the cusp direction lands on either
    # side of the tangency test depending on rounding, so (k, lam) are
    # chosen to reach both
    seen = set()
    cos_t = np.array([-1.0, -0.6, -0.1, 0.0, 0.3, 0.8, 1.0])
    for k in range(3, 9):
        for lam in (0.8, 1.2, 2.0):
            for ecc in (0.0, 0.5, 1.0):
                p = StationaryParams(n=k + 1, m=1, lam=lam, ecc=ecc)
                got = _radial_from_cos(p, cos_t)
                for ct, r in zip(cos_t, got):
                    branch = _newton_branch(k, lam, p.mu, ct)
                    seen.add(branch)
                    if branch in ("tangency", "capped-by-r-star") or (ecc == 1.0 and ct == 1.0):
                        # double root: a 1e-13 residual pins r to ~sqrt(tol)
                        r_tangent = k * lam / ((k + 1) * abs(p.mu))
                        assert abs(1.0 - lam * r**k - p.mu * r ** (k + 1)) < 1e-12
                        assert r == pytest.approx(r_tangent, rel=1e-6)
                    else:
                        assert r == pytest.approx(radial_oracle(k, lam, p.mu, ct), rel=1e-12)
    assert seen == {"sphere", "decreasing", "capped-by-z-plus", "tangency", "capped-by-r-star"}


@pytest.mark.parametrize("k", [3, 5])
def test_vectorized_newton_raises_for_open_directions(k):
    p = StationaryParams(n=k + 1, m=1, lam=1.0, ecc=1.3)
    with pytest.raises(NoRootError):
        radial_profile(p, np.array([math.pi, 2.0, 0.0]))
    # the solver's own check, behind the e cos(theta) > 1 screen
    assert _newton_branch(k, 1.0, p.mu, 1.0) == "no-root"
    with pytest.raises(NoRootError):
        _radial_newton(p, np.array([-1.0, 0.5, 1.0]))
    # directions that keep a boundary still solve
    cos_t = np.array([-1.0, 0.0, 0.5])
    got = _radial_newton(p, cos_t)
    want = [radial_oracle(k, 1.0, p.mu, ct) for ct in cos_t]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [3, 5, 8])
def test_far_side_of_a_very_open_shape_solves(k):
    # e = 1e12 makes c = mu cos(theta) ~ 1e12 on the far side, where a plain
    # Newton step from the sphere would overshoot the root ~1e10-fold
    p = StationaryParams(n=k + 1, m=1, lam=1.3, ecc=1e12)
    cos_t = np.array([-1.0, -0.5, -1e-3])
    got = _radial_newton(p, cos_t)
    want = [radial_oracle(k, 1.3, p.mu, ct) for ct in cos_t]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_cusp_direction_is_the_exact_double_root(k):
    # e cos(theta) = 1 is the tangency radius k lam / ((k+1)|mu|) exactly,
    # whichever way rounding tips p(r_star) or the z_plus cap
    for lam in (0.7, 1.0, 1.3):
        p = StationaryParams(n=k + 1, m=1, lam=lam, ecc=1.0)
        want = k * lam / ((k + 1) * abs(p.mu))
        assert abs(radial_profile(p, 0.0) / want - 1.0) <= 1e-15
        got = radial_profile(p, np.array([0.0, 0.5 * math.pi]))
        assert abs(got[0] / want - 1.0) <= 1e-15


def _polished(k, lam, c, x):
    """x after two Newton steps on 1 - lam x^k - c x^(k+1) at 40 digits."""
    with mpmath.workdps(40):
        lam, c, x = mpmath.mpf(lam), mpmath.mpf(c), mpmath.mpf(x)
        for _ in range(2):
            p = 1 - lam * x**k - c * x ** (k + 1)
            x -= p / (-k * lam * x ** (k - 1) - (k + 1) * c * x**k)
        return float(x)


def per_point_radius(k, lam, mu, cos_t):
    """An independent reference: a scalar bracketed Newton in r, one
    direction at a time in Python floats, its root polished at 40 digits.
    The float loop stops on |p| <= 1e-13, which next to the cusp leaves it
    up to ~2e-13 short of the root."""
    c = mu * cos_t
    sphere = lam ** (-1.0 / k)
    if c == 0.0:
        return sphere
    x, lo, hi = sphere, 0.0, sphere
    if c < 0.0:
        z_plus = ((k + 1.0) / lam) ** (1.0 / k)
        if k * lam > (k + 1.0) * (-c) * z_plus:
            hi = z_plus
        else:
            r_star = k * lam / ((k + 1.0) * (-c))
            p_star = 1.0 - lam * r_star**k - mu * r_star ** (k + 1) * cos_t
            if p_star > 1e-13:
                raise NoRootError("open direction")
            if p_star >= 0.0:
                return r_star
            hi, x = r_star, min(sphere, 0.5 * r_star)
    for _ in range(120):
        fx = 1.0 - lam * x**k - mu * x ** (k + 1) * cos_t
        if abs(fx) <= 1e-13:
            return _polished(k, lam, c, x)
        if fx > 0.0:
            lo = x
        else:
            hi = x
        d = -lam * k * x ** (k - 1) - c * (k + 1.0) * x**k
        x_new = x - fx / d if d != 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            return _polished(k, lam, c, x_new)
        x = x_new
    raise ConvergenceError("stalled")


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_vectorized_newton_matches_per_point_loop(k):
    # the cusp direction itself (theta = 0) is left out: there the root is
    # double, and a 1e-13 residual pins it only to ~sqrt(tol)
    theta = np.linspace(0.0, math.pi, 301)[1:]
    for lam in (0.6, 1.3):
        for ecc in (0.0, 0.2, 0.7, 0.99, 1.0):
            p = StationaryParams(n=k + 1, m=1, lam=lam, ecc=ecc)
            got = radial_profile(p, theta)
            want = np.array([per_point_radius(k, lam, p.mu, math.cos(t)) for t in theta])
            assert np.abs(got / want - 1.0).max() <= 1e-13


def _mp_radius(k, lam, c):
    """Smallest positive root of 1 - lam r^k - c r^(k+1), from
    mpmath.polyroots at 40 digits."""
    with mpmath.workdps(40):
        coeffs = [-mpmath.mpf(c), -mpmath.mpf(lam)] + [0] * (k - 1) + [1]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        return float(min(r.real for r in roots if abs(r.imag) < 1e-30 and r.real > 0))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_radius_next_to_the_cusp_matches_40_digit_roots(k):
    # e = 1 just off the cusp direction, where the boundary root sits next
    # to the double root; the reference solves the same float c = mu cos(theta)
    for lam in (0.6, 1.3):
        p = StationaryParams(n=k + 1, m=1, lam=lam, ecc=1.0)
        for theta, bound in ((1e-6, 1e-9), (0.1, 1e-14)):
            cos_t = math.cos(theta)
            got = _radial_from_cos(p, np.array([cos_t]))[0]
            assert abs(got / _mp_radius(k, lam, p.mu * cos_t) - 1.0) <= bound

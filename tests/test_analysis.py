import math

import mpmath
import numpy as np
import pytest

from hyperthick import (
    DeformationSample,
    DumbbellConfig,
    StarShape,
    StationaryParams,
    build_grid,
    dumbbell_thickness,
    nullvector_recover,
    sphere_optimality_test,
    stationarity_residual,
    stationary_shape,
    unit_ball_volume,
    unit_sphere_area,
    unit_vectors,
)
from hyperthick.analysis import (
    _far_disc_factor,
    _optimality_resolution,
    _project_constraints,
    _random_direction_polynomial,
)
from hyperthick.errors import DomainError, GeometryError, RankError


def egg_params(n=3, m=1, lam=1.0, ecc=0.5):
    return StationaryParams(n=n, m=m, lam=lam, ecc=ecc)


def sample_angles(rng, n, count):
    # polar angles kept away from the axes so directions stay generic
    ang = np.empty((count, n - 1))
    ang[:, : n - 2] = rng.uniform(0.2, math.pi - 0.2, size=(count, n - 2))
    ang[:, n - 2] = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return ang


# ---------------------------------------------------------------------------
# stationary_shape and the pointwise residual
# ---------------------------------------------------------------------------


def test_stationary_shape_wraps_profile():
    p = egg_params()
    shape = stationary_shape(p)
    assert shape.dimension == 3
    assert shape.name == "stationary:egg"
    ang = sample_angles(np.random.default_rng(0), 3, 7)
    got = shape.radial(unit_vectors(ang))
    import hyperthick

    assert got == pytest.approx(hyperthick.radial_profile(p, ang[:, 0]), rel=1e-14)


def test_residual_vanishes_for_true_multipliers():
    grid = build_grid(3, 24)
    axis = np.array([1.0, 0.0, 0.0])
    p = egg_params()
    shape = stationary_shape(p)
    assert stationarity_residual(shape, 1, p.lam, p.mu, axis, grid) < 1e-9


def test_residual_vanishes_on_critical_shape():
    grid = build_grid(4, 16)
    p = StationaryParams(n=4, m=2, lam=1.3, ecc=1.0)
    shape = stationary_shape(p)
    axis = np.array([1.0, 0.0, 0.0, 0.0])
    assert stationarity_residual(shape, 2, p.lam, p.mu, axis, grid) < 1e-8


def test_residual_flags_wrong_multipliers_and_axis():
    grid = build_grid(3, 24)
    axis = np.array([1.0, 0.0, 0.0])
    p = egg_params()
    shape = stationary_shape(p)
    assert stationarity_residual(shape, 1, 1.05 * p.lam, p.mu, axis, grid) > 1e-2
    assert stationarity_residual(shape, 1, p.lam, 0.5 * p.mu, axis, grid) > 1e-2
    off_axis = np.array([0.0, 1.0, 0.0])
    assert stationarity_residual(shape, 1, p.lam, p.mu, off_axis, grid) > 1e-2


def test_residual_for_unit_ball():
    grid = build_grid(3, 16)
    ball = StarShape.ball(3, 1.0)
    axis = np.array([1.0, 0.0, 0.0])
    assert stationarity_residual(ball, 1, 1.0, 0.0, axis, grid) < 1e-14
    assert stationarity_residual(ball, 2, 1.0, 0.0, axis, grid) < 1e-14


def test_residual_argument_validation():
    grid = build_grid(3, 8)
    ball = StarShape.ball(3, 1.0)
    axis = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        stationarity_residual(ball, 3, 1.0, 0.0, axis, grid)
    with pytest.raises(DomainError):
        stationarity_residual(ball, 0, 1.0, 0.0, axis, grid)
    with pytest.raises(DomainError):
        stationarity_residual(ball, 1, 1.0, 0.0, np.array([1.0, 1.0, 0.0]), grid)
    with pytest.raises(DomainError):
        stationarity_residual(ball, 1, 1.0, 0.0, axis, build_grid(4, 8))


# ---------------------------------------------------------------------------
# multiplier recovery from boundary samples
# ---------------------------------------------------------------------------


def test_nullvector_recovers_egg_multipliers():
    p = egg_params()
    shape = stationary_shape(p)
    rng = np.random.default_rng(42)
    ang = sample_angles(rng, 3, 5)
    sample = DeformationSample.from_shape(shape, 1, ang)
    lam, mu_vec, ratio = nullvector_recover(sample)
    assert ratio < 1e-10
    assert lam == pytest.approx(p.lam, rel=1e-8)
    assert mu_vec[0] == pytest.approx(p.mu, rel=1e-8)
    assert np.abs(mu_vec[1:]).max() < 1e-8


def test_nullvector_recovery_is_stable_under_resampling():
    p = StationaryParams(n=4, m=2, lam=1.0, ecc=0.7)
    shape = stationary_shape(p)
    lams = []
    for i in range(5):
        rng = np.random.default_rng([7, i])
        sample = DeformationSample.from_shape(shape, 2, sample_angles(rng, 4, 6))
        lam, mu_vec, ratio = nullvector_recover(sample)
        assert ratio < 1e-8
        assert mu_vec[0] == pytest.approx(p.mu, rel=1e-6)
        lams.append(lam)
    assert max(lams) - min(lams) < 1e-10


def test_nullvector_recovers_sphere():
    shape = StarShape.ball(3, 1.0)
    rng = np.random.default_rng(3)
    sample = DeformationSample.from_shape(shape, 1, sample_angles(rng, 3, 5))
    lam, mu_vec, ratio = nullvector_recover(sample)
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert np.abs(mu_vec).max() < 1e-12
    assert ratio < 1e-12


def test_nullvector_rejects_non_stationary_blob():
    blob = StarShape.cosine_series(3, [1.0, 0.2, 0.1])
    rng = np.random.default_rng(5)
    sample = DeformationSample.from_shape(blob, 1, sample_angles(rng, 3, 5))
    with pytest.raises(RankError) as info:
        nullvector_recover(sample)
    assert info.value.singular_values is not None
    assert len(info.value.singular_values) == 5


def test_nullvector_rejects_degenerate_points():
    shape = stationary_shape(egg_params())
    ang = np.tile([[1.0, 2.0]], (5, 1))  # five copies of one direction
    sample = DeformationSample.from_shape(shape, 1, ang)
    with pytest.raises(RankError):
        nullvector_recover(sample)


def test_deformation_sample_validation():
    with pytest.raises(DomainError):
        DeformationSample(n=3, m=1, radii=np.ones(4), angles=np.zeros((4, 2)))
    with pytest.raises(DomainError):
        DeformationSample(n=3, m=1, radii=np.ones(5), angles=np.zeros((5, 1)))
    with pytest.raises(DomainError):
        DeformationSample(n=3, m=3, radii=np.ones(5), angles=np.zeros((5, 2)))
    sample = DeformationSample(n=3, m=1, radii=np.ones(5), angles=np.zeros((5, 2)))
    assert sample.matrix().shape == (5, 5)
    sample = DeformationSample(n=3, m=np.int64(1), radii=np.ones(5), angles=np.zeros((5, 2)))
    assert type(sample.m) is int and sample.matrix().shape == (5, 5)


# ---------------------------------------------------------------------------
# sphere optimality under constrained perturbations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2)])
def test_perturbed_ball_is_never_thicker(n, m):
    deltas = sphere_optimality_test(n, m, trials=20, amplitude=0.05, seed=11)
    assert len(deltas) == 20
    assert [t for t, _ in deltas] == list(range(20))
    for _, dt in deltas:
        assert dt < 0.0


def test_optimality_deltas_scale_quadratically():
    small = sphere_optimality_test(3, 2, trials=30, amplitude=0.02, seed=5)
    large = sphere_optimality_test(3, 2, trials=30, amplitude=0.04, seed=5)
    ratio = np.median([abs(b) / abs(a) for (_, a), (_, b) in zip(small, large)])
    assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3)])
def test_optimality_perturbation_does_not_depend_on_the_grid(n, m):
    # the polynomial is normalised by its coefficients, not by its node
    # values, so two resolutions perturb the same shape and agree on deltaT
    # to their quadrature error (normalised on the nodes they differed by 3e-5)
    coarse = sphere_optimality_test(n, m, trials=3, amplitude=0.05, seed=0, resolution=16)
    fine = sphere_optimality_test(n, m, trials=3, amplitude=0.05, seed=0, resolution=24)
    for (_, a), (_, b) in zip(coarse, fine):
        assert abs(a - b) <= 1e-8


def test_optimality_zero_amplitude_is_flat():
    for _, dt in sphere_optimality_test(3, 1, trials=3, amplitude=0.0, seed=0):
        assert dt == pytest.approx(0.0, abs=1e-12)


def test_optimality_trials_reproduce_by_index():
    first = sphere_optimality_test(3, 1, trials=3, amplitude=0.05, seed=9)
    again = sphere_optimality_test(3, 1, trials=5, amplitude=0.05, seed=9)
    assert first == again[:3]


def test_optimality_trial_is_not_a_trial_of_another_seed():
    # with the trial index appended to the seed words, numpy's zero padding
    # made trial 2 of seed 5 trial 0 of seed (5, 2)
    trial_2 = sphere_optimality_test(3, 1, trials=3, amplitude=0.05, seed=5)[2][1]
    other = sphere_optimality_test(3, 1, trials=1, amplitude=0.05, seed=[5, 2])[0][1]
    assert trial_2 != other
    # trial t draws from spawned child t alone, so it reproduces on its own
    u, w = build_grid(3, _optimality_resolution(3)).nodes()
    child = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[2])
    f = 1.0 + 0.05 * _random_direction_polynomial(child, u)
    f = _project_constraints(f, u, w, 3, unit_ball_volume(3))
    coef = unit_ball_volume(1) / unit_sphere_area(2)
    assert coef * float(np.dot(f, w)) - coef * float(w.sum()) == trial_2


def test_optimality_validation():
    with pytest.raises(DomainError):
        sphere_optimality_test(3, 1, trials=1, amplitude=0.2, seed=0)
    with pytest.raises(DomainError):
        sphere_optimality_test(3, 1, trials=0, amplitude=0.05, seed=0)
    with pytest.raises(DomainError):
        sphere_optimality_test(3, 3, trials=1, amplitude=0.05, seed=0)
    with pytest.raises(DomainError):
        sphere_optimality_test(1, 1, trials=1, amplitude=0.05, seed=0)


# ---------------------------------------------------------------------------
# first variation along the constraint tangent space
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m,ecc", [(3, 1, 0.5), (3, 2, 0.5), (4, 2, 0.8)])
def test_first_variation_vanishes_on_tangent_space(n, m, ecc):
    # delta f orthogonal to {f^(n-1), f^n u_i} keeps volume and centroid to
    # first order; at a stationary shape the thickness must then be flat too
    p = StationaryParams(n=n, m=m, lam=1.0, ecc=ecc)
    shape = stationary_shape(p)
    u, w = build_grid(n, 24).nodes()
    f0 = shape.radial(u)

    basis = np.stack([f0 ** (n - 1)] + [f0**n * u[:, i] for i in range(n)], axis=1)
    rng = np.random.default_rng(17)
    delta = rng.standard_normal(f0.size)
    gram = basis.T @ (w[:, None] * basis)
    for _ in range(2):  # second pass scrubs the rounding of the first
        delta = delta - basis @ np.linalg.solve(gram, basis.T @ (w * delta))
    delta /= np.abs(delta).max()
    for b in basis.T:
        assert abs(np.dot(b * w, delta)) < 1e-10

    coef = unit_ball_volume(m) / unit_sphere_area(n - 1)

    def thickness_of(f):
        return coef * float(np.dot(f**m, w))

    for a in (1e-3, 1e-4):
        dt = (thickness_of(f0 + a * delta) - thickness_of(f0 - a * delta)) / (2 * a)
        assert abs(dt) < 1e-9


# ---------------------------------------------------------------------------
# dumbbell
# ---------------------------------------------------------------------------


def test_dumbbell_config_arithmetic():
    c = DumbbellConfig(area=3.0, centroid_distance=2.0, gamma=0.25)
    assert c.area_near == pytest.approx(2.25)
    assert c.area_far == pytest.approx(0.75)
    assert c.x_far == pytest.approx(8.0)
    assert c.radius_near == pytest.approx(math.sqrt(2.25 / math.pi))
    assert c.radius_far == pytest.approx(math.sqrt(0.75 / math.pi))


def test_dumbbell_asymptotic_value():
    c = DumbbellConfig(area=math.pi, centroid_distance=10.0, gamma=0.1)
    want = 2.0 * math.sqrt(0.9) + 0.1 * math.pi / (math.pi * 100.0)
    assert dumbbell_thickness(c) == pytest.approx(want, rel=1e-14)


def test_dumbbell_rejects_overlap():
    with pytest.raises(GeometryError):
        dumbbell_thickness(DumbbellConfig(area=math.pi, centroid_distance=0.5, gamma=0.9))


def test_dumbbell_config_validation():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            DumbbellConfig(area=1.0, centroid_distance=1.0, gamma=bad)
    with pytest.raises(DomainError):
        DumbbellConfig(area=0.0, centroid_distance=1.0, gamma=0.5)
    with pytest.raises(DomainError):
        DumbbellConfig(area=1.0, centroid_distance=-1.0, gamma=0.5)


def test_dumbbell_exact_matches_asymptotic():
    c = DumbbellConfig(area=math.pi, centroid_distance=10.0, gamma=0.1)
    asym = dumbbell_thickness(c)
    exact, err = dumbbell_thickness(c, exact=True)
    assert err == 0.0
    # the far disc's point-mass value times 1 + k^2/8 + 3k^4/64, k = a/d; the
    # next term, about 0.025 k^6 = 2.4e-17 here, is below rounding
    k2 = c.radius_far**2 / c.x_far**2
    want = 2.0 * math.sqrt(0.9) + 1e-3 * (1.0 + k2 / 8.0 + 3.0 * k2 * k2 / 64.0)
    assert exact == pytest.approx(want, rel=1e-15)
    assert asym < exact < 2.0  # supremum 2 sqrt(A/pi) = 2 approached, never attained
    # samples and seed are accepted and ignored
    assert dumbbell_thickness(c, True, 10, [3, 1]) == (exact, 0.0)


def _dumbbell_mpmath(c):
    """T_exact at 40 digits from mpmath's complete elliptic integrals."""
    with mpmath.workdps(40):
        area, gamma = mpmath.mpf(c.area), mpmath.mpf(c.gamma)
        r_near = mpmath.sqrt(area * (1 - gamma) / mpmath.pi)
        r_far = mpmath.sqrt(area * gamma / mpmath.pi)
        x_far = mpmath.mpf(c.centroid_distance) / gamma
        m = (r_far / x_far) ** 2
        b = (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m)) / m
        return float(2 * r_near + area * gamma / (mpmath.pi * x_far) * 4 / mpmath.pi * b)


@pytest.mark.parametrize(
    "area,gamma,k",
    [
        (math.pi, 0.1, 1e-4),
        (2.5, 0.3, 1e-3),
        (0.7, 0.05, 1e-2),
        (math.pi, 0.1, 0.1),
        (4.0, 0.9, 0.3),
        (math.pi, 0.999, 0.5),
        (1.3, 0.999, 0.9),
        (math.pi, 0.999, 0.95),
    ],
)
def test_dumbbell_exact_matches_elliptic_integrals(area, gamma, k):
    # far disc radius a at distance d = a / k; k = 1e-4 is where the naive
    # E - (1 - k^2) K loses k^2 to cancellation
    r_far = math.sqrt(area * gamma / math.pi)
    c = DumbbellConfig(area, gamma * r_far / k, gamma)
    got, _ = dumbbell_thickness(c, exact=True)
    assert abs(got / _dumbbell_mpmath(c) - 1.0) <= 1e-14


def test_far_disc_factor_series():
    # (4/pi) B(k) = 1 + k^2/8 + 3k^4/64 + (25/1024) k^6 + ...
    assert _far_disc_factor(0.0) == 1.0
    for k in (1e-2, 5e-3, 1e-3, 1e-4):
        series = k * k / 8.0 + 3.0 * k**4 / 64.0
        assert abs((_far_disc_factor(k) - 1.0) - series) <= 0.025 * k**6 + 2.0**-52

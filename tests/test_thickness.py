import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperthick import (
    IndicatorBody,
    StarShape,
    average_thickness,
    axis_section_average,
    body_properties,
    build_grid,
    centroid,
    moment_vector,
    stationary_shape,
    StationaryParams,
    thickness_montecarlo,
    unit_ball_volume,
    unit_sphere_area,
    unit_vectors,
    volume,
)
from hyperthick.cli import parse_shape
from hyperthick.errors import BudgetError, DomainError, InsufficientSamplingError
from hyperthick.geometry import polar_rule
from hyperthick.thickness import _axial_cosines


def rotation(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ball_thickness_is_unit_ball_volume(n):
    grid = build_grid(n, 32)
    for radius in (1.0, 0.4, 2.5):
        ball = StarShape.ball(n, radius)
        for m in range(1, n):
            expect = unit_ball_volume(m) * radius**m
            assert average_thickness(ball, m, grid) == pytest.approx(expect, rel=1e-12)


def test_ball_thickness_is_exact_to_rounding():
    # the polar weights are scaled to their exact sums, so the zonal rule
    # integrates a constant to the last bit or so, and the tensor rule is
    # off by the rounding of its weight products alone
    worst = {"zonal": 0.0, "tensor": 0.0}
    cases = [(n, r, "zonal") for n in range(3, 9) for r in (8, 16, 48, 128, 192)]
    cases += [(3, 128, "tensor"), (3, 192, "tensor"), (4, 48, "tensor"), (5, 24, "tensor"),
              (6, 12, "tensor")]
    for n, resolution, rule in cases:
        grid = build_grid(n, resolution)
        shape = StarShape.ball(n) if rule == "zonal" else StarShape(n, lambda u: np.ones(len(u)))
        assert (shape.profile is not None) == (rule == "zonal")
        for m in range(1, n):
            err = abs(average_thickness(shape, m, grid) / unit_ball_volume(m) - 1.0)
            worst[rule] = max(worst[rule], err)
    assert worst["zonal"] <= 1e-15 and worst["tensor"] <= 8e-15, worst


def test_ball_volume_and_centroid():
    grid = build_grid(3, 32)
    ball = StarShape.ball(3, 1.7)
    assert volume(ball, grid) == pytest.approx(unit_ball_volume(3) * 1.7**3, rel=1e-12)
    assert np.abs(centroid(ball, grid)).max() < 1e-13


def test_only_constant_harmonic_survives_line_sections():
    # for n=2, m=1 the average width is 2 c0 whatever the higher harmonics
    grid = build_grid(2, 128)
    shape = StarShape.cosine_series(2, [1.3, 0.2, 0.05, 0.0, 0.01], sin_coeffs=[0.1, 0.02])
    assert average_thickness(shape, 1, grid) == pytest.approx(2.6, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_cosine_series_matches_angle_form(n):
    # the Chebyshev evaluation in u_1 reproduces the series in the first angle
    cos_c = [1.0, 0.2, -0.05, 0.03, 0.01]
    sin_c = [0.1, 0.0, -0.02] if n == 2 else []
    rng = np.random.default_rng(n)
    ang = np.empty((50, n - 1))
    ang[:, : n - 2] = rng.uniform(0.0, math.pi, size=(50, n - 2))
    ang[:, -1] = rng.uniform(0.0, 2.0 * math.pi, size=50)
    phi = ang[:, 0]
    want = sum(c * np.cos(k * phi) for k, c in enumerate(cos_c))
    want = want + sum(s * np.sin(k * phi) for k, s in enumerate(sin_c, start=1))
    got = StarShape.cosine_series(n, cos_c, sin_c).radial(unit_vectors(ang))
    assert np.abs(got - want).max() < 1e-14


def test_homogeneity_under_scaling():
    grid = build_grid(3, 48)
    base = StarShape.cosine_series(3, [1.0, 0.2, 0.1])
    t1 = average_thickness(base, 2, grid)
    for c in (0.5, 2.0, 3.7):
        t_scaled = average_thickness(base.scaled(c), 2, grid)
        assert t_scaled == pytest.approx(c**2 * t1, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_rotation_invariance(n):
    grid = build_grid(n, 64)
    shape = StarShape.cosine_series(n, [1.0, 0.25, 0.1])
    q = rotation(n, seed=42)
    for m in range(1, n):
        t0 = average_thickness(shape, m, grid)
        t1 = average_thickness(shape.rotated(q), m, grid)
        assert t1 == pytest.approx(t0, rel=1e-8)


def test_rotation_preserves_volume_and_moves_centroid():
    grid = build_grid(3, 64)
    shape = StarShape.cosine_series(3, [1.0, 0.3])
    q = rotation(3, seed=9)
    v0, v1 = volume(shape, grid), volume(shape.rotated(q), grid)
    assert v1 == pytest.approx(v0, rel=1e-9)
    g0 = centroid(shape, grid)
    g1 = centroid(shape.rotated(q), grid)
    assert np.abs(q @ g0 - g1).max() < 1e-9


def test_moment_vector_agrees_with_profile_quadrature():
    # same first moment through two unrelated pipelines: solid-angle grid vs
    # the 1-D meridian rule
    params = StationaryParams(n=3, m=1, lam=1.0, ecc=0.6)
    shape = stationary_shape(params)
    grid = build_grid(3, 64)
    mom = moment_vector(shape, grid)
    props = body_properties(params, 256)
    assert mom[0] == pytest.approx(props.moment, rel=1e-9)
    assert np.abs(mom[1:]).max() < 1e-12
    assert volume(shape, grid) == pytest.approx(props.volume, rel=1e-10)


def test_montecarlo_unit_ball_section_is_pi():
    ball = StarShape.ball(3, 1.0)
    estimate, stderr = thickness_montecarlo(ball.indicator(), 2, 1_000_000, seed=5)
    assert 0.0 < stderr < 0.01
    assert abs(estimate - math.pi) < 3.0 * stderr


def test_montecarlo_unit_disc_diameter_is_two():
    disc = StarShape.ball(2, 1.0)
    estimate, stderr = thickness_montecarlo(disc.indicator(), 1, 400_000, seed=3)
    assert 0.0 < stderr < 0.05
    assert abs(estimate - 2.0) < 3.0 * stderr


def test_montecarlo_error_bar_is_calibrated():
    # z = (estimate - exact) / stderr over many seeds must have unit spread
    # for every section dimension, including m <= n/2
    for n in range(2, 7):
        body = StarShape.ball(n, 1.0).indicator(scan_resolution=8)
        for m in range(1, n):
            z = []
            for seed in range(200):
                est, err = thickness_montecarlo(body, m, 5_000, seed=[n, m, seed])
                z.append((est - unit_ball_volume(m)) / err)
            sd = float(np.std(z, ddof=1))
            assert 0.8 <= sd <= 1.25, (m, n, sd)


def _sphere_moment(n: int, k: int) -> float:
    """E[u_1^(2k)] for u uniform on the unit sphere in R^n: (2k-1)!! / prod_{j<k} (n + 2j)."""
    return math.prod((2 * j + 1) / (n + 2 * j) for j in range(k))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_axial_cosines_match_sphere_moments(n):
    # each sample moment of t = u_1 within 5 of its own sampling sd, both
    # computed from the exact moments
    count = 400_000
    t = _axial_cosines(np.random.default_rng(n), n, count)
    assert t.shape == (count,)
    assert np.abs(t).max() <= 1.0
    for k in (1, 2, 3):
        even, odd = np.mean(t ** (2 * k)), np.mean(t ** (2 * k - 1))
        mean = _sphere_moment(n, k)
        sd_even = math.sqrt((_sphere_moment(n, 2 * k) - mean**2) / count)
        sd_odd = math.sqrt(_sphere_moment(n, 2 * k - 1) / count)
        assert abs(even - mean) < 5.0 * sd_even, (k, even, mean)
        assert abs(odd) < 5.0 * sd_odd, (k, odd)


def test_axial_cosine_is_uniform_in_three_dimensions():
    # Archimedes: u_1 is uniform on [-1, 1] for n = 3; Kolmogorov-Smirnov
    # distance under its 99% critical value 1.628 / sqrt(count)
    count = 100_000
    t = np.sort(_axial_cosines(np.random.default_rng(3), 3, count))
    cdf = 0.5 * (t + 1.0)
    upper = np.arange(1, count + 1) / count
    distance = max(np.max(upper - cdf), np.max(cdf - (upper - 1.0 / count)))
    assert distance < 1.628 / math.sqrt(count)


@pytest.mark.parametrize(
    "make,m",
    [
        (lambda: StarShape.cosine_series(4, [1.0, 0.3, -0.15]), 2),
        (lambda: StarShape.cosine_series(5, [0.9, -0.25, 0.1, 0.05]), 3),
        (lambda: StarShape.cosine_series(6, [1.0, 0.2, 0.2]), 4),
        (lambda: stationary_shape(StationaryParams(n=4, m=2, lam=1.0, ecc=0.5)), 2),
    ],
    ids=["series-n4", "series-n5", "series-n6", "stationary-egg-n4"],
)
def test_montecarlo_zonal_shape_agrees_with_zonal_quadrature(make, m):
    # unlike a ball's, these hits depend on the u_1 drawn
    shape = make()
    n = shape.dimension
    body = shape.indicator()
    assert body.shape.profile is not None
    t_quad = average_thickness(shape, m, build_grid(n, 64))
    t_mc, stderr = thickness_montecarlo(body, m, 400_000, seed=[n, m])
    assert abs(t_mc - t_quad) < 4.0 * stderr


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3)])
def test_montecarlo_zonal_error_bar_is_calibrated(n, m):
    # unlike a ball's, these hits depend on the u_1 drawn, so the z-scores
    # also check the direction draw: unit spread and no offset
    shape = StarShape.cosine_series(n, [1.0, 0.3, -0.15])
    body = shape.indicator()
    exact = average_thickness(shape, m, build_grid(n, 64))
    z = []
    for seed in range(200):
        est, err = thickness_montecarlo(body, m, 5_000, seed=[n, m, seed])
        z.append((est - exact) / err)
    sd = float(np.std(z, ddof=1))
    assert 0.8 <= sd <= 1.25, sd
    # the mean of 200 unit-spread z-scores has sd 0.071
    assert abs(float(np.mean(z))) < 0.3


def test_montecarlo_is_deterministic_in_seed():
    body = StarShape.ball(2, 1.0).indicator()
    a = thickness_montecarlo(body, 1, 50_000, seed=11)
    b = thickness_montecarlo(body, 1, 50_000, seed=11)
    c = thickness_montecarlo(body, 1, 50_000, seed=12)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "coeffs,m",
    [([1.0, 0.2], 1), ([1.0, 0.0, 0.15], 2), ([0.8, 0.1, 0.05], 1)],
)
def test_montecarlo_agrees_with_quadrature(coeffs, m):
    shape = StarShape.cosine_series(3, coeffs)
    grid = build_grid(3, 64)
    t_quad = average_thickness(shape, m, grid)
    t_mc, stderr = thickness_montecarlo(shape.indicator(), m, 600_000, seed=77)
    assert abs(t_mc - t_quad) < 4.0 * stderr


def test_twenty_random_shapes_montecarlo_vs_quadrature():
    # oracle equivalence: two unrelated estimators of the same functional
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        m = n - 1
        coeffs = [1.0] + list(0.3 * rng.uniform(-1, 1, size=3) / 3.0)
        shape = StarShape.cosine_series(n, coeffs)
        grid = build_grid(n, 64)
        t_quad = average_thickness(shape, m, grid)
        t_mc, stderr = thickness_montecarlo(
            shape.indicator(), m, 150_000, seed=trial
        )
        assert abs(t_mc - t_quad) < 4.0 * stderr


def _file_shape(tmp_path):
    u, _ = build_grid(3, 12).nodes()
    path = tmp_path / "shape.json"
    values = 1.0 + 0.2 * u[:, 0] - 0.1 * u[:, 1] * u[:, 2]
    path.write_text(json.dumps({"n": 3, "resolution": 12, "values": values.tolist()}))
    return parse_shape(f"file:{path}", None)


@pytest.mark.parametrize(
    "make,m,zonal",
    [
        (lambda tmp: StarShape.ball(5, 1.3), 2, True),
        (lambda tmp: StarShape.cosine_series(3, [1.0, 0.25, -0.1]), 1, True),
        (lambda tmp: StarShape.cosine_series(2, [1.0, 0.2], [0.1, -0.05]), 1, False),
        (lambda tmp: StarShape.cosine_series(4, [1.0, 0.3, 0.1]).rotated(rotation(4, 2)), 3, False),
        (_file_shape, 2, False),
    ],
    ids=["ball", "zonal-series", "planar-sines", "rotated-n4", "file"],
)
def test_montecarlo_radial_test_equals_contains_test(make, m, zonal, tmp_path):
    # the same directions and radii, tested as r <= f(u) or as r u in body;
    # a zonal body draws u_1 alone, so there only the estimates must agree
    body = make(tmp_path).indicator(16)
    assert body.shape is not None
    assert (body.shape.profile is not None) == zonal
    by_points = dataclasses.replace(body, shape=None)
    for seed in (0, 9):
        a = thickness_montecarlo(body, m, 40_000, seed)
        b = thickness_montecarlo(by_points, m, 40_000, seed)
        if zonal:
            assert abs(a[0] - b[0]) < 4.0 * math.hypot(a[1], b[1])
        else:
            assert a == b


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_montecarlo_shell_goes_through_contains(n, m):
    # a <= |x| <= b is not star-shaped about the origin; each m-section
    # through the origin is an m-dimensional shell
    a, b = 0.6, 1.1
    tested = []

    def shell(points):
        tested.append(points.shape[0])
        rr = np.einsum("ij,ij->i", points, points)
        return (a * a <= rr) & (rr <= b * b)

    body = IndicatorBody(n, shell, b)
    estimate, stderr = thickness_montecarlo(body, m, 100_000, seed=[n, m])
    assert sum(tested) == 100_000
    assert abs(estimate - unit_ball_volume(m) * (b**m - a**m)) < 4.0 * stderr


def test_montecarlo_raises_on_underestimated_bounding_radius():
    # a spike in g(u_1) narrower than the gap between two scan nodes
    nodes = np.sort(np.cos(polar_rule(64, 1)[0]))
    t0 = 0.5 * (nodes[31] + nodes[32])
    shape = StarShape.zonal(3, lambda t: 1.0 + 0.5 * np.exp(-(((t - t0) / 0.004) ** 2)))
    body = shape.indicator()
    assert body.shape.profile is not None
    assert body.bounding_radius < 1.1
    with pytest.raises(DomainError, match="bounding radius"):
        thickness_montecarlo(body, 2, 100_000, seed=1)
    # the same check on the direction-vector path: a radius set by hand
    # below the 1.3 that a rotated series reaches
    rotated = StarShape.cosine_series(4, [1.0, 0.3]).rotated(rotation(4, 1))
    body = dataclasses.replace(rotated.indicator(16), bounding_radius=1.0)
    assert body.shape is not None and body.shape.profile is None
    with pytest.raises(DomainError, match="bounding radius"):
        thickness_montecarlo(body, 2, 100_000, seed=1)


def test_montecarlo_rotated_six_dimensional_shape():
    # the tensor scan at the default resolution would visit 64^5 nodes
    n, m = 6, 3
    shape = StarShape.cosine_series(n, [1.0, 0.2]).rotated(rotation(n, 4))
    body = shape.indicator()
    assert body.bounding_radius >= 1.2
    t_quad = average_thickness(shape, m, build_grid(n, 8))
    t_mc, stderr = thickness_montecarlo(body, m, 200_000, seed=6)
    assert abs(t_mc - t_quad) < 4.0 * stderr


def test_translated_disc_star_representation():
    # disc of radius rho centered at (d, 0), still star shaped about the origin
    rho, d = 1.0, 0.6

    def radial_fn(u):
        # u = (cos phi, sin phi)
        return d * u[:, 0] + np.sqrt(rho**2 - (d * u[:, 1]) ** 2)

    shape = StarShape(2, radial_fn, name="offset-disc")
    grid = build_grid(2, 256)
    assert volume(shape, grid) == pytest.approx(math.pi * rho**2, rel=1e-12)
    g = centroid(shape, grid)
    assert g[0] == pytest.approx(d, rel=1e-12)
    assert abs(g[1]) < 1e-13

    # volume-element consistency: Monte Carlo volume of the same indicator
    body = shape.indicator()
    rng = np.random.default_rng(8)
    pts = rng.uniform(-body.bounding_radius, body.bounding_radius, size=(400_000, 2))
    hits = body.contains(pts)
    box = (2.0 * body.bounding_radius) ** 2
    vol_mc = box * hits.mean()
    stderr = box * hits.std(ddof=1) / math.sqrt(hits.size)
    assert abs(vol_mc - math.pi * rho**2) < 4.0 * stderr


def test_centroid_against_one_dimensional_oracle():
    from scipy.integrate import quad

    shape = StarShape.cosine_series(2, [1.0, 0.3])
    grid = build_grid(2, 256)
    g = centroid(shape, grid)

    f = lambda t: 1.0 + 0.3 * math.cos(t)
    area = quad(lambda t: f(t) ** 2 / 2.0, 0.0, 2.0 * math.pi)[0]
    mom = quad(lambda t: f(t) ** 3 / 3.0 * math.cos(t), 0.0, 2.0 * math.pi)[0]
    assert g[0] == pytest.approx(mom / area, rel=1e-10)
    assert abs(g[1]) < 1e-14


def test_indicator_classifies_points():
    shape = StarShape.cosine_series(3, [1.0, 0.3])
    body = shape.indicator()
    assert body.dimension == 3
    # boundary radius along +x1 is 1.3, along -x1 is 0.7
    inside = np.array([[1.25, 0.0, 0.0], [-0.65, 0.0, 0.0], [0.0, 0.4, 0.2]])
    outside = np.array([[1.35, 0.0, 0.0], [-0.75, 0.0, 0.0], [0.0, 1.2, 0.0]])
    assert body.contains(inside).all()
    assert not body.contains(outside).any()
    assert body.bounding_radius >= 1.3
    # a single (n,) point is classified like a one-row batch
    assert body.contains(inside[0]) and not body.contains(outside[0])
    with pytest.raises(DomainError):
        body.contains(np.zeros(3))
    with pytest.raises(DomainError):
        body.contains(np.ones((2, 4)))


def test_bounding_radius_covers_shape():
    shape = StarShape.cosine_series(3, [1.0, 0.0, 0.2, 0.0, 0.05])
    u, _ = build_grid(3, 96).nodes()
    r = shape.radial(u)
    assert shape.bounding_radius() >= r.max()


def test_zonal_bounding_scan_is_capped_like_a_grid():
    # the zonal scan builds its polar table directly, under the same cap
    ball = StarShape.ball(3)
    assert ball.profile is not None
    with pytest.raises(BudgetError):
        ball.bounding_radius(4097)


def test_axis_section_average_of_ball_is_disc_area():
    ball = StarShape.ball(3, 1.4)
    grid = build_grid(3, 48)
    for axis in (np.array([1.0, 0, 0]), np.array([0, 0, 1.0])):
        val = axis_section_average(ball, axis, grid)
        assert val == pytest.approx(math.pi * 1.4**2, rel=1e-12)


def test_axis_average_recovers_full_thickness():
    # averaging the axis-conditional section area over uniformly distributed
    # axes reproduces the plain 2-section thickness
    shape = StarShape.cosine_series(3, [1.0, 0.25, 0.1])
    grid = build_grid(3, 48)
    axes, w = build_grid(3, 12).nodes()
    acc = sum(
        wi * axis_section_average(shape, axes[i], grid) for i, wi in enumerate(w)
    )
    avg = acc / unit_sphere_area(2)
    t2 = average_thickness(shape, 2, grid)
    assert avg == pytest.approx(t2, rel=1e-8)


def test_axis_section_requires_dimension_three():
    shape = StarShape.ball(4, 1.0)
    grid = build_grid(4, 16)
    with pytest.raises(DomainError):
        axis_section_average(shape, np.array([1.0, 0, 0, 0]), grid)


def test_shape_validation():
    with pytest.raises(DomainError):
        StarShape.ball(1, 1.0)
    with pytest.raises(DomainError):
        StarShape.ball(3, 0.0)
    with pytest.raises(DomainError):
        StarShape.cosine_series(3, [])
    with pytest.raises(DomainError):
        StarShape.cosine_series(3, [1.0], sin_coeffs=[0.1])
    bad = StarShape(3, lambda u: np.full(u.shape[0], -1.0))
    with pytest.raises(DomainError):
        bad.radial(np.array([[0.6, 0.8, 0.0]]))
    # f = 1 + 1.2 cos is negative near theta = pi, i.e. u = -e1
    with pytest.raises(DomainError):
        StarShape.cosine_series(2, [1.0, 1.2]).radial(np.array([[-1.0, 0.0]]))


def test_rotated_requires_orthogonal_matrix():
    shape = StarShape.ball(3, 1.0)
    with pytest.raises(DomainError):
        shape.rotated(np.diag([1.0, 2.0, 1.0]))


def test_thickness_argument_validation():
    shape = StarShape.ball(3, 1.0)
    grid = build_grid(3, 8)
    for bad_m in (0, 3, 1.5, -1, True):
        with pytest.raises(DomainError):
            average_thickness(shape, bad_m, grid)
    # numpy integers are integers
    assert average_thickness(shape, np.int64(2), grid) == average_thickness(shape, 2, grid)
    with pytest.raises(DomainError):
        average_thickness(shape, 1, build_grid(4, 8))
    with pytest.raises(DomainError):
        thickness_montecarlo(shape.indicator(), 1, 0, seed=0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.2, max_value=3.0),
)
def test_ball_thickness_property(n, radius):
    grid = build_grid(n, 16)
    ball = StarShape.ball(n, radius)
    t = average_thickness(ball, 1, grid)
    assert t == pytest.approx(unit_ball_volume(1) * radius, rel=1e-10)


def zonal_cases(n):
    # k = 2 (closed form) and k = n - 1 (Newton from n = 4 on)
    stat = stationary_shape(StationaryParams(n=n, m=n - 2, lam=1.2, ecc=0.7))
    cusp = stationary_shape(StationaryParams(n=n, m=1, lam=0.9, ecc=1.0))
    series = StarShape.cosine_series(n, [1.0, 0.25, -0.1, 0.04])
    return [StarShape.ball(n, 1.3), series, stat, cusp, series.scaled(1.7), stat.scaled(0.6)]


@pytest.mark.parametrize("n,resolution", [(3, 40), (4, 20), (5, 12), (6, 8)])
def test_zonal_rule_matches_forced_tensor_grid(n, resolution):
    grid = build_grid(n, resolution)
    # the first polar axis of a grid at resolution 2R - 2 is zonal_rule(n, R)
    full = build_grid(n, 2 * resolution - 2)
    for shape in zonal_cases(n):
        assert shape.profile is not None
        # a plain shape with the same radial function takes the tensor path
        tensor = StarShape(n, shape.radial)
        assert tensor.profile is None
        for m in range(1, n):
            assert average_thickness(shape, m, grid) == pytest.approx(
                average_thickness(tensor, m, full), rel=1e-13
            )
        v = volume(tensor, full)
        assert volume(shape, grid) == pytest.approx(v, rel=1e-13)
        mom, mom_tensor = moment_vector(shape, grid), moment_vector(tensor, full)
        assert np.abs(mom - mom_tensor).max() <= 1e-13 * v
        assert np.all(mom[1:] == 0.0)
        # the profile scan visits exactly the u_1 values of the full scan at
        # 2R - 2 = 16, which capped_resolution leaves alone up to n = 6
        assert shape.bounding_radius(9) == tensor.bounding_radius(16)


def test_rotated_zonal_shape_takes_tensor_path():
    n = 4
    grid = build_grid(n, 16)
    shape = StarShape.cosine_series(n, [1.0, 0.3, 0.1])
    q = rotation(n, seed=5)
    turned = shape.rotated(q)
    assert turned.profile is None
    assert shape.rotated(np.eye(n)).profile is None
    calls = []
    original = turned.radial
    turned.radial = lambda u: calls.append(u.shape[0]) or original(u)
    assert average_thickness(turned, 2, grid) == pytest.approx(
        average_thickness(shape, 2, grid), rel=1e-10
    )
    assert sum(calls) == grid.node_count
    assert np.abs(q @ centroid(shape, grid) - centroid(turned, grid)).max() < 1e-12


def test_zonal_in_the_plane_is_a_plain_shape():
    disc = StarShape.ball(2, 1.0)
    assert disc.profile is None
    shape = StarShape.zonal(2, lambda t: 1.0 + 0.2 * t)
    assert shape.profile is None
    assert shape.radial(np.array([0.6, 0.8])) == pytest.approx(1.12, rel=1e-15)


def test_zonal_profile_must_be_positive():
    grid = build_grid(3, 16)
    # g(t) = 1 + 1.2 t is negative near t = -1
    shape = StarShape.zonal(3, lambda t: 1.0 + 1.2 * t)
    for fn in (lambda: average_thickness(shape, 1, grid), lambda: volume(shape, grid),
               lambda: moment_vector(shape, grid), lambda: shape.bounding_radius(16),
               lambda: shape.radial(np.array([-1.0, 0.0, 0.0]))):
        with pytest.raises(DomainError):
            fn()
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            volume(StarShape.zonal(3, lambda t, _b=bad: np.full(t.shape, _b)), grid)
    with pytest.raises(DomainError):
        volume(StarShape.zonal(3, lambda t: np.ones(3)), grid)  # wrong length
    # a scaled copy validates the same way
    with pytest.raises(DomainError):
        average_thickness(shape.scaled(2.0), 1, grid)

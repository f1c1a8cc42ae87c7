import dataclasses
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperthick import (
    DumbbellConfig,
    IndicatorBody,
    StarShape,
    average_thickness,
    axis_section_average,
    body_properties,
    build_grid,
    centroid,
    closed_form,
    dumbbell_thickness,
    moment_vector,
    stationary_shape,
    StationaryParams,
    thickness_montecarlo,
    unit_ball_volume,
    unit_sphere_area,
    unit_vectors,
    volume,
)
import hyperthick.thickness as thickness_module
from hyperthick.cli import parse_shape
from hyperthick.errors import BudgetError, DomainError, InsufficientSamplingError
from hyperthick.geometry import zonal_rule
from hyperthick.thickness import MC_CHUNK, MC_LANES, _axial_cosines, child_rng


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


def ball_bound(m, n, v):
    """T_ball(V) = V_m (V / V_n)^(m/n), the thickness of the ball of volume V
    about the origin."""
    return unit_ball_volume(m) * (v / unit_ball_volume(n)) ** (m / n)


def test_thickness_never_exceeds_the_ball_of_equal_volume(tmp_path):
    # T = (m V_m / S_{n-1}) times the integral over the body of |x|^(m-n), a
    # weight that falls with |x|, so among all bodies of volume V the ball
    # about the origin has the largest T (the bathtub principle)
    for n in range(2, 7):
        grid = build_grid(n, 16)
        for ball in (StarShape.ball(n, 1.3), StarShape(n, lambda u: np.full(len(u), 1.3))):
            v = volume(ball, grid)
            for m in range(1, n):
                assert average_thickness(ball, m, grid) == pytest.approx(
                    ball_bound(m, n, v), rel=1e-14
                )
    # the (3, 2) eggs and critical shapes, at the ratios T / T_ball(V) measured
    # when the bound was first checked
    ratios = {(3, 2, 0.5): 0.994, (3, 2, 0.9): 0.974, (3, 2, 1.0): 0.957,
              (3, 1, 1.0): 0.976, (4, 1, 1.0): 0.984, (6, 3, 1.0): 0.971}
    for (n, m, ecc), ratio in ratios.items():
        props = body_properties(StationaryParams(n=n, m=m, lam=1.0, ecc=ecc))
        assert props.thickness / ball_bound(m, n, props.volume) == pytest.approx(ratio, abs=5e-4)
    # series, rotated shapes and a file: table, by quadrature and by Monte Carlo
    shapes = [
        StarShape.cosine_series(3, [1.0, 0.25, -0.1]),
        StarShape.cosine_series(2, [1.0, 0.2], [0.1, -0.05]),
        StarShape.cosine_series(4, [1.0, 0.3, 0.1]).rotated(rotation(4, 2)),
        stationary_shape(StationaryParams(n=4, m=2, lam=1.0, ecc=1.0)).rotated(rotation(4, 3)),
        _file_shape(tmp_path),
    ]
    for i, shape in enumerate(shapes):
        n = shape.dimension
        grid = build_grid(n, 24)
        v = volume(shape, grid)
        body = shape.indicator(24)
        for m in range(1, n):
            bound = ball_bound(m, n, v)
            assert average_thickness(shape, m, grid) < bound
            estimate, stderr = thickness_montecarlo(body, m, 100_000, seed=[i, m])
            assert estimate - 4.0 * stderr <= bound
    # the planar dumbbell approaches its bound 2 sqrt(A / pi) from below
    for gamma in (0.5, 0.1, 0.01, 0.001):
        exact, _ = dumbbell_thickness(DumbbellConfig(2.0, 1.0, gamma), True)
        assert exact < ball_bound(1, 2, 2.0) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi))


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


def test_montecarlo_raises_on_underestimated_bounding_radius(monkeypatch):
    # a spike in g(u_1) narrower than the gap between two scan nodes
    nodes = np.sort(zonal_rule(3, 64)[0])
    t0 = 0.5 * (nodes[39] + nodes[40])
    shape = StarShape.zonal(3, lambda t: 1.0 + 0.5 * np.exp(-(((t - t0) / 0.004) ** 2)))
    spiked = shape.indicator()
    assert spiked.shape.profile is not None
    assert spiked.bounding_radius < 1.1
    # the same check on the direction-vector path: a radius set by hand
    # below the 1.3 that a rotated series reaches
    rotated = StarShape.cosine_series(4, [1.0, 0.3]).rotated(rotation(4, 1))
    low = dataclasses.replace(rotated.indicator(16), bounding_radius=1.0)
    assert low.shape is not None and low.shape.profile is None
    # on one worker and on two, whose threads are all joined before the raise
    for workers in (1, 2):
        monkeypatch.setattr(thickness_module, "_worker_count", lambda: workers)
        for body in (spiked, low):
            before = threading.active_count()
            with pytest.raises(DomainError, match="bounding radius"):
                thickness_montecarlo(body, 2, 100_000, seed=1)
            assert threading.active_count() == before


def _joined(fn, *args):
    """fn(*args) on a thread joined with a timeout, so a hang fails the test."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=120.0)
    assert not thread.is_alive(), "Monte Carlo call did not return"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _shell(a, b):
    def contains(points):
        rr = np.einsum("ij,ij->i", points, points)
        return (a * a <= rr) & (rr <= b * b)

    return contains


def test_montecarlo_does_not_depend_on_the_worker_count(monkeypatch):
    # more workers than cores, and a thread switch after nearly every
    # bytecode, still give the same bytes: lanes own their streams and only
    # integer hit counts are summed
    samples = 2 * MC_LANES * MC_CHUNK + 12_345  # uneven lanes of 2-3 batches
    cases = [
        ("zonal profile", StarShape.cosine_series(4, [1.0, 0.3, -0.15]).indicator(), 2),
        ("direction radial",
         StarShape.cosine_series(4, [1.0, 0.3, 0.1]).rotated(rotation(4, 2)).indicator(16), 3),
        ("contains only", IndicatorBody(3, _shell(0.6, 1.1), 1.1), 1),
        ("n = 2", StarShape.cosine_series(2, [1.0, 0.2], [0.1, -0.05]).indicator(16), 1),
    ]
    assert cases[0][1].shape.profile is not None and cases[1][1].shape.profile is None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for label, body, m in cases:
            seen = set()
            for workers in (1, 2, 4, 8):
                monkeypatch.setattr(thickness_module, "_worker_count", lambda: workers)
                before = threading.active_count()
                est, err = _joined(thickness_montecarlo, body, m, samples, [7, m])
                assert threading.active_count() == before
                seen.add((est.hex(), err.hex()))
            assert len(seen) == 1, (label, seen)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("raiser", ["calling thread", "started thread"])
def test_montecarlo_lane_error_stops_every_lane(monkeypatch, raiser):
    # the first error of any lane reaches the caller unchanged, after the
    # other lanes stopped at their next batch and every thread was joined
    monkeypatch.setattr(thickness_module, "_worker_count", lambda: 2)
    samples = 16 * MC_LANES * MC_CHUNK
    caller = {}
    others = []

    def contains(points):
        mine = threading.current_thread() is caller["thread"]
        if mine == (raiser == "calling thread"):
            raise ValueError("membership test failed")
        others.append(points.shape[0])
        time.sleep(0.002)
        return np.ones(points.shape[0], dtype=bool)

    def call():
        caller["thread"] = threading.current_thread()
        return thickness_montecarlo(IndicatorBody(3, contains, 1.0), 1, samples, seed=4)

    before = threading.active_count()
    with pytest.raises(ValueError, match="^membership test failed$"):
        _joined(call)
    assert threading.active_count() == before
    # run to the end, the lanes would have made 128 batches, 64 per worker
    assert len(others) < 32


def test_montecarlo_small_sample_counts(monkeypatch):
    # lanes with no samples make no draw and every sample is tested once;
    # a body that holds every point gives p = 1 exactly, and a padded ball
    # (p = 0.907, so 7 samples all miss with chance 6e-8) the same bytes on
    # one worker and on eight
    drawn = []

    def counted_rng(seed, index):
        drawn.append(index)
        return child_rng(seed, index)

    monkeypatch.setattr(thickness_module, "child_rng", counted_rng)
    tested = []
    everything = IndicatorBody(3, lambda p: tested.append(len(p)) or np.ones(len(p), bool), 1.0)
    ball = StarShape.ball(3, 1.0).indicator(8)
    for samples in (1, MC_LANES - 1, MC_LANES, MC_LANES + 1, MC_CHUNK + 1):
        results = set()
        for workers in (1, 8):
            monkeypatch.setattr(thickness_module, "_worker_count", lambda: workers)
            drawn.clear()
            tested.clear()
            assert thickness_montecarlo(everything, 2, samples, seed=3) == (math.pi, 0.0)
            assert sorted(drawn) == list(range(min(samples, MC_LANES)))
            assert sum(tested) == samples
            if samples > 1:
                results.add(thickness_montecarlo(ball, 2, samples, seed=3))
        if samples > 1:
            (est, err), = results
            assert math.isfinite(est) and math.isfinite(err)


def test_montecarlo_starts_threads_only_for_a_batch_per_worker(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    body = StarShape.ball(3, 1.0).indicator(8)
    # one worker, however many samples; eight CPUs, but one batch in all
    for workers, samples, threads in ((1, 4 * MC_CHUNK, 0), (8, MC_CHUNK, 0),
                                      (8, MC_CHUNK + 1, 1), (8, 3 * MC_CHUNK, 2)):
        monkeypatch.setattr(thickness_module, "_worker_count", lambda: workers)
        started.clear()
        thickness_montecarlo(body, 2, samples, seed=0)
        assert len(started) == threads, (workers, samples)
        assert not any(thread.is_alive() for thread in started)


def test_child_streams_are_disjoint_across_seeds():
    # numpy pads seed words with zeros, so default_rng([5, 1]) is
    # default_rng([5, 1, 0]): appending the child index to the seed made
    # child 1 of seed 5 child 0 of seed (5, 1). Spawn keys do not.
    assert np.array_equal(np.random.default_rng([5, 1]).random(4),
                          np.random.default_rng([5, 1, 0]).random(4))
    # (5, 0) is seed 5 itself, to numpy as to every stream drawn from it
    heads = {}
    for seed in [(5,)] + [(5, i) for i in range(1, MC_LANES)]:
        for lane in range(MC_LANES):
            heads[seed, lane] = child_rng(seed, lane).random(4).tobytes()
    assert len(set(heads.values())) == len(heads)
    # child i is the i-th spawned child, so any one reproduces alone
    spawned = np.random.SeedSequence((5,)).spawn(MC_LANES)
    for lane in range(MC_LANES):
        assert np.random.default_rng(spawned[lane]).random(4).tobytes() == heads[(5,), lane]


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
    series = StarShape.cosine_series(n, [1.0, 0.25, -0.1, 0.04])
    return [StarShape.ball(n, 1.3), series, stat, series.scaled(1.7), stat.scaled(0.6)]


@pytest.mark.parametrize("n,resolution", [(3, 40), (4, 20), (5, 12), (6, 8)])
def test_zonal_rule_matches_forced_tensor_grid(n, resolution):
    grid = build_grid(n, resolution)
    # a tensor grid fine enough that its own error on these smooth shapes is
    # below 1e-13 (at 2R - 2 the n = 5 and 6 eggs are off by 8.7e-12 and 2.2e-8)
    full = build_grid(n, {3: 78, 4: 38, 5: 32, 6: 30}[n])
    fine_t = np.linspace(-1.0, 1.0, 20001)
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
        # the padded profile scan covers the profile between its nodes
        assert shape.bounding_radius(9) >= shape.profile(fine_t).max()
    # the critical cusp, where the tensor rule in u_1 converges only
    # algebraically: the zonal rule in theta meets the closed form, or
    # body_properties at its own node count where there is none
    params = StationaryParams(n=n, m=1, lam=0.9, ecc=1.0)
    cusp = stationary_shape(params)
    exact = closed_form(params) or body_properties(params)
    assert (closed_form(params) is not None) == (n in (3, 5))
    assert average_thickness(cusp, 1, grid) == pytest.approx(exact.thickness, rel=1e-13)
    assert volume(cusp, grid) == pytest.approx(exact.volume, rel=1e-13)
    assert moment_vector(cusp, grid)[0] == pytest.approx(exact.moment, rel=1e-13)


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

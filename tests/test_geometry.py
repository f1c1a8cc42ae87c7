import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperthick import (
    build_grid,
    cartesian_to_spherical,
    frame_from_pole,
    sphere_optimality_test,
    unit_ball_volume,
    unit_sphere_area,
    unit_vectors,
)
from hyperthick import geometry
from hyperthick.errors import BudgetError, ConvergenceError, DomainError
from hyperthick.geometry import legendre_angles, polar_rule, zonal_rule


def random_angles(rng, count, n):
    ang = np.empty((count, n - 1))
    ang[:, : n - 2] = rng.uniform(0.05, math.pi - 0.05, size=(count, n - 2))
    ang[:, -1] = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return ang


def test_unit_vectors_two_dimensional():
    u = unit_vectors(np.array([[0.0], [math.pi / 2.0], [math.pi]]))
    assert np.allclose(u, [[1, 0], [0, 1], [-1, 0]], atol=1e-15)


def test_unit_vectors_three_dimensional():
    # polar angle from +x1, azimuth in the (x2, x3) plane
    u = unit_vectors(np.array([[math.pi / 2.0, 0.0]]))
    assert np.allclose(u, [[0, 1, 0]], atol=1e-15)
    u = unit_vectors(np.array([[math.pi / 2.0, math.pi / 2.0]]))
    assert np.allclose(u, [[0, 0, 1]], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_round_trip_spherical_cartesian(n):
    rng = np.random.default_rng(7 * n)
    ang = random_angles(rng, 64, n)
    r = rng.uniform(0.3, 4.0, size=64)
    x = r[:, None] * unit_vectors(ang)
    r2, ang2 = cartesian_to_spherical(x)
    assert np.abs(r2 - r).max() < 1e-13 * r.max()
    assert np.abs(ang2 - ang).max() < 1e-12


def test_unit_vector_norms():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        u = unit_vectors(random_angles(rng, 40, n))
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-14


def test_origin_has_no_angles():
    with pytest.raises(DomainError):
        cartesian_to_spherical(np.zeros((1, 3)))


def test_frame_from_pole_is_orthogonal():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6):
        axis = rng.standard_normal(n)
        axis /= np.linalg.norm(axis)
        q = frame_from_pole(axis)
        assert np.abs(q @ q.T - np.eye(n)).max() < 1e-13
        assert np.abs(q @ np.eye(n)[0] - axis).max() < 1e-13


@pytest.mark.parametrize("n,res", [(2, 8), (3, 8), (4, 6), (5, 6), (6, 4)])
def test_grid_weights_sum_to_sphere_area(n, res):
    grid = build_grid(n, res)
    assert grid.total_weight() == pytest.approx(unit_sphere_area(n - 1), rel=1e-13)


def test_low_order_moment_integrated_exactly():
    # int over S^{n-1} of (u . e)^2 equals S_{n-1}/n; a coarse rule is already
    # exact because the integrand is polynomial in the direction cosines
    for n in (3, 4, 5):
        grid = build_grid(n, 4)
        u, w = grid.nodes()
        for j in range(n):
            val = float(np.dot(w, u[:, j] ** 2))
            assert val == pytest.approx(unit_sphere_area(n - 1) / n, rel=1e-12)


def monomial_integral(alpha):
    """Integral of u^alpha over the unit sphere (Folland, Amer. Math. Monthly
    108, 2001): 2 prod Gamma(b_i) / Gamma(sum b_i) with b_i = (alpha_i + 1)/2,
    and 0 when some alpha_i is odd."""
    if any(a % 2 for a in alpha):
        return 0.0
    beta = [(a + 1) / 2.0 for a in alpha]
    return 2.0 * math.prod(math.gamma(b) for b in beta) / math.gamma(sum(beta))


@pytest.mark.parametrize("n,res", [(2, 7), (3, 8), (3, 9), (4, 8), (5, 6), (6, 5), (6, 6)])
def test_grid_is_exact_to_degree_resolution_minus_one(n, res):
    u, w = build_grid(n, res).nodes()
    worst = {}
    for degree in range(res + 1):
        for idx in itertools.combinations_with_replacement(range(n), degree):
            alpha = np.bincount(np.array(idx, dtype=int), minlength=n)
            value = float(np.dot(np.prod(u[:, idx], axis=1), w))
            err = abs(value - monomial_integral(alpha))
            worst[degree] = max(worst.get(degree, 0.0), err)
    # every monomial of degree <= res - 1 is integrated exactly ...
    assert max(worst[d] for d in range(res)) <= 1e-13
    # ... and some monomial of degree res is not
    assert worst[res] > 1e-3


def reference_nodes(grid):
    """Unit vectors from the angle chart and weights as an outer product of
    the axis weights, both in C order: a reference built apart from iter_blocks."""
    u = unit_vectors(grid.angles())
    w = reduce(np.multiply.outer, [weights for _, weights in grid.axes], 1.0).reshape(-1)
    return u, w


def test_blocks_cover_grid_exactly(monkeypatch):
    grid = build_grid(4, 18)  # 10 x 10 x 18 nodes
    u, w = reference_nodes(grid)
    assert u.shape == (1800, 4) and w.shape == (1800,)
    monkeypatch.setattr(geometry, "DEFAULT_BLOCK", 97)
    got_u, got_w = [], []
    for block_u, block_w in grid.iter_blocks():
        # 18 * 10 > 97: each block is the azimuth alone, kept whole
        assert block_u.shape[0] == block_w.shape[0] == 18
        got_u.append(block_u.copy())
        got_w.append(block_w.copy())
    # blocks scale precomputed sub-chart vectors, so the last bit may differ
    assert np.abs(np.concatenate(got_u) - u).max() <= 1e-15
    assert np.allclose(np.concatenate(got_w), w, rtol=0, atol=0)


def test_block_sums_match_materialized_dot(monkeypatch):
    grid = build_grid(3, 24)
    f = lambda u: 1.0 + 0.4 * u[:, 0] ** 2
    monkeypatch.setattr(geometry, "DEFAULT_BLOCK", 100)
    total = sum(float(np.dot(f(u), w)) for u, w in grid.iter_blocks())
    u, w = reference_nodes(grid)
    assert total == pytest.approx(float(np.dot(f(u), w)), rel=1e-14)


@pytest.mark.parametrize("n,res", [(3, 24), (4, 10), (5, 8), (6, 6)])
def test_nodes_match_the_reference(n, res):
    grid = build_grid(n, res)
    u, w = grid.nodes()
    ref_u, ref_w = reference_nodes(grid)
    # one block runs the same products in the same order as the reference
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
    # res // 2 + 1 nodes on each polar axis, res on the azimuth
    size = (res // 2 + 1) ** (n - 2) * res
    assert grid.node_count == size and u.shape == (size, n) and w.shape == (size,)


@pytest.mark.parametrize("n,res,block", [(3, 24, 24), (4, 10, 10), (4, 10, 100), (5, 8, 64), (6, 6, 97)])
def test_nodes_and_sphere_optimality_do_not_depend_on_block_size(monkeypatch, n, res, block):
    m = n // 2
    grid = build_grid(n, res)
    u, w = grid.nodes()
    delta = [d for _, d in sphere_optimality_test(n, m, 2, 0.05, 3, res)]
    monkeypatch.setattr(geometry, "DEFAULT_BLOCK", block)
    assert len(list(grid.iter_blocks())) > 1
    many_u, many_w = grid.nodes()
    many_delta = [d for _, d in sphere_optimality_test(n, m, 2, 0.05, 3, res)]
    if block == res and n <= 4:
        # blocks of the azimuth alone walk the leading axes in the same order
        # as one block does, so every product is the same
        assert np.array_equal(many_u, u) and np.array_equal(many_w, w)
        assert many_delta == delta
    else:
        # a longer tail groups the sine and weight products differently,
        # which moves the last bit at most
        assert np.abs(many_u - u).max() <= 2.3e-16
        assert np.abs(many_w / w - 1.0).max() <= 8.9e-16
        assert np.abs(np.subtract(many_delta, delta)).max() <= 1e-14 * unit_ball_volume(m)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zonal_rule_folds_the_tensor_grid(n):
    # the first polar axis of a grid at resolution 2R - 2 has R nodes
    grid = build_grid(n, 34)
    t, w = zonal_rule(n, 18)
    assert t.shape == w.shape == (18,)
    # the nodes are exactly the u_1 values the blocks carry
    u1 = np.unique(np.concatenate([u[:, 0].copy() for u, _ in grid.iter_blocks()]))
    assert np.array_equal(np.sort(t), u1)
    assert w.sum() == pytest.approx(unit_sphere_area(n - 1), rel=1e-14)
    f = lambda x: np.exp(0.3 * x) + x**3
    tensor = sum(float(np.dot(f(u[:, 0]), wb)) for u, wb in grid.iter_blocks())
    assert float(np.dot(f(t), w)) == pytest.approx(tensor, rel=1e-14)


def test_polar_rule_is_the_grid_axis():
    # resolution 2R - 2 puts R nodes on each polar axis
    grid = build_grid(5, 12)
    for i, (nodes, weights) in enumerate(grid.axes[:-1], start=1):
        ref_nodes, ref_weights = polar_rule(7, 5 - 1 - i)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    assert grid.axes[-1][0].size == 12


def test_legendre_angles_are_cached_and_read_only():
    nodes, weights = legendre_angles(12)
    assert legendre_angles(12)[0] is nodes
    assert 0.0 < nodes.min() and nodes.max() < math.pi
    assert weights.sum() == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0


def test_polar_rule_is_cached_and_read_only():
    nodes, weights = polar_rule(9, 3)
    again = polar_rule(9, 3)
    assert again[0] is nodes and again[1] is weights
    assert 0.0 < nodes[0] and np.all(np.diff(nodes) > 0.0) and nodes[-1] < math.pi
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0


def test_budget_limits():
    grid = build_grid(8, 48)  # per-axis tables only; the tensor product is 25^6 * 48
    with pytest.raises(BudgetError):
        next(grid.iter_blocks())
    # per-axis guard, raised before any table is built: polar nodes at most
    # sqrt(DEFAULT_NODE_BUDGET) = 16384, azimuth nodes at most the budget
    with pytest.raises(BudgetError):
        build_grid(7, 6552)  # 5 polar axes of 3277 nodes: 16385
    with pytest.raises(BudgetError):
        build_grid(2, geometry.DEFAULT_NODE_BUDGET + 1)
    # each polar table is a dense Jacobi eigenproblem, capped at 2^24 entries
    # wherever it is built; the plane has no polar table
    with pytest.raises(BudgetError):
        polar_rule(4097, 1)
    with pytest.raises(BudgetError):
        build_grid(3, 8192)  # 4097 polar nodes
    build_grid(2, 8192)
    # so is the Legendre rule, whose leggauss builds a dense companion matrix
    with pytest.raises(BudgetError):
        legendre_angles(4097)
    # materialized arrays hold at most MATERIALIZE_LIMIT = 2^24 nodes
    grid = build_grid(4, 406)  # 204^2 * 406 = 16896096 nodes
    with pytest.raises(BudgetError):
        grid.nodes()
    with pytest.raises(BudgetError):
        grid.angles()


def test_grid_self_check_raises_on_bad_weights(monkeypatch):
    # the weight-sum check must survive python -O, so it cannot be an assert
    real = geometry._gauss_jacobi

    def skewed(count, power):
        t, w = real(count, power)
        return t, 1.01 * w

    # polar_rule caches its tables: clear the cache so the skewed rule is the
    # one that runs, and again so no skewed table outlives the test
    geometry._polar_table.cache_clear()
    monkeypatch.setattr(geometry, "_gauss_jacobi", skewed)
    try:
        with pytest.raises(ConvergenceError):
            build_grid(3, 8)
    finally:
        geometry._polar_table.cache_clear()


POWERS = range(1, 12)  # the polar densities of the grids for n <= 12


@pytest.mark.parametrize("count", [1, 2, 5, 16, 64, 256, 1024])
def test_gauss_jacobi_nodes_and_even_moments(count):
    # nodes against scipy's rule (a test-only reference); the even moments
    # int t^(2j) (1 - t^2)^a dt = B(j + 1/2, a + 1) against the beta function
    from scipy.special import beta, roots_jacobi

    from hyperthick.geometry import _gauss_jacobi

    for power in POWERS:
        a = (power - 1) / 2.0
        t, w = _gauss_jacobi(count, power)
        assert np.abs(t - roots_jacobi(count, a, a)[0]).max() <= 4.4e-16
        for j in range(min(2 * count - 1, 60) // 2 + 1):
            exact = beta(j + 0.5, a + 1.0)
            assert abs(float(np.dot(w, t ** (2 * j))) / exact - 1.0) <= 1e-12, (power, j)


def test_grid_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_grid(1, 8)
    with pytest.raises(DomainError):
        build_grid(3, 0)


def test_aligned_section_kernel_mass():
    # the chart-average construction relies on int dOmega / sqrt(1-(u.e)^2)
    # over S^2 equaling 2 pi^2; cross-check by plain Gauss-Legendre on the
    # singular 1-D reduction (slowly convergent, hence the loose tolerance)
    from scipy.special import roots_legendre

    t, w = roots_legendre(8192)
    one_d = float(np.dot(w, 1.0 / np.sqrt(1.0 - t * t)))
    assert 2.0 * math.pi * one_d == pytest.approx(2.0 * math.pi**2, rel=2e-4)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.1, max_value=3.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(n, r, key):
    rng = np.random.default_rng(key)
    ang = random_angles(rng, 1, n)
    x = r * unit_vectors(ang)
    r2, ang2 = cartesian_to_spherical(x)
    assert abs(r2[0] - r) < 1e-12 * max(1.0, r)
    assert np.abs(ang2 - ang).max() < 1e-11

"""Every scalar argument follows one rule (errors.check_int, check_real, check_seed).

Integer arguments take Python or numpy integers and reject bool, floats,
nan, inf and values out of range. Real arguments take any finite real
(numpy integers and floats included) and reject bool, nan, inf, ints beyond
the float range and values out of range. A seed is a non-negative integer
or a non-empty list or tuple of them. Each row names one argument and calls
the public function with only that argument varied.
"""

import math

import numpy as np
import pytest

from hyperthick import (
    DeformationSample,
    DumbbellConfig,
    IndicatorBody,
    StarShape,
    StationaryParams,
    average_thickness,
    body_properties,
    build_grid,
    classify,
    critical_support,
    dumbbell_thickness,
    ecc_from_mu,
    factorization_residual,
    mu_from_ecc,
    profile_curve,
    sphere_optimality_test,
    stationarity_residual,
    thickness_montecarlo,
    unit_ball_volume,
    unit_sphere_area,
)
from hyperthick.errors import DomainError
from hyperthick.geometry import polar_rule
from hyperthick.nsphere import gamma

EGG = StationaryParams(n=3, m=1, lam=1.0, ecc=0.5)
AXIS = np.array([1.0, 0.0, 0.0])


def _disc(points):
    return np.einsum("...i,...i->...", points, points) <= 1.0


# name -> (call with the argument, a valid value, an out-of-range value)
INTEGER_ARGS = {
    "sphere_optimality_test n": (lambda v: sphere_optimality_test(v, 1, 1, 0.01, 0, 8), 2, 1),
    "sphere_optimality_test trials": (
        lambda v: sphere_optimality_test(2, 1, v, 0.01, 0, 8), 1, 0),
    "polar_rule count": (lambda v: polar_rule(v, 2), 3, 0),
    "polar_rule power": (lambda v: polar_rule(3, v), 2, 0),
    "build_grid n": (lambda v: build_grid(v, 4).axes, 3, 1),
    "build_grid resolution": (lambda v: build_grid(3, v).axes, 4, 0),
    "unit_ball_volume n": (unit_ball_volume, 3, -1),
    "unit_sphere_area k": (unit_sphere_area, 2, -1),
    "body_properties resolution": (lambda v: body_properties(EGG, v), 8, 1),
    "mu_from_ecc k": (lambda v: mu_from_ecc(v, 1.0, 0.5), 2, 0),
    "ecc_from_mu k": (lambda v: ecc_from_mu(v, 1.0, -0.5), 2, 0),
    "critical_support k": (lambda v: critical_support(v, 1.0), 3, 0),
    "factorization_residual k": (lambda v: factorization_residual(v, [0.5, 1.5]), 3, 0),
    "StationaryParams n": (lambda v: StationaryParams(n=v, m=1, lam=1.0, ecc=0.5), 3, 1),
    "StationaryParams m": (lambda v: StationaryParams(n=3, m=v, lam=1.0, ecc=0.5), 2, 3),
    "profile_curve count": (lambda v: vars(profile_curve(EGG, v)), 5, 1),
    "average_thickness m": (
        lambda v: average_thickness(StarShape.ball(3), v, build_grid(3, 4)), 2, 3),
    "StarShape dimension": (lambda v: StarShape.ball(v).bounding_radius(4), 3, 1),
    "thickness_montecarlo samples": (
        lambda v: thickness_montecarlo(IndicatorBody(2, _disc, 1.5), 1, v, 0), 10, 0),
    "thickness_montecarlo seed": (
        lambda v: thickness_montecarlo(IndicatorBody(2, _disc, 1.5), 1, 10, v), 3, -1),
    "sphere_optimality_test seed": (lambda v: sphere_optimality_test(2, 1, 1, 0.01, v, 8), 3, -1),
    "DeformationSample n": (
        lambda v: DeformationSample(v, 1, np.ones(5), np.ones((5, 2))).matrix(), 3, 1),
}

REAL_ARGS = {
    "DumbbellConfig area": (
        lambda v: dumbbell_thickness(DumbbellConfig(v, 5.0, 0.5), True), 2, 0),
    "DumbbellConfig centroid": (
        lambda v: dumbbell_thickness(DumbbellConfig(2.0, v, 0.5), True), 5, 0),
    "classify ecc": (classify, 1, -0.5),
    "mu_from_ecc ecc": (lambda v: mu_from_ecc(2, 1.0, v), 1, -1),
    "mu_from_ecc lambda": (lambda v: mu_from_ecc(2, v, 0.5), 2, 0),
    "ecc_from_mu lambda": (lambda v: ecc_from_mu(2, v, -0.5), 2, 0),
    "ecc_from_mu mu": (lambda v: ecc_from_mu(2, 1.0, v), -1, None),  # either sign is valid
    "critical_support lambda": (lambda v: critical_support(3, v), 2, 0),
    "StationaryParams lambda": (lambda v: StationaryParams(n=3, m=1, lam=v, ecc=0.5), 2, 0),
    "StationaryParams ecc": (lambda v: StationaryParams(n=3, m=1, lam=1.0, ecc=v), 1, -1),
    "ball radius": (lambda v: StarShape.ball(3, v).bounding_radius(4), 2, 0),
    "scaled factor": (lambda v: StarShape.ball(3).scaled(v).bounding_radius(4), 2, -1),
    "IndicatorBody bounding_radius": (
        lambda v: IndicatorBody(2, _disc, v).bounding_radius, 2, 0),
    "gamma x": (gamma, 3, 0),
    "stationarity_residual lambda": (
        lambda v: stationarity_residual(StarShape.ball(3), 1, v, 0.0, AXIS, build_grid(3, 4)),
        2, 0),
    "stationarity_residual mu": (
        lambda v: stationarity_residual(StarShape.ball(3), 1, 1.0, v, AXIS, build_grid(3, 4)),
        -1, None),
}

# reals whose upper bound lies below 1.5, the fraction the REAL_ARGS rows take
BOUNDED_REAL_ARGS = {
    "sphere_optimality_test amplitude": (
        lambda v: sphere_optimality_test(2, 1, 1, v, 0, 8), 0, 0.2),
}


NOT_A_NUMBER = [
    ("True", True), ("False", False), ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
    ("str", "1"),
]


def _cases(table, integer):
    for name, (call, good, out_of_range) in table.items():
        rejected = NOT_A_NUMBER + [("out-of-range", out_of_range)]
        if integer:  # a float never passes, not even a whole one
            rejected += [("1.5", 1.5), ("float", float(good))]
        else:  # an int too large to convert to float is not finite
            rejected += [("10**400", 10**400)]
        for label, value in rejected:
            if value is not None:
                yield pytest.param(call, value, id=f"{name}-{label}")


@pytest.mark.parametrize("call, value", [
    *_cases(INTEGER_ARGS, True), *_cases(REAL_ARGS, False), *_cases(BOUNDED_REAL_ARGS, False),
])
def test_argument_is_rejected(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("name", [*INTEGER_ARGS, *REAL_ARGS, *BOUNDED_REAL_ARGS])
def test_numpy_integer_gives_the_python_value(name):
    call, good, _ = {**INTEGER_ARGS, **REAL_ARGS, **BOUNDED_REAL_ARGS}[name]
    np.testing.assert_equal(call(np.int64(good)), call(good))


@pytest.mark.parametrize("name", REAL_ARGS)
def test_real_argument_takes_a_fraction(name):
    call, _, _ = REAL_ARGS[name]
    call(1.5)
    call(np.float64(1.5))


@pytest.mark.parametrize("name", ["thickness_montecarlo seed", "sphere_optimality_test seed"])
def test_seed_is_an_integer_or_a_sequence_of_them(name):
    call = INTEGER_ARGS[name][0]
    np.testing.assert_equal(call([3, np.int64(4)]), call((3, 4)))
    np.testing.assert_equal(call([3]), call(3))
    for bad in ([], (), [3, True], [3, -1], [3, 1.5], [[3]], "3"):
        with pytest.raises(DomainError):
            call(bad)


def test_dumbbell_gamma_follows_the_real_rule():
    # gamma has no integer inside (0, 1), so it has no INTEGER_ARGS-style row
    make = lambda v: dumbbell_thickness(DumbbellConfig(2.0, 5.0, v), True)
    np.testing.assert_equal(make(np.float64(0.25)), make(0.25))
    for bad in ("0.3", None, [0.3], True, math.nan, math.inf, 10**400, 0, 0.0, -0.1, 1, 1.0):
        with pytest.raises(DomainError):
            make(bad)


def test_polar_rule_checks_its_arguments_before_the_cache():
    # an unhashable or a float count must meet check_int, not the cache
    for bad in ([4], (4,), 4.0, np.array([4])):
        with pytest.raises(DomainError):
            polar_rule(bad, 2)
        with pytest.raises(DomainError):
            polar_rule(3, bad)
    assert polar_rule(np.int64(4), 2) is polar_rule(4, 2)
